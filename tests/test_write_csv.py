"""`cli.write_csv` writes the bytes of one ``%.17g`` format per row (`references.csv_text`).

Each example writes a float array whose columns either repeat a few values
or hold distinct bit patterns, over row counts that leave a block empty,
partial, full or split, and compares the file with the reference text.
The values include both zeros, NaNs with either sign and other payload bits,
both infinities, the smallest subnormal, 1e308 and integral floats.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kdcollide import cli
from references import csv_text

_BLOCK = cli._CSV_BLOCK_ROWS
_NANS = np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001, 0x7FF4000000000000],
    dtype=np.uint64,
).view(float)
_SPECIAL = np.concatenate(
    [[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, 1.0, -7.0, 3.0, 2.0**53, 0.1, 1.0 / 3.0], _NANS]
)


def _column(rng: np.random.Generator, kind: str, rows: int) -> np.ndarray:
    if kind == "distinct":
        # Random bit patterns: every class of double, all distinct.
        bits = np.unique(rng.integers(0, 2**64, size=2 * rows + 1, dtype=np.uint64, endpoint=False))
        return rng.permutation(bits)[:rows].view(float)
    if kind == "integral":
        return rng.integers(-3, 4, size=rows).astype(float)
    if kind == "signed":
        # Equal values with other bits: both zeros, and NaNs.
        return np.concatenate([[0.0, -0.0], _NANS])[rng.integers(2 + len(_NANS), size=rows)]
    pool = np.concatenate([rng.choice(_SPECIAL, size=rng.integers(1, 6)), rng.standard_normal(rng.integers(0, 4))])
    return pool[rng.integers(len(pool), size=rows)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.sampled_from([0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7]) | st.integers(0, 64),
    kinds=st.lists(st.sampled_from(["distinct", "integral", "signed", "repeats"]), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_is_one_format_per_row(tmp_path, rows, kinds, seed):
    rng = np.random.default_rng(seed)
    table = np.column_stack([_column(rng, kind, rows) for kind in kinds]).reshape(rows, len(kinds))
    header = [f"c{k}" for k in range(len(kinds))]
    path = tmp_path / "table.csv"
    cli.write_csv(cli.ResultTable(header, table), path)
    assert path.read_bytes() == csv_text(header, table).encode("utf-8")


def test_sidecar_is_encoded_to_its_file(tmp_path):
    # The sidecar's JSON goes to its file as it is encoded, not through one
    # string of the whole text (20.9 MiB for this sweep list), with the bytes
    # of that string.
    meta = {"sweep": {"phi_c": np.linspace(0.0, 1.0, 200_000).tolist()}}
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        cli.write_csv(cli.ResultTable(["x"], np.zeros((1, 1)), meta), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    full = {**meta, "columns": ["x"], "rows": 1, "tool": "kdcollide", "version": cli.__version__}
    assert (tmp_path / "table.csv.meta.json").read_text() == json.dumps(full, indent=2, sort_keys=True) + "\n"


def test_failed_write_removes_only_the_files_it_opened(tmp_path):
    # A header that is not text fails after the CSV is opened: the CSV goes.
    # A directory where the CSV goes fails the open: the directory stays.
    path = tmp_path / "table.csv"
    with pytest.raises(TypeError):
        cli.write_csv(cli.ResultTable([1], np.zeros((1, 1))), path)
    assert list(tmp_path.iterdir()) == []
    path.mkdir()
    with pytest.raises(IsADirectoryError):
        cli.write_csv(cli.ResultTable(["x"], np.zeros((1, 1))), path)
    assert list(tmp_path.iterdir()) == [path] and path.is_dir()
