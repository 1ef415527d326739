"""`cli.write_csv` writes the bytes of one ``%.17g`` format per row (`references.csv_text`).

Each example writes a float array whose columns either repeat a few values
or hold distinct bit patterns, over row counts that leave a block empty,
partial, full or split, and compares the file with the reference text.  A
block is as many whole rows as fit in ``_g17._CELLS`` cells, or one row.
The values include both zeros, NaNs with either sign and other payload bits,
both infinities, the smallest subnormal, 1e308 and integral floats.

The formatter behind it, `_g17.block`, is compared with ``"%.17g" % v`` cell
by cell on every power of ten with its neighbours, on subnormals, on exact
ties in the first, a middle and the last column and on raw 64-bit patterns,
also written in blocks of a few cells; its tables are checked against exact
`Fraction` arithmetic.
"""

import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kdcollide import _g17, cli
from references import csv_text

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
    kinds=st.lists(st.sampled_from(["distinct", "integral", "signed", "repeats"]), min_size=1, max_size=6),
    blocks=st.integers(0, 2),
    extra=st.sampled_from([-1, 0, 1, 7]) | st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_is_one_format_per_row(tmp_path, kinds, blocks, extra, seed):
    # Whole blocks of rows of this width, and one row short of them, or a few rows past.
    rows = max(0, blocks * (_g17._CELLS // len(kinds)) + extra)
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


def test_sidecar_encodes_an_array_as_its_list(tmp_path):
    # A custom run's sweep values stay one read-only array in ``meta``: the
    # sidecar holds the bytes of its list, encoded a chunk of Python floats
    # at a time, not all 200 000 of them (4.6 MiB) at once.
    values = np.linspace(0.0, 1.0, 200_000)
    values.flags.writeable = False
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        cli.write_csv(cli.ResultTable(["x"], np.zeros((1, 1)), {"sweep": {"phi_c": values, "empty": values[:0]}}), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    full = {"sweep": {"phi_c": values.tolist(), "empty": []}, "columns": ["x"], "rows": 1, "tool": "kdcollide"}
    full["version"] = cli.__version__
    assert (tmp_path / "table.csv.meta.json").read_text() == json.dumps(full, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError):
        cli.write_csv(cli.ResultTable(["x"], np.zeros((1, 1)), {"sweep": {1j}}), path)
    assert list(tmp_path.iterdir()) == []


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


def _assert_g17(values):
    """`_g17.block` of ``values`` as one column gives ``"%.17g" % v``, cell by cell."""
    values = np.asarray(values, dtype=float)
    assert _g17.block(values[:, None]).decode().splitlines() == ["%.17g" % v for v in values.tolist()]


def _joined(table: np.ndarray) -> str:
    """The CSV text of ``table`` with each cell ``"%.17g" % v`` on its own, joined by ``,`` per row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
    _assert_g17(np.concatenate([powers, np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf), -powers]))


def test_subnormals():
    least, largest = 5e-324, np.nextafter(2.2250738585072014e-308, 0.0)
    rng = np.random.default_rng(7)
    bits = rng.integers(1, 2**52, size=2000, dtype=np.uint64)
    values = np.concatenate([[least, 2 * least, 3 * least, largest, 2.2250738585072014e-308], bits.view(float)])
    _assert_g17(np.concatenate([values, -values]))


def _ties() -> np.ndarray:
    """Values in [1e13, 1e16) with a binary fraction whose 18th significant digit is an exact 5."""
    rng = np.random.default_rng(11)
    # (least, greatest) of the integer part, and the fraction's power of two: 1/16 at 14 integer digits,
    # 1/8 at 15 and 1/4 at 16, the last only below 2^51, where a quarter is still a double.
    groups = [(10**13, 10**14, 16), (10**14, 10**15, 8), (2**50, 2**51, 4)]
    return np.concatenate(
        [rng.integers(low, high, 300) + (2 * rng.integers(0, parts // 2, 300) + 1) / parts for low, high, parts in groups]
    )


def test_exact_ties_take_the_exact_text():
    # dtoa rounds a tie half to even; the formatter hands such a cell to "%.17g".
    ties = _ties()
    for v in ties.tolist():
        assert (Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))).denominator == 2, v
    with mock.patch.object(_g17, "_exact", wraps=_g17._exact) as exact:
        _assert_g17(np.concatenate([ties, -ties]))
    assert exact.call_count >= 2 * len(ties)


def test_exact_ties_in_any_column_end_in_their_separator():
    # A tie's text comes from "%.17g" with the separator of its own column: "," before the last, "\n" in it.
    ties = _ties()
    first, middle, last = ties[0::3], -ties[1::3], ties[2::3]
    table = np.column_stack([first, np.full(len(first), 0.5), middle, last])
    with mock.patch.object(_g17, "_exact", wraps=_g17._exact) as exact:
        assert _g17.block(table).decode() == _joined(table)
    separators = {value: chr(separator) for (value, separator), _ in exact.call_args_list}
    assert {separators[v] for v in first.tolist() + middle.tolist()} == {","}
    assert {separators[v] for v in last.tolist()} == {"\n"}


@pytest.mark.parametrize("shape", [(1000, 7), (3, _g17._CELLS + 1)])
def test_blocks_of_whole_rows(tmp_path, shape):
    # 7 cells a row: a block of `_CELLS` cells would end mid-row, so it holds the whole rows that fit.
    # A row of more than `_CELLS` cells is a block of its own.
    rows, columns = shape
    rng = np.random.default_rng(5)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    header = [f"c{k}" for k in range(columns)]
    with mock.patch.object(_g17, "block", wraps=_g17.block) as block:
        cli.write_csv(cli.ResultTable(header, table), tmp_path / "table.csv")
    assert (tmp_path / "table.csv").read_text() == ",".join(header) + "\n" + _joined(table)
    sizes = [len(call.args[0]) for call in block.call_args_list]
    step = max(1, _g17._CELLS // columns)
    assert len(sizes) > 1 and sum(sizes) == rows and sizes[:-1] == [step] * (len(sizes) - 1) and sizes[-1] <= step


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(1, 7))
def test_raw_bit_patterns(patterns, columns):
    # As one block, and in blocks of at most five cells: one to five rows, or one row of six or seven.
    values = np.array(patterns, dtype=np.uint64).view(float)
    values = np.concatenate([values, np.zeros(-len(values) % columns)]).reshape(-1, columns)
    assert _g17.block(values).decode() == _joined(values)
    with mock.patch.object(_g17, "_CELLS", 5):
        assert b"".join(_g17.blocks(values)).decode() == _joined(values)


def test_tables_match_exact_arithmetic():
    powers, _, ceilings, decades, _, quads = _g17._tables()
    assert [int(word).to_bytes(4, "little").decode() for word in quads] == [f"{n:04}" for n in range(10**4)]
    for row, k in enumerate(range(_g17._K, 309)):
        scale, hi, hi_high, hi_low, lo = powers[:, row].tolist()
        # 10^(16-k) = scale (hi + lo): hi rounded correctly, lo the rest rounded correctly.
        exact = Fraction(10) ** (16 - k) / Fraction(scale)
        assert hi == float(exact) and lo == float(exact - Fraction(hi)), k
        assert hi_high + hi_low == hi and math.frexp(scale)[0] == 0.5
        assert Fraction(ceilings[row]) >= Fraction(10) ** k > Fraction(np.nextafter(ceilings[row], 0.0))
    for row, e in enumerate(range(_g17._E, 1025)):
        assert Fraction(10) ** int(decades[row]) <= Fraction(2) ** (e - 1) < Fraction(10) ** int(decades[row] + 1)
