import importlib.util
import os
from pathlib import Path

import pytest

from kdcollide import cli
from kdcollide.collision import find_steady_state
from kdcollide.model import ModelConfig

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
_SPEC = importlib.util.spec_from_file_location("outputs", _TOOL)
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def _write(root: Path, files: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_compare_counts_moved_cells_and_worst_moves(tmp_path, capsys):
    a = _write(tmp_path / "a", {
        "run.csv": "x,y\n1,0.5\n2,-0\n3,4e-17\n",
        "run.csv.meta.json": '{"sweep": {"x": [1.0, 2.0]}}\n',
        "selftest.txt": "selftest PASS  first law: max deviation 1.000e-16 (bound 1e-10)\n",
        "only_a.csv": "x\n1\n",
    })
    b = _write(tmp_path / "b", {
        "run.csv": "x,y\n1,0.5000000000000001\n2,0\n3,-4e-17\n",
        "run.csv.meta.json": '{"sweep": {"x": [1.0, 2.0]}}\n',
        "selftest.txt": "selftest FAIL  first law: max deviation 3.000e-16 (bound 1e-10)\n",
    })
    assert outputs.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"only_a.csv: missing from {b}",
        "run.csv: 3 of 8 cells moved, worst absolute 1.11e-16, relative 2",
        "run.csv.meta.json: 0 of 4 cells moved, worst absolute 0, relative 0",
        "selftest.txt: 2 of 9 cells moved, worst absolute inf, relative inf",
        "total: 5 of 21 cells moved, worst absolute inf, relative inf",
    ]


def test_compare_of_equal_directories_succeeds(tmp_path, capsys):
    files = {"fig1.csv": "phi_c,n_q\n0,0.25\n"}
    a, b = _write(tmp_path / "a", files), _write(tmp_path / "b", files)
    assert outputs.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 0 of 4 cells moved, worst absolute 0, relative 0"


@pytest.mark.parametrize("argv", [[], ["--compare", "a"], ["a", "b", "c"]])
def test_usage(argv, capsys):
    assert outputs.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: python3 tools/outputs.py SRC OUT")


def test_custom_sweeps_cover_skipped_and_kept_rows():
    # The set runs one golden sweep that skips rows and two that skip none,
    # one of them over frequencies of either sign and zero, each with every
    # output quantity.
    skips = []
    for name in outputs.CUSTOM:
        spec = cli.parse_config((outputs.ROOT / "tests" / "golden" / f"{name}.cfg").read_text(encoding="utf-8"))
        assert sorted(spec.outputs) == sorted(cli._OUTPUTS) and len(spec.sweep) == 2
        _, skipped, _ = cli._sweep(spec)
        skips.append(int(skipped.sum()))
    assert skips == [4, 0, 0]


def test_steady_lists_each_trajectory_solve(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    outputs.write_steady({**os.environ, "PYTHONPATH": str(src)}, tmp_path)
    lines = (tmp_path / "steady.txt").read_text(encoding="utf-8").splitlines()
    cfgs = [cfg for seeded in outputs.inputs("trajectory") for cfg in seeded["solves"]]
    assert len(lines) == len(cfgs) == 300
    for line, cfg in zip(lines, cfgs):
        result = find_steady_state(ModelConfig(**cfg))
        *parts, converged = line.split(" ")
        assert parts == ["%.17g" % x for z in result.state.ravel().tolist() for x in (z.real, z.imag)]
        assert converged == str(result.converged)
