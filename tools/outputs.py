"""Write the byte-identity set of outputs from one copy of the kdcollide sources, or compare two such sets.

    python3 tools/outputs.py SRC OUT
    python3 tools/outputs.py --compare OUT_A OUT_B

SRC is the directory that holds the ``kdcollide`` package (a checkout's
``src``); OUT is created.  Each run is a fresh ``python -m kdcollide.cli``
process importing from SRC only:

- the presets fig1 to fig6 at ``--points`` 16 and 128, fig7 at
  ``--collisions`` 8 and 400;
- the custom sweeps of `CUSTOM` in ``tests/golden``: one that skips rows,
  one that skips none, and one over negative, zero and positive frequencies;
- the custom sweep of the ``config_sweep`` benchmark workload at seeds 1 to
  3, its config text from ``benchmarks/workloads.generate``;
- the ``selftest`` lines, in ``selftest.txt``;
- the 100 ``find_steady_state`` solves of the ``trajectory`` benchmark
  workload at seeds 1 to 3, in ``steady.txt``: one line per solve with the
  real and imaginary part of each of the state's four entries under
  ``%.17g``, then ``converged``.

Every CSV lands in OUT with its ``.meta.json``.  Two copies of the sources
give the same outputs when ``diff -r`` finds no difference between their
OUT directories.  The goldens and the benchmark inputs are read from the
checkout that holds this script.

``--compare`` prints, for each file of two OUT directories, how many of its
cells moved and the worst absolute and relative move.  The cells of a CSV
are its fields; those of any other file are its tokens between whitespace
and JSON punctuation.  A cell moves when its text changes; a change that is
not between two numbers, or not finite, counts as an infinite move.  The exit
status is 1 when a file is in one directory only or has another number of
cells.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# The golden custom sweeps, each with every output quantity: rows skipped, none skipped, and frequencies of
# either sign and zero.
CUSTOM = ("custom", "custom_no_skip", "custom_signs")
# Solves each config of a JSON list on stdin and prints one steady.txt line per solve.
STEADY = """
import json, sys
from kdcollide.collision import find_steady_state
from kdcollide.model import ModelConfig
for cfg in json.load(sys.stdin):
    result = find_steady_state(ModelConfig(**cfg))
    parts = ["%.17g" % x for z in result.state.ravel().tolist() for x in (z.real, z.imag)]
    print(*parts, result.converged)
"""
USAGE = "usage: python3 tools/outputs.py SRC OUT\n       python3 tools/outputs.py --compare OUT_A OUT_B"


def _cells(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return [cell for row in csv.reader(io.StringIO(text)) for cell in row]
    return [token for token in re.split(r'[\s,:\[\]{}"]+', text) if token]


def _move(a: str, b: str) -> tuple[float, float]:
    """(absolute, relative) move between two cells whose text differs."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf, math.inf
    move = abs(x - y) if math.isfinite(x - y) else math.inf
    scale = max(abs(x), abs(y))
    return move, move / scale if scale else 0.0


def _moved(count: int, total: int, worst: tuple[float, float]) -> str:
    return f"{count} of {total} cells moved, worst absolute {worst[0]:.3g}, relative {worst[1]:.3g}"


def compare(out_a: Path, out_b: Path) -> int:
    """Print the moved cells of each file of two OUT directories, then their total; 1 if the files differ in layout."""
    names = sorted({path.relative_to(root) for root in (out_a, out_b) for path in root.rglob("*") if path.is_file()})
    status, total, moved, worst = 0, 0, 0, (0.0, 0.0)
    for name in names:
        missing = [str(root) for root in (out_a, out_b) if not (root / name).is_file()]
        if missing:
            print(f"{name}: missing from {missing[0]}")
            status = 1
            continue
        a, b = _cells(out_a / name), _cells(out_b / name)
        if len(a) != len(b):
            print(f"{name}: {len(a)} against {len(b)} cells")
            status = 1
            continue
        moves = [_move(x, y) for x, y in zip(a, b) if x != y]
        largest = tuple(max((move[k] for move in moves), default=0.0) for k in (0, 1))
        print(f"{name}: {_moved(len(moves), len(a), largest)}")
        total, moved, worst = total + len(a), moved + len(moves), (max(worst[0], largest[0]), max(worst[1], largest[1]))
    print(f"total: {_moved(moved, total, worst)}")
    return status


def inputs(workload: str) -> list[dict]:
    """The inputs of a benchmark workload at each seed of SEEDS (`benchmarks/workloads.generate`)."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import generate

    return [generate(workload, seed) for seed in SEEDS]


def write_steady(env: dict[str, str], out: Path) -> None:
    """Write ``steady.txt`` into OUT from a fresh process run under ``env``."""
    cfgs = [cfg for seeded in inputs("trajectory") for cfg in seeded["solves"]]
    with open(out / "steady.txt", "w", encoding="utf-8") as lines:
        subprocess.run(
            [sys.executable, "-c", STEADY], input=json.dumps(cfgs), text=True, env=env, cwd=out, stdout=lines, check=True
        )


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2 or argv[0] == "--compare":
        print(USAGE, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "kdcollide" / "__init__.py").is_file():
        print(f"error: no kdcollide package under {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src)}

    def cli(*args: str, stdout=subprocess.DEVNULL) -> None:
        subprocess.run([sys.executable, "-m", "kdcollide.cli", *args], env=env, cwd=out, stdout=stdout, check=True)

    for name in ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6"):
        for points in (16, 128):
            cli("preset", name, "--points", str(points), "--out", f"{name}_points{points}.csv")
    for collisions in (8, 400):
        cli("preset", "fig7", "--collisions", str(collisions), "--out", f"fig7_collisions{collisions}.csv")
    for name in CUSTOM:
        cli("run", str(ROOT / "tests" / "golden" / f"{name}.cfg"), "--out", f"{name}.csv")

    for seed, sweep in zip(SEEDS, inputs("config_sweep")):
        config = out / f"config_sweep_seed{seed}.cfg"
        config.write_text(sweep["runs"][0]["config"], encoding="utf-8")
        cli("run", config.name, "--out", f"config_sweep_seed{seed}.csv")
    with open(out / "selftest.txt", "w", encoding="utf-8") as lines:
        cli("selftest", stdout=lines)
    write_steady(env, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
