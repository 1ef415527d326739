"""Write the byte-identity set of outputs from one copy of the kdcollide sources.

    python3 tools/outputs.py SRC OUT

SRC is the directory that holds the ``kdcollide`` package (a checkout's
``src``); OUT is created.  Each run is a fresh ``python -m kdcollide.cli``
process importing from SRC only:

- the presets fig1 to fig6 at ``--points`` 16 and 128, fig7 at
  ``--collisions`` 8 and 400;
- ``tests/golden/custom.cfg``;
- the custom sweep of the ``config_sweep`` benchmark workload at seeds 1 to
  3, its config text from ``benchmarks/workloads.generate``;
- the ``selftest`` lines, in ``selftest.txt``.

Every CSV lands in OUT with its ``.meta.json``.  Two copies of the sources
give the same outputs when ``diff -r`` finds no difference between their
OUT directories.  The goldens and the benchmark inputs are read from the
checkout that holds this script.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/outputs.py SRC OUT", file=sys.stderr)
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
    cli("run", str(ROOT / "tests" / "golden" / "custom.cfg"), "--out", "custom.csv")

    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import generate

    for seed in SEEDS:
        config = out / f"config_sweep_seed{seed}.cfg"
        config.write_text(generate("config_sweep", seed)["runs"][0]["config"], encoding="utf-8")
        cli("run", config.name, "--out", f"config_sweep_seed{seed}.csv")
    with open(out / "selftest.txt", "w", encoding="utf-8") as lines:
        cli("selftest", stdout=lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
