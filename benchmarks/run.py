"""kdcollide benchmark: one command, three seeded workloads.

    python3 benchmarks/run.py --workload {phase_grid,config_sweep,trajectory} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; kdcollide is imported from
``src/``.  Each workload runs in its own fresh, single-threaded subprocess
(`workload.py`).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics named in ``BENCHMARK.json``; ``setup_s`` is the median of
several spawn-import-warm-up samples (`probe.py`).  With ``--trace 1`` it
carries the per-layer metrics of a traced run.  The line before it describes
the machine, the inputs' SHA-256 and the input properties.  Every run checks
the library's outputs; ``attempted``/``failed`` count those checks, and
``failed / attempted`` is the run's error rate.

`collect.py` repeats runs over seeds and summarises them; `baseline.json`
holds the summary recorded for this commit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

# The speed-calibration chunks run in this process too; pin its BLAS
# threads like the children's before NumPy loads.
os.environ.update({var: value for var, value in env.child_env().items() if var in env.THREAD_VARS})

from calibrate import REFERENCE_S, Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
TIME_LIMIT_S = 170.0


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("phase_grid", "config_sweep", "trajectory"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (env.SRC / "kdcollide" / "__init__.py").is_file():
        return _fail(f"no kdcollide sources under {env.SRC}; run from the root of a checkout")
    t_begin = time.perf_counter()
    child_env = env.child_env()

    setup, setup_raw = [], []
    if not args.trace:
        # The probes run in child processes, so the speed is sampled in
        # brackets around each one rather than while it runs.
        clock = Clock()
        before = clock.sample()
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            probe = subprocess.run([sys.executable, str(HERE / "probe.py")], env=child_env, cwd=env.ROOT)
            setup_raw.append(time.perf_counter() - t0)
            if probe.returncode != 0:
                return _fail("set-up probe failed")
            after = clock.sample()
            setup.append(setup_raw[-1] * REFERENCE_S / (0.5 * (before + after)))
            before = after

    command = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        child = subprocess.run(
            command, env=child_env, cwd=env.ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - t_begin)),
        )
    except subprocess.TimeoutExpired:
        return _fail("workload process timed out")
    if child.returncode != 0 or not child.stdout.strip():
        return _fail(f"workload process exited with code {child.returncode}")
    report = json.loads(child.stdout.strip().splitlines()[-1])

    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    values = dict(report["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    missing = set(units) ^ set(values)
    if missing:
        return _fail(f"metric set differs from BENCHMARK.json: {sorted(missing)}")

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {**env.describe_machine(), "numpy": report["numpy"]},
        "inputs_sha256": report["inputs_sha256"],
        "input_properties": report["input_properties"],
        "pass_walls_s": report["pass_walls_s"],
        "traced_walls_s": report["traced_walls_s"],
        "pass_scales": report["pass_scales"],
        "setup_samples_s": setup_raw,
        "spans": report["spans"],
        "failures": report["failures"],
    }
    print(json.dumps(context))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
