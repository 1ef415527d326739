"""Repeat benchmark runs over seeds and summarise them.

    python3 benchmarks/collect.py --seeds 1-10 --out benchmarks/baseline.json

Runs every workload (or those given with ``--workloads``) once per seed with
``--trace 0`` and once with ``--trace 1`` on the first seed, all in series.
For each end-to-end metric it records the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(context line, result line) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=env.ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seeds = _seeds(args.seeds)
    summary = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        summary["machine"] = runs[0][0]["machine"]
        entry = {
            "correct": all(r["correct"] for _, r in runs),
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "inputs_sha256": [c["inputs_sha256"] for c, _ in runs],
            "raw_pass_walls_s": [c["pass_walls_s"] for c, _ in runs],
            "pass_scales": [c["pass_scales"] for c, _ in runs],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for _, r in runs])
            stats["unit"] = runs[0][1]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print(f"{workload:13s} {name:12s} median {stats['median']:.6g} {stats['unit']:4s} "
                  f"spread {stats['spread']:.4f} (bound {bound}, third {bound / 3:.4f})", flush=True)
        if not args.no_trace:
            context, traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["input_properties"] = context["input_properties"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
        summary["workloads"][workload] = entry
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
