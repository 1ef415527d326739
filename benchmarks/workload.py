"""Run one workload in this (fresh, single-threaded) process.

Started by `run.py`; prints one JSON object as its last stdout line.  With
``--trace 0`` it repeats untraced passes for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, the tracing overhead being the
difference between the two kinds of pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import env
from calibrate import Clock

LAYERS = ("linalg", "model", "collision", "kdq", "smalltau", "analytic", "cli", "selftest")


class Counters:
    """Counts taken from return values at span boundaries, per traced pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.configs: set = set()
        self.unitary_configs: set = set()
        self.entries = 0
        self.iterations = 0
        self.solves = 0
        self.converged = 0
        self.thermo_s = 0.0
        self.thermo_steps = 0
        self.rk4_s = 0.0
        self.rk4_steps = 0

    def hooks(self) -> dict:
        def cfg_of(args, kwargs):
            return args[0] if args else kwargs["cfg"]

        def build(args, kwargs, result, dt):
            self.configs.add(cfg_of(args, kwargs))

        def unitary(args, kwargs, result, dt):
            self.unitary_configs.add(cfg_of(args, kwargs))

        def distribution(args, kwargs, result, dt):
            self.entries += len(result.entries)

        def steady(args, kwargs, result, dt):
            self.solves += 1
            self.iterations += result.iterations
            self.converged += bool(result.converged)

        def evolve(args, kwargs, result, dt):
            thermo = args[3] if len(args) > 3 else kwargs.get("thermo", False)
            if thermo:
                self.thermo_s += dt
                self.thermo_steps += args[2] if len(args) > 2 else kwargs["n"]

        def master(args, kwargs, result, dt):
            self.rk4_s += dt
            self.rk4_steps += len(result[1]) - 1

        return {
            "model.build_hamiltonians": build,
            "kdq.measurement_unitary": unitary,
            "kdq.kdq_distribution": distribution,
            "collision.find_steady_state": steady,
            "collision.evolve": evolve,
            "smalltau.integrate_master_equation": master,
        }


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(summary: dict, counters: Counters, wall_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced pass; times in reference-speed units."""
    calls = summary["calls"]
    inclusive = {name: scale * t for name, t in summary["inclusive_s"].items()}
    m = {f"{layer}.self_s": scale * summary["layer_self_s"][layer] for layer in LAYERS if layer != "cli"}
    for name in (
        "linalg.tensor", "linalg.eig_hermitian", "linalg.partial_trace", "linalg.unitary_from_hamiltonian",
        "model.build_hamiltonians", "model.build_ancilla", "kdq.measurement_unitary", "kdq.moments",
        "kdq.nonpositivity", "kdq.average_via_trace", "smalltau.operator_approach",
    ):
        m[f"{name}.calls"] = calls[name]
    m["model.distinct_configs"] = len(counters.configs)
    m["model.build_reuse"] = _ratio(len(counters.configs), calls["model.build_hamiltonians"])
    m["kdq.distributions"] = calls["kdq.kdq_distribution"]
    m["kdq.entries"] = counters.entries
    m["kdq.us_per_entry"] = _ratio(inclusive["kdq.kdq_distribution"], counters.entries, 1e6)
    m["kdq.unitary_reuse"] = _ratio(len(counters.unitary_configs), calls["kdq.measurement_unitary"])
    m["collision.solver_iterations"] = counters.iterations
    m["collision.converged_frac"] = _ratio(counters.converged, counters.solves)
    m["collision.thermo_us_per_step"] = _ratio(counters.thermo_s, counters.thermo_steps, 1e6 * scale)
    m["smalltau.rk4_steps"] = counters.rk4_steps
    m["smalltau.us_per_rk4_step"] = _ratio(counters.rk4_s, counters.rk4_steps, 1e6 * scale)
    m["analytic.calls"] = summary["layer_entries"]["analytic"]
    m["cli.parse_s"] = inclusive["cli.parse_config"]
    m["cli.run_self_s"] = scale * summary["self_s"]["cli.run"]
    m["cli.write_csv_s"] = inclusive["cli.write_csv"]
    m["trace.uncovered_s"] = scale * (wall_s - summary["root_s"])
    return m


def untraced_metrics(passes) -> dict:
    """Latencies the benchmark times around its own calls in untraced passes,
    in reference-speed units."""
    solves = [s for p in passes for s in p.solve_s]
    chain_s = sum(p.chain_s for p in passes)
    collisions = sum(p.chain_collisions for p in passes)
    return {
        "collision.solve_ms_p50": 1e3 * float(np.percentile(solves, 50)) if solves else 0.0,
        "collision.solve_ms_p90": 1e3 * float(np.percentile(solves, 90)) if solves else 0.0,
        "collision.step_us": _ratio(chain_s, collisions, 1e6),
        "selftest.selftest_s": statistics.median(p.selftest_s for p in passes),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    env.import_kdcollide()
    import workloads
    from tracer import Tracer

    inputs = workloads.generate(args.workload, args.seed)
    env.OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=env.OUT))
    try:
        untraced, traced = [], []
        counters = Counters()
        tracer = Tracer("kdcollide", LAYERS, counters.hooks())
        t_begin = time.perf_counter()
        with Clock() as clock:
            while True:
                k = len(untraced) + len(traced)
                out_dir = scratch / f"pass{k}"
                if args.trace and k % 2 == 1:
                    counters.reset()
                    tracer.install()
                    first = tracer.mark()
                    try:
                        result = workloads.run_pass(inputs, out_dir, clock)
                    finally:
                        tracer.uninstall()
                    summary = tracer.summary(first, tracer.mark())
                    metrics = layer_metrics(summary, counters, result.raw_wall_s + result.probe_s, result.scale)
                    traced.append((result, metrics, summary["spans"]))
                else:
                    result = workloads.run_pass(inputs, out_dir, clock)
                    untraced.append(result)
                result.digest = result.csv_digest()
                if k > 0:
                    # Only the first pass's outputs are checked in full; later
                    # passes keep their timings and digest, so memory stays flat.
                    result.release()
                    shutil.rmtree(out_dir)
                done = time.perf_counter() - t_begin >= args.seconds
                if done and (not args.trace or traced):
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        gate = workloads.Gate()
        reference = untraced[0]
        workloads.check(inputs, reference, gate)
        for result in untraced[1:] + [t[0] for t in traced]:
            gate.check(result.digest == reference.digest, "CSV output differs between passes")
        stats = workloads.output_stats(reference)

        if args.trace:
            per_pass = [m for _, m, _ in traced]
            metrics = {}
            for name in per_pass[0]:
                values = [p[name] for p in per_pass]
                if isinstance(values[0], int):
                    gate.check(len(set(values)) == 1, f"count {name} differs between traced passes")
                    metrics[name] = values[0]
                else:
                    metrics[name] = statistics.median(values)
            metrics.update(untraced_metrics(untraced))
            metrics["selftest.checks_passed"] = reference.selftest_out.count("selftest PASS")
            metrics.update({f"cli.{name}": v for name, v in stats.items()})
            metrics.update({f"inputs.{name}": v for name, v in workloads.input_properties(inputs).items()})
            metrics["trace.overhead_s"] = statistics.median(r.wall_s for r, _, _ in traced) - statistics.median(
                r.wall_s for r in untraced
            )
            tracer.write(env.OUT / f"spans-{args.workload}.npz")
            spans = sum(n for _, _, n in traced)
        else:
            metrics = {
                "wall_s": statistics.median(r.wall_s for r in untraced),
                "rows_per_s": statistics.median(r.rows / r.cli_s for r in untraced),
                "peak_rss_mb": peak_rss_mb,
            }
            spans = 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({
        "inputs_sha256": workloads.digest(inputs),
        "input_properties": workloads.input_properties(inputs),
        "numpy": np.__version__,
        "pass_walls_s": [r.raw_wall_s for r in untraced],
        "pass_scales": [r.scale for r in untraced],
        "traced_walls_s": [r.raw_wall_s for r, _, _ in traced],
        "spans": spans,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
