"""Tests of the benchmark itself: declared metrics, repeatable counts, seeded inputs.

    python3 -m pytest benchmarks -q

Each workload runs a few times with ``--seconds 1`` (about two minutes in
all on a 2-core machine).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import env
import workloads

DECLARED = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(workload: str, trace: int, seed: int = 3, cwd=env.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    """(untraced, traced, traced again) result lines per workload."""
    return {w: [_result(_run(w, 0)), _result(_run(w, 1)), _result(_run(w, 1))] for w in WORKLOADS}


def test_workload_names_match_generator():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_benchmark_json(results, workload):
    untraced, traced, _ = results[workload]
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in untraced["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(results, workload):
    _, first, second = results[workload]
    counts = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    same = workloads.digest(workloads.generate(workload, 11))
    assert same == workloads.digest(workloads.generate(workload, 11))
    assert same != workloads.digest(workloads.generate(workload, 12))


def test_fails_without_sources(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("phase_grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_wraps_imported_bindings_and_restores_them():
    env.import_kdcollide()
    from kdcollide import kdq, linalg, model
    from tracer import Tracer

    original = linalg.tensor
    tracer = Tracer("kdcollide", ("linalg", "model", "kdq"))
    tracer.install()
    try:
        assert kdq.tensor is model.tensor is linalg.tensor is not original
        cfg = model.ModelConfig(omega_s=4.0, omega_a=1.0, g=1.0, tau=0.5, beta=1.0, lam=0.1)
        rho_s = model.build_system_state(model.SystemStateParams(rho11=0.25, r=0.4, phi_c=0.7))
        kdq.kdq_distribution(kdq.USA, rho_s, cfg)
    finally:
        tracer.uninstall()
    assert kdq.tensor is model.tensor is linalg.tensor is original
    summary = tracer.summary(0, tracer.mark())
    assert summary["calls"]["kdq.kdq_distribution"] == 1
    assert summary["calls"]["linalg.tensor"] > 0
    assert summary["calls"]["model.ModelConfig"] == 1
    # Self times add up to the root span: nothing is counted twice.
    total_self = sum(summary["layer_self_s"].values())
    assert total_self == pytest.approx(summary["root_s"], rel=1e-9)


def test_reference_witnesses_match_library():
    env.import_kdcollide()
    from kdcollide import kdq, model

    cfg = model.ModelConfig(omega_s=4.0, omega_a=1.0, g=1.0, tau=0.5, beta=1.0, lam=0.2)
    state = {"rho11": 0.25, "r": 0.4, "phi_c": 0.7}
    rho_s, rho_a = workloads._reference_states(**state, beta=cfg.beta, omega_a=cfg.omega_a, lam=cfg.lam)
    u = workloads._reference_unitary(cfg.omega_s, cfg.omega_a, cfg.g, cfg.tau)
    for quantity in (kdq.US, kdq.USA):
        report = kdq.nonpositivity(kdq.kdq_distribution(quantity, rho_s, cfg))
        ref = workloads.reference_witnesses(quantity, rho_s, rho_a, u)
        np.testing.assert_allclose(ref, (report.n_q, report.n_re, report.n_im), atol=1e-12)
