"""Built-in numeric self-checks: closed forms vs. trace formulas, invariants.

Run via ``kdcollide selftest``.  Prints one line per check and returns exit
code 2 on any numeric failure, so automation can distinguish broken numerics
from configuration problems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from . import analytic, kdq
from .collision import bch_collide_once, collide_once, evolve
from .model import (
    MODE_WEAK,
    ModelConfig,
    SystemStateParams,
    build_system_state,
    partition_function,
)


def random_parameters(rng: np.random.Generator, resonant: bool, weak: bool = False):
    """One random constraint-respecting (config, state) pair."""
    omega_a = rng.uniform(0.3, 2.0)
    delta = 0.0 if resonant else rng.uniform(-20.0, 20.0)
    g = rng.uniform(0.3, 2.0)
    tau = rng.uniform(0.02, 1.5)
    beta = rng.uniform(0.05, 4.0)
    cfg = ModelConfig(
        omega_s=omega_a + delta, omega_a=omega_a, g=g, tau=tau, beta=beta,
        mode=MODE_WEAK if weak else "exact",
    )
    lam = rng.uniform(-cfg.lambda_max, cfg.lambda_max)
    if weak:
        cfg = replace(cfg, lam_tilde=lam / math.sqrt(tau))
    else:
        cfg = replace(cfg, lam=lam)
    rho11 = rng.uniform(0.0, 1.0)
    r_max = math.sqrt(rho11 * (1.0 - rho11))
    state = SystemStateParams(
        rho11=rho11, r=rng.uniform(0.0, r_max) if r_max > 0 else 0.0,
        phi_c=rng.uniform(0.0, 2.0 * math.pi),
    )
    return cfg, state


def _check_lambda_max() -> float:
    expected = {5.0: 0.082, 1.0: 0.443, 0.2: 0.498}
    worst = 0.0
    for beta, value in expected.items():
        worst = max(worst, abs(1.0 / partition_function(beta, 1.0) - value))
    return worst


def _check_normalization(rng: np.random.Generator, draws: int = 1000) -> float:
    worst = 0.0
    for k in range(draws):
        cfg, state = random_parameters(rng, resonant=(k % 2 == 0))
        rho_s = build_system_state(state)
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, abs(kdq.kdq_distribution(quantity, rho_s, cfg).total() - 1.0))
        if cfg.is_resonant:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", kdq.ValidityWarning)
                worst = max(worst, abs(kdq.kdq_distribution(kdq.Q, rho_s, cfg).total() - 1.0))
                worst = max(worst, abs(kdq.kdq_distribution(kdq.W, rho_s, cfg).total()))
    return worst


def _check_oracle_resonant(rng: np.random.Generator, draws: int = 200) -> float:
    worst = 0.0
    for _ in range(draws):
        cfg, state = random_parameters(rng, resonant=True)
        rho_s = build_system_state(state)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kdq.ValidityWarning)
            num_us = kdq.kdq_distribution(kdq.US, rho_s, cfg).quasiprobs()
            num_q = kdq.kdq_distribution(kdq.QS, rho_s, cfg).quasiprobs()
            num_w = kdq.kdq_distribution(kdq.WS, rho_s, cfg).quasiprobs()
            w_dist = kdq.kdq_distribution(kdq.W, rho_s, cfg)
            q_dist = kdq.kdq_distribution(kdq.Q, rho_s, cfg)
        worst = max(worst, float(np.max(np.abs(num_us - analytic.resonant_kdq_us(cfg, state)))))
        worst = max(worst, float(np.max(np.abs(num_q - analytic.resonant_kdq_q(cfg, state)))))
        worst = max(worst, float(np.max(np.abs(num_w - analytic.resonant_kdq_w(cfg, state)))))

        mean, variance = analytic.resonant_energy_stats(cfg, state)
        mom = kdq.moments(kdq.kdq_distribution(kdq.US, rho_s, cfg))
        worst = max(worst, abs(mom.mean - mean), abs(mom.variance - variance))

        stats = analytic.resonant_w_q_stats(cfg, state)
        w_mom = kdq.moments(w_dist)
        q_mom = kdq.moments(q_dist)
        worst = max(worst, abs(w_mom.mean - stats.w_mean), abs(w_mom.variance - stats.w_variance))
        worst = max(worst, abs(q_mom.mean - stats.q_mean), abs(q_mom.variance - stats.q_variance))

        n_re, n_im = analytic.resonant_nonpositivity(cfg, state)
        report = kdq.nonpositivity(kdq.kdq_distribution(kdq.US, rho_s, cfg))
        worst = max(worst, abs(report.n_re - n_re), abs(report.n_im - n_im))
    return worst


def _check_oracle_detuned(rng: np.random.Generator, draws: int = 200) -> float:
    worst = 0.0
    for _ in range(draws):
        cfg, state = random_parameters(rng, resonant=False)
        rho_s = build_system_state(state)
        de_s = kdq.average_via_trace(kdq.US, rho_s, cfg).real
        de_sa = kdq.average_via_trace(kdq.USA, rho_s, cfg).real
        worst = max(worst, abs(de_s - analytic.delta_e_s(cfg, state)))
        worst = max(worst, abs(de_sa - analytic.delta_e_sa(cfg, state)))
    return worst


def _check_marginalization(rng: np.random.Generator, draws: int = 50) -> float:
    worst = 0.0
    for _ in range(draws):
        cfg, state = random_parameters(rng, resonant=False)
        rho_s = build_system_state(state)
        usa = kdq.kdq_distribution(kdq.USA, rho_s, cfg)
        for marginal, quantity in (
            (kdq.marginalize_usa_to_us(usa), kdq.US),
            (kdq.marginalize_usa_to_ua(usa), kdq.UA),
        ):
            direct = kdq.kdq_distribution(quantity, rho_s, cfg)
            worst = max(worst, float(np.max(np.abs(marginal.quasiprobs() - direct.quasiprobs()))))
    return worst


def _check_tpm_limit(rng: np.random.Generator, draws: int = 50) -> float:
    worst = 0.0
    for _ in range(draws):
        cfg, state = random_parameters(rng, resonant=False)
        cfg = replace(cfg, lam=0.0)
        state = SystemStateParams(rho11=state.rho11, r=0.0)
        rho_s = build_system_state(state)
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            report = kdq.nonpositivity(kdq.kdq_distribution(quantity, rho_s, cfg))
            worst = max(worst, abs(report.n_q), abs(report.n_re), abs(report.n_im))
    return worst


def _check_first_law(rng: np.random.Generator, draws: int = 25) -> float:
    worst = 0.0
    for _ in range(draws):
        cfg, state = random_parameters(rng, resonant=False)
        trajectory = evolve(build_system_state(state), cfg, 4, thermo=True)
        for record in trajectory.per_step:
            worst = max(worst, abs(record.delta_e_s + record.delta_e_a - record.delta_e_sa))
    return worst


def _check_bch_order() -> tuple[float, float]:
    rho_s = build_system_state(SystemStateParams(0.3, 0.35, 1.1))
    ratios = []
    for tau0 in (math.pi / 360, math.pi / 3600, math.pi / 36000):
        errors = []
        for tau in (tau0, tau0 / 2.0):
            cfg = ModelConfig(
                omega_s=1.0, omega_a=1.0, g=math.sqrt(tau), tau=tau, beta=0.7,
                lam_tilde=0.2 / math.sqrt(tau), mode=MODE_WEAK,
            )
            exact = collide_once(rho_s, cfg)[1]
            errors.append(float(np.linalg.norm(exact - bch_collide_once(rho_s, cfg))))
        ratios.append(errors[0] / errors[1])
    return min(ratios), max(ratios)


def run_selftest() -> int:
    rng = np.random.default_rng(20240601)
    failures = 0

    def report(name: str, worst: float, bound: float) -> None:
        nonlocal failures
        ok = worst <= bound
        failures += 0 if ok else 1
        print(f"selftest {'PASS' if ok else 'FAIL'}  {name}: max deviation {worst:.3e} (bound {bound:.0e})")

    report("caption lambda_max values", _check_lambda_max(), 5e-4)
    report("KDQ normalization (1000 draws)", _check_normalization(rng), 1e-12)
    report("resonant closed forms (200 draws)", _check_oracle_resonant(rng), 1e-10)
    report("detuned closed forms (200 draws)", _check_oracle_detuned(rng), 1e-10)
    report("marginalization", _check_marginalization(rng), 1e-12)
    report("TPM limit", _check_tpm_limit(rng), 1e-12)
    report("first law per collision", _check_first_law(rng), 1e-10)

    lo, hi = _check_bch_order()
    ok = 6.5 <= lo and hi <= 9.5
    failures += 0 if ok else 1
    print(f"selftest {'PASS' if ok else 'FAIL'}  BCH local error ratio in [6.5, 9.5]: got [{lo:.3f}, {hi:.3f}]")

    if failures:
        print(f"selftest: {failures} check(s) FAILED")
        return 2
    print("selftest: all checks passed")
    return 0
