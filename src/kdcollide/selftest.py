"""Built-in numeric self-checks: closed forms vs. trace formulas, invariants.

Run via ``kdcollide selftest``.  Prints one line per check and returns exit
code 2 on any numeric failure, so automation can distinguish broken numerics
from configuration problems.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, kdq
from .collision import _evolve, bch_collide_once, collide_once
from .model import (
    MODE_EXACT,
    MODE_WEAK,
    ModelConfig,
    SystemStateParams,
    _ConfigArrays,
    _operator_stacks,
    _StateArrays,
    build_system_state,
    partition_function,
)


def random_parameters(rng: np.random.Generator, resonant: np.ndarray) -> tuple[_ConfigArrays, _StateArrays]:
    """Random constraint-respecting (configs, states), one draw per entry of ``resonant`` (detuned where false).

    Each parameter takes one `rng.uniform` call over every draw; lambda and r
    are bounded by each draw's lambda_max and r_max.
    """
    resonant = np.asarray(resonant, bool)
    draws = len(resonant)
    omega_a = rng.uniform(0.3, 2.0, draws)
    delta = np.where(resonant, 0.0, rng.uniform(-20.0, 20.0, draws))
    cfgs = _ConfigArrays.build(
        omega_s=omega_a + delta, omega_a=omega_a, g=rng.uniform(0.3, 2.0, draws), tau=rng.uniform(0.02, 1.5, draws),
        beta=rng.uniform(0.05, 4.0, draws), lam=0.0, lam_tilde=0.0, hbar=1.0, mode=MODE_EXACT,
    )
    lam_max = cfgs.lambda_max
    cfgs = cfgs.replace(lam=rng.uniform(-lam_max, lam_max)).checked()
    rho11 = rng.uniform(0.0, 1.0, draws)
    r = rng.uniform(0.0, np.sqrt(rho11 * (1.0 - rho11)))
    states = _StateArrays.build(rho11=rho11, r=r, phi_c=rng.uniform(0.0, 2.0 * math.pi, draws))
    return cfgs, states.checked()


# The draws of the checks whose labels state their count.
_NORMALIZATION_DRAWS, _RESONANT_DRAWS, _DETUNED_DRAWS = 1000, 200, 200


def _check_lambda_max() -> float:
    expected = {5.0: 0.082, 1.0: 0.443, 0.2: 0.498}
    worst = 0.0
    for beta, value in expected.items():
        worst = max(worst, abs(1.0 / partition_function(beta, 1.0) - value))
    return worst


def _stacks(rng: np.random.Generator, resonant, draws: int, classical: bool = False):
    """(configs, states, operator stack, state stack) per part of `model._operator_stacks` over random draws.

    One `random_parameters` call makes every draw, draw k resonant where
    ``resonant(k)``; ``classical`` removes the coherence of ancilla and system.
    """
    cfgs, states = random_parameters(rng, [resonant(k) for k in range(draws)])
    if classical:
        cfgs, states = cfgs.replace(lam=0.0), _StateArrays.build(rho11=states.rho11, r=0.0, phi_c=0.0)
    rho_s = build_system_state(states)
    for rows, _, ops in _operator_stacks(cfgs):
        yield cfgs.take(rows), states.take(rows), ops, rho_s[rows]


def _deviation(numeric: np.ndarray, expected) -> float:
    """Largest |numeric - expected| over a stack; 0 for an empty one."""
    return float(np.max(np.abs(numeric - np.asarray(expected)), initial=0.0))


def _check_normalization(rng: np.random.Generator) -> float:
    worst = 0.0
    for cfgs, _, ops, rho_s in _stacks(rng, lambda k: k % 2 == 0, _NORMALIZATION_DRAWS):
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, _deviation(kdq._kernel(quantity, rho_s, ops)[0].sum(axis=(-2, -1)), 1.0))
        # Heat sums to 1 and work to 0 where the split is defined: at the resonant draws.
        for quantity, total in ((kdq.Q, 1.0), (kdq.W, 0.0)):
            totals = kdq._kernel(quantity, rho_s, ops)[0].sum(axis=(-2, -1))
            worst = max(worst, _deviation(totals[cfgs.is_resonant], total))
    return worst


def _check_oracle_resonant(rng: np.random.Generator) -> float:
    worst = 0.0
    for cfgs, states, ops, rho_s in _stacks(rng, lambda k: True, _RESONANT_DRAWS):
        kernels = {q: kdq._kernel(q, rho_s, ops) for q in (kdq.US, kdq.QS, kdq.WS, kdq.W, kdq.Q)}
        for quantity, oracle in (
            (kdq.US, analytic._resonant_kdq_us), (kdq.QS, analytic._resonant_kdq_q), (kdq.WS, analytic._resonant_kdq_w),
        ):
            quasiprobs = kernels[quantity][0].reshape(len(states), -1)
            worst = max(worst, _deviation(quasiprobs, oracle(cfgs, states)))

        mean, _, variance = kdq._moments(*kernels[kdq.US])
        expected_mean, expected_variance = analytic._resonant_energy_stats(cfgs, states)
        worst = max(worst, _deviation(mean, expected_mean), _deviation(variance, expected_variance))

        stats = analytic._resonant_w_q_stats(cfgs, states)
        for quantity in (kdq.W, kdq.Q):
            mean, _, variance = kdq._moments(*kernels[quantity])
            worst = max(
                worst,
                _deviation(mean, getattr(stats, f"{quantity}_mean")),
                _deviation(variance, getattr(stats, f"{quantity}_variance")),
            )

        witnesses = kdq._witnesses(kernels[kdq.US][0])
        worst = max(worst, _deviation(witnesses[:, 1:], np.array(analytic._resonant_nonpositivity(cfgs, states)).T))
    return worst


def _check_oracle_detuned(rng: np.random.Generator) -> float:
    worst = 0.0
    for cfgs, states, ops, rho_s in _stacks(rng, lambda k: False, _DETUNED_DRAWS):
        for quantity, oracle in ((kdq.US, analytic._delta_e_s), (kdq.USA, analytic._delta_e_sa)):
            average = kdq._trace_average(quantity, rho_s, ops).real
            worst = max(worst, _deviation(average, oracle(cfgs, states)))
    return worst


def _check_marginalization(rng: np.random.Generator) -> float:
    worst = 0.0
    for _, _, ops, rho_s in _stacks(rng, lambda k: False, 50):
        usa = kdq._kernel(kdq.USA, rho_s, ops)[0]
        for quantity in (kdq.US, kdq.UA):
            marginal = kdq._block_sums(usa, ops.levels_s.shape[-1], ops.levels_a.shape[-1], quantity)
            worst = max(worst, _deviation(marginal, kdq._kernel(quantity, rho_s, ops)[0]))
    return worst


def _check_tpm_limit(rng: np.random.Generator) -> float:
    worst = 0.0
    for _, _, ops, rho_s in _stacks(rng, lambda k: False, 50, classical=True):
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, _deviation(kdq._witnesses(kdq._kernel(quantity, rho_s, ops)[0]), 0.0))
    return worst


def _check_first_law(rng: np.random.Generator) -> float:
    cfgs, states = random_parameters(rng, np.zeros(25, bool))
    columns = _evolve(cfgs, build_system_state(states), 4, thermo=True).columns
    return _deviation(columns["delta_e_s"] + columns["delta_e_a"], columns["delta_e_sa"])


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
    report(f"KDQ normalization ({_NORMALIZATION_DRAWS} draws)", _check_normalization(rng), 1e-12)
    report(f"resonant closed forms ({_RESONANT_DRAWS} draws)", _check_oracle_resonant(rng), 1e-10)
    report(f"detuned closed forms ({_DETUNED_DRAWS} draws)", _check_oracle_detuned(rng), 1e-10)
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
