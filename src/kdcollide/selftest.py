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
    _system_states,
    build_system_state,
    partition_function,
)


# Random draws evaluated together; bounds the memory a check holds at once.
_DRAWS_HELD = 100

# The parameters of one random draw in the order it takes them from the rng,
# with their bounds; delta is drawn for detuned draws only, and lambda and r
# are bounded by lambda_max and r_max of the draw.
_DRAWN = ("omega_a", "delta", "g", "tau", "beta", "lam", "rho11", "r", "phi_c")


def random_parameters(rng: np.random.Generator, resonant: np.ndarray) -> tuple[_ConfigArrays, _StateArrays]:
    """Random constraint-respecting (configs, states), one draw per entry of ``resonant`` (detuned where false).

    One `rng.uniform` call gives every draw's doubles, in the order in which
    drawing the parameters one at a time would take them; a double u maps to
    low + (high - low) * u, which is what `rng.uniform(low, high)` returns
    for it.  (A draw with r_max = 0 would have skipped its r; rho11 = 0
    exactly has probability 2^-53.)
    """
    resonant = np.asarray(resonant, bool)
    counts = len(_DRAWN) - resonant
    first = np.cumsum(counts) - counts
    u = rng.uniform(size=int(counts.sum()))

    def draw(name: str, low, high) -> np.ndarray:
        k = _DRAWN.index(name)
        return low + (high - low) * u[first + k - (resonant & (k > 1))]

    omega_a = draw("omega_a", 0.3, 2.0)
    delta = np.where(resonant, 0.0, draw("delta", -20.0, 20.0))
    cfgs = _ConfigArrays.build(
        omega_s=omega_a + delta, omega_a=omega_a, g=draw("g", 0.3, 2.0), tau=draw("tau", 0.02, 1.5),
        beta=draw("beta", 0.05, 4.0), lam=0.0, lam_tilde=0.0, hbar=1.0, mode=MODE_EXACT,
    )
    lam_max = cfgs.lambda_max
    cfgs = cfgs.replace(lam=draw("lam", -lam_max, lam_max)).checked()
    rho11 = draw("rho11", 0.0, 1.0)
    r_max = np.sqrt(rho11 * (1.0 - rho11))
    states = _StateArrays.build(rho11=rho11, r=draw("r", 0.0, r_max), phi_c=draw("phi_c", 0.0, 2.0 * math.pi))
    return cfgs, states.checked()


def _check_lambda_max() -> float:
    expected = {5.0: 0.082, 1.0: 0.443, 0.2: 0.498}
    worst = 0.0
    for beta, value in expected.items():
        worst = max(worst, abs(1.0 / partition_function(beta, 1.0) - value))
    return worst


def _stacks(rng: np.random.Generator, resonant, draws: int, classical: bool = False):
    """(configs, states, operator stack, state stack) per part of `model._operator_stacks` over random draws.

    Draws `_DRAWS_HELD` at a time, draw k resonant where ``resonant(k)``;
    ``classical`` removes the coherence of ancilla and system.
    """
    for start in range(0, draws, _DRAWS_HELD):
        cfgs, states = random_parameters(rng, [resonant(k) for k in range(start, min(start + _DRAWS_HELD, draws))])
        if classical:
            cfgs, states = cfgs.replace(lam=0.0), _StateArrays.build(rho11=states.rho11, r=0.0, phi_c=0.0)
        rho_s = _system_states(states)
        for rows, ops in _operator_stacks(cfgs):
            yield cfgs.take(rows), states.take(rows), ops, rho_s[rows]


def _deviation(numeric: np.ndarray, expected) -> float:
    """Largest |numeric - expected| over a stack; 0 for an empty one."""
    return float(np.max(np.abs(numeric - np.asarray(expected)), initial=0.0))


def _check_normalization(rng: np.random.Generator, draws: int = 1000) -> float:
    worst = 0.0
    for cfgs, _, ops, rho_s in _stacks(rng, lambda k: k % 2 == 0, draws):
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, _deviation(kdq._kernel(quantity, rho_s, ops)[0].sum(axis=(-2, -1)), 1.0))
        # Heat sums to 1 and work to 0 where the split is defined: at the resonant draws.
        for quantity, total in ((kdq.Q, 1.0), (kdq.W, 0.0)):
            totals = kdq._kernel(quantity, rho_s, ops)[0].sum(axis=(-2, -1))
            worst = max(worst, _deviation(totals[cfgs.is_resonant], total))
    return worst


def _check_oracle_resonant(rng: np.random.Generator, draws: int = 200) -> float:
    worst = 0.0
    for cfgs, states, ops, rho_s in _stacks(rng, lambda k: True, draws):
        kernels = {q: kdq._kernel(q, rho_s, ops)[:2] for q in (kdq.US, kdq.QS, kdq.WS, kdq.W, kdq.Q)}
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


def _check_oracle_detuned(rng: np.random.Generator, draws: int = 200) -> float:
    worst = 0.0
    for cfgs, states, ops, rho_s in _stacks(rng, lambda k: False, draws):
        for quantity, oracle in ((kdq.US, analytic._delta_e_s), (kdq.USA, analytic._delta_e_sa)):
            average = kdq._trace_average(quantity, rho_s, ops).real
            worst = max(worst, _deviation(average, oracle(cfgs, states)))
    return worst


def _check_marginalization(rng: np.random.Generator, draws: int = 50) -> float:
    worst = 0.0
    for _, _, ops, rho_s in _stacks(rng, lambda k: False, draws):
        usa, _, (levels_s, levels_a) = kdq._kernel(kdq.USA, rho_s, ops)
        for quantity in (kdq.US, kdq.UA):
            marginal = kdq._block_sums(usa, levels_s.shape[-1], levels_a.shape[-1], quantity)
            worst = max(worst, _deviation(marginal, kdq._kernel(quantity, rho_s, ops)[0]))
    return worst


def _check_tpm_limit(rng: np.random.Generator, draws: int = 50) -> float:
    worst = 0.0
    for _, _, ops, rho_s in _stacks(rng, lambda k: False, draws, classical=True):
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, _deviation(kdq._witnesses(kdq._kernel(quantity, rho_s, ops)[0]), 0.0))
    return worst


def _check_first_law(rng: np.random.Generator, draws: int = 25) -> float:
    cfgs, states = random_parameters(rng, np.zeros(draws, bool))
    columns = _evolve(cfgs, _system_states(states), 4, thermo=True).columns
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
