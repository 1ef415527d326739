"""Built-in numeric self-checks: closed forms vs. trace formulas, invariants.

Run via ``kdcollide selftest``.  Prints one line per check and returns exit
code 2 on any numeric failure, so automation can distinguish broken numerics
from configuration problems.

The checks that draw random parameters take them from one `_draw`: each
check's `random_parameters` draws in turn, as one set of parameter arrays
checked once.  The first law evolves its own draws; every other such check
reads its contiguous rows of one `model._operator_stacks` pass over theirs.
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
    Operators,
    SystemStateParams,
    _ConfigArrays,
    _operator_stacks,
    _partition_functions,
    _StateArrays,
    build_system_state,
    partition_function,
)


def random_parameters(rng: np.random.Generator, resonant: np.ndarray) -> tuple[_ConfigArrays, _StateArrays]:
    """Random constraint-respecting (configs, states), one draw per entry of ``resonant`` (detuned where false)."""
    return _draw(rng, [resonant])


def _draw(rng: np.random.Generator, groups) -> tuple[_ConfigArrays, _StateArrays]:
    """`random_parameters` of each group of resonance flags in turn, as one set of arrays, checked once.

    Each parameter of a group takes one `rng.uniform` call over its draws;
    lambda and r are bounded by each draw's lambda_max and r_max.  The
    configs carry the Z_A of lambda's bound.
    """
    columns = []
    for resonant in groups:
        draws = len(resonant)
        omega_a = rng.uniform(0.3, 2.0, draws)
        omega_s = omega_a + np.where(resonant, 0.0, rng.uniform(-20.0, 20.0, draws))
        g, tau, beta = (rng.uniform(low, high, draws) for low, high in ((0.3, 2.0), (0.02, 1.5), (0.05, 4.0)))
        z_a = _partition_functions(beta, omega_a)
        lam, rho11 = rng.uniform(-1.0 / z_a, 1.0 / z_a), rng.uniform(0.0, 1.0, draws)
        r, phi_c = rng.uniform(0.0, np.sqrt(rho11 * (1.0 - rho11))), rng.uniform(0.0, 2.0 * math.pi, draws)
        columns.append((omega_s, omega_a, g, tau, beta, lam, z_a, rho11, r, phi_c))
    omega_s, omega_a, g, tau, beta, lam, z_a, rho11, r, phi_c = map(np.concatenate, zip(*columns))
    cfgs = _ConfigArrays.build(
        omega_s=omega_s, omega_a=omega_a, g=g, tau=tau, beta=beta, lam=lam, lam_tilde=0.0, hbar=1.0, mode=MODE_EXACT,
        z_a=z_a,
    )
    return cfgs.checked(), _StateArrays.build(rho11=rho11, r=r, phi_c=phi_c).checked()


# The resonance of the draws of each check that draws, in draw order.
_DRAWS = {
    "normalization": np.arange(1000) % 2 == 0, "resonant": np.ones(200, bool), "detuned": np.zeros(200, bool),
    "marginalization": np.zeros(50, bool), "tpm": np.zeros(50, bool), "first_law": np.zeros(25, bool),
}


def _check_lambda_max() -> float:
    expected = {5.0: 0.082, 1.0: 0.443, 0.2: 0.498}
    return max(abs(1.0 / partition_function(beta, 1.0) - value) for beta, value in expected.items())


def _stacks(cfgs: _ConfigArrays, states: _StateArrays, bounds: dict[str, slice]):
    """Each check's (configs, states, operator stack, state stack) per part of one `model._operator_stacks` pass.

    ``bounds`` gives each check its contiguous rows of ``cfgs`` and ``states``.
    """
    rho_s = build_system_state(states)
    parts = list(_operator_stacks(cfgs))
    stacks = {}
    for name, bound in bounds.items():
        stacks[name] = []
        for rows, _, ops in parts:
            # A part's rows rise, so a check's rows in it are one run of them.
            run = slice(*np.searchsorted(rows, (bound.start, bound.stop)).tolist())
            if run.start < run.stop:
                at = rows[run]
                stacks[name].append((cfgs.take(at), states.take(at), Operators(*(a[run] for a in ops)), rho_s[at]))
    return stacks


def _deviation(numeric: np.ndarray, expected) -> float:
    """Largest |numeric - expected| over a stack; 0 for an empty one."""
    return float(np.max(np.abs(numeric - np.asarray(expected)), initial=0.0))


def _check_normalization(stacks) -> float:
    worst = 0.0
    for cfgs, _, ops, rho_s in stacks:
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, _deviation(kdq._kernel(quantity, rho_s, ops)[0].sum(axis=(-2, -1)), 1.0))
        # Heat sums to 1 and work to 0 where the split is defined: at the resonant draws.
        for quantity, total in ((kdq.Q, 1.0), (kdq.W, 0.0)):
            totals = kdq._kernel(quantity, rho_s, ops)[0].sum(axis=(-2, -1))
            worst = max(worst, _deviation(totals[cfgs.is_resonant], total))
    return worst


def _check_oracle_resonant(stacks) -> float:
    worst = 0.0
    for cfgs, states, ops, rho_s in stacks:
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


def _check_oracle_detuned(stacks) -> float:
    worst = 0.0
    for cfgs, states, ops, rho_s in stacks:
        for quantity, oracle in ((kdq.US, analytic._delta_e_s), (kdq.USA, analytic._delta_e_sa)):
            average = kdq._trace_average(quantity, rho_s, ops).real
            worst = max(worst, _deviation(average, oracle(cfgs, states)))
    return worst


def _check_marginalization(stacks) -> float:
    worst = 0.0
    for _, _, ops, rho_s in stacks:
        usa = kdq._kernel(kdq.USA, rho_s, ops)[0]
        for quantity in (kdq.US, kdq.UA):
            marginal = kdq._block_sums(usa, ops.levels_s.shape[-1], ops.levels_a.shape[-1], quantity)
            worst = max(worst, _deviation(marginal, kdq._kernel(quantity, rho_s, ops)[0]))
    return worst


def _check_tpm_limit(stacks) -> float:
    worst = 0.0
    for _, _, ops, rho_s in stacks:
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, _deviation(kdq._witnesses(kdq._kernel(quantity, rho_s, ops)[0]), 0.0))
    return worst


def _check_first_law(cfgs: _ConfigArrays, states: _StateArrays) -> float:
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
    cfgs, states = _draw(np.random.default_rng(20240601), _DRAWS.values())
    draws = {name: len(resonant) for name, resonant in _DRAWS.items()}
    rows = {name: slice(end - draws[name], end) for name, end in zip(draws, np.cumsum(list(draws.values())).tolist())}
    # The TPM limit's draws without the coherence of ancilla and system.
    classical = np.concatenate([np.full(size, name == "tpm") for name, size in draws.items()])
    cfgs = cfgs.replace(lam=np.where(classical, 0.0, cfgs.lam))
    states = states.replace(r=np.where(classical, 0.0, states.r), phi_c=np.where(classical, 0.0, states.phi_c))
    # The first law evolves its own draws, the last; the other checks share one stack of theirs.
    first_law = rows.pop("first_law")
    stacks = _stacks(cfgs.take(slice(first_law.start)), states.take(slice(first_law.start)), rows)
    failures = 0

    def report(name: str, worst: float, bound: float) -> None:
        nonlocal failures
        ok = worst <= bound
        failures += 0 if ok else 1
        print(f"selftest {'PASS' if ok else 'FAIL'}  {name}: max deviation {worst:.3e} (bound {bound:.0e})")

    report("caption lambda_max values", _check_lambda_max(), 5e-4)
    report(f"KDQ normalization ({draws['normalization']} draws)", _check_normalization(stacks["normalization"]), 1e-12)
    report(f"resonant closed forms ({draws['resonant']} draws)", _check_oracle_resonant(stacks["resonant"]), 1e-10)
    report(f"detuned closed forms ({draws['detuned']} draws)", _check_oracle_detuned(stacks["detuned"]), 1e-10)
    report("marginalization", _check_marginalization(stacks["marginalization"]), 1e-12)
    report("TPM limit", _check_tpm_limit(stacks["tpm"]), 1e-12)
    report("first law per collision", _check_first_law(cfgs.take(first_law), states.take(first_law)), 1e-10)

    lo, hi = _check_bch_order()
    ok = 6.5 <= lo and hi <= 9.5
    failures += 0 if ok else 1
    print(f"selftest {'PASS' if ok else 'FAIL'}  BCH local error ratio in [6.5, 9.5]: got [{lo:.3f}, {hi:.3f}]")

    if failures:
        print(f"selftest: {failures} check(s) FAILED")
        return 2
    print("selftest: all checks passed")
    return 0
