"""Built-in numeric self-checks: closed forms vs. trace formulas, invariants.

Run via ``kdcollide selftest``.  Prints one line per check and returns exit
code 2 on any numeric failure, so automation can distinguish broken numerics
from configuration problems.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from . import analytic, kdq
from .collision import bch_collide_once, collide_once, evolve
from .model import (
    MODE_WEAK,
    ModelConfig,
    SystemStateParams,
    _operator_stacks,
    build_system_state,
    partition_function,
)


# Random draws evaluated together; bounds the memory a check holds at once.
_DRAWS_HELD = 100


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


def _stacks(pairs: Iterable[tuple[ModelConfig, SystemStateParams]]):
    """(pairs, operator stack, state stack) per part of `model._operator_stacks` over (config, state) pairs.

    The pairs are taken `_DRAWS_HELD` at a time, so that lazily drawn pairs
    never all sit in memory at once.
    """
    pairs = iter(pairs)
    while batch := list(itertools.islice(pairs, _DRAWS_HELD)):
        rho_s = np.array([build_system_state(state) for _, state in batch])
        for rows, ops in _operator_stacks([cfg for cfg, _ in batch]):
            yield [batch[k] for k in rows], ops, rho_s[rows]


def _deviation(numeric: np.ndarray, expected) -> float:
    """Largest |numeric - expected| over a stack; 0 for an empty one."""
    return float(np.max(np.abs(numeric - np.asarray(expected)), initial=0.0))


def _check_normalization(rng: np.random.Generator, draws: int = 1000) -> float:
    worst = 0.0
    for pairs, ops, rho_s in _stacks(random_parameters(rng, resonant=(k % 2 == 0)) for k in range(draws)):
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, _deviation(kdq._kernel(quantity, rho_s, ops)[0].sum(axis=(-2, -1)), 1.0))
        # Heat sums to 1 and work to 0 where the split is defined.
        for _, resonant_ops, resonant_rho_s in _stacks([(cfg, state) for cfg, state in pairs if cfg.is_resonant]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", kdq.ValidityWarning)
                for quantity, total in ((kdq.Q, 1.0), (kdq.W, 0.0)):
                    matrix = kdq._kernel(quantity, resonant_rho_s, resonant_ops)[0]
                    worst = max(worst, _deviation(matrix.sum(axis=(-2, -1)), total))
    return worst


def _check_oracle_resonant(rng: np.random.Generator, draws: int = 200) -> float:
    worst = 0.0
    for pairs, ops, rho_s in _stacks(random_parameters(rng, resonant=True) for _ in range(draws)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kdq.ValidityWarning)
            kernels = {q: kdq._kernel(q, rho_s, ops)[:2] for q in (kdq.US, kdq.QS, kdq.WS, kdq.W, kdq.Q)}
        for quantity, oracle in (
            (kdq.US, analytic.resonant_kdq_us), (kdq.QS, analytic.resonant_kdq_q), (kdq.WS, analytic.resonant_kdq_w),
        ):
            quasiprobs = kernels[quantity][0].reshape(len(pairs), -1)
            worst = max(worst, _deviation(quasiprobs, [oracle(cfg, state) for cfg, state in pairs]))

        mean, _, variance = kdq._moments(*kernels[kdq.US])
        expected = [analytic.resonant_energy_stats(cfg, state) for cfg, state in pairs]
        worst = max(worst, _deviation(mean, [m for m, _ in expected]), _deviation(variance, [v for _, v in expected]))

        stats = [analytic.resonant_w_q_stats(cfg, state) for cfg, state in pairs]
        for quantity in (kdq.W, kdq.Q):
            mean, _, variance = kdq._moments(*kernels[quantity])
            worst = max(
                worst,
                _deviation(mean, [getattr(s, f"{quantity}_mean") for s in stats]),
                _deviation(variance, [getattr(s, f"{quantity}_variance") for s in stats]),
            )

        witnesses = kdq._witnesses(kernels[kdq.US][0])
        expected = np.array([analytic.resonant_nonpositivity(cfg, state) for cfg, state in pairs])
        worst = max(worst, _deviation(witnesses[:, 1:], expected))
    return worst


def _check_oracle_detuned(rng: np.random.Generator, draws: int = 200) -> float:
    worst = 0.0
    for pairs, ops, rho_s in _stacks(random_parameters(rng, resonant=False) for _ in range(draws)):
        for quantity, oracle in ((kdq.US, analytic.delta_e_s), (kdq.USA, analytic.delta_e_sa)):
            average = kdq._trace_average(quantity, rho_s, ops).real
            worst = max(worst, _deviation(average, [oracle(cfg, state) for cfg, state in pairs]))
    return worst


def _check_marginalization(rng: np.random.Generator, draws: int = 50) -> float:
    worst = 0.0
    for pairs, ops, rho_s in _stacks(random_parameters(rng, resonant=False) for _ in range(draws)):
        usa, _, (levels_s, levels_a) = kdq._kernel(kdq.USA, rho_s, ops)
        for quantity in (kdq.US, kdq.UA):
            marginal = kdq._block_sums(usa, levels_s.shape[-1], levels_a.shape[-1], quantity)
            worst = max(worst, _deviation(marginal, kdq._kernel(quantity, rho_s, ops)[0]))
    return worst


def _check_tpm_limit(rng: np.random.Generator, draws: int = 50) -> float:
    def classical(cfg: ModelConfig, state: SystemStateParams) -> tuple[ModelConfig, SystemStateParams]:
        return replace(cfg, lam=0.0), SystemStateParams(rho11=state.rho11, r=0.0)

    worst = 0.0
    for _, ops, rho_s in _stacks(classical(*random_parameters(rng, resonant=False)) for _ in range(draws)):
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, _deviation(kdq._witnesses(kdq._kernel(quantity, rho_s, ops)[0]), 0.0))
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
