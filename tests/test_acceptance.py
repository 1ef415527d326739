"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import random_case
from kdcollide import analytic, kdq
from kdcollide.cli import ExperimentSpec, fig7_config, run
from kdcollide.collision import bch_collide_once, evolve
from kdcollide.kdq import (
    ValidityWarning,
    average_via_trace,
    kdq_distribution,
    marginalize_usa_to_ua,
    marginalize_usa_to_us,
    moments,
    nonpositivity,
)
from kdcollide.linalg import (
    commutator,
    dag,
    tensor,
    trace_distance,
    unitary_from_hamiltonian,
)
from kdcollide.model import (
    MODE_WEAK,
    ModelConfig,
    SystemStateParams,
    build_ancilla,
    build_hamiltonians,
    build_system_state,
    partition_function,
)
from kdcollide.smalltau import integrate_master_equation, operator_approach


@pytest.fixture(autouse=True)
def _silence_validity_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        yield


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS  {criterion}: {detail}")


def test_criterion_01_lambda_max_reproduction():
    worst = 0.0
    for beta, expected in ((5.0, 0.082), (1.0, 0.443), (0.2, 0.498)):
        worst = max(worst, abs(1.0 / partition_function(beta, 1.0) - expected))
    assert worst < 5e-4
    _report("1 lambda_max values", f"max |1/Z_A - quoted| = {worst:.2e} < 5e-4")


def test_criterion_02_normalization():
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(1000):
        cfg, state = random_case(rng, resonant=(k % 2 == 0))
        rho_s = build_system_state(state)
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            worst = max(worst, abs(kdq_distribution(quantity, rho_s, cfg).total() - 1.0))
        if abs(cfg.detuning) < 1e-12:
            worst = max(worst, abs(kdq_distribution(kdq.Q, rho_s, cfg).total() - 1.0))
            worst = max(worst, abs(kdq_distribution(kdq.W, rho_s, cfg).total()))
    assert worst < 1e-12
    _report("2 normalization", f"1000 draws, max deviation {worst:.2e} < 1e-12")


def test_criterion_03_first_law_on_circuit_trajectory():
    cfg = fig7_config()
    state = SystemStateParams(0.25, math.sqrt(3.0) / 4.0, math.pi / 4)
    trajectory = evolve(build_system_state(state), cfg, 100, thermo=True)
    scale = cfg.hbar * cfg.omega_s
    worst_first_law = worst_total = worst_split = 0.0
    for record in trajectory.per_step:
        u_s = record.moments[kdq.US].mean
        u_a = record.moments[kdq.UA].mean
        u_sa = record.moments[kdq.USA].mean
        worst_first_law = max(worst_first_law, abs(u_s + u_a - u_sa))
        worst_total = max(worst_total, abs(u_sa))
        worst_split = max(
            worst_split, abs(record.w_s + record.w_a), abs(record.q_s + record.q_a)
        )
    assert worst_first_law < 1e-10 * scale
    assert worst_total < 1e-10 * scale
    assert worst_split < 1e-10 * scale
    _report(
        "3 first law, 100 collisions",
        f"max residuals {worst_first_law:.2e}/{worst_total:.2e}/{worst_split:.2e}"
        f" < {1e-10 * scale:.2e}",
    )


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(20240401)
    worst_resonant = 0.0
    for _ in range(200):
        cfg, state = random_case(rng, resonant=True)
        rho_s = build_system_state(state)

        us = kdq_distribution(kdq.US, rho_s, cfg)
        worst_resonant = max(
            worst_resonant,
            float(np.max(np.abs(us.quasiprobs() - analytic.resonant_kdq_us(cfg, state)))),
            float(np.max(np.abs(
                kdq_distribution(kdq.QS, rho_s, cfg).quasiprobs()
                - analytic.resonant_kdq_q(cfg, state)
            ))),
            float(np.max(np.abs(
                kdq_distribution(kdq.WS, rho_s, cfg).quasiprobs()
                - analytic.resonant_kdq_w(cfg, state)
            ))),
        )
        mean, variance = analytic.resonant_energy_stats(cfg, state)
        m_us = moments(us)
        worst_resonant = max(worst_resonant, abs(m_us.mean - mean), abs(m_us.variance - variance))

        stats = analytic.resonant_w_q_stats(cfg, state)
        m_w = moments(kdq_distribution(kdq.W, rho_s, cfg))
        m_q = moments(kdq_distribution(kdq.Q, rho_s, cfg))
        worst_resonant = max(
            worst_resonant,
            abs(m_w.mean - stats.w_mean),
            abs(m_w.variance - stats.w_variance),
            abs(m_q.mean - stats.q_mean),
            abs(m_q.variance - stats.q_variance),
        )
        n_re, n_im = analytic.resonant_nonpositivity(cfg, state)
        report = nonpositivity(us)
        worst_resonant = max(worst_resonant, abs(report.n_re - n_re), abs(report.n_im - n_im))
    assert worst_resonant < 1e-10

    worst_detuned = 0.0
    for _ in range(200):
        cfg, state = random_case(rng, resonant=False)
        rho_s = build_system_state(state)
        worst_detuned = max(
            worst_detuned,
            abs(average_via_trace(kdq.US, rho_s, cfg).real - analytic.delta_e_s(cfg, state)),
            abs(average_via_trace(kdq.USA, rho_s, cfg).real - analytic.delta_e_sa(cfg, state)),
        )
    assert worst_detuned < 1e-10
    _report(
        "4 oracle equivalence",
        f"200+200 draws, max |closed - numeric| = {max(worst_resonant, worst_detuned):.2e} < 1e-10",
    )


def test_criterion_05_marginalization():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        cfg, state = random_case(rng, resonant=False)
        rho_s = build_system_state(state)
        usa = kdq_distribution(kdq.USA, rho_s, cfg)
        for marginal, quantity in (
            (marginalize_usa_to_us(usa), kdq.US),
            (marginalize_usa_to_ua(usa), kdq.UA),
        ):
            direct = kdq_distribution(quantity, rho_s, cfg)
            worst = max(worst, float(np.max(np.abs(marginal.quasiprobs() - direct.quasiprobs()))))
    assert worst < 1e-12
    _report("5 marginalization", f"100 draws, max entrywise deviation {worst:.2e} < 1e-12")


def test_criterion_06_tpm_limit():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        cfg, state = random_case(rng, resonant=False, coherent=False)
        rho_s = build_system_state(state)
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            report = nonpositivity(kdq_distribution(quantity, rho_s, cfg))
            worst = max(worst, abs(report.n_q), abs(report.n_re), abs(report.n_im))
    assert worst < 1e-12
    _report("6 TPM limit", f"100 draws, max witness {worst:.2e} < 1e-12")


def test_criterion_07_energy_preservation_switch():
    def commutator_with_bare(cfg):
        h_s, h_a, h_int, _ = build_hamiltonians(cfg)
        bare = tensor(h_s, np.eye(2)) + tensor(np.eye(2), h_a)
        return float(np.linalg.norm(commutator(h_int, bare)))

    resonant = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.5, beta=1.0)
    norm_resonant = commutator_with_bare(resonant)
    assert norm_resonant < 1e-12

    detuned = ModelConfig(omega_s=4.0, omega_a=1.0, g=1.0, tau=0.5, beta=1.0)
    norm_detuned = commutator_with_bare(detuned)
    delta = detuned.detuning
    floor = 0.1 * detuned.hbar * detuned.g * delta / (detuned.hbar * detuned.g + abs(delta))
    assert norm_detuned > floor
    _report(
        "7 energy-preservation switch",
        f"resonant norm {norm_resonant:.1e} < 1e-12, detuned norm {norm_detuned:.3f} > {floor:.3f}",
    )


def test_criterion_08_bch_order():
    rho = build_system_state(SystemStateParams(0.3, 0.35, 1.1))
    ratios = []
    for tau0 in (math.pi / 360, math.pi / 3600, math.pi / 36000):
        errors = []
        for tau in (tau0, tau0 / 2.0):
            cfg = ModelConfig(
                omega_s=1.0, omega_a=1.0, g=math.sqrt(tau), tau=tau, beta=0.7,
                lam_tilde=0.2 / math.sqrt(tau), mode=MODE_WEAK,
            )
            _, _, _, h_sa = build_hamiltonians(cfg)
            rho_a, _, _ = build_ancilla(cfg)
            u = unitary_from_hamiltonian(h_sa, tau, cfg.hbar)
            exact = u @ tensor(rho, rho_a) @ dag(u)
            errors.append(float(np.linalg.norm(exact - bch_collide_once(rho, cfg))))
        ratios.append(errors[0] / errors[1])
    assert all(6.5 <= r <= 9.5 for r in ratios)
    _report("8 BCH order", f"halving ratios {[f'{r:.3f}' for r in ratios]} within [6.5, 9.5]")


def test_criterion_09_master_equation_consistency():
    rho0 = build_system_state(SystemStateParams(0.3, 0.35, 1.1))
    total_time = 4.0
    gaps = []
    for tau in (0.2, 0.1, 0.05):
        cfg = ModelConfig(
            omega_s=1.0, omega_a=1.0, g=1.0, tau=tau, beta=0.7,
            lam_tilde=0.3, mode=MODE_WEAK,
        )
        n = int(round(total_time / tau))
        chain = evolve(rho0, cfg, n)
        _, flow = integrate_master_equation(rho0, cfg, t_final=total_time)
        gaps.append(
            max(trace_distance(chain.states[k], flow[20 * k]) for k in range(n + 1))
        )
    first = gaps[0] / gaps[1]
    second = gaps[1] / gaps[2]
    assert first >= 1.5
    assert second >= 1.5
    _report(
        "9 master-equation consistency",
        f"gap shrink factors {first:.2f}, {second:.2f} >= 1.5",
    )


def test_criterion_10_operator_approach():
    cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.4, beta=0.1, lam=0.45)
    state = SystemStateParams(0.25, math.sqrt(3.0) / 4.0, math.pi / 3)
    rho_s = build_system_state(state)

    from kdcollide.smalltau import work_observables

    o1, _ = work_observables(cfg)
    assert float(np.linalg.norm(o1)) < 1e-12

    spectrum = operator_approach(rho_s, cfg)
    im12 = state.r * math.sin(state.phi_c)
    w_plus = -0.5 * cfg.hbar * cfg.omega_s * cfg.lam * math.sin(2.0 * cfg.g * cfg.tau)
    worst = 0.0
    for target_value, target_prob in ((w_plus, 0.5 + im12), (-w_plus, 0.5 - im12)):
        idx = int(np.argmin(np.abs(np.array(spectrum.values) - target_value)))
        worst = max(
            worst,
            abs(spectrum.values[idx] - target_value),
            abs(spectrum.probs[idx] - target_prob),
        )
    assert worst < 1e-12

    kdq_mean = average_via_trace(kdq.W, rho_s, cfg).real
    assert abs(spectrum.mean() - kdq_mean) < 1e-10
    _report(
        "10 operator approach",
        f"spectrum deviation {worst:.2e} < 1e-12, mean gap {abs(spectrum.mean() - kdq_mean):.2e} < 1e-10",
    )


def test_criterion_11_variance_structure():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        base, state = random_case(rng, resonant=False)
        rho_s = build_system_state(state)
        lam_max = base.lambda_max
        lams = np.array([-0.6, 0.1, 0.5, 0.35]) * lam_max

        for quantity in (kdq.US, kdq.USA):
            def variance(lam):
                cfg = ModelConfig(
                    omega_s=base.omega_s, omega_a=base.omega_a, g=base.g,
                    tau=base.tau, beta=base.beta, lam=float(lam),
                )
                return moments(kdq_distribution(quantity, rho_s, cfg)).variance

            v = [variance(lam) for lam in lams]
            predicted = 0.0 + 0.0j
            for i in range(3):
                weight = 1.0
                for j in range(3):
                    if i != j:
                        weight *= (lams[3] - lams[j]) / (lams[i] - lams[j])
                predicted += v[i] * weight
            worst = max(worst, abs(predicted - v[3]))
    assert worst < 1e-10

    # Coherence reduces the system-energy variance at the detunings where it
    # peaks (lambda = 0 gives the largest value).
    state = SystemStateParams(0.25, math.sqrt(3.0) / 4.0, math.pi / 4)
    rho_s = build_system_state(state)
    base = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=math.pi / 6, beta=1.0)
    deltas = np.linspace(0.0, 20.0, 512)
    curve = []
    for delta in deltas:
        cfg = ModelConfig(omega_s=1.0 + float(delta), omega_a=1.0, g=1.0,
                          tau=math.pi / 6, beta=1.0)
        curve.append(moments(kdq_distribution(kdq.US, rho_s, cfg)).variance.real)
    peaks = [
        float(deltas[i])
        for i in range(1, len(deltas) - 1)
        if curve[i] > curve[i - 1] and curve[i] >= curve[i + 1]
    ]
    assert peaks, "no interior variance maxima found"
    lam_half = base.lambda_max / 2.0
    for delta in peaks:
        def var_at(lam):
            cfg = ModelConfig(omega_s=1.0 + delta, omega_a=1.0, g=1.0,
                              tau=math.pi / 6, beta=1.0, lam=lam)
            return moments(kdq_distribution(kdq.US, rho_s, cfg)).variance.real

        reference = var_at(0.0)
        assert var_at(+lam_half) < reference
        assert var_at(-lam_half) < reference
    _report(
        "11 variance structure",
        f"quadratic prediction error {worst:.2e} < 1e-10; coherence lowers the"
        f" variance at peak detunings {[f'{p:.2f}' for p in peaks]}",
    )


def test_criterion_12_extreme_out_of_resonance():
    # Pointwise 5% agreement relative to the oscillation magnitude, checked
    # wherever |delta_e_sa| clears the stated floor, at both detuning signs.
    state = SystemStateParams(0.25, math.sqrt(3.0) / 4.0, math.pi / 4)
    lam = 0.2
    worst = 0.0
    for delta in (200.0, -200.0, 400.0, -400.0):
        taus = np.linspace(0.0, math.pi / 2.0, 240)
        configs = [
            ModelConfig(omega_s=1.0 + delta, omega_a=1.0, g=1.0, tau=float(t),
                        beta=1.0, lam=lam)
            for t in taus
        ]
        full = np.array([analytic.delta_e_sa(c, state) for c in configs])
        limit = np.array([analytic.delta_e_sa_limit(c, state) for c in configs])
        magnitude = np.max(np.abs(full))
        mask = np.abs(full) > 1e-3 * 1.0 * 1.0 * lam * state.r
        worst = max(worst, float(np.max(np.abs(full - limit)[mask]) / magnitude))
    assert worst <= 0.05
    _report(
        "12 extreme out-of-resonance limit",
        f"max deviation {worst:.2%} of the oscillation magnitude (<= 5%), both detuning signs",
    )


def test_criterion_13_determinism(tmp_path):
    for preset, kwargs in (("fig5", {"points": 48}), ("fig7", {"collisions": 12})):
        outputs = []
        for tag in ("first", "second"):
            path = tmp_path / f"{preset}_{tag}.csv"
            run(ExperimentSpec(preset=preset, cfg=None, state=None,
                               out_path=str(path), **kwargs))
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], f"{preset} output differs between runs"
    _report("13 determinism", "fig5 and fig7 reruns are byte-identical")
