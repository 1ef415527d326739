import math
import os
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import admissible_cases, assert_same_bits, random_case, random_density_matrix, system_states
from references import is_hermitian
from kdcollide import kdq, smalltau
from kdcollide.cli import HBAR_SI
from kdcollide.linalg import eig_hermitian, psd_floor, trace_distance
from kdcollide.model import (
    MODE_WEAK,
    SIGMA_X,
    SIGMA_Y,
    ModelConfig,
    SystemStateParams,
    _ConfigArrays,
    build_ancilla,
    build_hamiltonians,
    build_system_state,
)
from kdcollide.smalltau import (
    coherent_correction_G,
    coherent_work_bch,
    incoherent_heat_bch,
    integrate_master_equation,
    master_equation_rhs,
    operator_approach,
    work_observables,
)


def weak_cfg(**kwargs):
    defaults = dict(
        omega_s=1.0, omega_a=1.0, g=1.0, tau=0.02, beta=0.7,
        lam_tilde=0.25, mode=MODE_WEAK,
    )
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def rk4_reference(rho, cfg, dt, steps):
    """Stage-by-stage classical RK4 on `master_equation_rhs`, one state per step."""
    states = [rho]
    for _ in range(steps):
        k1 = master_equation_rhs(rho, cfg)
        k2 = master_equation_rhs(rho + 0.5 * dt * k1, cfg)
        k3 = master_equation_rhs(rho + 0.5 * dt * k2, cfg)
        k4 = master_equation_rhs(rho + dt * k3, cfg)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho)
    return states


def manual_partial_trace_a(m):
    """Index-sum oracle for Tr_A, independent of the library implementation."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[i, j] = m[2 * i, 2 * j] + m[2 * i + 1, 2 * j + 1]
    return out


class TestCoherentCorrection:
    def test_matches_manual_partial_trace(self):
        from kdcollide.linalg import tensor
        from kdcollide.model import IDENTITY_2, build_hamiltonians

        cfg = weak_cfg(g=1.7)
        _, _, h_int, _ = build_hamiltonians(cfg)
        expected = manual_partial_trace_a(h_int @ tensor(IDENTITY_2, SIGMA_X))
        g_corr = coherent_correction_G(cfg)
        assert_allclose(g_corr, expected, atol=1e-14)
        # For the swap interaction with chi = sigma_x this is hbar*g*sigma_x.
        assert_allclose(g_corr, cfg.hbar * cfg.g * SIGMA_X, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(case=admissible_cases(), si=st.booleans())
@example(case=(weak_cfg(omega_s=0.0, omega_a=-0.0), None), si=True)
def test_coupling_and_correction_match_reference_builders(case, si):
    # G and the coupling that the second-order collision map and the master
    # equation read, bit for bit against the public reference builders.
    cfg, _ = case
    if si:
        try:
            cfg = replace(cfg, hbar=HBAR_SI)
        except ValueError:  # hbar*omega/2 of a tiny frequency falls below the smallest normal float
            assume(False)
    _, _, h_int, _ = build_hamiltonians(cfg)
    _, _, chi_a = build_ancilla(cfg)
    assert_same_bits(smalltau._coupling(cfg), h_int)
    assert_same_bits(coherent_correction_G(cfg), cfg.hbar * cfg.g * chi_a)


class TestCoherentWorkAndHeat:
    def test_work_vanishes_without_coherence(self, rng):
        cfg = weak_cfg(lam_tilde=0.0)
        assert coherent_work_bch(random_density_matrix(rng), cfg) == pytest.approx(0.0, abs=1e-15)

    def test_work_closed_form(self, rng):
        # For the swap interaction: W = -2 hbar g omega lt tau Im[rho12].
        for _ in range(5):
            rho = random_density_matrix(rng)
            cfg = weak_cfg(omega_s=1.3, omega_a=1.3, g=0.8, tau=0.03)
            expected = -2.0 * cfg.g * cfg.omega_a * cfg.lam_tilde * cfg.tau * rho[0, 1].imag
            assert coherent_work_bch(rho, cfg) == pytest.approx(expected, abs=1e-14)

    def test_heat_closed_form(self, rng):
        # Q = hbar omega g^2 tau (thermal |0> population - rho11).
        for _ in range(5):
            rho = random_density_matrix(rng)
            cfg = weak_cfg(omega_s=0.9, omega_a=0.9, g=1.2, tau=0.04)
            x = 0.5 * cfg.beta * cfg.omega_a
            expected = cfg.omega_a * cfg.g**2 * cfg.tau * (math.exp(-x) / cfg.z_a - rho[0, 0].real)
            assert incoherent_heat_bch(rho, cfg) == pytest.approx(expected, abs=1e-14)

    def test_heat_vanishes_for_matched_thermal_state(self):
        cfg = weak_cfg()
        _, rho_th, _ = build_ancilla(cfg)
        assert incoherent_heat_bch(rho_th, cfg) == pytest.approx(0.0, abs=1e-16)

    def test_first_law_of_expansion(self, rng):
        # W + Q equals the system energy change of the truncated collision
        # map exactly at resonance.
        from kdcollide.collision import bch_collide_once
        from kdcollide.linalg import tensor
        from kdcollide.model import IDENTITY_2, build_hamiltonians

        for _ in range(5):
            rho = random_density_matrix(rng)
            cfg = weak_cfg(tau=0.05, lam_tilde=0.3)
            h_s, h_a, _, _ = build_hamiltonians(cfg)
            rho_a, _, _ = build_ancilla(cfg)
            joint = tensor(rho, rho_a)
            evolved = bch_collide_once(rho, cfg)
            de_s = np.trace(tensor(h_s, IDENTITY_2) @ (evolved - joint)).real
            de_a = np.trace(tensor(IDENTITY_2, h_a) @ (evolved - joint)).real
            total = coherent_work_bch(rho, cfg) + incoherent_heat_bch(rho, cfg)
            assert abs(total - de_s) < 1e-14
            assert abs(de_s + de_a) < 1e-14

    def test_requires_weak_mode(self, rng):
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.1, beta=1.0, lam=0.1)
        with pytest.raises(ValueError):
            coherent_work_bch(random_density_matrix(rng), cfg)

    def test_disagreeing_sides_raise(self, monkeypatch, rng):
        # A doubled drive correction doubles the system side only: the ancilla side reads the coupling itself.
        correction = smalltau.coherent_correction_G
        monkeypatch.setattr(smalltau, "coherent_correction_G", lambda cfg: 2.0 * correction(cfg))
        rho = build_system_state(SystemStateParams(0.3, 0.35, 1.1))
        with pytest.raises(RuntimeError, match=r"^coherent-work expressions disagree: \S+ vs \S+$"):
            coherent_work_bch(rho, weak_cfg())


class TestMasterEquation:
    def test_traceless_rhs(self, rng):
        cfg = weak_cfg()
        for _ in range(5):
            assert abs(np.trace(master_equation_rhs(random_density_matrix(rng), cfg))) < 1e-14

    def test_rhs_preserves_hermiticity(self, rng):
        cfg = weak_cfg()
        assert is_hermitian(master_equation_rhs(random_density_matrix(rng), cfg), tol=1e-12)

    def test_dissipator_alone_thermalizes(self):
        cfg = weak_cfg(lam_tilde=0.0, tau=0.05)
        _, rho_th, _ = build_ancilla(cfg)
        rho0 = build_system_state(SystemStateParams(0.9, 0.2, 0.3))
        _, states = integrate_master_equation(rho0, cfg, t_final=40.0)
        assert trace_distance(states[-1], rho_th) < 1e-8

    def test_trace_and_positivity_along_flow(self):
        cfg = weak_cfg(lam_tilde=0.3, tau=0.05)
        rho0 = build_system_state(SystemStateParams(0.25, math.sqrt(3) / 4, math.pi / 3))
        _, states = integrate_master_equation(rho0, cfg, t_final=10.0)
        for rho in states:
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert psd_floor(rho) > -1e-8

    def test_collision_trajectory_converges_to_flow(self):
        # Halving tau at fixed lam_tilde roughly halves the gap between the
        # collision chain and the integrated flow.
        from kdcollide.collision import evolve

        rho0 = build_system_state(SystemStateParams(0.3, 0.35, 1.1))
        total_time = 4.0
        gaps = []
        for tau in (0.2, 0.1, 0.05):
            cfg = weak_cfg(tau=tau, lam_tilde=0.3)
            n = int(round(total_time / tau))
            chain = evolve(rho0, cfg, n)
            _, flow = integrate_master_equation(rho0, cfg, t_final=total_time)
            gap = max(
                trace_distance(chain.states[k], flow[20 * k]) for k in range(n + 1)
            )
            gaps.append(gap)
        assert gaps[0] / gaps[1] >= 1.5
        assert gaps[1] / gaps[2] >= 1.5

    def test_step_size_guard(self):
        cfg = weak_cfg(tau=0.02)
        rho0 = build_system_state(SystemStateParams(0.5))
        with pytest.raises(ValueError):
            integrate_master_equation(rho0, cfg, 1.0, dt=0.05)

    @pytest.mark.parametrize(
        "t_final, dt, message",
        [(1.0, 0.0, "dt must be positive"), (1.0, -0.001, "dt must be positive"), (-1.0, 0.001, "t_final must be non-negative")],
    )
    def test_rejects_non_positive_step_and_negative_time(self, t_final, dt, message):
        rho0 = build_system_state(SystemStateParams(0.5))
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_master_equation(rho0, weak_cfg(), t_final, dt)

    def test_grid_stops_at_t_final(self):
        # 1.0 / 0.35 rounds up to 3 steps, and a third step would end at 1.05.
        times, states = integrate_master_equation(
            build_system_state(SystemStateParams(0.5)), weak_cfg(tau=0.5), 1.0, dt=0.35
        )
        assert_allclose(times, [0.0, 0.35, 0.7], rtol=0, atol=1e-15)
        assert len(states) == 3

    @pytest.mark.parametrize("tau", [0.02, 0.1, 0.37, 1.3])
    def test_whole_step_count_is_kept(self, tau):
        dt = tau / 20.0
        times, states = integrate_master_equation(
            build_system_state(SystemStateParams(0.5)), weak_cfg(tau=tau), 1000 * dt, dt
        )
        assert len(times) == len(states) == 1001
        assert times[-1] == 1000 * dt

    def test_generator_is_built_once(self, monkeypatch):
        calls = []
        rhs = smalltau.master_equation_rhs

        def counted(rho_s, cfg):
            calls.append(cfg)
            return rhs(rho_s, cfg)

        monkeypatch.setattr(smalltau, "master_equation_rhs", counted)
        _, states = integrate_master_equation(build_system_state(SystemStateParams(0.3)), weak_cfg(), 100 * 0.001, 0.001)
        assert len(states) == 101
        assert len(calls) == 1

    @pytest.mark.parametrize("tau, t_final", [(0.5, 400.0), (0.02, 40.0)])
    def test_long_run_matches_single_steps(self, tau, t_final):
        # 16 000 and 40 000 steps by repeated squaring against one step at a
        # time of the same P; both drift by a few ulps per step.
        cfg, dt = weak_cfg(tau=tau), tau / 20.0
        rho = build_system_state(SystemStateParams(0.3, 0.35, 1.1)).astype(complex).ravel()
        h_l = dt * np.column_stack([master_equation_rhs(e, cfg).ravel() for e in np.eye(4).reshape(4, 2, 2)])
        identity = np.eye(4)
        step = identity + h_l @ (identity + (h_l / 2.0) @ (identity + (h_l / 3.0) @ (identity + h_l / 4.0)))
        _, states = integrate_master_equation(rho.reshape(2, 2), cfg, t_final)
        assert states.shape == (round(t_final / dt) + 1, 2, 2)
        reference = [rho]
        for _ in range(len(states) - 1):
            reference.append(step @ reference[-1])
        assert float(np.max(np.abs(states.reshape(-1, 4) - reference))) <= 1e-12

    def test_run_too_long_to_hold_fails_at_once(self):
        # 10**18 steps: the states array is refused before any step runs.  In
        # a child with bounded memory and time, so that a run that grows one
        # state at a time fails instead of filling the machine; its peak
        # resident size shows whether the states were grown.
        code = f"""
import resource
from kdcollide.model import ModelConfig, SystemStateParams, build_system_state
from kdcollide.smalltau import integrate_master_equation
cfg, rho0 = {weak_cfg()!r}, build_system_state(SystemStateParams(0.5))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    integrate_master_equation(rho0, cfg, 1e15)
except (ValueError, MemoryError) as exc:
    print(type(exc).__name__, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
        limit = 512 << 20
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert child.returncode == 0, child.stderr
        kind, grown_kib = child.stdout.split()
        assert kind in ("ValueError", "MemoryError")
        assert int(grown_kib) < 16 << 10

    @pytest.mark.parametrize(
        "t_final, dt, name",
        [(math.inf, None, "t_final"), (math.nan, None, "t_final"), (1.0, math.nan, "dt"), (1e308, 1e-10, "t_final / dt")],
    )
    def test_rejects_non_finite_times(self, t_final, dt, name):
        # The step count int(round(t_final / dt)) has no value here.
        rho0 = build_system_state(SystemStateParams(0.5))
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite, got"):
            integrate_master_equation(rho0, weak_cfg(), t_final, dt)


@settings(max_examples=30, deadline=None)
@given(case=admissible_cases().filter(lambda case: case[0].is_weak), state=system_states())
def test_step_matrix_matches_stagewise_rk4(case, state):
    cfg, _ = case
    rho0 = build_system_state(state)
    dt = cfg.tau / 20.0
    times, states = integrate_master_equation(rho0, cfg, 200 * dt, dt)
    reference = rk4_reference(np.asarray(rho0, dtype=complex), cfg, dt, 200)
    assert len(times) == len(states) == len(reference) == 201
    for rho, expected in zip(states, reference):
        assert float(np.max(np.abs(rho - expected))) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert is_hermitian(rho, tol=1e-12)


class TestOperatorApproach:
    def test_o1_is_null_and_o2_matches_pauli_form(self):
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.4, beta=0.1, lam=0.45)
        o1, o2 = work_observables(cfg)
        assert np.linalg.norm(o1) < 1e-12
        expected = 0.5 * cfg.omega_a * cfg.lam * math.sin(2.0 * cfg.g * cfg.tau) * SIGMA_Y
        assert_allclose(o2, expected, atol=1e-13)

    def test_probabilities_from_imaginary_coherence(self):
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.4, beta=0.1, lam=0.45)
        state = SystemStateParams(0.25, math.sqrt(3) / 4, math.pi / 3)
        spectrum = operator_approach(build_system_state(state), cfg)
        im12 = state.r * math.sin(state.phi_c)
        w_plus = -0.5 * cfg.omega_a * cfg.lam * math.sin(2.0 * cfg.g * cfg.tau)
        for target_value, target_prob in ((w_plus, 0.5 + im12), (-w_plus, 0.5 - im12)):
            idx = int(np.argmin(np.abs(np.array(spectrum.values) - target_value)))
            assert spectrum.values[idx] == pytest.approx(target_value, abs=1e-13)
            assert spectrum.probs[idx] == pytest.approx(target_prob, abs=1e-13)

    def test_real_coherence_gives_even_odds(self):
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.3, beta=0.5, lam=0.2)
        spectrum = operator_approach(
            build_system_state(SystemStateParams(0.3, 0.4, 0.0)), cfg
        )
        assert_allclose(spectrum.probs, (0.5, 0.5), atol=1e-13)

    def test_zero_time_spectrum(self):
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.0, beta=0.5, lam=0.2)
        spectrum = operator_approach(build_system_state(SystemStateParams(0.3, 0.4, 1.0)), cfg)
        assert max(abs(v) for v in spectrum.values) < 1e-15
        assert sum(spectrum.probs) == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(5):
            cfg, state = random_case(rng, resonant=True)
            spectrum = operator_approach(build_system_state(state), cfg)
            assert all(p >= -1e-12 for p in spectrum.probs)
            assert sum(spectrum.probs) == pytest.approx(1.0, abs=1e-12)

    def test_mean_matches_kdq(self, rng):
        for _ in range(5):
            cfg, state = random_case(rng, resonant=True)
            rho_s = build_system_state(state)
            spectrum = operator_approach(rho_s, cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", kdq.ValidityWarning)
                kdq_mean = kdq.average_via_trace(kdq.W, rho_s, cfg)
            assert spectrum.mean() == pytest.approx(kdq_mean.real, abs=1e-10)

    def test_second_moments_are_distinct_routes(self):
        # The KDQ second moment keeps fixed values with moving
        # quasiprobabilities; the operator approach moves the values at
        # fixed probabilities.  They need not agree and generally do not.
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.4, beta=0.1, lam=0.45)
        rho_s = build_system_state(SystemStateParams(0.25, math.sqrt(3) / 4, math.pi / 3))
        spectrum = operator_approach(rho_s, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kdq.ValidityWarning)
            kdq_second = kdq.moments(kdq.kdq_distribution(kdq.W, rho_s, cfg)).second_moment
        assert abs(spectrum.moment(2) - kdq_second) > 1e-3

    def test_rejects_detuned_configuration(self, rng):
        cfg, state = random_case(rng, resonant=False)
        with pytest.raises(ValueError):
            operator_approach(build_system_state(state), cfg)

    def test_o1_off_null_raises(self, monkeypatch):
        # chi_A with weight on the H_A diagonal gives O1 = -lam Tr[H_A chi_A] I, not zero.
        monkeypatch.setattr(smalltau, "SIGMA_X", SIGMA_X + np.diag([1.0, 0.0]))
        cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.4, beta=0.1, lam=0.45)
        message = "O1 is not null; chi_A must be hollow in the H_A eigenbasis"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            work_observables(cfg)


# Resonant configs, with zero frequencies and ancilla coherences down to 0 and
# the subnormals, so that O2 is sometimes zero (one merged level) or subnormal.
_resonant_cases = admissible_cases().filter(lambda case: case[0].is_resonant)


@settings(max_examples=100, deadline=None)
@given(cases=st.lists(_resonant_cases, min_size=1, max_size=6))
def test_stacked_spectrum_matches_eig_hermitian(cases):
    # The closed-form spectrum of a stack of configs against the grouped
    # eigendecomposition of each config's O2.
    rho_s = np.array([build_system_state(state) for _, state in cases])
    w_hi, p_hi, w_lo, p_lo = smalltau._operator_spectra(rho_s, _ConfigArrays.of([cfg for cfg, _ in cases]))
    for k, (cfg, _) in enumerate(cases):
        o2 = work_observables(cfg)[1]
        dec = eig_hermitian(o2)
        probs = [float(np.trace(p @ rho_s[k]).real) for p in dec.projectors]
        tol = 1e-13 * float(np.max(np.abs(o2))) + 1e-320
        if len(dec.eigenvalues) == 1:
            assert w_hi[k] == w_lo[k] and p_lo[k] == 0.0
            assert w_hi[k] == pytest.approx(dec.eigenvalues[0], abs=tol)
            assert p_hi[k] == pytest.approx(probs[0], abs=1e-12)
        else:
            assert w_hi[k] > w_lo[k]
            assert [w_hi[k], w_lo[k]] == pytest.approx(list(dec.eigenvalues), abs=tol)
            assert [p_hi[k], p_lo[k]] == pytest.approx(probs, abs=1e-12)


def test_stacked_spectrum_rejects_a_detuned_row():
    cfgs = [ModelConfig(omega_s=w, omega_a=1.0, g=1.0, tau=0.4, beta=0.1, lam=0.45) for w in (1.0, 1.5, 1.0)]
    rho_s = build_system_state(SystemStateParams(0.3, 0.4, 1.0))
    with pytest.raises(ValueError, match=r"resonant interaction required \(detuning 0.5\)"):
        smalltau._operator_spectra(rho_s, _ConfigArrays.of(cfgs))


class TestBchAgainstKdq:
    def test_work_mean_agreement_scales_cubically(self):
        rho = build_system_state(SystemStateParams(0.3, 0.35, 1.1))
        diffs = []
        taus = (0.02, 0.01, 0.005)
        for tau in taus:
            cfg = weak_cfg(omega_s=1.3, omega_a=1.3, g=0.9, tau=tau)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", kdq.ValidityWarning)
                kdq_mean = kdq.average_via_trace(kdq.W, rho, cfg).real
            diffs.append(abs(kdq_mean - coherent_work_bch(rho, cfg)))
        # The two differ only by the sin(2 g tau) expansion remainder.
        assert diffs[0] / diffs[1] == pytest.approx(8.0, rel=0.05)
        assert diffs[1] / diffs[2] == pytest.approx(8.0, rel=0.05)
