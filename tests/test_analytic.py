import math
import warnings
from dataclasses import astuple, replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import admissible_cases, random_case
from kdcollide import analytic, cli, kdq, model
from kdcollide.model import MODE_WEAK, ModelConfig, SystemStateParams, build_system_state


def resonant_cfg(**kwargs):
    defaults = dict(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.4, beta=1.0, lam=0.3)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def detuned(cfg, delta):
    return ModelConfig(
        omega_s=cfg.omega_a + delta, omega_a=cfg.omega_a, g=cfg.g, tau=cfg.tau,
        beta=cfg.beta, lam=cfg.lam,
    )


FIG_STATE = SystemStateParams(0.25, math.sqrt(3.0) / 4.0, math.pi / 4)


@pytest.fixture(autouse=True)
def _silence_validity_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", kdq.ValidityWarning)
        yield


class TestAuxiliary:
    def test_shorthands(self):
        cfg = detuned(resonant_cfg(), 3.0)
        aux = analytic.auxiliary_functions(cfg, FIG_STATE)
        assert aux.c_beta == pytest.approx(1.0 + math.exp(cfg.beta * cfg.omega_a))
        assert aux.tau_tilde == pytest.approx(cfg.tau * math.sqrt(4.0 * cfg.g**2 + 9.0))
        assert aux.j1 == pytest.approx(cfg.lam * FIG_STATE.r * math.cos(FIG_STATE.phi_c))
        assert aux.j2 == pytest.approx(cfg.lam * FIG_STATE.r * math.sin(FIG_STATE.phi_c))
        assert aux.amplitude * math.sin(aux.theta) == pytest.approx(aux.b)

    def test_degenerate_phase_convention(self):
        # a = b = 0 forces a zero-amplitude oscillation; theta defaults to 0.
        cfg = resonant_cfg(lam=0.0, beta=0.0)
        state = SystemStateParams(0.5)  # c_beta*rho11 - 1 = 0 at beta = 0
        aux = analytic.auxiliary_functions(cfg, state)
        assert aux.a == 0.0 and aux.b == 0.0 and aux.theta == 0.0
        assert analytic.delta_e_s(cfg, state) == 0.0


class TestZeroTemperature:
    RESONANT = (
        analytic.resonant_kdq_us,
        analytic.resonant_kdq_q,
        analytic.resonant_kdq_w,
        analytic.resonant_w_q_stats,
        analytic.resonant_energy_stats,
        analytic.resonant_nonpositivity,
    )
    DETUNED = (
        analytic.delta_e_s,
        analytic.delta_e_s_envelopes,
        analytic.delta_e_sa,
        analytic.delta_e_sa_limit,
    )

    @pytest.mark.parametrize("delta", [0.0, 3.0])
    def test_oracles_reach_the_limit(self, delta):
        # At beta*hbar*omega_a = 2000 exp and cosh overflow; every oracle must
        # give what it gives at 100, where the upper population is ~e^-100.
        def evaluate(oracle, beta):
            value = oracle(detuned(resonant_cfg(beta=beta, lam=0.0), delta), FIG_STATE)
            if isinstance(value, analytic.ResonantWorkHeatStats):
                value = astuple(value)
            return np.asarray(value, dtype=complex)

        oracles = self.DETUNED + (self.RESONANT if delta == 0.0 else ())
        for oracle in oracles:
            warm, cold = evaluate(oracle, 100.0), evaluate(oracle, 2000.0)
            assert np.max(np.abs(cold - warm)) <= 1e-14, oracle.__name__


class TestDeltaES:
    def test_vanishes_at_zero_time(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng)
            cfg = ModelConfig(
                omega_s=cfg.omega_s, omega_a=cfg.omega_a, g=cfg.g, tau=0.0,
                beta=cfg.beta, lam=cfg.lam,
            )
            assert abs(analytic.delta_e_s(cfg, state)) < 1e-12

    def test_matches_numeric_average(self, rng):
        for _ in range(40):
            cfg, state = random_case(rng)
            numeric = kdq.average_via_trace(kdq.US, build_system_state(state), cfg).real
            assert abs(numeric - analytic.delta_e_s(cfg, state)) < 1e-10

    def test_envelopes_bound_the_curve(self):
        cfg0 = resonant_cfg(tau=math.pi / 6, lam=0.2)
        for delta in np.linspace(-20.0, 20.0, 201):
            cfg = detuned(cfg0, float(delta))
            lo, hi = analytic.delta_e_s_envelopes(cfg, FIG_STATE)
            value = analytic.delta_e_s(cfg, FIG_STATE)
            assert lo - 1e-12 <= value <= hi + 1e-12


class TestDeltaESA:
    def test_vanishes_at_resonance(self):
        assert analytic.delta_e_sa(resonant_cfg(), FIG_STATE) == pytest.approx(0.0, abs=1e-15)

    def test_matches_numeric_average(self, rng):
        for _ in range(40):
            cfg, state = random_case(rng)
            numeric = kdq.average_via_trace(kdq.USA, build_system_state(state), cfg).real
            assert abs(numeric - analytic.delta_e_sa(cfg, state)) < 1e-10

    def test_limit_form_vanishes_without_coherence(self):
        cfg = detuned(resonant_cfg(lam=0.0), 250.0)
        for tau in (0.1, 0.5, 1.0):
            cfg_t = ModelConfig(
                omega_s=cfg.omega_s, omega_a=cfg.omega_a, g=cfg.g, tau=tau,
                beta=cfg.beta, lam=0.0,
            )
            assert analytic.delta_e_sa_limit(cfg_t, FIG_STATE) == 0.0

    def test_extreme_detuning_agreement(self):
        # The simplified formula tracks the full one to a few percent of the
        # oscillation magnitude once |detuning| >> g, for either sign.
        for delta in (200.0, -200.0, 400.0, -400.0):
            taus = np.linspace(0.0, math.pi / 2, 240)
            configs = [
                ModelConfig(omega_s=1.0 + delta, omega_a=1.0, g=1.0,
                            tau=float(t), beta=1.0, lam=0.2)
                for t in taus
            ]
            full = np.array([analytic.delta_e_sa(c, FIG_STATE) for c in configs])
            limit = np.array([analytic.delta_e_sa_limit(c, FIG_STATE) for c in configs])
            scale = np.max(np.abs(full))
            mask = np.abs(full) > 1e-3 * 0.2 * FIG_STATE.r
            assert np.max(np.abs(full - limit)[mask]) <= 0.05 * scale


class TestResonantClosedForms:
    def test_entries_sum_to_expected_totals(self, rng):
        for _ in range(20):
            cfg, state = random_case(rng, resonant=True)
            assert abs(np.sum(analytic.resonant_kdq_us(cfg, state)) - 1.0) < 1e-12
            assert abs(np.sum(analytic.resonant_kdq_q(cfg, state)) - 1.0) < 1e-12
            assert abs(np.sum(analytic.resonant_kdq_w(cfg, state))) < 1e-12

    def test_zero_pulse_area(self):
        cfg = resonant_cfg(tau=0.0)
        state = SystemStateParams(0.3, 0.2, 1.0)
        entries = analytic.resonant_kdq_us(cfg, state)
        assert_allclose(entries.imag, 0.0, atol=1e-15)
        assert_allclose(entries.real, [0.3, 0.0, 0.0, 0.7], atol=1e-13)

    def test_heat_entries_nonnegative_on_grid(self, rng):
        for _ in range(30):
            cfg, state = random_case(rng, resonant=True)
            assert np.min(analytic.resonant_kdq_q(cfg, state)) >= 0.0

    def test_work_entries_vanish_without_ancilla_coherence(self, rng):
        cfg, state = random_case(rng, resonant=True)
        cfg = ModelConfig(
            omega_s=cfg.omega_s, omega_a=cfg.omega_a, g=cfg.g, tau=cfg.tau,
            beta=cfg.beta, lam=0.0,
        )
        assert_allclose(analytic.resonant_kdq_w(cfg, state), 0.0, atol=1e-15)

    def test_entrywise_split(self, rng):
        # Heat and work entries recompose the internal-energy entries.
        for _ in range(10):
            cfg, state = random_case(rng, resonant=True)
            total = analytic.resonant_kdq_q(cfg, state) + analytic.resonant_kdq_w(cfg, state)
            assert_allclose(total, analytic.resonant_kdq_us(cfg, state), atol=1e-14)

    def test_entries_match_trace_formulas(self, rng):
        for _ in range(30):
            cfg, state = random_case(rng, resonant=True)
            rho_s = build_system_state(state)
            for closed, quantity in (
                (analytic.resonant_kdq_us(cfg, state), kdq.US),
                (analytic.resonant_kdq_q(cfg, state), kdq.QS),
                (analytic.resonant_kdq_w(cfg, state), kdq.WS),
            ):
                numeric = kdq.kdq_distribution(quantity, rho_s, cfg).quasiprobs()
                assert_allclose(numeric, closed, atol=1e-12)

    def test_weak_mode_prefactors(self, rng):
        # In the weakly coherent mode the energy/heat entries carry the
        # physical coherence lambda_tilde*sqrt(tau) while the work entries
        # carry the bare lambda_tilde prefactor.
        for _ in range(10):
            cfg, state = random_case(rng, resonant=True, weak=True)
            rho_s = build_system_state(state)
            assert_allclose(
                kdq.kdq_distribution(kdq.US, rho_s, cfg).quasiprobs(),
                analytic.resonant_kdq_us(cfg, state),
                atol=1e-12,
            )
            assert_allclose(
                kdq.kdq_distribution(kdq.WS, rho_s, cfg).quasiprobs(),
                analytic.resonant_kdq_w(cfg, state),
                atol=1e-12,
            )
            stats = analytic.resonant_w_q_stats(cfg, state)
            m_w = kdq.moments(kdq.kdq_distribution(kdq.W, rho_s, cfg))
            assert abs(m_w.mean - stats.w_mean) < 1e-12
            if cfg.lam_tilde != 0.0:
                ratio = cfg.lambda_eff / cfg.lam_tilde
                assert ratio == pytest.approx(math.sqrt(cfg.tau))

    def test_pinned_parameter_point(self):
        # One frozen reference point: beta=1/10, rho11=1/4, r=sqrt(3)/4,
        # phi_c=pi/3, lambda=1/Z_A, pulse area pi/6.
        beta = 0.1
        cfg = resonant_cfg(beta=beta, tau=math.pi / 6, lam=1.0 / (2.0 * math.cosh(beta / 2.0)))
        state = SystemStateParams(0.25, math.sqrt(3.0) / 4.0, math.pi / 3)
        entries = analytic.resonant_kdq_us(cfg, state)
        numeric = kdq.kdq_distribution(kdq.US, build_system_state(state), cfg).quasiprobs()
        assert_allclose(entries, numeric, atol=1e-12)
        assert abs(np.sum(entries) - 1.0) < 1e-12


class TestResonantStats:
    def test_energy_stats_match_moments(self, rng):
        for _ in range(25):
            cfg, state = random_case(rng, resonant=True)
            mean, variance = analytic.resonant_energy_stats(cfg, state)
            m = kdq.moments(kdq.kdq_distribution(kdq.US, build_system_state(state), cfg))
            assert abs(m.mean - mean) < 1e-10
            assert abs(m.variance - variance) < 1e-10

    def test_mean_vanishes_for_matched_thermal_population(self):
        cfg = resonant_cfg(beta=1.2)
        x = 0.5 * cfg.beta * cfg.omega_a
        matched = math.exp(-x) / cfg.z_a
        state = SystemStateParams(matched, 0.2, 0.0)  # J2 = 0 as well
        mean, _ = analytic.resonant_energy_stats(cfg, state)
        assert mean == pytest.approx(0.0, abs=1e-15)

    def test_three_routes_to_delta_e_s(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng, resonant=True)
            closed_resonant, _ = analytic.resonant_energy_stats(cfg, state)
            closed_general = analytic.delta_e_s(cfg, state)
            numeric = kdq.average_via_trace(kdq.US, build_system_state(state), cfg).real
            assert abs(closed_resonant - closed_general) < 1e-10
            assert abs(closed_resonant - numeric) < 1e-10

    def test_w_q_stats_match_moments(self, rng):
        for _ in range(25):
            cfg, state = random_case(rng, resonant=True)
            stats = analytic.resonant_w_q_stats(cfg, state)
            rho_s = build_system_state(state)
            m_w = kdq.moments(kdq.kdq_distribution(kdq.W, rho_s, cfg))
            m_q = kdq.moments(kdq.kdq_distribution(kdq.Q, rho_s, cfg))
            assert abs(m_w.mean - stats.w_mean) < 1e-10
            assert abs(m_w.variance - stats.w_variance) < 1e-10
            assert abs(m_q.mean - stats.q_mean) < 1e-10
            assert abs(m_q.variance - stats.q_variance) < 1e-10

    def test_work_mean_vanishes_for_real_coherence(self):
        cfg = resonant_cfg()
        state = SystemStateParams(0.3, 0.25, 0.0)  # Im[rho12] = 0
        stats = analytic.resonant_w_q_stats(cfg, state)
        assert stats.w_mean == 0.0
        assert stats.w_variance.real == 0.0

    def test_first_law_of_closed_forms(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng, resonant=True)
            stats = analytic.resonant_w_q_stats(cfg, state)
            assert stats.w_mean + stats.q_mean == pytest.approx(
                analytic.delta_e_s(cfg, state), abs=1e-12
            )

    def test_heat_stats_ignore_coherence(self):
        base = resonant_cfg(lam=0.0)
        ref = analytic.resonant_w_q_stats(base, SystemStateParams(0.3))
        for lam, r, phi_c in ((0.2, 0.3, 0.5), (0.4, 0.1, 2.0), (0.0, 0.45, 4.0)):
            stats = analytic.resonant_w_q_stats(
                resonant_cfg(lam=lam), SystemStateParams(0.3, r, phi_c)
            )
            assert stats.q_mean == ref.q_mean
            assert stats.q_variance == ref.q_variance

    def test_ancilla_variance_equals_system_variance(self, rng):
        cfg, state = random_case(rng, resonant=True)
        rho_s = build_system_state(state)
        var_us = kdq.moments(kdq.kdq_distribution(kdq.US, rho_s, cfg)).variance
        var_ua = kdq.moments(kdq.kdq_distribution(kdq.UA, rho_s, cfg)).variance
        assert abs(var_us - var_ua) < 1e-12


class TestResonantNonPositivity:
    def test_matches_numeric_witnesses(self, rng):
        for _ in range(30):
            cfg, state = random_case(rng, resonant=True)
            n_re, n_im = analytic.resonant_nonpositivity(cfg, state)
            report = kdq.nonpositivity(
                kdq.kdq_distribution(kdq.US, build_system_state(state), cfg)
            )
            assert abs(report.n_re - n_re) < 1e-10
            assert abs(report.n_im - n_im) < 1e-10

    def test_clean_limits(self):
        cfg = resonant_cfg(lam=0.0)
        n_re, n_im = analytic.resonant_nonpositivity(cfg, SystemStateParams(0.3))
        assert n_re == pytest.approx(0.0, abs=1e-15)
        assert n_im == 0.0

    def test_witness_selectivity(self):
        # Real system coherence feeds the imaginary witness only.
        cfg = resonant_cfg(lam=0.3, tau=0.5)
        real_coh = SystemStateParams(0.25, 0.4, 0.0)
        imag_coh = SystemStateParams(0.25, 0.4, math.pi / 2)
        n_re_r, n_im_r = analytic.resonant_nonpositivity(cfg, real_coh)
        n_re_i, n_im_i = analytic.resonant_nonpositivity(cfg, imag_coh)
        assert n_im_r > 0.0
        assert n_im_i == pytest.approx(0.0, abs=1e-16)
        # n_re depends on Im[rho12] only: rotating the phase changed it.
        assert n_re_i != pytest.approx(n_re_r, abs=1e-6)

    def test_rejects_detuned_input(self, rng):
        cfg, state = random_case(rng, resonant=False)
        with pytest.raises(ValueError):
            analytic.resonant_nonpositivity(cfg, state)
        with pytest.raises(ValueError):
            analytic.resonant_energy_stats(cfg, state)
        with pytest.raises(ValueError):
            analytic.resonant_kdq_us(cfg, state)

    def test_detuned_input_names_its_detuning(self):
        # The one resonance precondition of `model`, shared with `smalltau`.
        cfg = ModelConfig(omega_s=1.5, omega_a=1.0, g=1.0, tau=0.4, beta=0.1, lam=0.45)
        with pytest.raises(ValueError, match=r"^resonant interaction required \(detuning 0.5\)$"):
            analytic.resonant_kdq_us(cfg, SystemStateParams(0.3, 0.4, 1.0))


@settings(max_examples=100, deadline=None)
@given(case=admissible_cases())
def test_detuned_closed_forms_match_kdq_means(case):
    cfg, state = case
    rho_s = build_system_state(state)
    for quantity, oracle in ((kdq.US, analytic.delta_e_s), (kdq.USA, analytic.delta_e_sa)):
        mean = kdq.moments(kdq.kdq_distribution(quantity, rho_s, cfg)).mean
        assert abs(mean - oracle(cfg, state)) <= 1e-10


# Past a collision phase g*tau of about 1e5 rad, one ulp of the phase moves
# kernel and oracle apart by more than 1e-10 (hbar*omega units, |omega| <= 3):
# their gap is at most _PHASE_GAP * phase * eps.  Measured at most 1.36 over
# 42 000 random admissible configs with phases log-uniform up to 1e15 rad.
_PHASE_GAP = 4.0


@settings(max_examples=100, deadline=None)
@given(case=admissible_cases(), exponent=st.floats(-2.0, 15.0))
def test_kernel_matches_oracle_at_large_collision_phases(case, exponent):
    cfg, state = case
    cfg = replace(cfg, g=10.0**exponent / cfg.tau)
    (numeric, closed), = cli._grid(cfg, state, ()).evaluate(("delta_e_s", "analytic_delta_e_s"))
    assert abs(numeric - closed) <= 1e-10 + _PHASE_GAP * cfg.g * cfg.tau * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(case=admissible_cases().filter(lambda case: case[0].is_resonant))
@example(
    case=(ModelConfig(omega_s=-0.8, omega_a=-0.8, g=0.7, tau=0.5, beta=1.2, lam=0.3), SystemStateParams(0.3, 0.4, 0.9))
)
def test_resonant_closed_forms_match_kdq(case):
    cfg, state = case
    rho_s = build_system_state(state)
    dist = {q: kdq.kdq_distribution(q, rho_s, cfg) for q in (kdq.US, kdq.QS, kdq.WS, kdq.W, kdq.Q)}
    mean, variance = analytic.resonant_energy_stats(cfg, state)
    stats = analytic.resonant_w_q_stats(cfg, state)
    us, w, q = (kdq.moments(dist[quantity]) for quantity in (kdq.US, kdq.W, kdq.Q))
    for numeric, closed in (
        (us.mean, mean), (us.variance, variance),
        (w.mean, stats.w_mean), (w.variance, stats.w_variance),
        (q.mean, stats.q_mean), (q.variance, stats.q_variance),
    ):
        assert abs(numeric - closed) <= 1e-10
    # The oracle assumes two levels per qubit; the kernel merges the levels
    # of a zero frequency.  Both order levels by sigma_z index.
    if any(len(levels) < 2 for levels in (cfg.operators.levels_s, cfg.operators.levels_a)):
        return
    n_re, n_im = analytic.resonant_nonpositivity(cfg, state)
    report = kdq.nonpositivity(dist[kdq.US])
    assert abs(report.n_re - n_re) <= 1e-10 and abs(report.n_im - n_im) <= 1e-10
    for quantity, oracle in (
        (kdq.US, analytic.resonant_kdq_us),
        (kdq.QS, analytic.resonant_kdq_q),
        (kdq.WS, analytic.resonant_kdq_w),
    ):
        assert np.max(np.abs(dist[quantity].quasiprobs() - oracle(cfg, state))) <= 1e-10


# --------------------------------------------------------------------------
# the array oracle against 50-digit references


def reference(cfg, state):
    """Name -> (value, error scale) of each closed form at 50 digits, from the exact floats of ``cfg`` and ``state``.

    ``cfg`` is a `ModelConfig` or any object with its fields.

    The formulas in the form they are stated in, with sqrt(4 g^2 + delta^2)
    and the thermal weights (1 -+ tanh x)/2.  An error scale is the size of
    the terms whose rounding reaches the value, so that a value near zero
    from cancellation is judged by its terms.
    """
    mp = mpmath
    with mp.workdps(50):
        ws, wa, g, tau, beta, lam_exact, lam_tilde, hbar = (
            mp.mpf(getattr(cfg, name)) for name in model._ConfigArrays.FIELDS
        )
        rho11, r, phi_c = mp.mpf(state.rho11), mp.mpf(state.r), mp.mpf(state.phi_c)
        lam, pref = (lam_tilde * mp.sqrt(tau), lam_tilde) if cfg.mode == MODE_WEAK else (lam_exact, lam_exact)
        delta = ws - wa
        t = mp.tanh(beta * hbar * wa / 2)
        w_up, w_dn = (1 - t) / 2, (1 + t) / 2
        re12, im12 = r * mp.cos(phi_c), r * mp.sin(phi_c)
        root = mp.sqrt(4 * g**2 + delta**2)
        a, b = lam * im12 * root, g * (rho11 - w_up) - delta * lam * re12
        theta = mp.atan2(b, a) if (a or b) else mp.mpf(0)
        amp, phase = mp.hypot(a, b), tau * root
        # The terms of a and b (w_up = (1 - tanh x)/2 rounds on the scale of 1)
        # and the phase error of the oscillation.
        terms = g * (rho11 + 1) + abs(delta * lam * re12) + abs(a) + amp * (1 + phase + abs(theta))
        pre = 2 * hbar * g * ws / root**2  # omega_a + delta, which cancels digits even at 50
        pre_sa = -4 * hbar * g * delta / root**2
        branches = sorted([pre * (-b - amp), pre * (-b + amp)])
        half = delta * tau / 2
        values = {
            "delta_e_s": (pre * (-b - amp * mp.sin(phase - theta)), abs(pre) * terms),
            "delta_e_s_lower": (branches[0], abs(pre) * terms),
            "delta_e_s_upper": (branches[1], abs(pre) * terms),
            "delta_e_sa": (pre_sa * amp * mp.sin(phase / 2) * mp.cos(phase / 2 - theta), abs(pre_sa) * terms),
            "delta_e_sa_limit": (
                4 * hbar * g * lam * r * mp.sin(half) * mp.sin(half - phi_c),
                4 * hbar * g * abs(lam) * r * (1 + abs(delta * tau) + abs(phi_c)),
            ),
        }
        if model._ConfigArrays.of([cfg]).is_resonant[0]:
            area = g * tau
            s1, s2, c1, c2 = mp.sin(area), mp.sin(2 * area), mp.cos(area), mp.cos(2 * area)
            j1, j2 = lam * r * mp.cos(phi_c), lam * r * mp.sin(phi_c)
            k1, k2 = pref * r * mp.cos(phi_c), pref * r * mp.sin(phi_c)
            p0, p1 = rho11, 1 - rho11
            thermal = [p0 * (w_dn * c1**2 + w_up), p0 * w_dn * s1**2, p1 * w_up * s1**2, p1 * (w_up * c1**2 + w_dn)]
            signs = [(-1, 1), (1, -1), (-1, -1), (1, 1)]
            coherent = [mp.mpc(sr * x2 * s2 / 2, si * x1 * s2 / 2) for sr, si in signs for x1, x2 in [(j1, j2)]]
            work = [mp.mpc(sr * x2 * s2 / 2, si * x1 * s2 / 2) for sr, si in signs for x1, x2 in [(k1, k2)]]
            e = hbar * wa
            scale, e_scale = 1 + area, abs(e) * (1 + area)
            for k in range(4):
                values[f"us_{k}"] = (thermal[k] + coherent[k], scale)
                values[f"q_{k}"] = (thermal[k], scale)
                values[f"w_{k}"] = (work[k], scale)
            mean = -e * (rho11 - w_up) * s1**2 - e * j2 * s2
            second = e**2 * s1**2 * (w_up + rho11 * (w_dn - w_up))
            q_mean = e * s1**2 * (w_up - rho11)
            values.update(
                energy_mean=(mean, e_scale),
                energy_variance=(second - mp.mpc(0, 1) * e**2 * j1 * s2 - mean**2, e_scale**2),
                w_mean=(-e * k2 * s2, e_scale),
                w_variance=(-(e**2) * s2 * (k2**2 * s2 + mp.mpc(0, 1) * k1), e_scale**2),
                q_mean=(q_mean, e_scale),
                q_variance=(second - q_mean**2, e_scale**2),
            )
            n_re = -1
            for k, rho_k, w_k, w_other in ((1, rho11, w_dn, w_up), (-1, 1 - rho11, w_up, w_dn)):
                n_re += abs(s1) * abs(rho_k * w_k * s1 + k * j2 * c1)
                n_re += abs(rho_k * (1 + w_other + w_k * c2) / 2 - k * j2 * s2 / 2)
            values.update(n_re=(n_re, scale), n_im=(2 * abs(j1 * s2), scale))
        return {name: (complex(value), float(scale)) for name, (value, scale) in values.items()}


def array_oracle(cases):
    """Name -> values over the rows of ``cases`` of each private array oracle (resonant ones on resonant rows)."""
    cfgs = model._ConfigArrays.of([cfg for cfg, _ in cases])
    states = model._StateArrays.of([state for _, state in cases])
    lower, upper = analytic._delta_e_s_envelopes(cfgs, states)
    values = {
        "delta_e_s": analytic._delta_e_s(cfgs, states),
        "delta_e_s_lower": lower,
        "delta_e_s_upper": upper,
        "delta_e_sa": analytic._delta_e_sa(cfgs, states),
        "delta_e_sa_limit": analytic._delta_e_sa_limit(cfgs, states),
    }
    resonant = np.flatnonzero(cfgs.is_resonant)
    if len(resonant):
        cfgs, states = cfgs.take(resonant), states.take(resonant)
        rows = np.full(len(cases), -1)
        rows[resonant] = np.arange(len(resonant))
        stats = analytic._resonant_w_q_stats(cfgs, states)
        on_resonant = {
            "energy_mean": analytic._resonant_energy_stats(cfgs, states)[0],
            "energy_variance": analytic._resonant_energy_stats(cfgs, states)[1],
            "w_mean": stats.w_mean, "w_variance": stats.w_variance,
            "q_mean": stats.q_mean, "q_variance": stats.q_variance,
            "n_re": analytic._resonant_nonpositivity(cfgs, states)[0],
            "n_im": analytic._resonant_nonpositivity(cfgs, states)[1],
        }
        entry_oracles = {"us": analytic._resonant_kdq_us, "q": analytic._resonant_kdq_q, "w": analytic._resonant_kdq_w}
        for name, oracle in entry_oracles.items():
            entries = oracle(cfgs, states)
            on_resonant.update({f"{name}_{k}": entries[:, k] for k in range(4)})
        for name, value in on_resonant.items():
            values[name] = np.where(rows >= 0, np.asarray(value)[np.maximum(rows, 0)], np.nan)
    return values


# Below this error scale a value is subnormal, and its rounding is absolute.
_SUBNORMAL_SCALE = 1e-290


def worst_reference_error(cases) -> float:
    """Largest |oracle - 50-digit reference| / error scale over the cases and closed forms of normal scale."""
    oracle, worst = array_oracle(cases), 0.0
    for k, (cfg, state) in enumerate(cases):
        for name, (value, scale) in reference(cfg, state).items():
            error = abs(complex(oracle[name][k]) - value)
            assert error <= 1e-13 * scale + 1e-300, (name, cfg, state, oracle[name][k], value, scale)
            if scale >= _SUBNORMAL_SCALE:
                worst = max(worst, error / scale)
    return worst


@settings(max_examples=100, deadline=None)
@given(cases=st.lists(admissible_cases(), min_size=1, max_size=6))
def test_array_oracle_matches_50_digit_reference(cases):
    worst_reference_error(cases)


@settings(max_examples=50, deadline=None)
@given(cases=st.lists(admissible_cases(), min_size=1, max_size=6))
def test_scalar_oracle_is_the_one_row_view(cases):
    # Row k of a stack equals the scalar function of case k, bit for bit.
    oracle = array_oracle(cases)
    for k, (cfg, state) in enumerate(cases):
        assert analytic.delta_e_s(cfg, state) == oracle["delta_e_s"][k]
        assert analytic.delta_e_s_envelopes(cfg, state) == (oracle["delta_e_s_lower"][k], oracle["delta_e_s_upper"][k])
        assert analytic.delta_e_sa(cfg, state) == oracle["delta_e_sa"][k]
        assert analytic.delta_e_sa_limit(cfg, state) == oracle["delta_e_sa_limit"][k]
        if cfg.is_resonant:
            entries = analytic.resonant_kdq_us(cfg, state)
            assert entries.tolist() == [oracle[f"us_{j}"][k] for j in range(4)]
            assert analytic.resonant_nonpositivity(cfg, state) == (oracle["n_re"][k], oracle["n_im"][k])


@pytest.mark.parametrize("beta", [12.0, 14.0])
def test_oracle_keeps_its_digits_at_low_temperature(beta):
    # The upper ancilla level's weight is about e^(-beta*hbar*omega_a) = e^-36 or
    # e^-42; formed as (1 - tanh x)/2 it cancelled to 4 % off at beta = 12 and to
    # 0 at beta = 14.  The kernel's averages are at their rounding floor here.
    cfg = ModelConfig(omega_s=3.0, omega_a=3.0, g=1.0, tau=1.0, beta=beta)
    state = SystemStateParams(0.0)
    expected = reference(cfg, state)
    assert analytic.delta_e_s(cfg, state) == pytest.approx(expected["delta_e_s"][0].real, rel=1e-12)
    assert analytic.resonant_energy_stats(cfg, state)[0] == pytest.approx(expected["energy_mean"][0].real, rel=1e-12)
    assert analytic.resonant_w_q_stats(cfg, state).q_mean == pytest.approx(expected["q_mean"][0].real, rel=1e-12)


@pytest.mark.parametrize("g", [1e-200, 1e-310, 5e-324])
@pytest.mark.parametrize("mode", ["exact", "weakly_coherent"])
def test_resonant_oracle_at_underflowing_coupling(g, mode):
    # 4 g^2 underflows to 0; the detuned forms used to divide by it.
    coherence = dict(lam=0.3) if mode == "exact" else dict(lam_tilde=0.3)
    cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=g, tau=0.4, beta=1.0, mode=mode, **coherence)
    rho_s = build_system_state(FIG_STATE)
    lower, upper = analytic.delta_e_s_envelopes(cfg, FIG_STATE)
    value = analytic.delta_e_s(cfg, FIG_STATE)
    assert all(math.isfinite(v) for v in (lower, value, upper)) and lower <= value <= upper
    assert abs(value - kdq.average_via_trace(kdq.US, rho_s, cfg).real) <= 1e-10
    assert abs(analytic.delta_e_sa(cfg, FIG_STATE) - kdq.average_via_trace(kdq.USA, rho_s, cfg).real) <= 1e-10


def test_array_oracle_finite_past_the_square_overflow():
    # g or |delta| = 1e155: 4 g^2 + delta^2 overflows, 2*hypot(g, delta/2) does
    # not.  `ModelConfig` rejects these configs (their collision phase
    # overflows), so the oracle gets unchecked fields.
    base = dict(omega_a=1.0, beta=1.0, lam=0.3, lam_tilde=0.0, hbar=1.0, mode="exact")
    cases = [
        (SimpleNamespace(**base, omega_s=omega_s, g=g, tau=tau), FIG_STATE)
        for omega_s, g, tau in [
            (1.0, 1e155, 0.5), (1e155, 1e155, 0.5), (1e155, 1.0, 0.5), (1.0, 1e155, 1e-160), (1e155, 1.0, 1e-160)
        ]
    ]
    oracle = array_oracle(cases)
    for name in ("delta_e_s", "delta_e_s_lower", "delta_e_s_upper", "delta_e_sa", "delta_e_sa_limit"):
        assert np.isfinite(oracle[name]).all(), name
    # At a small phase tau*root the values are well conditioned: check them at 50 digits.
    worst_reference_error(cases[3:])
