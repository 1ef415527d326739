import itertools
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import admissible_cases, assert_same_bits, random_case, random_hermitian, system_states
from references import dense_kernel
from kdcollide import cli, kdq, model
from kdcollide.cli import ExperimentSpec, fig7_config, parse_config, run
from kdcollide.collision import collision_unitary, evolve
from kdcollide.kdq import (
    ValidityWarning,
    average_via_trace,
    kdq_distribution,
    marginalize_usa_to_ua,
    marginalize_usa_to_us,
    measurement_unitary,
    moments,
    nonpositivity,
)
from kdcollide.linalg import dag, eig_hermitian, tensor, unitary_from_hamiltonian
from kdcollide.model import (
    IDENTITY_2,
    MODE_WEAK,
    ModelConfig,
    SystemStateParams,
    _operator_stacks,
    build_ancilla,
    build_hamiltonians,
    build_system_state,
)


def resonant_cfg(**kwargs):
    defaults = dict(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.4, beta=1.0)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def all_quantities_for(cfg):
    if abs(cfg.detuning) < 1e-12:
        return (kdq.US, kdq.UA, kdq.USA, kdq.W, kdq.Q, kdq.WS, kdq.QS)
    return (kdq.US, kdq.UA, kdq.USA)


@pytest.fixture(autouse=True)
def _silence_validity_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        yield


class TestNormalization:
    def test_sums(self, rng):
        for k in range(60):
            cfg, state = random_case(rng, resonant=(k % 2 == 0))
            rho_s = build_system_state(state)
            for quantity in all_quantities_for(cfg):
                total = kdq_distribution(quantity, rho_s, cfg).total()
                target = 0.0 if quantity in kdq.ZERO_SUM else 1.0
                assert abs(total - target) < 1e-12

    def test_usa_has_sixteen_entries(self, rng):
        cfg, state = random_case(rng)
        dist = kdq_distribution(kdq.USA, build_system_state(state), cfg)
        assert len(dist.entries) == 16
        assert dist.entries[0].label.i_in == (0, 0)

    def test_grouped_usa_at_resonance(self, rng):
        cfg, state = random_case(rng, resonant=True)
        rho_s = build_system_state(state)
        grouped = kdq_distribution(kdq.USA, rho_s, cfg, group_degenerate=True)
        assert len(grouped.entries) == 9
        # Each grouped entry is the partial sum of the product-projector ones
        # whose initial/final total energies fall in its eigenspaces.
        plain = kdq_distribution(kdq.USA, rho_s, cfg)
        e_s, e_a = plain.local_energies
        levels = sorted({e_s[l] + e_a[k] for l in range(2) for k in range(2)}, reverse=True)

        def level_index(energy):
            return min(range(len(levels)), key=lambda i: abs(levels[i] - energy))

        for entry in grouped.entries:
            partial = sum(
                e.quasiprob
                for e in plain.entries
                if level_index(e_s[e.label.i_in[0]] + e_a[e.label.i_in[1]]) == entry.label.i_in
                and level_index(e_s[e.label.i_fin[0]] + e_a[e.label.i_fin[1]]) == entry.label.i_fin
            )
            assert abs(entry.quasiprob - partial) < 1e-12
        # Index pairs are gone, so marginalization is undefined on the
        # grouped form.
        with pytest.raises(ValueError):
            marginalize_usa_to_us(grouped)


class TestTpmLimit:
    def test_real_nonnegative(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng, coherent=False)
            rho_s = build_system_state(state)
            for quantity in (kdq.US, kdq.UA, kdq.USA):
                probs = kdq_distribution(quantity, rho_s, cfg).quasiprobs()
                assert np.max(np.abs(probs.imag)) < 1e-14
                assert np.min(probs.real) > -1e-14


class TestMoments:
    def test_mean_matches_trace_formula(self, rng):
        for k in range(20):
            cfg, state = random_case(rng, resonant=(k % 2 == 0))
            rho_s = build_system_state(state)
            for quantity in all_quantities_for(cfg):
                dist_mean = moments(kdq_distribution(quantity, rho_s, cfg)).mean
                trace_mean = average_via_trace(quantity, rho_s, cfg)
                assert abs(dist_mean - trace_mean) < 1e-12

    def test_means_are_real(self, rng):
        cfg, state = random_case(rng, resonant=True)
        rho_s = build_system_state(state)
        for quantity in all_quantities_for(cfg):
            assert abs(average_via_trace(quantity, rho_s, cfg).imag) < 1e-12

    def test_first_law_of_means(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng)
            rho_s = build_system_state(state)
            u_s = average_via_trace(kdq.US, rho_s, cfg)
            u_a = average_via_trace(kdq.UA, rho_s, cfg)
            u_sa = average_via_trace(kdq.USA, rho_s, cfg)
            assert abs(u_s + u_a - u_sa) < 1e-12

    def test_resonant_total_mean_vanishes(self, rng):
        cfg, state = random_case(rng, resonant=True)
        rho_s = build_system_state(state)
        assert abs(average_via_trace(kdq.USA, rho_s, cfg)) < 1e-12

    def test_work_heat_split_of_means(self, rng):
        cfg, state = random_case(rng, resonant=True)
        rho_s = build_system_state(state)
        w = average_via_trace(kdq.W, rho_s, cfg)
        q = average_via_trace(kdq.Q, rho_s, cfg)
        u_s = average_via_trace(kdq.US, rho_s, cfg)
        # In exact mode the work prefactor is the physical coherence, so the
        # split is exact at any tau.
        assert abs(w + q - u_s) < 1e-12

    def test_variance_identity(self, rng):
        cfg, state = random_case(rng)
        m = moments(kdq_distribution(kdq.US, build_system_state(state), cfg))
        assert m.variance == m.second_moment - m.mean**2
        # Every slice of a stack keeps it bit for bit, also on generic complex
        # matrices, where NumPy's own complex product rounds differently.
        matrix = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
        for mean, second, variance in zip(*kdq._moments(matrix, rng.normal(size=4))):
            assert complex(variance) == complex(second) - complex(mean) ** 2

    def test_w_variance_symmetries(self):
        # At resonance: Re[var_w] = -mean_w^2 and Im[var_w] = Im[<w^2>].
        cfg = resonant_cfg(lam=0.3)
        rho_s = build_system_state(SystemStateParams(0.25, math.sqrt(3) / 4, math.pi / 5))
        m = moments(kdq_distribution(kdq.W, rho_s, cfg))
        j1 = cfg.lam * (math.sqrt(3) / 4) * math.cos(math.pi / 5)
        assert abs(m.variance.real + m.mean.real**2) < 1e-13
        assert abs(m.variance.imag + cfg.omega_a**2 * j1 * math.sin(2 * cfg.g * cfg.tau)) < 1e-13

    def test_variance_quadratic_in_lambda(self, rng):
        # Mean and second moment are affine in the ancilla state, hence the
        # variance is an exact quadratic in lambda: three points predict a
        # fourth.
        base, state = random_case(rng, resonant=False, coherent=True)
        rho_s = build_system_state(state)
        lam_max = base.lambda_max
        lams = np.array([-0.6, 0.1, 0.5, 0.35]) * lam_max

        def variance(quantity, lam):
            cfg = ModelConfig(
                omega_s=base.omega_s, omega_a=base.omega_a, g=base.g, tau=base.tau,
                beta=base.beta, lam=float(lam),
            )
            return moments(kdq_distribution(quantity, rho_s, cfg)).variance

        for quantity in (kdq.US, kdq.USA):
            v = [variance(quantity, lam) for lam in lams]
            predicted = 0.0 + 0.0j
            for i in range(3):
                basis = 1.0
                for j in range(3):
                    if i != j:
                        basis *= (lams[3] - lams[j]) / (lams[i] - lams[j])
                predicted += v[i] * basis
            assert abs(predicted - v[3]) < 1e-10


class TestMarginalization:
    def test_matches_direct_distributions(self, rng):
        for _ in range(10):
            cfg, state = random_case(rng)
            rho_s = build_system_state(state)
            usa = kdq_distribution(kdq.USA, rho_s, cfg)
            for marginal, quantity in (
                (marginalize_usa_to_us(usa), kdq.US),
                (marginalize_usa_to_ua(usa), kdq.UA),
            ):
                direct = kdq_distribution(quantity, rho_s, cfg)
                assert_allclose(marginal.quasiprobs(), direct.quasiprobs(), atol=1e-12)
                assert_allclose(marginal.values(), direct.values(), atol=1e-12)
                assert [(e.label.i_in, e.label.i_fin, e.value) for e in marginal.entries] == [
                    (e.label.i_in, e.label.i_fin, e.value) for e in direct.entries
                ]

    def test_tpm_marginal_stays_classical(self, rng):
        cfg, state = random_case(rng, coherent=False)
        usa = kdq_distribution(kdq.USA, build_system_state(state), cfg)
        probs = marginalize_usa_to_us(usa).quasiprobs()
        assert np.max(np.abs(probs.imag)) < 1e-14
        assert np.min(probs.real) > -1e-14

    def test_rejects_other_quantities(self, rng):
        cfg, state = random_case(rng)
        dist = kdq_distribution(kdq.US, build_system_state(state), cfg)
        with pytest.raises(ValueError):
            marginalize_usa_to_us(dist)


@pytest.fixture
def entries_built(monkeypatch):
    """Number of `KdqEntry` objects constructed, by any caller."""
    count = [0]
    init = kdq.KdqEntry.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(kdq.KdqEntry, "__init__", counted)
    return count


class TestEntriesOnDemand:
    """Entries are a view built on request; the hot paths read the matrix."""

    def test_counter_sees_the_view(self, entries_built, rng):
        cfg, state = random_case(rng)
        dist = kdq_distribution(kdq.USA, build_system_state(state), cfg)
        assert entries_built[0] == 0
        assert len(dist.entries) == 16
        assert entries_built[0] == 16

    @pytest.mark.parametrize("preset", ["fig1", "fig2"])
    def test_presets_build_none(self, entries_built, preset):
        run(ExperimentSpec(preset=preset, cfg=None, state=None, points=16))
        assert entries_built[0] == 0

    def test_custom_sweep_builds_none(self, entries_built):
        run(parse_config((Path(__file__).parent / "golden" / "custom.cfg").read_text()))
        assert entries_built[0] == 0

    def test_thermo_trajectory_builds_none(self, entries_built):
        cfg = resonant_cfg(lam=0.2)
        evolve(build_system_state(SystemStateParams(0.25, 0.4, 1.0)), cfg, 8, thermo=True)
        assert entries_built[0] == 0


class TestHermitianSymmetry:
    def test_conjugation_swaps_measurement_order(self, rng):
        # conj(q(in -> fin)) equals the trace with the projector order
        # reversed, because the sampled state is Hermitian.
        cfg, state = random_case(rng, resonant=True)
        rho_s = build_system_state(state)
        u = measurement_unitary(cfg)
        h_s, h_a, _, _ = build_hamiltonians(cfg)
        rho_a, _, _ = build_ancilla(cfg)
        weight = tensor(rho_s, rho_a)
        dec = eig_hermitian(h_s)
        projs = [tensor(p, IDENTITY_2) for p in dec.projectors]
        dist = kdq_distribution(kdq.US, rho_s, cfg)
        for entry in dist.entries:
            p_in = projs[entry.label.i_in]
            p_fin = projs[entry.label.i_fin]
            reversed_order = np.trace(p_in @ dag(u) @ p_fin @ u @ weight)
            assert abs(np.conj(entry.quasiprob) - reversed_order) < 1e-13


class TestNonPositivity:
    def test_tpm_limit_is_classical(self, rng):
        cfg, state = random_case(rng, coherent=False)
        rho_s = build_system_state(state)
        for quantity in (kdq.US, kdq.UA, kdq.USA):
            report = nonpositivity(kdq_distribution(quantity, rho_s, cfg))
            assert abs(report.n_q) < 1e-12
            assert abs(report.n_re) < 1e-12
            assert abs(report.n_im) < 1e-12

    def test_imaginary_witness_closed_form(self):
        cfg = resonant_cfg(lam=0.35, tau=0.35)
        state = SystemStateParams(0.25, math.sqrt(3) / 4, 0.0)  # real coherence
        report = nonpositivity(kdq_distribution(kdq.US, build_system_state(state), cfg))
        j1 = cfg.lam * state.r
        assert report.n_im == pytest.approx(2.0 * abs(j1 * math.sin(2 * cfg.g * cfg.tau)), abs=1e-13)
        assert report.n_im > 0

    def test_heat_distribution_is_classical(self, rng):
        cfg, state = random_case(rng, resonant=True)
        report = nonpositivity(kdq_distribution(kdq.Q, build_system_state(state), cfg))
        assert abs(report.n_q) < 1e-12
        assert abs(report.n_re) < 1e-12
        assert abs(report.n_im) < 1e-12

    def test_invariant_relations(self, rng):
        for _ in range(20):
            cfg, state = random_case(rng)
            report = nonpositivity(kdq_distribution(kdq.US, build_system_state(state), cfg))
            assert report.n_q >= report.n_re - 1e-12
            assert report.n_q >= -1e-12
            assert report.n_im >= -1e-12
            assert report.n_re >= -1.0

    def test_rejects_work_distribution(self, rng):
        cfg, state = random_case(rng, resonant=True)
        dist = kdq_distribution(kdq.W, build_system_state(state), cfg)
        with pytest.raises(ValueError):
            nonpositivity(dist)


class TestValidityGuards:
    def test_exact_mode_work_requires_resonance(self, rng):
        cfg, state = random_case(rng, resonant=False)
        with pytest.raises(ValueError):
            kdq_distribution(kdq.W, build_system_state(state), cfg)

    def test_large_pulse_area_warns(self):
        cfg = resonant_cfg(tau=1.0, lam=0.2)  # g*tau = 1 > pi/6
        rho_s = build_system_state(SystemStateParams(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            with pytest.raises(ValidityWarning):
                kdq_distribution(kdq.Q, rho_s, cfg)

    def test_weak_mode_off_resonance_warns(self):
        cfg = ModelConfig(
            omega_s=1.5, omega_a=1.0, g=1.0, tau=0.1, beta=1.0,
            lam_tilde=0.1, mode=MODE_WEAK,
        )
        rho_s = build_system_state(SystemStateParams(0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            with pytest.raises(ValidityWarning):
                kdq_distribution(kdq.W, rho_s, cfg)

    def test_unknown_quantity(self, rng):
        cfg, state = random_case(rng)
        with pytest.raises(ValueError):
            kdq_distribution("energy", build_system_state(state), cfg)

    def test_warning_points_at_caller(self):
        cfg = resonant_cfg(tau=1.0, lam=0.2)  # g*tau = 1 > pi/6
        rho_s = build_system_state(SystemStateParams(0.5))
        for public in (kdq_distribution, average_via_trace):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ValidityWarning)
                public(kdq.Q, rho_s, cfg)
            assert [w.filename for w in caught] == [__file__], public.__name__


def test_stack_warns_once_per_kind():
    # One evaluation over ten strong-pulse configs and three detuned weak ones
    # warns once per kind, with the count and the largest value, from the
    # evaluator, which checks the regime; the kernel itself checks none.  The
    # warnings name the line outside the package that called the evaluator.
    strong = [resonant_cfg(tau=1.0 + 0.2 * k, lam=0.2) for k in range(10)]
    detuned = [
        ModelConfig(omega_s=1.0 + d, omega_a=1.0, g=1.0, tau=0.1, beta=1.0, lam_tilde=0.1, mode=MODE_WEAK)
        for d in (0.5, -1.5, 1.0)
    ]
    distinct, which = config_rows(strong + detuned)
    states = model._StateArrays.of([SystemStateParams(0.5)] * len(which))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ValidityWarning)
        cli._evaluate(distinct, states, ("var_w",), which, np.arange(len(which)))
        (_, slot, ops), = _operator_stacks(distinct, which)
        kdq._kernel(kdq.W, model.build_system_state(states), ops, slot=slot)
    assert [str(w.message) for w in caught] == [
        "coherent-work/heat split off resonance is not energy-preserving in 3 configs (largest |detuning| 1.5)",
        "pulse area g*tau exceeds pi/6 in 10 configs (largest 2.8): "
        "coherent work / incoherent heat enter the strong-coupling regime",
    ]
    assert {w.filename for w in caught} == {__file__}


@pytest.mark.parametrize("view", [kdq_distribution, average_via_trace])
@pytest.mark.parametrize("quantity", [kdq.US, kdq.USA, kdq.W])
def test_one_state_views_reject_stacks_and_foreign_shapes(view, quantity):
    # The views take one 2x2 state and at most one 4x4 propagator; a stack or
    # another size fails at the call, not later in `moments` or a matmul.
    cfg = resonant_cfg(lam=0.2)
    rho_s = build_system_state(SystemStateParams(0.25, 0.4, 0.7))
    u = measurement_unitary(cfg)
    with pytest.raises(ValueError, match=re.escape("rho_s must be one 2x2 system state, got shape (3, 2, 2)")):
        view(quantity, np.array([rho_s] * 3), cfg)
    for unitary in (np.array([u] * 3), np.eye(2), np.eye(8)):
        with pytest.raises(ValueError, match="unitary must act on the 4-dimensional joint space"):
            view(quantity, rho_s, cfg, unitary=unitary)
    view(quantity, rho_s.tolist(), cfg, unitary=u.tolist())


@pytest.mark.parametrize("view", [kdq_distribution, average_via_trace])
def test_one_state_views_reject_unitary_outside_the_swap_entries(view, rng):
    # The kernel reads only the six entries of U that the swap coupling fills,
    # so a propagator with weight elsewhere is refused, naming its largest
    # entry there, rather than given a wrong distribution.
    rho_s = build_system_state(SystemStateParams(0.25, 0.4, 0.7))
    outside = np.ones((4, 4), bool)
    outside[[0, 3, 1, 1, 2, 2], [0, 3, 1, 2, 1, 2]] = False
    for cfg in (resonant_cfg(lam=0.2), replace(resonant_cfg(omega_s=1.7), lam_tilde=0.3, mode=MODE_WEAK)):
        for _ in range(5):
            u = unitary_from_hamiltonian(random_hermitian(rng, 4), 0.7)
            largest = np.where(outside, np.abs(u), 0.0)
            i, j = np.unravel_index(np.argmax(largest), u.shape)
            message = re.escape(f"its largest entry outside is |U[{i}, {j}]| = {largest[i, j]:.6g}")
            for unitary in (u, u.tolist()):
                with pytest.raises(ValueError, match=message):
                    view(kdq.US, rho_s, cfg, unitary=unitary)
        # The config's own propagators pass, as arrays or lists.
        for own in (measurement_unitary(cfg), collision_unitary(cfg)):
            expected, value = (view(kdq.US, rho_s, cfg, unitary=unitary) for unitary in (own, own.tolist()))
            assert_same_bits(getattr(value, "matrix", value), getattr(expected, "matrix", expected))


class TestSystemSideSplit:
    def test_ws_plus_qs_equals_us_entrywise(self, rng):
        cfg, state = random_case(rng, resonant=True)
        rho_s = build_system_state(state)
        q_us = kdq_distribution(kdq.US, rho_s, cfg).quasiprobs()
        q_ws = kdq_distribution(kdq.WS, rho_s, cfg).quasiprobs()
        q_qs = kdq_distribution(kdq.QS, rho_s, cfg).quasiprobs()
        assert_allclose(q_ws + q_qs, q_us, atol=1e-13)


def reference_distribution(quantity, rho_s, cfg, unitary=None, group_degenerate=False):
    """(labels, values, quasiprobs) from explicit projectors.

    Each entry is Tr[U^dag P_fin U P_in W] with the projectors P of
    `eig_hermitian` and one trace per entry, independent of the block-sum
    kernel of `kdq_distribution`.
    """
    u = measurement_unitary(cfg) if unitary is None else unitary
    h_s, h_a, _, _ = build_hamiltonians(cfg)
    rho_a, rho_a_th, chi_a = build_ancilla(cfg)
    if quantity in (kdq.US, kdq.UA, kdq.USA):
        weight = tensor(rho_s, rho_a)
    elif quantity in (kdq.Q, kdq.QS):
        weight = tensor(rho_s, rho_a_th)
    else:
        weight = cfg.kdq_coherence_prefactor * tensor(rho_s, chi_a)
    dec_s, dec_a = eig_hermitian(h_s), eig_hermitian(h_a)
    if quantity in (kdq.US, kdq.WS, kdq.QS):
        projectors = [tensor(p, IDENTITY_2) for p in dec_s.projectors]
        energies = list(dec_s.eigenvalues)
        labels = list(range(len(energies)))
    elif quantity in (kdq.UA, kdq.W, kdq.Q):
        projectors = [tensor(IDENTITY_2, p) for p in dec_a.projectors]
        energies = list(dec_a.eigenvalues)
        labels = list(range(len(energies)))
    elif group_degenerate:
        dec = eig_hermitian(tensor(h_s, IDENTITY_2) + tensor(IDENTITY_2, h_a))
        projectors, energies = list(dec.projectors), list(dec.eigenvalues)
        labels = list(range(len(energies)))
    else:
        projectors, energies, labels = [], [], []
        for ell, p_s in enumerate(dec_s.projectors):
            for k, p_a in enumerate(dec_a.projectors):
                projectors.append(tensor(p_s, p_a))
                energies.append(dec_s.eigenvalues[ell] + dec_a.eigenvalues[k])
                labels.append((ell, k))
    sign = -1.0 if quantity in (kdq.W, kdq.Q) else 1.0
    out_labels, values, probs = [], [], []
    for i_in, p_in in enumerate(projectors):
        for i_fin, p_fin in enumerate(projectors):
            out_labels.append((labels[i_in], labels[i_fin]))
            values.append(sign * (energies[i_fin] - energies[i_in]))
            probs.append(complex(np.trace(dag(u) @ p_fin @ u @ p_in @ weight)))
    return out_labels, values, np.array(probs)


def assert_matches_reference(quantity, rho_s, cfg, unitary=None, group_degenerate=False):
    dist = kdq_distribution(quantity, rho_s, cfg, unitary=unitary, group_degenerate=group_degenerate)
    labels, values, probs = reference_distribution(quantity, rho_s, cfg, unitary, group_degenerate)
    assert [(e.label.i_in, e.label.i_fin) for e in dist.entries] == labels
    assert all(e.label.quantity == quantity for e in dist.entries)
    # Equal except below ~1e-146, where LAPACK rescales the reference's
    # eigh input and moves the last bit of its eigenvalues.
    assert_allclose(dist.values(), values, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(dist.quasiprobs() - probs)) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(case=admissible_cases())
def test_kernel_matches_projector_traces(case):
    cfg, state = case
    rho_s = build_system_state(state)
    # The weak-mode trajectory propagator is passed explicitly, as `evolve` does.
    unitary = collision_unitary(cfg) if cfg.is_weak else None
    quantities = kdq.QUANTITIES if (cfg.is_resonant or cfg.is_weak) else (kdq.US, kdq.UA, kdq.USA)
    for quantity in quantities:
        assert_matches_reference(quantity, rho_s, cfg, unitary)
    # Grouped usa against the joint eigenspaces of H_S + H_A, which merge levels at resonance only.
    assert_matches_reference(kdq.USA, rho_s, cfg, unitary, group_degenerate=True)


def test_kernel_matches_projector_traces_in_si_units():
    cfg = fig7_config()
    rho_s = build_system_state(SystemStateParams(0.25, math.sqrt(3) / 4, math.pi / 4))
    for quantity in kdq.QUANTITIES:
        assert_matches_reference(quantity, rho_s, cfg)
    assert_matches_reference(kdq.USA, rho_s, cfg, group_degenerate=True)


@settings(max_examples=60, deadline=None)
@given(case=admissible_cases(), states=st.lists(system_states(), min_size=1, max_size=8))
def test_stacked_kernel_matches_per_state(case, states):
    # The kernel runs the same operations on every state of a stack, so each
    # slice equals the per-object distribution, its moments and its witnesses
    # bit for bit.
    cfg, _ = case
    rho_s = np.array([build_system_state(state) for state in states])
    quantities = kdq.QUANTITIES if (cfg.is_resonant or cfg.is_weak) else (kdq.US, kdq.UA, kdq.USA)
    for quantity, unitary in itertools.product(quantities, (None, collision_unitary(cfg))):
        matrix, levels = kdq._kernel(quantity, rho_s, cfg.operators, unitary)
        assert matrix.shape == (len(states), len(levels), len(levels))
        witnesses = kdq._witnesses(matrix).tolist()
        moment_stack = kdq._moments(matrix, levels)
        for k, rho in enumerate(rho_s):
            dist = kdq_distribution(quantity, rho, cfg, unitary)
            assert np.array_equal(matrix[k], dist.matrix)
            assert kdq.MomentSet(*(complex(m[k]) for m in moment_stack)) == moments(dist)
            if quantity not in kdq.ZERO_SUM:
                report = nonpositivity(dist)
                assert witnesses[k] == [report.n_q, report.n_re, report.n_im]


def config_rows(cfgs):
    """(parameter arrays of the distinct configs, config of each row), configs told apart by identity."""
    distinct = list({id(cfg): cfg for cfg in cfgs}.values())
    slot = {id(cfg): k for k, cfg in enumerate(distinct)}
    return model._ConfigArrays.of(distinct), np.array([slot[id(cfg)] for cfg in cfgs])


def assert_stack_matches_per_config(cfgs, rho_s, quantities):
    # Every slice of each config-stack part equals the one-config views bit for bit.
    parts = list(_operator_stacks(*config_rows(cfgs)))
    assert sorted(np.concatenate([rows for rows, _, _ in parts]).tolist()) == list(range(len(cfgs)))
    for rows, slot, ops in parts:
        assert len({(cfgs[k].omega_s == 0.0, cfgs[k].omega_a == 0.0) for k in rows}) == 1
        assert len(rows) <= model._PART_ROWS and ops.u.ndim == 3
        # Each row's own operators, for the dense single-trace route.
        own = model.Operators(*(a[slot] for a in ops))
        for quantity, unitary in itertools.product(quantities, (None, ops.u)):
            matrix, levels = kdq._kernel(quantity, rho_s[rows], ops, unitary, slot)
            moment_stack = kdq._moments(matrix, levels)
            witnesses = kdq._witnesses(matrix).tolist()
            averages = kdq._trace_average(quantity, rho_s[rows], own, None if unitary is None else unitary[slot])
            for j, k in enumerate(rows):
                cfg, rho = cfgs[k], rho_s[k]
                own_u = None if unitary is None else collision_unitary(cfg)
                dist = kdq_distribution(quantity, rho, cfg, own_u)
                assert_same_bits(matrix[j], dist.matrix)
                assert_same_bits(np.broadcast_to(levels, matrix.shape[:-1])[j], dist.levels)
                assert kdq.MomentSet(*(complex(m[j]) for m in moment_stack)) == moments(dist)
                if quantity not in kdq.ZERO_SUM:
                    report = nonpositivity(dist)
                    assert witnesses[j] == [report.n_q, report.n_re, report.n_im]
                assert complex(averages[j]) == average_via_trace(quantity, rho, cfg, own_u)
                if quantity == kdq.USA:
                    n_s, n_a = ops.levels_s.shape[-1], ops.levels_a.shape[-1]
                    for target, marginalize in ((kdq.US, marginalize_usa_to_us), (kdq.UA, marginalize_usa_to_ua)):
                        assert_same_bits(kdq._block_sums(matrix, n_s, n_a, target)[j], marginalize(dist).matrix)


# Zero, negative and positive frequencies, both modes, resonant and detuned.
_MIXED_STACK = [
    (ModelConfig(omega_s=0.0, omega_a=1.3, g=0.7, tau=0.4, beta=1.0, lam=0.1), 2),
    (ModelConfig(omega_s=-0.8, omega_a=-0.8, g=1.1, tau=0.9, beta=0.5, lam=-0.2), 1),
    (ModelConfig(omega_s=2.5, omega_a=0.6, g=0.5, tau=0.3, beta=2.0, lam=0.05), 3),
    (ModelConfig(omega_s=0.7, omega_a=0.7, g=0.9, tau=0.2, beta=0.0, lam_tilde=0.5, mode=MODE_WEAK), 2),
    (ModelConfig(omega_s=1.5, omega_a=0.0, g=0.3, tau=1.2, beta=3.0, lam=0.4), 1),
    (ModelConfig(omega_s=-1.9, omega_a=0.4, g=1.4, tau=0.6, beta=1.5, lam_tilde=0.1, mode=MODE_WEAK), 2),
    (ModelConfig(omega_s=-0.0, omega_a=0.9, g=0.8, tau=0.5, beta=0.7, lam_tilde=-0.3, mode=MODE_WEAK), 2),
    (ModelConfig(omega_s=0.0, omega_a=0.0, g=1.2, tau=0.3, beta=1.0, lam=0.2), 1),
]


# Largest |kernel - dense reference| entry over max(1, |coherence prefactor|):
# 2.2e-16 (one ulp of 1) over 4 000 drawn configs, each with up to four
# states, every quantity and both propagators; the merged level of a zero
# frequency, where the two sum in another order, comes nearest.
_DENSE_KERNEL_BOUND = 4 * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(
    cfg=st.one_of(admissible_cases().map(lambda case: case[0]), st.sampled_from([cfg for cfg, _ in _MIXED_STACK])),
    states=st.lists(system_states(), min_size=1, max_size=4),
)
def test_kernel_matches_dense_reference(cfg, states):
    # The kernel on the six entries of U against the block sum over the
    # whole 4x4 product basis, negative and zero frequencies, weak mode and
    # the trajectory propagator included.
    rho_s = np.array([build_system_state(state) for state in states])
    ops = cfg.operators
    quantities = kdq.QUANTITIES if (cfg.is_resonant or cfg.is_weak) else (kdq.US, kdq.UA, kdq.USA)
    bound = _DENSE_KERNEL_BOUND * max(1.0, abs(cfg.kdq_coherence_prefactor))
    for quantity, unitary in itertools.product(quantities, (None, ops.u)):
        matrix, levels = kdq._kernel(quantity, rho_s, ops, unitary)
        expected_matrix, expected_levels = dense_kernel(quantity, rho_s, ops, unitary)
        assert_same_bits(levels, expected_levels)
        assert matrix.shape == expected_matrix.shape
        assert np.max(np.abs(matrix - expected_matrix)) <= bound


@settings(max_examples=60, deadline=None)
@given(
    cases=st.lists(
        st.tuples(admissible_cases(), st.lists(system_states(), min_size=1, max_size=4)), min_size=1, max_size=8
    ),
    data=st.data(),
)
def test_config_stack_matches_per_config(cases, data):
    # Row k of the state stack is under cfgs[k]: each drawn config once per
    # state, rows shuffled, so a config's rows need not be adjacent.  Small
    # blocks split a config's rows across parts.
    rows = [(cfg, state) for (cfg, _), states in cases for state in states]
    rows = [rows[k] for k in data.draw(st.permutations(range(len(rows))))]
    with mock.patch.object(model, "_PART_ROWS", data.draw(st.sampled_from([1, 2, 3, 5, model._PART_ROWS]))):
        _assert_config_stack(rows)


def test_config_stack_mixes_modes_signs_and_zero_frequencies():
    rng = np.random.default_rng(5)
    states = [SystemStateParams(0.25, 0.4, 0.7), SystemStateParams(0.9, 0.1, 2.0), SystemStateParams(0.5)]
    rows = [(cfg, states[k % 3]) for cfg, count in _MIXED_STACK for k in range(count)]
    _assert_config_stack([rows[k] for k in rng.permutation(len(rows))])


def test_config_rows_in_bounded_parts():
    # Every row in exactly one part, parts in order of first row, each of at
    # most `_PART_ROWS` rows of one level structure, with each of its distinct
    # configs once on the config axis and each row's slot at its own config.
    # The rows of one config past a part's worth go in several parts.
    big = _MIXED_STACK[3][0]
    cfgs = [big] * (2 * model._PART_ROWS + 3) + [cfg for cfg, count in _MIXED_STACK for _ in range(count)]
    order = np.random.default_rng(7).permutation(len(cfgs))
    cfgs = [cfgs[k] for k in order]
    distinct, which = config_rows(cfgs)
    phases = np.linspace(0.0, 2.0 * math.pi, len(cfgs))
    rho_s = model.build_system_state(model._StateArrays.build(rho11=0.25, r=0.4, phi_c=phases))
    parts = list(_operator_stacks(distinct, which))
    assert sorted(np.concatenate([rows for rows, _, _ in parts]).tolist()) == list(range(len(cfgs)))
    assert [rows[0] for rows, _, _ in parts] == sorted(rows[0] for rows, _, _ in parts)
    structure = np.array([2 * (cfg.omega_s == 0.0) + (cfg.omega_a == 0.0) for cfg in cfgs])
    sizes = {}
    for rows, slot, ops in parts:
        assert 0 < len(rows) <= model._PART_ROWS and len(np.unique(structure[rows])) == 1
        sizes.setdefault(structure[rows[0]], []).append(len(rows))
        members = which[rows]
        pairs = set(zip(members.tolist(), slot.tolist()))
        assert len(pairs) == len(set(members.tolist())) == len(set(slot.tolist())) == len(ops.u)
        matrix, _ = kdq._kernel(kdq.USA, rho_s[rows], ops, slot=slot)
        for k in np.unique(members):
            own = rows[members == k]
            assert_same_bits(matrix[members == k], kdq._kernel(kdq.USA, rho_s[own], cfgs[own[0]].operators)[0])
    assert sizes[0] == [model._PART_ROWS, model._PART_ROWS, np.count_nonzero(structure == 0) - 2 * model._PART_ROWS]


def test_config_parts_build_operators_when_reached():
    # The blocks are cut first; each part's `_stack` is built when the caller reaches the part.
    cfgs = _MIXED_STACK[2][0]._arrays.replace(tau=np.linspace(0.1, 1.0, 2 * model._PART_ROWS + 1))
    with mock.patch.object(model, "_stack", wraps=model._stack) as stack:
        parts = _operator_stacks(cfgs)
        rows, _, ops = next(parts)
        assert stack.call_count == 1 and len(rows) == len(ops.u) == model._PART_ROWS
        assert [len(rows) for rows, _, _ in parts] == [model._PART_ROWS, 1]
        assert stack.call_count == 3


def _assert_config_stack(rows):
    cfgs = [cfg for cfg, _ in rows]
    rho_s = np.array([build_system_state(state) for _, state in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        assert_stack_matches_per_config(cfgs, rho_s, (kdq.US, kdq.UA, kdq.USA))
        # The work/heat split is defined for resonant or weak configs only.
        split = [k for k, cfg in enumerate(cfgs) if cfg.is_resonant or cfg.is_weak]
        if split:
            assert_stack_matches_per_config([cfgs[k] for k in split], rho_s[split], (kdq.W, kdq.Q, kdq.WS, kdq.QS))


@settings(max_examples=100, deadline=None)
@given(case=admissible_cases())
def test_normalization_and_marginalization(case):
    cfg, state = case
    rho_s = build_system_state(state)
    dist = {q: kdq_distribution(q, rho_s, cfg) for q in (kdq.US, kdq.UA, kdq.USA)}
    totals = [dist[q].total() - 1.0 for q in dist]
    if cfg.is_resonant or cfg.is_weak:
        totals += [kdq_distribution(kdq.Q, rho_s, cfg).total() - 1.0, kdq_distribution(kdq.W, rho_s, cfg).total()]
    assert max(abs(t) for t in totals) <= 1e-12
    for marginal, quantity in (
        (marginalize_usa_to_us(dist[kdq.USA]), kdq.US),
        (marginalize_usa_to_ua(dist[kdq.USA]), kdq.UA),
    ):
        assert np.max(np.abs(marginal.quasiprobs() - dist[quantity].quasiprobs())) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(case=admissible_cases())
def test_tpm_limit_has_no_negativity(case):
    # No coherence in the ancilla (lambda = 0) or the system (r = 0).
    cfg, state = case
    cfg = replace(cfg, lam=0.0, lam_tilde=0.0)
    rho_s = build_system_state(SystemStateParams(state.rho11))
    for quantity in (kdq.US, kdq.UA, kdq.USA):
        report = nonpositivity(kdq_distribution(quantity, rho_s, cfg))
        assert max(abs(report.n_q), abs(report.n_re), abs(report.n_im)) <= 1e-12
