import math
import re
import sys
import warnings
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import admissible_cases, assert_same_bits
from references import is_density_matrix, is_hermitian
from kdcollide import model
from kdcollide.cli import HBAR_SI, ExperimentSpec, fig7_config, parse_config, run
from kdcollide.collision import evolve, find_steady_state
from kdcollide.linalg import commutator, tensor, unitary_from_hamiltonian
from kdcollide.model import (
    IDENTITY_2,
    MODE_WEAK,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    ModelConfig,
    SystemStateParams,
    build_ancilla,
    build_hamiltonians,
    build_system_state,
    partition_function,
)
from kdcollide.smalltau import integrate_master_equation, operator_approach, work_observables

GOLDEN = Path(__file__).parent / "golden"

# Total excitation number n_S + n_A, with n = |0><0| locally.
NUMBER = tensor(SIGMA_PLUS @ SIGMA_MINUS, IDENTITY_2) + tensor(IDENTITY_2, SIGMA_PLUS @ SIGMA_MINUS)


def cfg_with(delta=0.0, **kwargs):
    defaults = dict(omega_s=1.0 + delta, omega_a=1.0, g=1.0, tau=0.5, beta=1.0)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def bare_hamiltonian(cfg):
    """H_S (x) I + I (x) H_A from the local terms of `build_hamiltonians`."""
    h_s, h_a, _, _ = build_hamiltonians(cfg)
    return tensor(h_s, IDENTITY_2) + tensor(IDENTITY_2, h_a)


def commutator_size(a, b):
    """Frobenius norm of [a, b] relative to ||a|| ||b||."""
    return float(np.linalg.norm(commutator(a, b))) / float(np.linalg.norm(a) * np.linalg.norm(b))


class TestHamiltonians:
    def test_interaction_spectrum(self):
        # Swap coupling hbar*g between |01> and |10>: eigenvalues {+-hbar*g, 0, 0}.
        for g in (0.5, 1.0, 2.3):
            _, _, h_int, _ = build_hamiltonians(cfg_with(g=g))
            assert_allclose(sorted(np.linalg.eigvalsh(h_int)), [-g, 0.0, 0.0, g], atol=1e-12)

    def test_resonant_energy_preserving(self):
        cfg = cfg_with(0.0)
        _, _, h_int, _ = build_hamiltonians(cfg)
        assert float(np.linalg.norm(commutator(h_int, bare_hamiltonian(cfg)))) < 1e-12

    def test_detuned_not_energy_preserving(self):
        cfg = cfg_with(3.0)
        _, _, h_int, _ = build_hamiltonians(cfg)
        assert commutator_size(h_int, bare_hamiltonian(cfg)) > 1e-10
        assert commutator_size(h_int, NUMBER) <= 1e-10

    def test_always_excitation_preserving(self):
        # The premise of the closed-form propagators in `model`.
        for delta in (-5.0, 0.0, 0.7, 12.0):
            _, _, h_int, _ = build_hamiltonians(cfg_with(delta, g=1.7))
            assert commutator_size(h_int, NUMBER) <= 1e-10

    def test_h_sa_hermitian_both_modes(self):
        for cfg in (cfg_with(2.0, lam=0.1), cfg_with(2.0, lam_tilde=0.1, mode=MODE_WEAK)):
            _, _, _, h_sa = build_hamiltonians(cfg)
            assert is_hermitian(h_sa)

    def test_weak_mode_scaling(self):
        tau = 0.04
        cfg = cfg_with(0.0, tau=tau, lam_tilde=0.1, mode=MODE_WEAK)
        _, _, h_int, h_sa = build_hamiltonians(cfg)
        assert_allclose(h_sa - bare_hamiltonian(cfg), h_int / math.sqrt(tau), atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(case=admissible_cases())
@example(case=(fig7_config(), SystemStateParams(0.5)))
# The weak coupling g/sqrt(tau) underflows to 0 at resonance: the block does not rotate.
@example(case=(cfg_with(g=5e-324, tau=4.0, mode=MODE_WEAK), SystemStateParams(0.5)))
def test_closed_form_propagators_match_eigh(case):
    # The operator set's closed-form U against the eigh exponential of H_SA,
    # and u_bare against that of the unscaled H_S (x) I + I (x) H_A + H_int.
    cfg, _ = case
    _, _, h_int, h_sa = build_hamiltonians(cfg)
    ops = cfg.operators
    assert_allclose(ops.u, unitary_from_hamiltonian(h_sa, cfg.tau, cfg.hbar), rtol=0, atol=1e-14)
    bare = unitary_from_hamiltonian(bare_hamiltonian(cfg) + h_int, cfg.tau, cfg.hbar)
    assert_allclose(ops.u_bare, bare, rtol=0, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(case=admissible_cases(), si=st.booleans())
@example(case=(fig7_config(), SystemStateParams(0.5)), si=False)
@example(case=(replace(fig7_config(), omega_s=0.0, lam=0.0, mode=MODE_WEAK), SystemStateParams(0.5)), si=False)
@example(case=(cfg_with(omega_s=-0.0, omega_a=0.0, tau=0.3, lam_tilde=0.2, mode=MODE_WEAK), None), si=True)
def test_cached_operators_match_reference_builders(case, si):
    # The one builder's cached operators against the public reference
    # builders, bit for bit, and the levels against diag(H) in sigma_z order,
    # or the one level 0 of a zero frequency.
    cfg, _ = case
    if si:
        try:
            cfg = replace(cfg, hbar=HBAR_SI)
        except ValueError:  # hbar*omega/2 of a tiny frequency falls below the smallest normal float
            assume(False)
    ops = cfg.operators
    h_s, h_a, _, _ = build_hamiltonians(cfg)
    rho_a, rho_a_th, _ = build_ancilla(cfg)
    references = dict(h_s=h_s, h_a=h_a, rho_a=rho_a, rho_a_th=rho_a_th)
    for name, reference in references.items():
        assert_same_bits(getattr(ops, name), reference)
    for levels, h, omega in ((ops.levels_s, h_s, cfg.omega_s), (ops.levels_a, h_a, cfg.omega_a)):
        assert_same_bits(levels, np.diagonal(h).real if omega != 0.0 else np.array([0.0]))
    assert ops.prefactor == cfg.kdq_coherence_prefactor
    assert not any(a.flags.writeable for a in ops)


class TestAncilla:
    def test_caption_lambda_max_values(self):
        # 1/Z_A at hbar = omega_a = 1 for the three quoted temperatures.
        for beta, expected in ((5.0, 0.082), (1.0, 0.443), (0.2, 0.498)):
            assert abs(1.0 / partition_function(beta, 1.0) - expected) < 5e-4

    def test_thermal_state(self):
        rho_a, rho_a_th, chi_a = build_ancilla(cfg_with(beta=1.0, lam=0.0))
        assert_allclose(rho_a, rho_a_th, atol=1e-15)
        assert is_density_matrix(rho_a_th)
        assert_allclose(chi_a, SIGMA_X)

    def test_psd_across_lambda_grid(self):
        base = cfg_with(beta=0.8)
        for lam in np.linspace(-base.lambda_max, base.lambda_max, 21):
            rho_a, _, _ = build_ancilla(cfg_with(beta=0.8, lam=float(lam)))
            assert is_density_matrix(rho_a)

    def test_determinant_sign_at_bound(self):
        base = cfg_with(beta=0.8)
        inside, _, _ = build_ancilla(cfg_with(beta=0.8, lam=0.999 * base.lambda_max))
        assert np.linalg.det(inside).real > 0
        with pytest.raises(ValueError):
            cfg_with(beta=0.8, lam=1.01 * base.lambda_max)

    def test_bound_violation_reports_value(self):
        base = cfg_with(beta=1.0)
        with pytest.raises(ValueError, match=f"{base.lambda_max:.6g}"):
            cfg_with(beta=1.0, lam=2.0 * base.lambda_max)

    def test_weak_mode_bound_uses_sqrt_tau(self):
        tau = 0.25
        base = cfg_with(tau=tau)
        ok = base.lambda_max / math.sqrt(tau)
        cfg_with(tau=tau, lam_tilde=0.99 * ok, mode=MODE_WEAK)
        with pytest.raises(ValueError):
            cfg_with(tau=tau, lam_tilde=1.05 * ok, mode=MODE_WEAK)

    @pytest.mark.parametrize("omega_a", [1.0, -1.0])
    def test_zero_temperature_limit(self, omega_a):
        # beta*hbar*|omega_a| = 2000 overflows exp and cosh; the ancilla is
        # then the pure lower level and no coherence fits.
        cfg = ModelConfig(omega_s=omega_a, omega_a=omega_a, g=1.0, tau=0.5, beta=2000.0)
        rho_a, rho_a_th, _ = build_ancilla(cfg)
        lower = np.diag([0.0, 1.0]) if omega_a > 0 else np.diag([1.0, 0.0])
        assert np.array_equal(rho_a, lower) and np.array_equal(rho_a_th, lower)
        assert cfg.z_a == math.inf and cfg.lambda_max == 0.0


class TestSystemState:
    def test_pure_excited(self):
        assert_allclose(build_system_state(SystemStateParams(1.0)), np.diag([1.0, 0.0]))

    def test_pure_with_max_coherence(self):
        state = SystemStateParams(0.25, math.sqrt(3.0) / 4.0, 1.234)
        rho = build_system_state(state)
        assert abs(np.linalg.det(rho)) < 1e-12
        assert is_density_matrix(rho)

    def test_plus_state(self):
        rho = build_system_state(SystemStateParams(0.5, 0.5, 0.0))
        assert_allclose(rho, 0.5 * (IDENTITY_2 + SIGMA_X), atol=1e-15)

    def test_positivity_violation(self):
        with pytest.raises(ValueError):
            SystemStateParams(0.25, 0.5)
        with pytest.raises(ValueError):
            SystemStateParams(1.2)


class TestConfigValidation:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            cfg_with(g=-1.0)
        with pytest.raises(ValueError):
            cfg_with(tau=-0.1)
        with pytest.raises(ValueError):
            cfg_with(beta=-1.0)
        with pytest.raises(ValueError):
            cfg_with(hbar=0.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(omega_s=math.nan), "omega_s"),
            (dict(g=math.inf, tau=math.nan), "g"),
            (dict(omega_a=-math.inf), "omega_a"),
            (dict(beta=math.inf), "beta"),
            (dict(lam=math.nan), "lam"),
            (dict(hbar=math.nan), "hbar"),
        ],
    )
    def test_rejects_non_finite(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cfg_with(**kwargs)

    @pytest.mark.parametrize("field", ["rho11", "r", "phi_c"])
    def test_state_rejects_non_finite(self, field):
        params = dict(rho11=0.5, r=0.1, phi_c=0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                SystemStateParams(**{**params, field: bad})

    def test_resonance_threshold(self):
        # |detuning| <= 1e-12 * max(|omega_s|, |omega_a|).
        assert cfg_with(0.0).is_resonant
        assert cfg_with(5e-13).is_resonant
        assert not cfg_with(5e-11).is_resonant
        assert ModelConfig(omega_s=1e6 + 5e-7, omega_a=1e6, g=1.0, tau=0.5, beta=0.0).is_resonant
        assert not ModelConfig(omega_s=1e6 + 5e-6, omega_a=1e6, g=1.0, tau=0.5, beta=0.0).is_resonant
        # Relative at every scale: omega_a = 0 is as detuned from 1e-12 as from 1, and two zeros are resonant.
        assert not ModelConfig(omega_s=1e-12, omega_a=0.0, g=1e-12, tau=1e12, beta=0.0).is_resonant
        assert ModelConfig(omega_s=0.0, omega_a=0.0, g=1.0, tau=0.5, beta=0.0).is_resonant

    @pytest.mark.parametrize("field", ["omega_s", "omega_a"])
    @pytest.mark.parametrize("omega", [5e-324, -5e-324, sys.float_info.min])
    def test_rejects_subnormal_level_energy(self, field, omega):
        # hbar*omega/2 below the smallest normal float; at 5e-324 it underflows to 0.
        with pytest.raises(ValueError, match=f"^{field} = .* is too small"):
            cfg_with(**{field: omega})

    def test_smallest_level_energies_accepted(self):
        tiny = 2.0 * sys.float_info.min
        assert cfg_with(omega_s=tiny, omega_a=tiny).omega_s == tiny
        assert cfg_with(omega_s=0.0, omega_a=0.0).omega_a == 0.0
        with pytest.raises(ValueError, match="^omega_s = 1.0 is too small"):
            cfg_with(hbar=sys.float_info.min)

    def test_exact_mode_allows_zero_tau(self):
        assert cfg_with(tau=0.0).tau == 0.0

    def test_weak_mode_needs_positive_tau(self):
        with pytest.raises(ValueError):
            cfg_with(tau=0.0, mode=MODE_WEAK)

    @pytest.mark.parametrize(
        "kwargs, phase",
        [
            # |00> and |11> would pick up exp(-+i 1e310).
            (dict(omega_s=1e10, omega_a=1e10, tau=1e300), "(omega_s + omega_a)*tau/2"),
            # Resonant: the closed forms' phase 2 g tau overflows, (omega_s + omega_a) tau / 2 does not.
            (dict(tau=1e308), "tau*sqrt(4*g^2 + delta^2)"),
            (dict(omega_s=1e200, tau=0.0), "tau*sqrt(4*g^2 + delta^2)"),
            # Weak mode: g/sqrt(tau) overflows though g*g and g*tau do not.
            (dict(g=1e150, tau=1e-320, mode=MODE_WEAK), "tau*hypot(delta/2, g/sqrt(tau))"),
        ],
    )
    def test_rejects_infinite_collision_phase(self, kwargs, phase):
        # cos/sin/exp of the phase have no value; the config is rejected when
        # constructed instead of failing with "math domain error" when used.
        message = rf"^collision phase {re.escape(phase)} = (inf|nan) is not finite at tau = "
        with pytest.raises(ValueError, match=message):
            cfg_with(**kwargs)

    def test_large_finite_phases_accepted(self):
        cfg = cfg_with(omega_s=1e10, omega_a=1e10, tau=1e290)
        assert np.isfinite(cfg.operators.u).all()
        assert find_steady_state(cfg).state.shape == (2, 2)

    @pytest.mark.parametrize("field", ["omega_s", "omega_a"])
    def test_rejects_overflowing_level_splitting(self, field):
        with pytest.raises(ValueError, match=f"^{field} = 1e\\+300 is too large: hbar\\*{field} overflows"):
            cfg_with(**{field: 1e300, "hbar": 1e10, "tau": 0.0})

    def test_derived_accessors(self):
        cfg = cfg_with(3.0, tau=0.25, lam_tilde=0.3, mode=MODE_WEAK)
        assert cfg.detuning == 3.0
        assert cfg.lambda_eff == pytest.approx(0.3 * 0.5)
        assert cfg.kdq_coherence_prefactor == 0.3
        exact = cfg_with(0.0, lam=0.2)
        assert exact.lambda_eff == 0.2
        assert exact.kdq_coherence_prefactor == 0.2


# Every message with which a config or a state is rejected, pinned to its text;
# the base config is `cfg_with()`.
CONFIG_MESSAGES = [
    (dict(omega_s=math.nan), "omega_s must be finite, got nan"),
    (dict(omega_a=math.inf), "omega_a must be finite, got inf"),
    (dict(g=-math.inf), "g must be finite, got -inf"),
    (dict(tau=math.nan), "tau must be finite, got nan"),
    (dict(beta=math.inf), "beta must be finite, got inf"),
    (dict(lam=math.nan), "lam must be finite, got nan"),
    (dict(lam_tilde=-math.inf), "lam_tilde must be finite, got -inf"),
    (dict(hbar=math.nan), "hbar must be finite, got nan"),
    (dict(mode="bogus"), "unknown mode 'bogus'"),
    (dict(g=0.0), "coupling g must be positive"),
    (dict(hbar=-1.0), "hbar must be positive"),
    (dict(omega_s=1e-310), "omega_s = 1e-310 is too small: hbar*omega_s/2 is below the smallest normal float"),
    (dict(omega_a=-5e-324), "omega_a = -5e-324 is too small: hbar*omega_a/2 is below the smallest normal float"),
    (dict(omega_s=1e300, hbar=1e10, tau=0.0), "omega_s = 1e+300 is too large: hbar*omega_s overflows"),
    (dict(omega_a=1e300, hbar=1e10, tau=0.0), "omega_a = 1e+300 is too large: hbar*omega_a overflows"),
    (dict(beta=-1.0), "inverse temperature beta must be non-negative"),
    (dict(tau=0.0, mode=MODE_WEAK), "weakly coherent mode requires tau > 0"),
    (dict(tau=-0.5), "collision time tau must be non-negative"),
    (dict(omega_s=1e308, omega_a=1e308), "collision phase (omega_s + omega_a)*tau/2 = inf is not finite at tau = 0.5"),
    (dict(tau=1e308), "collision phase tau*sqrt(4*g^2 + delta^2) = inf is not finite at tau = 1e+308"),
    (dict(g=1e200), "collision phase tau*sqrt(4*g^2 + delta^2) = inf is not finite at tau = 0.5"),
    (
        dict(g=1e150, tau=1e-320, mode=MODE_WEAK),
        "collision phase tau*hypot(delta/2, g/sqrt(tau)) = inf is not finite at tau = 1e-320",
    ),
    (dict(lam=0.5), "ancilla coherence 0.5 exceeds the positivity bound 1/Z_A = 0.443409"),
    (dict(lam=-0.45), "ancilla coherence -0.45 exceeds the positivity bound 1/Z_A = 0.443409"),
    (dict(lam_tilde=1.0, mode=MODE_WEAK), "ancilla coherence 0.707107 exceeds the positivity bound 1/Z_A = 0.443409"),
    (dict(hbar=1e160), "hbar*omega_s = 1e+160 is too large: (2*hbar*omega_s)^2 overflows"),
    (dict(omega_a=7e153), "hbar*omega_a = 7e+153 is too large: (2*hbar*omega_a)^2 overflows"),
    (dict(hbar=1e160, g=1e150, omega_s=1e-150, omega_a=1e-150), "g = 1e+150 is too large: 4*hbar*g overflows"),
]
STATE_MESSAGES = [
    (dict(rho11=math.nan), "rho11 must be finite, got nan"),
    (dict(rho11=0.25, r=math.inf), "r must be finite, got inf"),
    (dict(rho11=0.25, phi_c=-math.inf), "phi_c must be finite, got -inf"),
    (dict(rho11=1.5), "rho11 must lie in [0, 1]"),
    (dict(rho11=-0.1), "rho11 must lie in [0, 1]"),
    (dict(rho11=0.25, r=-0.1), "coherence modulus r must be non-negative"),
    (dict(rho11=0.25, r=0.5), "r=0.5 violates positivity: r^2 must not exceed rho11*(1-rho11) = 0.1875"),
    (dict(rho11=0.0, r=2e-6), "r=2e-06 violates positivity: r^2 must not exceed rho11*(1-rho11) = 0"),
    # r*r overflows; a float's r**2 would raise OverflowError instead.
    (dict(rho11=0.25, r=1e200), "r=1e+200 violates positivity: r^2 must not exceed rho11*(1-rho11) = 0.1875"),
]
_CONFIG_BASE = dict(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.5, beta=1.0, lam=0.0, lam_tilde=0.0, hbar=1.0, mode="exact")
_STATE_BASE = dict(rho11=0.25, r=0.0, phi_c=0.0)


def config_arrays(rows):
    """`model._ConfigArrays` of field dicts, unchecked."""
    return model._ConfigArrays.build(**{name: [row[name] for row in rows] for name in _CONFIG_BASE})


def state_arrays(rows):
    """`model._StateArrays` of field dicts, unchecked."""
    return model._StateArrays.build(**{name: [row[name] for row in rows] for name in _STATE_BASE})


def per_object_errors(cls, rows):
    """Row -> message of ``cls(**row)`` for the rows it rejects."""
    errors = {}
    for k, row in enumerate(rows):
        try:
            cls(**row)
        except ValueError as exc:
            errors[k] = str(exc)
    return errors


class TestMessages:
    @pytest.mark.parametrize("kwargs, message", CONFIG_MESSAGES)
    def test_config_message(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            ModelConfig(**{**_CONFIG_BASE, **kwargs})
        assert str(info.value) == message
        assert config_arrays([_CONFIG_BASE, {**_CONFIG_BASE, **kwargs}]).errors() == {1: message}

    @pytest.mark.parametrize("kwargs, message", STATE_MESSAGES)
    def test_state_message(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            SystemStateParams(**{**_STATE_BASE, **kwargs})
        assert str(info.value) == message
        assert state_arrays([{**_STATE_BASE, **kwargs}, _STATE_BASE]).errors() == {0: message}

    def test_checked_raises_the_first_rejected_row(self):
        cfgs = model._ConfigArrays.build(**{**_CONFIG_BASE, "g": [1.0, -1.0]})
        with pytest.raises(ValueError, match="^coupling g must be positive$"):
            cfgs.checked()
        assert cfgs.take([0]).checked().g.tolist() == [1.0]

    def test_checks_build_format_arguments_only_when_asked(self):
        # A passing config's checks yield False, one per check, and no format
        # arguments; answered True after a failing check, they yield its key and arguments.
        checks = list(ModelConfig(**_CONFIG_BASE)._checks())
        assert len(checks) == 25 and all(failed is False for failed in checks)
        checks = config_arrays([_CONFIG_BASE, {**_CONFIG_BASE, "lam": 0.5}])._checks()
        failing = [(mask.tolist(), checks.send(True)) for mask in checks if mask.any()]
        assert len(failing) == 1
        mask, (key, args) = failing[0]
        assert (key, mask, args["value"].tolist()) == ("lambda", [False, True], [0.0, 0.5])
        assert_same_bits(args["bound"], np.full(2, 1.0 / partition_function(1.0, 1.0)))

    def test_weak_phase_takes_hypot_at_the_weak_rows_only(self, monkeypatch):
        # Only a weak row can fail the weak propagator's phase check, so an
        # exact config or row takes no hypot there.
        calls = []

        def counting(hypot, measure):
            return lambda x, y: calls.append(measure(x)) or hypot(x, y)

        monkeypatch.setattr(model._SCALAR, "hypot", counting(model._SCALAR.hypot, lambda x: "float"))
        monkeypatch.setattr(model._ARRAY, "hypot", counting(model._ARRAY.hypot, len))
        weak = {**_CONFIG_BASE, "lam_tilde": 0.2, "mode": MODE_WEAK}
        bad = {**weak, "g": 1e150, "tau": 1e-320}
        ModelConfig(**_CONFIG_BASE)
        assert calls == []
        ModelConfig(**weak)
        assert calls == ["float"]
        calls.clear()
        assert config_arrays([_CONFIG_BASE] * 3).errors() == {}
        assert calls == []
        message = "collision phase tau*hypot(delta/2, g/sqrt(tau)) = inf is not finite at tau = 1e-320"
        assert config_arrays([bad, _CONFIG_BASE, weak, _CONFIG_BASE, bad]).errors() == {0: message, 4: message}
        assert calls == [3]


def test_labels_ride_of_and_take():
    cfgs = model._ConfigArrays.of([ModelConfig(**{**_CONFIG_BASE, "g": g}) for g in (1.0, 2.0)])
    assert cfgs.mode.tolist() == ["exact", "exact"]
    weak = cfgs.replace(mode=["exact", MODE_WEAK]).take([1, 1, 0])
    assert (weak.mode.tolist(), weak.g.tolist()) == ([MODE_WEAK, MODE_WEAK, "exact"], [2.0, 2.0, 1.0])
    assert model._StateArrays.of([SystemStateParams(0.5)]).take([0, 0]).rho11.tolist() == [0.5, 0.5]


def _fresh_z_a(cfgs):
    """The Z_A of configs rebuilt from their fields, which carry none, and checked against the per-row float."""
    fields = {name: getattr(cfgs, name) for name in (*model._ConfigArrays.FIELDS, "mode")}
    z_a = model._ConfigArrays.build(**fields).z_a
    assert_same_bits(z_a, [partition_function(*row) for row in zip(cfgs.beta, cfgs.omega_a, cfgs.hbar)])
    return z_a


@settings(max_examples=100, deadline=None)
@given(cases=st.lists(admissible_cases(), min_size=1, max_size=6), data=st.data())
def test_z_a_rides_take_and_replace(cases, data):
    # Z_A is carried, not recomputed, by a config's one-row arrays, `take`
    # and a `replace` that leaves beta, omega_a and hbar alone, with the bits
    # of a fresh build; a `replace` of any of those three fields computes it anew.
    cfgs = model._ConfigArrays.of([cfg for cfg, _ in cases])
    assert "z_a" not in vars(cfgs)
    assert_same_bits(cfgs.z_a, _fresh_z_a(cfgs))
    n = len(cfgs)
    indices = st.lists(st.integers(0, n - 1), min_size=1, max_size=8)
    rows = data.draw(st.one_of(indices, st.lists(st.booleans(), min_size=n, max_size=n)))
    taken = cfgs.take(np.array(rows))
    kept = taken.replace(lam=0.0, tau=2.0 * taken.tau, mode=MODE_WEAK)
    # The one-row arrays of a config, replaced as a sweep grid replaces them: Z_A broadcast to the grid.
    grid = cases[0][0]._arrays.replace(g=np.linspace(0.5, 1.5, 3))
    for arrays in (cases[0][0]._arrays, taken, kept, grid):
        assert "z_a" in vars(arrays)
        assert_same_bits(arrays.z_a, _fresh_z_a(arrays))
    for name in ("beta", "omega_a", "hbar"):
        changed = taken.replace(**{name: 0.5 * getattr(taken, name)})
        assert "z_a" not in vars(changed)
        assert_same_bits(changed.z_a, _fresh_z_a(changed))


@settings(max_examples=200, deadline=None)
@given(args=st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=20))
def test_array_partition_function_matches_scalar(args):
    # At x = 0.5*beta*hbar*omega of either sign of zero, beside and at the
    # overflow cut |x| = 710, infinite and NaN, and at random arguments,
    # NaN and inf among them: the same bits as the float function, and no
    # NumPy warning, as float arithmetic gives none.
    edges = [0.0, -0.0, 709.99, -709.99, 710.0, -710.0, math.inf, -math.inf, math.nan]
    beta, hbar, omega = (np.array(column) for column in zip(*[(2.0, 1.0, x) for x in edges], *args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = model._ARRAY.partition_function(beta, omega, hbar)
    assert_same_bits(z, [partition_function(*row) for row in zip(beta.tolist(), omega.tolist(), hbar.tolist())])


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def parameter_rows(draw):
    """(config fields, state fields): an admissible pair, or one with a bad value in the config or the state."""
    cfg, state = draw(admissible_cases())
    config, system = asdict(cfg), asdict(state)
    bad = draw(
        st.sampled_from(["none", "non-finite", "subnormal", "phase", "square", "lambda", "mode", "state", "r", "huge r"])
    )
    if bad == "non-finite":
        config[draw(st.sampled_from(sorted(model._ConfigArrays.FIELDS)))] = draw(_NON_FINITE)
    elif bad == "subnormal":
        omega = draw(st.floats(5e-324, 4e-308)) * draw(st.sampled_from([1, -1]))
        config[draw(st.sampled_from(["omega_s", "omega_a"]))] = omega
    elif bad == "phase":
        config["g"] = draw(st.floats(1e155, 1e300))
    elif bad == "square":
        config["hbar"] = draw(st.floats(1e154, 1e300))
    elif bad == "lambda":
        lam = draw(st.floats(1.001, 5.0)) * cfg.lambda_max * draw(st.sampled_from([1.0, -1.0]))
        config.update(lam_tilde=lam / math.sqrt(cfg.tau)) if cfg.is_weak else config.update(lam=lam)
    elif bad == "mode":
        config["mode"] = "bogus"
    elif bad == "state":
        system[draw(st.sampled_from(sorted(model._StateArrays.FIELDS)))] = draw(_NON_FINITE)
    elif bad == "r":
        bound = state.rho11 * (1.0 - state.rho11)
        system["r"] = draw(st.floats(1.001, 1e3)) * math.sqrt(bound + 2e-12)
    elif bad == "huge r":
        system["r"] = 1e200
    return config, system


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(parameter_rows(), min_size=1, max_size=10))
def test_masks_match_per_object_checks(rows):
    # Each row of a mixed stack (both modes, admissible and bad rows) fails
    # the masks exactly when its own construction fails, with its message.
    configs, states = [config for config, _ in rows], [state for _, state in rows]
    assert config_arrays(configs).errors() == per_object_errors(ModelConfig, configs)
    assert state_arrays(states).errors() == per_object_errors(SystemStateParams, states)


@settings(max_examples=100, deadline=None)
@given(cases=st.lists(admissible_cases(), min_size=1, max_size=8))
def test_stacked_operators_match_per_config(cases):
    # The builder on parameter arrays against its one-config case on each
    # config's floats, bit for bit, within each level structure.
    by_shape = {}
    for cfg, state in cases:
        by_shape.setdefault((cfg.omega_s == 0.0, cfg.omega_a == 0.0), []).append((cfg, state))
    for rows in by_shape.values():
        ops = model._stack(model._ConfigArrays.of([cfg for cfg, _ in rows]))
        for k, (cfg, _) in enumerate(rows):
            for stacked, own in zip(ops, cfg.operators):
                assert_same_bits(stacked[k], own)
        states = [state for _, state in rows]
        assert_same_bits(
            model.build_system_state(model._StateArrays.of(states)), np.array([build_system_state(s) for s in states])
        )


@pytest.mark.parametrize("omega_s, omega_a", [(1.0, 1.3), (-1.0, -1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
@pytest.mark.parametrize("weak", [False, True])
def test_operator_layout(omega_s, omega_a, weak):
    # Each field's shape and dtype, C-contiguous and read-only, for one config
    # and for a stack of configs (with a weak one or not), with the one level 0
    # of a zero frequency; the prefactor bit for bit.
    exact = [cfg_with(omega_s=omega_s, omega_a=omega_a, lam=lam) for lam in (0.2, -0.0)]
    cfgs = exact + [cfg_with(omega_s=omega_s, omega_a=omega_a, tau=0.3, lam_tilde=0.25, mode=MODE_WEAK)] * weak
    levels = [1 if omega == 0.0 else 2 for omega in (omega_s, omega_a)]
    shapes = [(4, 4), (4, 4), (2, 2), (2, 2), (1, 1), (2, 2), (2, 2), (levels[0],), (levels[1],)]
    dtypes = [complex] * 4 + [float] + [complex] * 2 + [float] * 2
    stack = model._stack(model._ConfigArrays.of(cfgs))
    for ops, axis in [(cfg.operators, ()) for cfg in cfgs] + [(stack, (len(cfgs),))]:
        assert [a.shape for a in ops] == [axis + shape for shape in shapes]
        assert [a.dtype for a in ops] == [np.dtype(dtype) for dtype in dtypes]
        assert all(a.flags.c_contiguous and not a.flags.writeable for a in ops)
    for cfg in cfgs:
        assert_same_bits(cfg.operators.prefactor, np.array([[cfg.kdq_coherence_prefactor]]))
    assert_same_bits(stack.prefactor, np.array([[[cfg.kdq_coherence_prefactor]] for cfg in cfgs]))


@pytest.fixture
def builds(monkeypatch):
    """The configs passed to `model._stack`, the one operator builder, in call order.

    `_stack` takes one `ModelConfig` or the parameter arrays of several
    configs; each row of the arrays is recorded as its `ModelConfig`.
    """
    configs = []
    stack = model._stack

    def counted(cfgs):
        if isinstance(cfgs, ModelConfig):
            configs.append(cfgs)
        else:
            rows = zip(cfgs.values.T.tolist(), cfgs.mode.tolist())
            configs.extend(ModelConfig(*row, mode=mode) for row, mode in rows)
        return stack(cfgs)

    monkeypatch.setattr(model, "_stack", counted)
    return configs


class TestOperatorCache:
    def test_evolve_builds_once(self, builds):
        cfg = cfg_with(lam=0.2)
        evolve(build_system_state(SystemStateParams(0.25, 0.4, 1.0)), cfg, 50, thermo=True)
        assert builds == [cfg]

    def test_master_equation_builds_once(self, builds):
        cfg = cfg_with(tau=0.02, lam_tilde=0.25, mode=MODE_WEAK)
        integrate_master_equation(build_system_state(SystemStateParams(0.3)), cfg, 100 * 0.001, 0.001)
        assert builds == [cfg]

    def test_operator_approach_builds_once(self, builds):
        # The one-config views read the config's own operators.
        cfg = cfg_with(tau=0.3, lam_tilde=0.25, mode=MODE_WEAK)
        rho_s = build_system_state(SystemStateParams(0.25, 0.4, 1.0))
        operator_approach(rho_s, cfg)
        operator_approach(rho_s, cfg)
        work_observables(cfg)
        assert builds == [cfg]

    def test_large_configs_build_in_one_call(self, monkeypatch):
        # fig1 at 128 points: 18 configs of 128 phases each, with one level
        # structure, so one `_stack` call builds all 18.
        calls = []
        stack = model._stack
        monkeypatch.setattr(model, "_stack", lambda cfgs: calls.append(cfgs) or stack(cfgs))
        run(ExperimentSpec(preset="fig1", cfg=None, state=None, points=128, collisions=8))
        assert len(calls) == 1 and len(calls[0]) == 18

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3a", "fig3b", "fig5", "fig6", "custom"])
    def test_preset_builds_once_per_config(self, builds, preset, tmp_path):
        # fig1/fig2: 18 configs (three temperatures, six pulse durations), 16
        # phases each, one config at a time.  fig3a/fig3b ask the evaluator for
        # analytic outputs only, which read no operators.  fig5/fig6: one
        # config per collision time, 16.  The golden custom sweep: 4 lambdas x
        # 4 phases, of which 3 lambdas make a valid config; its rows are
        # evaluated as one config stack.
        out = tmp_path / f"{preset}.csv"
        configs = {"fig1": 18, "fig2": 18, "fig3a": 0, "fig3b": 0, "fig5": 16, "fig6": 16, "custom": 3}[preset]
        if preset == "custom":
            spec = parse_config((GOLDEN / "custom.cfg").read_text(encoding="utf-8"))
        else:
            spec = ExperimentSpec(preset=preset, cfg=None, state=None, points=16, collisions=8)
        run(replace(spec, out_path=str(out)))
        assert (0 < len(builds) <= configs if configs else not builds) and len(set(builds)) == len(builds), builds

    def test_shared_read_only_and_outside_equality(self):
        cfg = cfg_with(lam=0.2)
        ops = cfg.operators
        assert cfg.operators is ops
        with pytest.raises(ValueError):
            ops.u[0, 0] = 0.0
        # Views of a buffer frozen before they were taken: none can be made writable again.
        for a in ops:
            with pytest.raises(ValueError):
                a.setflags(write=True)
        twin = replace(cfg)
        assert twin == cfg and hash(twin) == hash(cfg)
        assert twin.operators is not ops
        assert_allclose(twin.operators.u, ops.u, rtol=0, atol=0)
        assert SIGMA_X.flags.writeable

    def test_cached_on_first_use_and_documented_on_the_class(self):
        # The cache is the instance's __dict__; the class shows the docstring, as help() reads it.
        cfg = cfg_with(lam=0.2)
        assert "operators" not in vars(cfg)
        ops = cfg.operators
        assert vars(cfg)["operators"] is ops
        assert ModelConfig.operators.__doc__.startswith("This config's `Operators`")

    def test_cached_operators_free_with_their_config(self):
        # Operators that referred back to their config would form a cycle,
        # freed only by the garbage collector, and raise the peak memory of
        # sweeps over many configs.
        cfg = cfg_with(lam=0.2)
        ops = cfg.operators
        alive = weakref.ref(cfg)
        del cfg
        assert alive() is None
