import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kdcollide import model
from kdcollide.cli import ExperimentSpec, run
from kdcollide.collision import evolve
from kdcollide.linalg import commutator_norm, is_density_matrix, is_hermitian
from kdcollide.model import (
    IDENTITY_2,
    MODE_WEAK,
    SIGMA_X,
    ModelConfig,
    SystemStateParams,
    build_ancilla,
    build_hamiltonians,
    build_system_state,
    check_energy_preserving,
    check_excitation_preserving,
    partition_function,
    total_bare_hamiltonian,
)
from kdcollide.smalltau import integrate_master_equation


def cfg_with(delta=0.0, **kwargs):
    defaults = dict(omega_s=1.0 + delta, omega_a=1.0, g=1.0, tau=0.5, beta=1.0)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


class TestHamiltonians:
    def test_interaction_spectrum(self):
        # Swap coupling hbar*g between |01> and |10>: eigenvalues {+-hbar*g, 0, 0}.
        for g in (0.5, 1.0, 2.3):
            _, _, h_int, _ = build_hamiltonians(cfg_with(g=g))
            assert_allclose(sorted(np.linalg.eigvalsh(h_int)), [-g, 0.0, 0.0, g], atol=1e-12)

    def test_resonant_energy_preserving(self):
        cfg = cfg_with(0.0)
        _, _, h_int, _ = build_hamiltonians(cfg)
        assert commutator_norm(h_int, total_bare_hamiltonian(cfg)) < 1e-12
        assert check_energy_preserving(cfg)

    def test_detuned_not_energy_preserving(self):
        cfg = cfg_with(3.0)
        assert not check_energy_preserving(cfg)
        assert check_excitation_preserving(cfg)

    def test_always_excitation_preserving(self):
        for delta in (-5.0, 0.0, 0.7, 12.0):
            assert check_excitation_preserving(cfg_with(delta, g=1.7))

    def test_h_sa_hermitian_both_modes(self):
        for cfg in (cfg_with(2.0, lam=0.1), cfg_with(2.0, lam_tilde=0.1, mode=MODE_WEAK)):
            _, _, _, h_sa = build_hamiltonians(cfg)
            assert is_hermitian(h_sa)

    def test_weak_mode_scaling(self):
        tau = 0.04
        cfg = cfg_with(0.0, tau=tau, lam_tilde=0.1, mode=MODE_WEAK)
        _, _, h_int, h_sa = build_hamiltonians(cfg)
        bare = total_bare_hamiltonian(cfg)
        assert_allclose(h_sa - bare, h_int / math.sqrt(tau), atol=1e-14)


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

    def test_custom_chi_validation(self):
        cfg = cfg_with()
        with pytest.raises(ValueError):
            build_ancilla(cfg, chi_a=np.diag([1.0, -1.0]))


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
        # |detuning| <= 1e-12 * max(1, |omega_s|, |omega_a|).
        assert cfg_with(0.0).is_resonant
        assert cfg_with(5e-13).is_resonant
        assert not cfg_with(5e-11).is_resonant
        assert ModelConfig(omega_s=1e6 + 5e-7, omega_a=1e6, g=1.0, tau=0.5, beta=0.0).is_resonant
        assert not ModelConfig(omega_s=1e6 + 5e-6, omega_a=1e6, g=1.0, tau=0.5, beta=0.0).is_resonant

    def test_exact_mode_allows_zero_tau(self):
        assert cfg_with(tau=0.0).tau == 0.0

    def test_weak_mode_needs_positive_tau(self):
        with pytest.raises(ValueError):
            cfg_with(tau=0.0, mode=MODE_WEAK)

    def test_derived_accessors(self):
        cfg = cfg_with(3.0, tau=0.25, lam_tilde=0.3, mode=MODE_WEAK)
        assert cfg.detuning == 3.0
        assert cfg.lambda_eff == pytest.approx(0.3 * 0.5)
        assert cfg.kdq_coherence_prefactor == 0.3
        exact = cfg_with(0.0, lam=0.2)
        assert exact.lambda_eff == 0.2
        assert exact.kdq_coherence_prefactor == 0.2


@pytest.fixture
def builds(monkeypatch):
    """Calls of `build_hamiltonians` and `build_ancilla` through any kdcollide module."""
    counts = {}
    for name in ("build_hamiltonians", "build_ancilla"):
        counts[name] = 0
        build = getattr(model, name)

        def counted(*args, _name=name, _build=build, **kwargs):
            counts[_name] += 1
            return _build(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.partition(".")[0] == "kdcollide" and getattr(module, name, None) is build:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestOperatorCache:
    def test_evolve_builds_once(self, builds):
        cfg = cfg_with(lam=0.2)
        evolve(build_system_state(SystemStateParams(0.25, 0.4, 1.0)), cfg, 50, thermo=True)
        assert all(0 < n <= 1 for n in builds.values()), builds

    def test_master_equation_builds_once(self, builds):
        cfg = cfg_with(tau=0.02, lam_tilde=0.25, mode=MODE_WEAK)
        integrate_master_equation(build_system_state(SystemStateParams(0.3)), cfg, 100 * 0.001, 0.001)
        assert all(0 < n <= 1 for n in builds.values()), builds

    @pytest.mark.parametrize("preset", ["fig1", "fig2"])
    def test_preset_builds_once_per_config(self, builds, preset, tmp_path):
        # 18 configs (three temperatures, six pulse durations), 16 phases each.
        out = tmp_path / f"{preset}.csv"
        run(ExperimentSpec(preset=preset, cfg=None, state=None, out_path=str(out), points=16, collisions=8))
        assert all(0 < n <= 18 for n in builds.values()), builds

    def test_shared_read_only_and_outside_equality(self):
        cfg = cfg_with(lam=0.2)
        ops = cfg.operators
        assert cfg.operators is ops
        with pytest.raises(ValueError):
            ops.u[0, 0] = 0.0
        twin = replace(cfg)
        assert twin == cfg and hash(twin) == hash(cfg)
        assert twin.operators is not ops
        assert_allclose(twin.operators.u, ops.u, rtol=0, atol=0)
        assert SIGMA_X.flags.writeable
