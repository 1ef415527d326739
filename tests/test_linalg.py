import math
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_hermitian
from references import eigvalsh_trace_distance, is_density_matrix, is_hermitian, is_psd, is_unitary, trace_one
from kdcollide.linalg import (
    commutator,
    dag,
    eig_hermitian,
    group_levels,
    partial_trace,
    psd_floor,
    tensor,
    trace_distance,
    unitary_from_hamiltonian,
)
from kdcollide.model import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z


class TestTensor:
    def test_identity(self):
        assert_allclose(tensor(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_z_times_identity(self):
        assert_allclose(tensor(SIGMA_Z, IDENTITY_2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_trace_multiplicative(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert_allclose(np.trace(tensor(a, b)), np.trace(a) * np.trace(b), atol=1e-14)

    def test_associative(self, rng):
        # Exact equality for exactly-representable entries; float products are
        # not associative bitwise, so random matrices get a 1-ulp allowance.
        assert np.array_equal(
            tensor(tensor(SIGMA_X, SIGMA_Z), SIGMA_Y), tensor(SIGMA_X, tensor(SIGMA_Z, SIGMA_Y))
        )
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        assert_allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), rtol=1e-15)


class TestPartialTrace:
    def test_product_marginals(self, rng):
        from conftest import random_density_matrix

        rho_s = random_density_matrix(rng)
        rho_a = random_density_matrix(rng)
        joint = tensor(rho_s, rho_a)
        assert_allclose(partial_trace(joint, "S"), rho_s, atol=1e-14)
        assert_allclose(partial_trace(joint, "A"), rho_a, atol=1e-14)

    def test_maximally_mixed(self):
        assert_allclose(partial_trace(np.eye(4) / 4.0, "A"), IDENTITY_2 / 2.0)

    def test_trace_preserved(self, rng):
        m = random_hermitian(rng, 4)
        for keep in ("S", "A"):
            assert abs(np.trace(partial_trace(m, keep)) - np.trace(m)) < 1e-12

    def test_identity_collision(self, rng):
        from conftest import random_density_matrix

        rho_s = random_density_matrix(rng)
        rho_a = random_density_matrix(rng)
        u = unitary_from_hamiltonian(random_hermitian(rng, 4), 0.0)
        evolved = u @ tensor(rho_s, rho_a) @ dag(u)
        assert_allclose(partial_trace(evolved, "S"), rho_s, atol=1e-14)

    def test_stack_traces_each_matrix(self, rng):
        stack = np.array([random_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        for keep in ("S", "A"):
            expected = [partial_trace(m, keep) for m in stack.reshape(6, 4, 4)]
            assert np.array_equal(partial_trace(stack, keep), np.reshape(expected, (2, 3, 2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(3), "S")
        with pytest.raises(ValueError):
            partial_trace(np.zeros((5, 3, 3)), "S")

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), "X")


class TestEigHermitian:
    def test_sigma_z(self):
        dec = eig_hermitian(SIGMA_Z)
        assert dec.eigenvalues == (1.0, -1.0)
        assert_allclose(dec.projectors[0], np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(dec.projectors[1], np.diag([0.0, 1.0]), atol=1e-15)

    def test_identity_grouped(self):
        dec = eig_hermitian(IDENTITY_2)
        assert len(dec.eigenvalues) == 1
        assert_allclose(dec.projectors[0], IDENTITY_2)

    def test_resonant_bare_levels(self):
        # H_S + H_A at equal frequencies: levels (w, 0, 0, -w) with the
        # zero eigenspace two-dimensional.
        omega = 1.3
        h = 0.5 * omega * (tensor(SIGMA_Z, IDENTITY_2) + tensor(IDENTITY_2, SIGMA_Z))
        dec = eig_hermitian(h)
        assert_allclose(dec.eigenvalues, [omega, 0.0, -omega], atol=1e-12)
        assert abs(np.trace(dec.projectors[1]) - 2.0) < 1e-12

    def test_random_reconstruction(self, rng):
        for dim in (2, 4):
            for _ in range(20):
                m = random_hermitian(rng, dim)
                dec = eig_hermitian(m)
                assert np.linalg.norm(dec.reconstruct() - m) < 1e-10
                total = sum(dec.projectors)
                assert np.linalg.norm(total - np.eye(dim)) < 1e-12
                for i, p in enumerate(dec.projectors):
                    for j, q in enumerate(dec.projectors):
                        expected = p if i == j else np.zeros_like(p)
                        assert np.linalg.norm(p @ q - expected) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGroupLevels:
    def test_descending_with_degenerate_pair_merged(self):
        levels, index = group_levels([0.0, 1.3, -1.3, 1e-12])
        assert levels == (1.3, 5e-13, -1.3)
        assert list(index) == [1, 0, 2, 1]

    def test_zero_spread_is_one_level(self):
        levels, index = group_levels([0.0, -0.0])
        assert levels == (0.0,) and list(index) == [0, 0]

    def test_negative_frequency_reverses_order(self):
        levels, index = group_levels(np.diag(-0.5 * SIGMA_Z).real)
        assert levels == (0.5, -0.5) and list(index) == [1, 0]


class TestUnitary:
    def test_zero_time(self, rng):
        assert_allclose(
            unitary_from_hamiltonian(random_hermitian(rng, 4), 0.0), np.eye(4), atol=1e-14
        )

    def test_full_phase_rotation(self):
        omega = 0.7
        u = unitary_from_hamiltonian(0.5 * omega * SIGMA_Z, 2.0 * math.pi / omega)
        assert_allclose(u, -IDENTITY_2, atol=1e-12)

    def test_unitarity(self, rng):
        for _ in range(10):
            u = unitary_from_hamiltonian(random_hermitian(rng, 4), rng.uniform(0, 5))
            assert is_unitary(u, 1e-12)

    def test_inverse(self, rng):
        h = random_hermitian(rng, 4)
        t = 1.7
        prod = unitary_from_hamiltonian(h, t) @ unitary_from_hamiltonian(h, -t)
        assert np.linalg.norm(prod - np.eye(4)) < 1e-12

    def test_hbar_scaling(self, rng):
        h = random_hermitian(rng, 2)
        assert_allclose(
            unitary_from_hamiltonian(h, 0.5, hbar=2.0),
            unitary_from_hamiltonian(h / 2.0, 0.5),
            atol=1e-13,
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            unitary_from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestCommutatorNorm:
    def test_self_commutes(self):
        assert np.linalg.norm(commutator(SIGMA_Z, SIGMA_Z)) == 0.0

    def test_pauli_algebra(self):
        # [sx, sy] = 2i sz, Frobenius norm 2*sqrt(2)
        assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, rtol=0, atol=1e-14)
        assert abs(np.linalg.norm(commutator(SIGMA_X, SIGMA_Y)) - 2.0 * math.sqrt(2.0)) < 1e-14


class TestTraceDistance:
    def test_identical(self, rng):
        from conftest import random_density_matrix

        rho = random_density_matrix(rng)
        assert trace_distance(rho, rho) == 0.0
        for _ in range(200):
            a = 10.0 ** rng.uniform(-300.0, 300.0) * random_hermitian(rng, 2)
            assert trace_distance(a, a.copy()) == 0.0

    def test_orthogonal_pure_states(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(p0, p1) - 1.0) < 1e-14

    def test_symmetric(self, rng):
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            a, b = scale * random_hermitian(rng, 2), scale * random_hermitian(rng, 2)
            assert trace_distance(a, b) == trace_distance(b, a)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=re.escape("dimension mismatch: (2, 2) vs (4, 4)")):
            trace_distance(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("shape", [(4, 4), (3, 3), (2,), (2, 2, 2)])
    def test_rejects_all_but_2x2(self, shape):
        a = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError, match=re.escape(f"trace_distance takes 2x2 matrices, got {shape}")):
            trace_distance(a, a)

    def test_closed_form_matches_eigvalsh_across_scales(self, rng):
        # Hermitian pairs from 1e-300 to 1e300, every third one a close pair.
        for k in range(3000):
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            a = scale * random_hermitian(rng, 2)
            b = a + scale * 1e-8 * random_hermitian(rng, 2) if k % 3 == 0 else scale * random_hermitian(rng, 2)
            expected = eigvalsh_trace_distance(a, b)
            assert abs(trace_distance(a, b) - expected) <= 1e-15 * expected

    def test_closed_form_is_within_two_ulps_of_the_exact_distance(self, rng):
        # max(|m|, r) of d in 60 digits; eigvalsh itself is off by up to
        # about 1e-15, so this is the sharper check.
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            d = scale * random_hermitian(rng, 2)
            with mpmath.workdps(60):
                d00, d11 = mpmath.mpf(d[0, 0].real), mpmath.mpf(d[1, 1].real)
                r = mpmath.sqrt(((d00 - d11) / 2) ** 2 + mpmath.mpf(d[1, 0].real) ** 2 + mpmath.mpf(d[1, 0].imag) ** 2)
                exact = max(abs(d00 + d11) / 2, r)
                assert abs(trace_distance(d, np.zeros((2, 2))) - exact) <= 2.0 * np.finfo(float).eps * exact

    def test_reads_the_real_diagonal_and_the_lower_triangle(self, rng):
        a = random_hermitian(rng, 2)
        b = a.copy()
        b[0, 1] += 5.0 + 3.0j
        b[0, 0] += 2.0j
        assert trace_distance(a, b) == 0.0
        assert trace_distance(a, b) == eigvalsh_trace_distance(a, b)

    def test_nan_gives_nan(self):
        for index in [(0, 0), (1, 0), (1, 1)]:
            a = np.eye(2, dtype=complex)
            a[index] = math.nan
            assert math.isnan(trace_distance(a, np.zeros((2, 2))))


class TestPredicates:
    def test_basics(self, rng):
        from conftest import random_density_matrix

        rho = random_density_matrix(rng)
        assert is_hermitian(rho)
        assert is_psd(rho)
        assert trace_one(rho, 1e-12)
        assert is_density_matrix(rho)
        assert not is_hermitian(rho + 1e-3 * np.array([[0, 1], [0, 0]]))

    def test_psd_floor(self, rng):
        assert psd_floor(np.diag([1.0, -0.25]).astype(complex)) == -0.25
        for dim in (2, 4):
            m = random_hermitian(rng, dim) + 0.3 * rng.standard_normal((dim, dim))
            assert psd_floor(m) == float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))

    @pytest.mark.parametrize(
        "m", [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, np.nan]], [[1.0, 0.0], [np.nan, 1.0]]]
    )
    def test_psd_floor_of_a_nan_matrix_is_nan(self, m):
        # A NaN state must not read as a PSD pass; eigvalsh alone gives [0, -0] for a NaN diagonal entry.
        assert math.isnan(psd_floor(np.array(m, dtype=complex)))
