"""Dense reference formulas that tests compare the package against.

`dense_kernel` is the KDQ kernel as a block sum over the whole 4x4 product
basis: Q[i, f] = (W U^dag)[i, f] U[f, i] as one broadcast matrix product,
summed over the level of each basis state by the 0/1 matrix G as G^T Q G.
`kdq._kernel` reads only the six entries of U that the swap coupling fills;
this form reads all sixteen.

`csv_text` is the CSV text of a table as one ``%`` call per row, every cell
a Python float under ``%.17g``; `cli.write_csv` formats each block of rows as
NumPy array operations instead (`kdcollide._g17`).

`steady_state` solves the fixed point of one collision as the null vector
of S - I from one SVD, the 4x4 map S of `collision._channel`, with its
residual from `eigvalsh_trace_distance`, the trace distance from
``eigvalsh`` of any Hermitian difference.  `collision.find_steady_state`
has a closed form of the fixed point and a 2x2 closed-form distance
instead.  `exact_steady_state` is the fixed point at 50 digits: the
propagator from ``mpmath.expm`` of the Hamiltonian, S from it, and a
linear solve.

`is_hermitian`, `is_unitary`, `is_psd`, `trace_one` and `is_density_matrix`
are the state and operator predicates the tests assert with.
"""

import mpmath
import numpy as np

from kdcollide import collision, kdq
from kdcollide.linalg import dag, psd_floor, tensor
from kdcollide.model import IDENTITY_2, MODE_WEAK, SIGMA_X


def _basis_levels(levels):
    """The level of each basis state of one qubit: level b for basis state b, or level 0 where the two merge."""
    return np.arange(2) if levels.shape[-1] == 2 else np.zeros(2, int)


def dense_kernel(quantity, rho_s, ops, unitary=None):
    """``(matrix, levels)`` of a (..., 2, 2) stack of system states, as `kdq._kernel` without ``slot``."""
    u = ops.u_bare if unitary is None else unitary
    if quantity in (kdq.US, kdq.UA, kdq.USA):
        weight = tensor(rho_s, ops.rho_a)
    elif quantity in (kdq.Q, kdq.QS):
        weight = tensor(rho_s, ops.rho_a_th)
    else:
        weight = ops.prefactor * tensor(rho_s, SIGMA_X)
    index_s, index_a = _basis_levels(ops.levels_s), _basis_levels(ops.levels_a)
    # The level of basis state b = 2 * (system index) + (ancilla index).
    if quantity in (kdq.US, kdq.WS, kdq.QS):
        energies, level = ops.levels_s, np.repeat(index_s, 2)
    elif quantity in (kdq.UA, kdq.W, kdq.Q):
        energies, level = ops.levels_a, np.tile(index_a, 2)
    else:
        energies = (ops.levels_s[..., :, None] + ops.levels_a[..., None, :]).reshape(ops.levels_s.shape[:-1] + (-1,))
        level = (index_s[:, None] * ops.levels_a.shape[-1] + index_a[None, :]).ravel()
    q = (weight @ dag(u)) * u.swapaxes(-1, -2)
    g = (level[..., :, None] == np.arange(energies.shape[-1])).astype(float)
    return g.swapaxes(-1, -2) @ q @ g, (-1.0 if quantity in (kdq.W, kdq.Q) else 1.0) * energies


def csv_text(header, rows):
    """The CSV text of a (rows, columns) float array under ``header``: one ``%.17g`` format per row."""
    row_format = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_format % tuple(row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def eigvalsh_trace_distance(a, b):
    """(1/2)||a - b||_1 of two Hermitian matrices of any size, from the eigenvalues of a - b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def steady_state(cfg, tol=1e-12):
    """`collision.find_steady_state` with the identity built per call and an `eigvalsh` residual distance."""
    s = collision._channel(collision.collision_unitary(cfg), cfg.operators.rho_a)
    s_minus_i = s - np.eye(4)
    s_minus_i[0, 0], s_minus_i[3, 3] = -s[3, 0], -s[0, 3]
    _, singular, vh = np.linalg.svd(s_minus_i)
    null = vh[min(np.count_nonzero(singular > collision._UNIQUENESS_BOUND), 3) :]
    rho = (null.conj().T @ (null @ IDENTITY_2.ravel())).reshape(2, 2)
    rho = 0.5 * (rho + dag(rho)) / np.trace(rho).real
    residual = eigvalsh_trace_distance(rho, collision.collide_once(rho, cfg)[0])
    converged = singular[-2] > collision._UNIQUENESS_BOUND and residual <= 10.0 * tol
    return collision.SteadyStateResult(rho, 0, residual, bool(converged))


def exact_steady_state(cfg):
    """The fixed point of one collision under ``cfg``, from the exact values of its floats at 50 digits.

    U = expm(-i H tau/hbar) with H/hbar = (omega_s sigma_z (x) I + I (x)
    omega_a sigma_z)/2 + k (s+ s- + s- s+), k = g, or g/sqrt(tau) in the
    weakly coherent mode; rho_A = diag(1 - t, 1 + t)/2 + l sigma_x with
    t = tanh(beta hbar omega_a/2) and l = lambda_eff.  The state solves
    (S - I) vec(rho) = 0 with unit trace in place of the first row, which
    trace preservation makes redundant.  Returns a 2x2 complex array.
    """
    mp = mpmath
    with mp.workdps(50):
        omega_s, omega_a, g, tau, beta, lam, lam_tilde, hbar = (
            mp.mpf(getattr(cfg, name)) for name in ("omega_s", "omega_a", "g", "tau", "beta", "lam", "lam_tilde", "hbar")
        )
        if cfg.mode == MODE_WEAK:
            g, lam = g / mp.sqrt(tau), lam_tilde * mp.sqrt(tau)
        h = mp.diag([(omega_s + omega_a) / 2, (omega_s - omega_a) / 2, (omega_a - omega_s) / 2, -(omega_s + omega_a) / 2])
        h[1, 2] = h[2, 1] = g
        u = mp.expm(-1j * tau * h)
        t = mp.tanh(beta * hbar * omega_a / 2)
        rho_a = mp.matrix([[(1 - t) / 2, lam], [lam, (1 + t) / 2]])
        # (S - I)[(i, j), (m, p)] = sum_{k, n, q} U[(i, k), (m, n)] rho_A[n, q] conj(U[(j, k), (p, q)]) - delta.
        a = mp.matrix(4, 4)
        for row, (i, j) in enumerate(np.ndindex(2, 2)):
            for col, (m, p) in enumerate(np.ndindex(2, 2)):
                terms = (
                    u[2 * i + k, 2 * m + n] * rho_a[n, q] * mp.conj(u[2 * j + k, 2 * p + q])
                    for k, n, q in np.ndindex(2, 2, 2)
                )
                a[row, col] = mp.fsum(terms) - (row == col)
        a[0, 0], a[0, 1], a[0, 2], a[0, 3] = 1, 0, 0, 1
        rho = mp.lu_solve(a, mp.matrix([1, 0, 0, 0]))
        return np.array([complex(rho[n]) for n in range(4)]).reshape(2, 2)


def is_hermitian(m, tol=1e-10):
    # Relative to the matrix scale so the predicate works in any unit system.
    scale = float(np.max(np.abs(m)))
    return bool(np.max(np.abs(m - dag(m))) <= tol * scale) if scale > 0.0 else True


def is_unitary(m, tol=1e-12):
    return bool(np.max(np.abs(dag(m) @ m - np.eye(m.shape[0]))) <= tol)


def is_psd(m, tol=1e-10):
    return psd_floor(m) >= -tol


def trace_one(m, tol=1e-12):
    return bool(abs(np.trace(m) - 1.0) <= tol)


def is_density_matrix(m, tol=1e-10):
    return is_hermitian(m, tol) and is_psd(m, tol) and trace_one(m, max(tol, 1e-12))
