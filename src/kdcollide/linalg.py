"""Dense complex matrix algebra sized for few-qubit problems (2x2 and 4x4), and
`_powers`, the one iterator of the collision chains and the master equation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def dag(m: np.ndarray) -> np.ndarray:
    """Hermitian conjugate of a matrix, or of each matrix in a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices, or of two stacks of them.

    Stacks broadcast over their leading axes; each product is formed with
    np.kron's own elementwise arithmetic.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def partial_trace(m: np.ndarray, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator, or of each operator of a (..., 4, 4) stack.

    ``keep`` selects the surviving factor: "S" keeps the first (left) tensor
    factor, "A" the second.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"dimension mismatch: expected (4, 4), got {m.shape}")
    m4 = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    key = keep.upper()
    if key == "S":
        return np.einsum("...ikjk->...ij", m4)
    if key == "A":
        return np.einsum("...ikil->...kl", m4)
    raise ValueError(f"keep must be 'S' or 'A', got {keep!r}")


def _powers(s: np.ndarray, rho_s0: np.ndarray, n: int) -> np.ndarray:
    """(M, n + 1, 2, 2) states S^k rho_s0 of M chains, k = 0..n, for (M, 4, 4) maps S and (M, 2, 2) states.

    Repeated squaring: states 2^j..2^(j+1)-1 are S^(2^j) applied to states
    0..2^j-1, one batched product per power of two.
    """
    m = len(s)
    states = np.empty((m, n + 1, 4), dtype=complex)
    states[:, 0] = rho_s0.reshape(m, 4)
    power, done = s, 1
    while done <= n:
        count = min(done, n + 1 - done)
        # Row k of the product is S^done applied to state k.
        np.matmul(states[:, :count], power.swapaxes(-1, -2), out=states[:, done : done + count])
        done += count
        if done <= n:
            power = power @ power
    return states.reshape(m, n + 1, 2, 2)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||a - b||_1 of two 2x2 Hermitian matrices, in closed form.

    d = a - b has eigenvalues m -+ r, m = (d00 + d11)/2 and
    r = hypot((d00 - d11)/2, |d10|), so the distance is max(|m|, r).  Like
    `np.linalg.eigvalsh`, it reads the real diagonal and the lower triangle;
    a NaN there gives NaN.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape != (2, 2):
        raise ValueError(f"trace_distance takes 2x2 matrices, got {a.shape}")
    (d00, _), (d10, d11) = (a - b).tolist()
    d00, d11 = d00.real, d11.real
    m, r = 0.5 * (d00 + d11), math.hypot(0.5 * (d00 - d11), abs(d10))
    return math.nan if math.isnan(m) or math.isnan(r) else max(abs(m), r)


def psd_floor(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part; negative values measure PSD violation.

    NaN when the Hermitian part holds a NaN: `eigvalsh` reads one triangle, and
    gives finite eigenvalues for a NaN on the diagonal.
    """
    hermitian = 0.5 * (m + dag(m))
    return math.nan if np.isnan(hermitian).any() else float(np.min(np.linalg.eigvalsh(hermitian)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Grouped eigendecomposition of a Hermitian matrix.

    Eigenvalues are sorted in descending order; eigenvalues closer than the
    grouping threshold are merged and share one orthogonal projector.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.projectors[0])
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out = out + lam * proj
        return out


def group_levels(energies: np.ndarray) -> tuple[tuple[float, ...], np.ndarray]:
    """Group real energies into levels sorted in descending order.

    A new level starts when an energy lies more than 1e-9 times the spread
    below the first energy of the current level; a level's energy is the
    mean of its members.  Returns ``(levels, index)`` with ``index[k]`` the
    level of ``energies[k]``.
    """
    energies = np.asarray(energies, dtype=float)
    order = np.argsort(-energies, kind="stable")
    ordered = energies[order]
    threshold = 1e-9 * float(ordered[0] - ordered[-1])
    index = np.empty(len(ordered), dtype=int)
    levels: list[float] = []
    start = 0
    for stop in range(1, len(ordered) + 1):
        if stop == len(ordered) or ordered[start] - ordered[stop] > threshold:
            index[order[start:stop]] = len(levels)
            levels.append(float(np.mean(ordered[start:stop])))
            start = stop
    return tuple(levels), index


def _hermitian(m: np.ndarray, caller: str) -> np.ndarray:
    """``m`` as a complex array; `ValueError` unless it equals its conjugate transpose to 1e-10 of its largest entry."""
    m = np.asarray(m, dtype=complex)
    # Relative to the matrix scale so the check works in any unit system.
    scale = float(np.max(np.abs(m)))
    if scale > 0.0 and not np.max(np.abs(m - dag(m))) <= 1e-10 * scale:
        raise ValueError(f"{caller} requires a Hermitian matrix")
    return m


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition with degenerate eigenvalues grouped.

    The grouping threshold is relative to the spectral range, so resonantly
    degenerate levels are grouped regardless of the overall energy scale;
    see `group_levels`.
    """
    evals, evecs = np.linalg.eigh(_hermitian(m, "eig_hermitian"))
    evecs = evecs[:, ::-1]
    levels, index = group_levels(evals[::-1])
    blocks = (evecs[:, index == level] for level in range(len(levels)))
    return SpectralDecomposition(levels, tuple(b @ b.conj().T for b in blocks))


def unitary_from_hamiltonian(h: np.ndarray, t: float, hbar: float = 1.0) -> np.ndarray:
    """exp(-i h t / hbar) via eigendecomposition of the Hermitian generator.

    The package's propagators are closed forms (`model`); this generic one is
    their test reference.
    """
    evals, evecs = np.linalg.eigh(_hermitian(h, "unitary_from_hamiltonian"))
    phases = np.exp(-1j * evals * t / hbar)
    return (evecs * phases) @ evecs.conj().T
