"""Qubit-qubit model: Hamiltonians, ancilla and system states, structural checks.

Basis convention: |0> = (1, 0)^T with sigma_z |0> = +|0>, so the level with
index 0 has energy +hbar*omega/2.  The ancilla coherence operator chi_A
defaults to sigma_x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .linalg import commutator_norm, group_levels, is_hermitian, partial_trace, tensor, unitary_from_hamiltonian

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|

MODE_EXACT = "exact"
MODE_WEAK = "weakly_coherent"

# Slack for closed constraints that figure presets saturate exactly
# (lambda = lambda_max, r = r_max).
_BOUNDARY_SLACK = 1e-12


def partition_function(beta: float, omega: float, hbar: float = 1.0) -> float:
    """Z = exp(-beta*hbar*omega/2) + exp(+beta*hbar*omega/2); inf once it overflows."""
    x = 0.5 * beta * hbar * omega
    return 2.0 * math.cosh(x) if abs(x) < 710.0 else math.inf


def _require_finite(params, exclude: tuple[str, ...] = ()) -> None:
    # Every comparison with NaN is false, so a NaN would slip through the
    # range checks below; reject NaN and +-inf up front.
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name not in exclude and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Physical parameters of a single collision.

    ``lam`` is the ancilla coherence magnitude used in exact mode; in the
    weakly coherent mode the coherence is ``lam_tilde * sqrt(tau)`` with
    ``lam_tilde`` carrying units of time**-1/2.
    """

    omega_s: float
    omega_a: float
    g: float
    tau: float
    beta: float
    lam: float = 0.0
    lam_tilde: float = 0.0
    hbar: float = 1.0
    mode: str = MODE_EXACT

    def __post_init__(self) -> None:
        _require_finite(self, exclude=("mode",))
        if self.mode not in (MODE_EXACT, MODE_WEAK):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.g <= 0:
            raise ValueError("coupling g must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.beta < 0:
            raise ValueError("inverse temperature beta must be non-negative")
        if self.mode == MODE_WEAK:
            if self.tau <= 0:
                raise ValueError("weakly coherent mode requires tau > 0")
        elif self.tau < 0:
            raise ValueError("collision time tau must be non-negative")
        bound = self.lambda_max
        if abs(self.lambda_eff) > bound + _BOUNDARY_SLACK:
            raise ValueError(
                f"ancilla coherence {self.lambda_eff:.6g} exceeds the "
                f"positivity bound 1/Z_A = {bound:.6g}"
            )

    @property
    def detuning(self) -> float:
        return self.omega_s - self.omega_a

    @property
    def is_resonant(self) -> bool:
        """|detuning| <= 1e-12 * max(1, |omega_s|, |omega_a|); the package's one resonance test."""
        scale = max(1.0, abs(self.omega_s), abs(self.omega_a))
        return abs(self.detuning) <= 1e-12 * scale

    @property
    def is_weak(self) -> bool:
        return self.mode == MODE_WEAK

    @property
    def z_a(self) -> float:
        return partition_function(self.beta, self.omega_a, self.hbar)

    @property
    def lambda_max(self) -> float:
        """Largest coherence magnitude keeping the ancilla state PSD."""
        return 1.0 / self.z_a

    @property
    def lambda_eff(self) -> float:
        """Coherence magnitude actually entering the ancilla state."""
        if self.is_weak:
            return self.lam_tilde * math.sqrt(self.tau)
        return self.lam

    @property
    def kdq_coherence_prefactor(self) -> float:
        """Prefactor of the coherent-work quasiprobabilities (lam or lam_tilde)."""
        return self.lam_tilde if self.is_weak else self.lam

    @cached_property
    def operators(self) -> Operators:
        """This config's `Operators`, built on first use; equality, hash and `replace` ignore it."""
        return _build_operators(self)


@dataclass(frozen=True)
class SystemStateParams:
    """Parametrization of the system qubit state.

    ``rho11`` is the population of |0>, ``r * exp(i*phi_c)`` the upper-right
    coherence.
    """

    rho11: float
    r: float = 0.0
    phi_c: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 <= self.rho11 <= 1.0:
            raise ValueError("rho11 must lie in [0, 1]")
        if self.r < 0:
            raise ValueError("coherence modulus r must be non-negative")
        if self.r**2 > self.rho11 * (1.0 - self.rho11) + _BOUNDARY_SLACK:
            raise ValueError(
                f"r={self.r:.6g} violates positivity: r^2 must not exceed "
                f"rho11*(1-rho11) = {self.rho11 * (1.0 - self.rho11):.6g}"
            )

    @property
    def rho12(self) -> complex:
        return self.r * complex(math.cos(self.phi_c), math.sin(self.phi_c))


def build_system_state(params: SystemStateParams) -> np.ndarray:
    """2x2 density matrix from the population/coherence parametrization."""
    rho12 = params.rho12
    return np.array(
        [[params.rho11, rho12], [np.conj(rho12), 1.0 - params.rho11]], dtype=complex
    )


def build_hamiltonians(
    cfg: ModelConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return (H_S, H_A, H_int, H_SA).

    H_S and H_A are local 2x2 operators; H_int and H_SA act on the 4-dim
    joint space.  The excitation-swapping coupling is hbar*g*(s+ s- + s- s+):
    this normalization makes g*tau the pulse area of the resonant collision,
    which is the convention all closed-form results in `analytic` assume.
    In the weakly coherent mode the interaction enters H_SA scaled by
    1/sqrt(tau).
    """
    h_s = 0.5 * cfg.hbar * cfg.omega_s * SIGMA_Z
    h_a = 0.5 * cfg.hbar * cfg.omega_a * SIGMA_Z
    h_int = cfg.hbar * cfg.g * (
        tensor(SIGMA_PLUS, SIGMA_MINUS) + tensor(SIGMA_MINUS, SIGMA_PLUS)
    )
    scale = 1.0 / math.sqrt(cfg.tau) if cfg.is_weak else 1.0
    h_sa = tensor(h_s, IDENTITY_2) + tensor(IDENTITY_2, h_a) + scale * h_int
    return h_s, h_a, h_int, h_sa


def build_ancilla(
    cfg: ModelConfig, chi_a: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (rho_a, rho_a_th, chi_a) for the environment qubit.

    rho_a = rho_a_th + lambda_eff * chi_a; `ModelConfig` has already
    rejected a coherence magnitude beyond 1/Z_A.
    """
    if chi_a is None:
        chi_a = SIGMA_X
    else:
        chi_a = np.asarray(chi_a, dtype=complex)
        if chi_a.shape != (2, 2) or not is_hermitian(chi_a):
            raise ValueError("chi_a must be a Hermitian 2x2 matrix")
        if np.max(np.abs(np.diag(chi_a))) > 1e-14:
            raise ValueError("chi_a must have no diagonal elements in the H_A eigenbasis")
    # (e^-x, e^x)/Z_A as logistic functions of 2x, which cannot overflow.
    x = 0.5 * cfg.beta * cfg.hbar * cfg.omega_a
    t = math.exp(-2.0 * abs(x))
    low, high = t / (1.0 + t), 1.0 / (1.0 + t)
    rho_a_th = np.diag([low, high] if x >= 0.0 else [high, low]).astype(complex)
    rho_a = rho_a_th + cfg.lambda_eff * chi_a
    return rho_a, rho_a_th, chi_a


@dataclass(frozen=True)
class Operators:
    """The operators of one config, shared by every caller and so read-only.

    ``u`` is exp(-i H_SA tau / hbar) (`collision_unitary`), ``u_bare`` the
    unscaled `measurement_unitary` (the same object in exact mode),
    ``levels_*`` the `group_levels` of diag(H_S), diag(H_A) and ``g`` the
    drive correction Tr_A[H_int (I (x) chi_A)].
    """

    h_s: np.ndarray
    h_a: np.ndarray
    h_int: np.ndarray
    h_sa: np.ndarray
    rho_a: np.ndarray
    rho_a_th: np.ndarray
    chi_a: np.ndarray
    u: np.ndarray
    u_bare: np.ndarray
    levels_s: tuple[tuple[float, ...], np.ndarray]
    levels_a: tuple[tuple[float, ...], np.ndarray]
    g: np.ndarray


def _build_operators(cfg: ModelConfig) -> Operators:
    h_s, h_a, h_int, h_sa = build_hamiltonians(cfg)
    rho_a, rho_a_th, chi_a = build_ancilla(cfg)
    chi_a = chi_a.copy()  # the default is the module's SIGMA_X, which stays writable
    u = u_bare = unitary_from_hamiltonian(h_sa, cfg.tau, cfg.hbar)
    if cfg.is_weak:
        h_bare = tensor(h_s, IDENTITY_2) + tensor(IDENTITY_2, h_a) + h_int
        u_bare = unitary_from_hamiltonian(h_bare, cfg.tau, cfg.hbar)
    (levels_s, index_s), (levels_a, index_a) = (group_levels(np.diag(h).real) for h in (h_s, h_a))
    g = partial_trace(h_int @ tensor(IDENTITY_2, chi_a), keep="S")
    for m in (h_s, h_a, h_int, h_sa, rho_a, rho_a_th, chi_a, u, u_bare, index_s, index_a, g):
        m.setflags(write=False)
    return Operators(
        h_s, h_a, h_int, h_sa, rho_a, rho_a_th, chi_a, u, u_bare, (levels_s, index_s), (levels_a, index_a), g
    )


def total_bare_hamiltonian(cfg: ModelConfig) -> np.ndarray:
    """H_S (x) I + I (x) H_A on the joint space."""
    ops = cfg.operators
    return tensor(ops.h_s, IDENTITY_2) + tensor(IDENTITY_2, ops.h_a)


def check_energy_preserving(cfg: ModelConfig, tol: float = 1e-10) -> bool:
    """True iff [H_int, H_S + H_A] vanishes (resonant interaction)."""
    h_int = cfg.operators.h_int
    h_bare = total_bare_hamiltonian(cfg)
    # Scale-free criterion: the commutator of A and B lives on the scale
    # ||A||*||B||, whatever the unit system.
    scale = float(np.linalg.norm(h_int)) * float(np.linalg.norm(h_bare))
    return commutator_norm(h_int, h_bare) <= tol * scale


def check_excitation_preserving(cfg: ModelConfig, tol: float = 1e-10) -> bool:
    """True iff [H_int, n_S + n_A] vanishes, with n = |0><0| locally."""
    h_int = cfg.operators.h_int
    number_op = SIGMA_PLUS @ SIGMA_MINUS
    n_total = tensor(number_op, IDENTITY_2) + tensor(IDENTITY_2, number_op)
    scale = float(np.linalg.norm(h_int)) * float(np.linalg.norm(n_total))
    return commutator_norm(h_int, n_total) <= tol * scale
