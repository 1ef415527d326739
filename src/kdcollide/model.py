"""Qubit-qubit model: Hamiltonians, ancilla and system states, closed-form propagators,
and one builder of the operators of a config or of a stack of configs.

Basis convention: |0> = (1, 0)^T with sigma_z |0> = +|0>, so the level with
index 0 has energy +hbar*omega/2.  The ancilla coherence operator chi_A is
sigma_x.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import tensor

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
        for name in ("omega_s", "omega_a"):
            # A level energy hbar*omega/2 below the smallest normal float loses
            # its digits or underflows to 0, merging the qubit's two levels.
            omega = getattr(self, name)
            if omega != 0.0 and abs(0.5 * self.hbar * omega) < sys.float_info.min:
                raise ValueError(
                    f"{name} = {omega!r} is too small: hbar*{name}/2 is below the smallest normal float"
                )
            if not math.isfinite(self.hbar * omega):
                raise ValueError(f"{name} = {omega!r} is too large: hbar*{name} overflows")
        if self.beta < 0:
            raise ValueError("inverse temperature beta must be non-negative")
        if self.mode == MODE_WEAK:
            if self.tau <= 0:
                raise ValueError("weakly coherent mode requires tau > 0")
        elif self.tau < 0:
            raise ValueError("collision time tau must be non-negative")
        # The propagators and the closed forms take cos, sin and exp of these
        # phases; an infinite (or NaN) one has no value there.
        phases = {
            "(omega_s + omega_a)*tau/2": 0.5 * (self.omega_s + self.omega_a) * self.tau,
            "tau*sqrt(4*g^2 + delta^2)": self.tau * math.sqrt(4.0 * self.g * self.g + self.detuning * self.detuning),
        }
        if self.mode == MODE_WEAK:
            phases["tau*hypot(delta/2, g/sqrt(tau))"] = self.tau * math.hypot(
                0.5 * self.detuning, self.g / math.sqrt(self.tau)
            )
        for name, phase in phases.items():
            if not math.isfinite(phase):
                raise ValueError(f"collision phase {name} = {phase!r} is not finite at tau = {self.tau!r}")
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
        """This config's `Operators`: the `_stack` of this one config without its config axis, read-only.

        Built on first use; equality, hash and `replace` ignore it.
        """
        stack = _stack([self])
        ops = Operators((), *(a[0] for a in stack[1:]))
        for a in ops[1:]:
            a.setflags(write=False)
        return ops


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


def build_ancilla(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (rho_a, rho_a_th, chi_a) for the environment qubit.

    rho_a = rho_a_th + lambda_eff * chi_a with chi_a = sigma_x; `ModelConfig`
    has already rejected a coherence magnitude beyond 1/Z_A.
    """
    chi_a = SIGMA_X.copy()  # callers may freeze it; the module's SIGMA_X stays writable
    rho_a_th = np.diag(_thermal_populations(cfg)).astype(complex)
    rho_a = rho_a_th + cfg.lambda_eff * chi_a
    return rho_a, rho_a_th, chi_a


def _thermal_populations(cfg: ModelConfig) -> tuple[float, float]:
    """Populations (e^-x, e^x)/Z_A of the thermal ancilla, x = beta*hbar*omega_a/2,
    as logistic functions of 2x, which cannot overflow."""
    x = 0.5 * cfg.beta * cfg.hbar * cfg.omega_a
    t = math.exp(-2.0 * abs(x))
    low, high = t / (1.0 + t), 1.0 / (1.0 + t)
    return (low, high) if x >= 0.0 else (high, low)


# Rows per stacked part: bounds the size of the kernel's arrays (and so the
# peak memory of long sweeps) at a small cost per part.
_STACK_ROWS = 128

# The swap coupling s+ s- + s- s+ on the joint space.
_SWAP = tensor(SIGMA_PLUS, SIGMA_MINUS) + tensor(SIGMA_MINUS, SIGMA_PLUS)


class Operators(NamedTuple):
    """The operators of one config (`ModelConfig.operators`) or of a stack of configs (`_operator_stacks`).

    A stack's arrays carry a leading axis aligned with the leading axis of a
    state stack (row k under config k); one config's arrays have none,
    broadcast over any state stack and are read-only, because every caller
    shares them.  ``cfgs`` are the distinct configs; a config's own
    operators list none, because a reference back to the config that caches
    them would keep both alive until the garbage collector runs.  ``u`` is
    the collision propagator exp(-i H_SA tau / hbar) (`collision_unitary`),
    ``u_bare`` the unscaled `measurement_unitary` (equal to ``u`` in exact
    mode), ``rho_a`` = ``rho_a_th`` + lambda_eff ``chi_a`` the ancilla
    state, ``prefactor`` the coherence prefactor (shape (1, 1) per config),
    ``h_s``/``h_a`` the local Hamiltonians, ``h_int`` the coupling
    hbar*g*(s+ s- + s- s+), ``g`` the drive correction
    Tr_A[H_int (I (x) chi_A)], ``levels_*`` the local levels in descending
    order and ``index_*`` the level of each local basis state (the
    `linalg.group_levels` of diag(H_S), diag(H_A)).
    """

    cfgs: tuple[ModelConfig, ...]
    u: np.ndarray
    u_bare: np.ndarray
    rho_a: np.ndarray
    rho_a_th: np.ndarray
    chi_a: np.ndarray
    prefactor: np.ndarray
    h_s: np.ndarray
    h_a: np.ndarray
    h_int: np.ndarray
    g: np.ndarray
    levels_s: np.ndarray
    index_s: np.ndarray
    levels_a: np.ndarray
    index_a: np.ndarray


def _swap_entries(cfg: ModelConfig, coupling: float) -> tuple[complex, complex, complex]:
    """(phase, diag, off) of exp(-i H tau / hbar) for H = H_S (x) I + I (x) H_A + hbar*coupling*(s+ s- + s- s+).

    The swap coupling conserves excitations: |00> and |11> pick up the phase
    and its conjugate, and {|01>, |10>} rotates under delta/2 sigma_z +
    coupling sigma_x at Omega = sqrt(delta^2/4 + coupling^2) > 0, giving the
    block [[diag, off], [off, conj(diag)]].  hbar cancels.
    """
    half_delta = 0.5 * cfg.detuning
    omega = math.hypot(half_delta, coupling)
    cos, sin_by_omega = math.cos(omega * cfg.tau), math.sin(omega * cfg.tau) / omega
    phase = cmath.exp(-0.5j * (cfg.omega_s + cfg.omega_a) * cfg.tau)
    return phase, complex(cos, -sin_by_omega * half_delta), complex(0.0, -sin_by_omega * coupling)


def _swap_matrices(entries: Sequence[tuple[complex, complex, complex]]) -> np.ndarray:
    """(M, 4, 4) propagators from M `_swap_entries`."""
    phase, diag, off = np.array(entries, dtype=complex).reshape(-1, 3).T
    u = np.zeros((len(phase), 4, 4), dtype=complex)
    u[:, 0, 0], u[:, 3, 3] = phase, phase.conj()
    u[:, 1, 1], u[:, 2, 2] = diag, diag.conj()
    u[:, 1, 2] = u[:, 2, 1] = off
    return u


def _local_levels(x: float) -> tuple[tuple[float, ...], np.ndarray]:
    """`linalg.group_levels` of a qubit's level energies (x, -x), x = hbar*omega/2, in closed form.

    `ModelConfig` keeps 2|x| finite, so the two levels merge only at x = 0.
    """
    if x == 0.0:
        return (0.0,), np.array([0, 0])
    return (abs(x), -abs(x)), np.array([0, 1] if x > 0.0 else [1, 0])


def _stack(cfgs: list[ModelConfig]) -> Operators:
    """The operators of M configs with one local level count each, on a leading axis.

    The one operator builder: `ModelConfig.operators` is its M = 1 case.
    Filled per config from `_swap_entries`, `_thermal_populations` and
    `_local_levels`, with the arithmetic of `build_hamiltonians` and
    `build_ancilla`, which it does not call.
    """
    bare = [_swap_entries(cfg, cfg.g) for cfg in cfgs]
    u = u_bare = _swap_matrices(bare)
    if any(cfg.is_weak for cfg in cfgs):
        u = _swap_matrices([_swap_entries(c, c.g / math.sqrt(c.tau)) if c.is_weak else e for c, e in zip(cfgs, bare)])
    hbar, omega_s, omega_a, coupling, lam, prefactor = np.array(
        [(cfg.hbar, cfg.omega_s, cfg.omega_a, cfg.g, cfg.lambda_eff, cfg.kdq_coherence_prefactor) for cfg in cfgs]
    ).T
    chi_a = np.repeat(SIGMA_X[None], len(cfgs), axis=0)
    rho_a_th = np.zeros((len(cfgs), 2, 2), dtype=complex)
    rho_a_th[:, 0, 0], rho_a_th[:, 1, 1] = np.array([_thermal_populations(cfg) for cfg in cfgs]).T
    x_s, x_a, hbar_g = 0.5 * hbar * omega_s, 0.5 * hbar * omega_a, (hbar * coupling)[:, None, None]
    (levels_s, index_s), (levels_a, index_a) = (
        (np.array([levels for levels, _ in local]), np.array([index for _, index in local]))
        for local in ([_local_levels(x) for x in xs.tolist()] for xs in (x_s, x_a))
    )
    return Operators(
        tuple(cfgs), u, u_bare, rho_a_th + lam[:, None, None] * chi_a, rho_a_th, chi_a, prefactor[:, None, None],
        x_s[:, None, None] * SIGMA_Z, x_a[:, None, None] * SIGMA_Z, hbar_g * _SWAP, hbar_g * chi_a,
        levels_s, index_s, levels_a, index_a,
    )


def _operator_stacks(cfgs: Sequence[ModelConfig]) -> list[tuple[np.ndarray, Operators]]:
    """The kernel's operators for a state stack whose row k is under ``cfgs[k]``.

    Returns ``(rows, operators)`` parts in order of first row.  Rows under a
    single config make one part, that config's cached `ModelConfig.operators`
    listing the config.
    Otherwise a stack needs one level structure, and a zero frequency merges
    a qubit's two levels, so the rows are split by which frequencies are
    zero, and then into blocks of at most `_STACK_ROWS` rows; each block is
    a `_stack` of its configs gathered to its rows (the config's own
    operators, listing it, if it has one config).
    """
    ids = list(map(id, cfgs))
    distinct = dict(zip(ids, cfgs))
    if len(distinct) == 1:
        return [(np.arange(len(ids)), cfgs[0].operators._replace(cfgs=(cfgs[0],)))]
    shape_of = {key: (cfg.omega_s == 0.0, cfg.omega_a == 0.0) for key, cfg in distinct.items()}
    by_shape: dict[tuple[bool, bool], list[int]] = {}
    for row, key in enumerate(ids):
        by_shape.setdefault(shape_of[key], []).append(row)
    parts = []
    for shape_rows in by_shape.values():
        for start in range(0, len(shape_rows), _STACK_ROWS):
            rows = shape_rows[start : start + _STACK_ROWS]
            members = dict.fromkeys(ids[row] for row in rows)
            if len(members) == 1:
                cfg = cfgs[rows[0]]
                parts.append((np.array(rows), cfg.operators._replace(cfgs=(cfg,))))
                continue
            stack = _stack([distinct[key] for key in members])
            if len(rows) > len(members):
                # Some config has several rows: gather each row's config.
                slot = dict(zip(members, range(len(members))))
                take = [slot[ids[row]] for row in rows]
                stack = Operators(stack.cfgs, *(a[take] for a in stack[1:]))
            parts.append((np.array(rows), stack))
    return parts
