"""Single collisions, repeated-collision trajectories and the steady state.

Each collision applies Phi(rho_S) = Tr_A[U (rho_S (x) rho_A) U^dag], the 4x4
matrix S of `_channel`; `collide_once` alone forms the joint state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kdq
from .linalg import dag, partial_trace, tensor, trace_distance, unitary_from_hamiltonian
from .model import IDENTITY_2, ModelConfig, build_ancilla, build_hamiltonians

# The fixed point is unique when S - I has a second-smallest singular value above this.
_UNIQUENESS_BOUND = 1e-12


def collision_unitary(cfg: ModelConfig) -> np.ndarray:
    """Joint propagator of one collision for the configured mode.

    In the weakly coherent mode the interaction inside H_SA is scaled by
    1/sqrt(tau); in exact mode this coincides with `kdq.measurement_unitary`.
    """
    _, _, _, h_sa = build_hamiltonians(cfg)
    return unitary_from_hamiltonian(h_sa, cfg.tau, cfg.hbar)


def collide_once(rho_s: np.ndarray, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """One collision: return (reduced system state, joint post-collision state)."""
    rho_a, _, _ = build_ancilla(cfg)
    u = collision_unitary(cfg)
    rho_sa = u @ tensor(rho_s, rho_a) @ dag(u)
    return partial_trace(rho_sa, keep="S"), rho_sa


def _channel(u: np.ndarray, rho_a: np.ndarray) -> np.ndarray:
    """4x4 matrix S with (S @ rho_s.ravel()).reshape(2, 2) = Tr_A[u (rho_s (x) rho_a) u^dag]."""
    u4 = u.reshape(2, 2, 2, 2)
    return np.einsum("ikmn,nq,jkpq->ijmp", u4, rho_a, u4.conj()).reshape(4, 4)


def bch_collide_once(rho_s: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Second-order expansion of the joint collision map.

    Returns rho - (i tau/hbar)[H_SA, rho] - (tau^2/2 hbar^2)[H_SA,[H_SA, rho]]
    with rho = rho_s (x) rho_a and the weakly-coherent H_SA (interaction
    scaled by 1/sqrt(tau)).  The truncation can leave the state marginally
    non-PSD; no projection is applied, use `linalg.psd_floor` to record the
    violation.
    """
    if not cfg.is_weak:
        raise ValueError("bch_collide_once requires the weakly coherent mode")
    _, _, _, h_sa = build_hamiltonians(cfg)
    rho_a, _, _ = build_ancilla(cfg)
    joint = tensor(rho_s, rho_a)
    c1 = h_sa @ joint - joint @ h_sa
    c2 = h_sa @ c1 - c1 @ h_sa
    return joint - (1j * cfg.tau / cfg.hbar) * c1 - (cfg.tau**2 / (2.0 * cfg.hbar**2)) * c2


@dataclass(frozen=True)
class StepRecord:
    """Thermodynamic bookkeeping of one collision.

    Energy changes are direct traces against the propagated joint state, so
    ``delta_e_s + delta_e_a == delta_e_sa`` holds to rounding at any
    detuning.  The coherent-work / incoherent-heat split (w_*, q_*) is the
    decomposition of each side's energy change over the coherent and thermal
    parts of the ancilla state; it is filled only when the collision is
    energy-preserving (resonant) or in the weakly coherent mode.
    """

    delta_e_s: float
    delta_e_a: float
    delta_e_sa: float
    w_s: float | None
    w_a: float | None
    q_s: float | None
    q_a: float | None
    moments: dict[str, kdq.MomentSet] = field(default_factory=dict)
    nonpositivity: dict[str, kdq.NonPositivityReport] = field(default_factory=dict)


@dataclass(frozen=True)
class CollisionTrajectory:
    """States rho_S after 0..n collisions plus per-collision records."""

    states: tuple[np.ndarray, ...]
    per_step: tuple[StepRecord, ...]


@dataclass(frozen=True)
class SteadyStateResult:
    """`find_steady_state` output; ``iterations`` is always 0 (no iteration)."""

    state: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _make_step_record(
    rho_s: np.ndarray, cfg: ModelConfig, u: np.ndarray, split: bool, index: int,
    hs_full: np.ndarray, ha_full: np.ndarray, ancilla: tuple[np.ndarray, ...],
) -> StepRecord:
    rho_a, rho_a_th, chi_a = ancilla
    joint = tensor(rho_s, rho_a)
    evolved = u @ joint @ dag(u)
    delta_e_s = float(np.trace(hs_full @ (evolved - joint)).real)
    delta_e_a = float(np.trace(ha_full @ (evolved - joint)).real)
    delta_e_sa = float(np.trace((hs_full + ha_full) @ (evolved - joint)).real)

    w_s = w_a = q_s = q_a = None
    if split:
        chi_joint = tensor(rho_s, chi_a)
        chi_evolved = u @ chi_joint @ dag(u)
        th_joint = tensor(rho_s, rho_a_th)
        th_evolved = u @ th_joint @ dag(u)
        lam_eff = cfg.lambda_eff
        w_s = lam_eff * float(np.trace(hs_full @ (chi_evolved - chi_joint)).real)
        w_a = lam_eff * float(np.trace(ha_full @ (chi_evolved - chi_joint)).real)
        q_s = float(np.trace(hs_full @ (th_evolved - th_joint)).real)
        q_a = float(np.trace(ha_full @ (th_evolved - th_joint)).real)

    quantities = [kdq.US, kdq.UA, kdq.USA]
    if split:
        quantities += [kdq.W, kdq.Q]
    moment_table: dict[str, kdq.MomentSet] = {}
    witness_table: dict[str, kdq.NonPositivityReport] = {}
    for quantity in quantities:
        dist = kdq.kdq_distribution(quantity, rho_s, cfg, unitary=u, collision_index=index)
        moment_table[quantity] = kdq.moments(dist)
        if quantity in kdq.UNIT_SUM:
            witness_table[quantity] = kdq.nonpositivity(dist)
    return StepRecord(
        delta_e_s, delta_e_a, delta_e_sa, w_s, w_a, q_s, q_a, moment_table, witness_table
    )


def evolve(
    rho_s0: np.ndarray, cfg: ModelConfig, n: int, thermo: bool = False
) -> CollisionTrajectory:
    """Run n collisions against identically prepared ancillas.

    The states are advanced with the one-collision matrix S (`_channel`).
    With ``thermo=True`` every step records the energy changes, their
    coherent/thermal split when available, and the KDQ moments and
    non-positivity witnesses, all evaluated with the trajectory's own
    propagator.
    """
    if n < 1:
        raise ValueError("need at least one collision")
    h_s, h_a, _, _ = build_hamiltonians(cfg)
    hs_full, ha_full = tensor(h_s, IDENTITY_2), tensor(IDENTITY_2, h_a)
    ancilla = build_ancilla(cfg)
    u = collision_unitary(cfg)
    s = _channel(u, ancilla[0])
    split = cfg.is_weak or cfg.is_resonant
    states = [np.asarray(rho_s0, dtype=complex)]
    records = []
    for index in range(1, n + 1):
        rho_s = states[-1]
        if thermo:
            records.append(_make_step_record(rho_s, cfg, u, split, index, hs_full, ha_full, ancilla))
        states.append((s @ rho_s.ravel()).reshape(2, 2))
    return CollisionTrajectory(tuple(states), tuple(records))


def find_steady_state(cfg: ModelConfig, tol: float = 1e-12) -> SteadyStateResult:
    """Fixed point of the one-collision map from one SVD of S - I.

    The state is the identity projected onto the null space of S - I
    (singular values <= 1e-12) at unit trace.  ``converged`` requires a unique
    fixed point (second-smallest singular value above 1e-12; tau = 0 and
    resonant g*tau = omega*tau = pi, both S = I, fail) and a ``residual``
    ||rho - Phi(rho)|| <= 10*tol, with Phi applied by `collide_once`, not S.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rho_a, _, _ = build_ancilla(cfg)
    s = _channel(collision_unitary(cfg), rho_a)
    # Trace preservation gives S - I's population diagonal without cancellation.
    s_minus_i = s - np.eye(4)
    s_minus_i[0, 0], s_minus_i[3, 3] = -s[3, 0], -s[0, 3]
    _, singular, vh = np.linalg.svd(s_minus_i)
    null = vh[min(np.count_nonzero(singular > _UNIQUENESS_BOUND), 3):]
    rho = (null.conj().T @ (null @ IDENTITY_2.ravel())).reshape(2, 2)
    rho = 0.5 * (rho + dag(rho)) / np.trace(rho).real
    residual = trace_distance(rho, collide_once(rho, cfg)[0])
    converged = singular[-2] > _UNIQUENESS_BOUND and residual <= 10.0 * tol
    return SteadyStateResult(rho, 0, residual, bool(converged))
