"""Single collisions, repeated-collision trajectories and the steady state.

Each collision applies Phi(rho_S) = Tr_A[U (rho_S (x) rho_A) U^dag], the 4x4
matrix S of `_channel`; `collide_once` alone forms the joint state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kdq
from .linalg import commutator, dag, partial_trace, tensor, trace_distance
from .model import IDENTITY_2, ModelConfig

# The fixed point is unique when S - I has a second-smallest singular value above this.
_UNIQUENESS_BOUND = 1e-12


def collision_unitary(cfg: ModelConfig) -> np.ndarray:
    """Joint propagator of one collision for the configured mode.

    In the weakly coherent mode the interaction inside H_SA is scaled by
    1/sqrt(tau); in exact mode this coincides with `kdq.measurement_unitary`.
    """
    return cfg.operators.u


def collide_once(rho_s: np.ndarray, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """One collision: return (reduced system state, joint post-collision state)."""
    u = collision_unitary(cfg)
    rho_sa = u @ tensor(rho_s, cfg.operators.rho_a) @ dag(u)
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
    h_sa = cfg.operators.h_sa
    joint = tensor(rho_s, cfg.operators.rho_a)
    c1 = commutator(h_sa, joint)
    c2 = commutator(h_sa, c1)
    return joint - (1j * cfg.tau / cfg.hbar) * c1 - (cfg.tau**2 / (2.0 * cfg.hbar**2)) * c2


@dataclass(frozen=True)
class StepRecord:
    """Thermodynamic bookkeeping of one collision.

    Every number is a KDQ mean, sum Q[i,f] (e_f - e_i) = Tr[H (U W U^dag - W)]:
    the energy changes are those of ``us``, ``ua``, ``usa``, so
    ``delta_e_s + delta_e_a == delta_e_sa`` holds to rounding at any
    detuning.  The coherent-work / incoherent-heat split is over the coherent
    and thermal parts of the ancilla state: q_s, q_a are the means of ``qs``,
    ``-q`` and w_s, w_a those of ``ws``, ``-w`` times lambda_eff over the
    coherence prefactor.  It is filled only when the collision is resonant or
    in the weakly coherent mode.  ``moments`` holds us, ua, usa, w and q.
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


def _make_step_record(rho_s: np.ndarray, cfg: ModelConfig) -> StepRecord:
    split = cfg.is_weak or cfg.is_resonant
    quantities = [kdq.US, kdq.UA, kdq.USA] + ([kdq.W, kdq.Q, kdq.WS, kdq.QS] if split else [])
    dists = {q: kdq.kdq_distribution(q, rho_s, cfg, unitary=cfg.operators.u) for q in quantities}
    moment_table = {q: kdq.moments(dist) for q, dist in dists.items()}
    mean = {q: m.mean.real for q, m in moment_table.items()}
    w_s = w_a = q_s = q_a = None
    if split:
        # lambda_eff / kdq_coherence_prefactor, without dividing 0 by 0 at zero coherence.
        c = math.sqrt(cfg.tau) if cfg.is_weak else 1.0
        w_s, w_a, q_s, q_a = c * mean[kdq.WS], -c * mean[kdq.W], mean[kdq.QS], -mean[kdq.Q]
        del moment_table[kdq.WS], moment_table[kdq.QS]
    witness_table = {q: kdq.nonpositivity(dists[q]) for q in moment_table if q in kdq.UNIT_SUM}
    return StepRecord(
        mean[kdq.US], mean[kdq.UA], mean[kdq.USA], w_s, w_a, q_s, q_a, moment_table, witness_table
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
    s = _channel(collision_unitary(cfg), cfg.operators.rho_a)
    states = [np.asarray(rho_s0, dtype=complex)]
    records = []
    for _ in range(n):
        rho_s = states[-1]
        if thermo:
            records.append(_make_step_record(rho_s, cfg))
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
    s = _channel(collision_unitary(cfg), cfg.operators.rho_a)
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
