"""Single collisions, repeated-collision trajectories and the steady state.

Each collision applies Phi(rho_S) = Tr_A[U (rho_S (x) rho_A) U^dag], the 4x4
matrix S of `_channel`; `collide_once` alone forms the joint state.  A
trajectory's states are S^k rho_S, computed by repeated squaring
(`linalg._powers`, which also steps the master equation of `smalltau`).
`_evolve` runs a stack of chains, one per config, as array operations: its
step records are columns of KDQ means, moments and witnesses, from one
kernel call per quantity over every state of each part of up to 4 096
chains of one level structure.  `evolve` is its one-chain view, which
builds the `StepRecord` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kdq
from .linalg import _powers, commutator, dag, partial_trace, tensor, trace_distance
from .model import IDENTITY_2, ModelConfig, _ConfigArrays, _operator_stacks, build_hamiltonians

# The fixed point is unique when S - I has a second-smallest singular value above this.
_UNIQUENESS_BOUND = 1e-12
# I of the 4x4 maps, and the 2x2 identity as the vector the steady state is projected from.
_EYE_4 = np.eye(4)
_IDENTITY_VECTOR = IDENTITY_2.ravel()


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
    """4x4 matrix S with (S @ rho_s.ravel()).reshape(2, 2) = Tr_A[u (rho_s (x) rho_a) u^dag].

    ``u`` and ``rho_a`` may be stacks (..., 4, 4) and (..., 2, 2); S is then (..., 4, 4).
    """
    u4 = u.reshape(u.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...ikmn,...nq,...jkpq->...ijmp", u4, rho_a, u4.conj()).reshape(u.shape)


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
    h_sa = build_hamiltonians(cfg)[3]
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


# The float fields of `StepRecord`, in order: the `_Chains` columns.
_RECORD_FIELDS = ("delta_e_s", "delta_e_a", "delta_e_sa", "w_s", "w_a", "q_s", "q_a")


@dataclass(frozen=True)
class CollisionTrajectory:
    """States rho_S after 0..n collisions, an (n + 1, 2, 2) array, plus per-collision records."""

    states: np.ndarray
    per_step: tuple[StepRecord, ...]


@dataclass(frozen=True)
class SteadyStateResult:
    """`find_steady_state` output; ``iterations`` is always 0 (no iteration)."""

    state: np.ndarray
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class _Chains:
    """M collision chains of n collisions each (`_evolve`), chain m under config m.

    ``states[m, k]`` is chain m's state after k collisions.  With thermo
    records, ``columns`` maps each float field of `StepRecord` to an (M, n)
    array, NaN for the work/heat split of a chain that has none (neither
    weak nor resonant); ``moments`` maps us, ua, usa (and w, q when a chain has the
    split) to (mean, second moment, variance) arrays of shape (M, n), and
    ``witnesses`` maps us, ua, usa (and q) to (M, n, 3) arrays of (n_q, n_re,
    n_im).
    """

    states: np.ndarray
    columns: dict[str, np.ndarray]
    moments: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    witnesses: dict[str, np.ndarray]


def _evolve(cfgs: ModelConfig | _ConfigArrays, rho_s0: np.ndarray, n: int, thermo: bool) -> _Chains:
    """n collisions of M chains, chain m from state ``rho_s0[m]`` under config m, as array operations.

    ``cfgs`` is one config (M = 1) or M configs as parameter arrays, run in the parts
    of `model._operator_stacks` (one level structure, at most `model._PART_ROWS`
    configs, each chain's config in its own slot).  The states come from `_powers`
    of each config's one-collision matrix S (`_channel`).  With ``thermo``, the
    records are KDQ means, moments and witnesses evaluated with each chain's own
    propagator, one kernel call per quantity over the states before each collision
    of every chain of a part; the work/heat regime of the chains with the split
    (weak or resonant configs) is checked once.
    """
    if n < 1:
        raise ValueError("need at least one collision")
    m, parts = len(rho_s0), list(_operator_stacks(cfgs))
    states = np.empty((m, n + 1, 2, 2), dtype=complex)
    for chains, _, ops in parts:
        states[chains] = _powers(_channel(ops.u, ops.rho_a), rho_s0[chains], n)
    if not thermo:
        return _Chains(states, {}, {}, {})
    split = np.atleast_1d(cfgs.is_weak | cfgs.is_resonant)
    quantities = [kdq.US, kdq.UA, kdq.USA]
    if split.any():
        kdq._check_work_heat_regime(cfgs._arrays.take(split))
        quantities += kdq._WORK_HEAT
    moments = {q: tuple(np.empty((m, n), dtype=complex) for _ in range(3)) for q in quantities}
    witnesses = {q: np.empty((m, n, 3)) for q in quantities if q in (kdq.US, kdq.UA, kdq.USA, kdq.Q)}
    for chains, slot, ops in parts:
        for q in quantities:
            # Each chain's operators for all of its states.
            matrix, levels = kdq._kernel(q, states[chains, :n], ops, unitary=ops.u, slot=slot[:, None])
            for stack, values in zip(moments[q], kdq._moments(matrix, levels)):
                stack[chains] = values
            if q in witnesses:
                witnesses[q][chains] = kdq._witnesses(matrix)
    # The split's quantities mean nothing for a chain without it.
    for q in quantities[3:]:
        for stack in moments[q]:
            stack[~split] = np.nan
    if kdq.Q in witnesses:
        witnesses[kdq.Q][~split] = np.nan
    mean = {q: stack[0].real for q, stack in moments.items()}
    columns = {"delta_e_s": mean[kdq.US], "delta_e_a": mean[kdq.UA], "delta_e_sa": mean[kdq.USA]}
    if split.any():
        # lambda_eff / kdq_coherence_prefactor, without dividing 0 by 0 at zero coherence.
        c = np.reshape(np.where(cfgs.is_weak, np.sqrt(cfgs.tau), 1.0), (m, 1))
        columns.update(w_s=c * mean[kdq.WS], w_a=-c * mean[kdq.W], q_s=mean[kdq.QS], q_a=-mean[kdq.Q])
    moments = {q: stack for q, stack in moments.items() if q not in (kdq.WS, kdq.QS)}
    return _Chains(states, columns, moments, witnesses)


def evolve(
    rho_s0: np.ndarray, cfg: ModelConfig, n: int, thermo: bool = False
) -> CollisionTrajectory:
    """Run n collisions against identically prepared ancillas.

    The one-chain view of `_evolve`: the states are S^k rho_s0 for the
    one-collision matrix S (`_channel`), applied by repeated squaring.  With
    ``thermo=True`` every step records the energy changes, their
    coherent/thermal split when available (its regime checked once), and the
    KDQ moments and non-positivity witnesses, all evaluated with the
    trajectory's own propagator: one kernel call per quantity over the
    states before each collision.
    """
    chains = _evolve(cfg, np.asarray(rho_s0, dtype=complex)[None], n, thermo)
    states = chains.states[0]
    if not thermo:
        return CollisionTrajectory(states, ())
    columns = [
        chains.columns[name][0].tolist() if name in chains.columns else [None] * n for name in _RECORD_FIELDS
    ]
    moments = {
        q: [kdq.MomentSet(*values) for values in zip(*(a[0].tolist() for a in stack))]
        for q, stack in chains.moments.items()
    }
    reports = {q: [kdq.NonPositivityReport(*w) for w in stack[0].tolist()] for q, stack in chains.witnesses.items()}
    records = [
        StepRecord(
            *values, {q: sets[k] for q, sets in moments.items()}, {q: report[k] for q, report in reports.items()}
        )
        for k, values in enumerate(zip(*columns))
    ]
    return CollisionTrajectory(states, tuple(records))


def find_steady_state(cfg: ModelConfig, tol: float = 1e-12) -> SteadyStateResult:
    """Fixed point of the one-collision map from one SVD of S - I.

    The state is the identity projected onto the null space of S - I
    (singular values <= 1e-12) at unit trace.  ``converged`` requires a unique
    fixed point (second-smallest singular value above 1e-12; tau = 0 and
    resonant g*tau = omega*tau = pi, both S = I, fail) and a ``residual``
    ||rho - Phi(rho)|| <= 10*tol, with Phi applied by `collide_once`, not S.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    s = _channel(collision_unitary(cfg), cfg.operators.rho_a)
    # Trace preservation gives S - I's population diagonal without cancellation.
    s_minus_i = s - _EYE_4
    s_minus_i[0, 0], s_minus_i[3, 3] = -s[3, 0], -s[0, 3]
    _, singular, vh = np.linalg.svd(s_minus_i)
    # The singular values descend; counting among the first three keeps at least one null vector.
    singular = singular.tolist()
    null = vh[sum(value > _UNIQUENESS_BOUND for value in singular[:3]) :]
    rho = (null.conj().T @ (null @ _IDENTITY_VECTOR)).reshape(2, 2)
    rho = 0.5 * (rho + rho.conj().T) / (rho[0, 0] + rho[1, 1]).real
    residual = trace_distance(rho, collide_once(rho, cfg)[0])
    converged = singular[2] > _UNIQUENESS_BOUND and residual <= 10.0 * tol
    return SteadyStateResult(rho, 0, residual, converged)
