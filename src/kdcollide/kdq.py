"""Kirkwood-Dirac quasiprobability (KDQ) distributions of collision energetics.

Seven stochastic quantities are supported, identified by the strings in
``QUANTITIES``:

- ``us``, ``ua``, ``usa``: internal energy change of the system, of the
  ancilla, and of the bare S+A pair over one collision, sampled over the
  full ancilla state.
- ``w``, ``q``: coherent work and incoherent heat from the ancilla point of
  view (stochastic values ``-u_a``), built over the ancilla's coherent part
  chi_A and thermal part respectively.
- ``ws``, ``qs``: the same split from the system point of view (values
  ``+u_s``).

All quasiprobabilities are two-time traces Tr[U^dag P_fin U P_in W] with
the bare collision unitary U = exp(-i (H_S + H_A + H_int) tau / hbar) (see
``measurement_unitary``) and W the weighted initial operator: rho_S (x) rho_A,
rho_S (x) rho_A_th, or the coherence prefactor times rho_S (x) chi_A.
Distributions over unit-trace states sum to 1, the coherent-work ones to 0.

H_S and H_A are diagonal in the product basis |s a>, so every projector is a
sum of basis projectors and every distribution is a block sum of one 4x4
array: Q[i, f] = (W U^dag)[i, f] U[f, i] (`_transitions`) and
quasiprobabilities G^T Q G (`_level_sums`), where the 0/1 matrix G marks the
level of each basis state: system level, ancilla level, or (system, ancilla)
pair in the kernel (`_kernel`), and joint level of H_S + H_A
(``linalg.group_levels`` of the pair levels) for grouped ``usa``, which only
the one-state `kdq_distribution` computes.

The kernel is arithmetic on `model.Operators`.  The one-state views check
their inputs' shapes and the work/heat regime (`_check_work_heat_regime`) of
their config; stack callers check the regime once per evaluation.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import dag, group_levels, tensor
from .model import IDENTITY_2, SIGMA_X, ModelConfig, Operators, _ConfigArrays

US = "us"
UA = "ua"
USA = "usa"
W = "w"
Q = "q"
WS = "ws"
QS = "qs"
QUANTITIES = (US, UA, USA, W, Q, WS, QS)
ZERO_SUM = (W, WS)
_WORK_HEAT = (W, Q, WS, QS)

# Pulse areas beyond this enter the strong-coupling regime where the
# coherent-work / incoherent-heat split loses its thermodynamic meaning.
PULSE_AREA_VALIDITY = math.pi / 6


class ValidityWarning(UserWarning):
    """Coherent-work/heat quantities evaluated outside their trusted regime."""


@dataclass(frozen=True)
class TransitionLabel:
    """Initial/final eigenvalue indices of one transition.

    For ``usa`` the indices are (system, ancilla) pairs unless the
    distribution was built with degenerate levels grouped.
    """

    quantity: str
    i_in: int | tuple[int, int]
    i_fin: int | tuple[int, int]


@dataclass(frozen=True)
class KdqEntry:
    label: TransitionLabel
    value: float
    quasiprob: complex


@dataclass(frozen=True, eq=False)
class KdqDistribution:
    """Quasiprobabilities ``matrix[i_in, i_fin]`` over pairs of levels.

    ``levels`` carries the quantity's sign: a transition's value is
    ``levels[i_fin] - levels[i_in]``.  The flat views are initial-index major.
    """

    quantity: str
    matrix: np.ndarray
    levels: np.ndarray
    # Local level energies (system, ancilla), kept for marginalization.
    local_energies: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def total(self) -> complex:
        return complex(self.matrix.sum())

    def quasiprobs(self) -> np.ndarray:
        return self.matrix.flatten()

    def values(self) -> np.ndarray:
        return (self.levels - self.levels[:, None]).ravel()

    @property
    def entries(self) -> tuple[KdqEntry, ...]:
        """One `KdqEntry` per transition, built on each access."""
        n_a = len(self.local_energies[1]) if self.local_energies else 0
        labels = [divmod(i, n_a) if n_a else i for i in range(len(self.levels))]
        return tuple(
            KdqEntry(TransitionLabel(self.quantity, i_in, i_fin), float(value), complex(quasiprob))
            for (i_in, i_fin), value, quasiprob in zip(
                itertools.product(labels, repeat=2), self.values(), self.quasiprobs()
            )
        )


@dataclass(frozen=True)
class MomentSet:
    """First two moments; variance = second_moment - mean**2 by construction."""

    mean: complex
    second_moment: complex
    variance: complex


@dataclass(frozen=True)
class NonPositivityReport:
    n_q: float
    n_re: float
    n_im: float


def measurement_unitary(cfg: ModelConfig) -> np.ndarray:
    """Bare collision unitary exp(-i (H_S + H_A + H_int) tau / hbar).

    This is the propagator entering every quasiprobability formula.  It never
    carries the weakly-coherent 1/sqrt(tau) interaction scaling; for
    distributions of a scaled trajectory pass that propagator explicitly via
    the ``unitary`` argument of `kdq_distribution`.
    """
    return cfg.operators.u_bare


_UNDEFINED = "coherent-work/heat quasiprobabilities require a resonant interaction in exact mode (detuning {:.6g})"


def _work_heat_errors(cfgs: _ConfigArrays) -> dict[int, str]:
    """Config -> why the coherent-work/heat split is undefined for it (detuned in exact mode), in row order."""
    undefined = np.flatnonzero(~(cfgs.is_resonant | cfgs.is_weak)).tolist()
    return {k: _UNDEFINED.format(d) for k, d in zip(undefined, cfgs.detuning[undefined].tolist())}


def _check_work_heat_regime(cfgs: _ConfigArrays) -> None:
    """Raise ValueError when the coherent-work/heat split is undefined for a config; warn once per kind off
    resonance and past the pulse-area border, with the count of such configs and the largest value."""
    errors = _work_heat_errors(cfgs)
    if errors:
        raise ValueError(next(iter(errors.values())))
    detuned = ~cfgs.is_resonant
    if count := np.count_nonzero(detuned):
        largest = abs(cfgs.detuning[detuned]).max()
        scope = "" if count == 1 else f" in {count} configs (largest |detuning| {largest:.4g})"
        _warn(f"coherent-work/heat split off resonance is not energy-preserving{scope}")
    area = cfgs.g * cfgs.tau
    strong = area > PULSE_AREA_VALIDITY + 1e-12
    if count := np.count_nonzero(strong):
        largest = f"{area[strong].max():.4g}"
        scope = f"= {largest} exceeds pi/6" if count == 1 else f"exceeds pi/6 in {count} configs (largest {largest})"
        _warn(f"pulse area g*tau {scope}: coherent work / incoherent heat enter the strong-coupling regime")


def _warn(message: str) -> None:
    """Issue a `ValidityWarning` attributed to the first caller outside this package."""
    frame, stacklevel = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(message, ValidityWarning, stacklevel=stacklevel)


def _operators(quantity: str, rho_s: np.ndarray, cfg: ModelConfig, unitary: np.ndarray | None) -> Operators:
    """The config's operators for a one-state view, once its inputs are checked: one 2x2 state, at most one 4x4
    ``unitary``, and the work/heat regime if ``quantity`` reads the split."""
    if np.shape(rho_s) != (2, 2):
        raise ValueError(f"rho_s must be one 2x2 system state, got shape {np.shape(rho_s)}")
    if unitary is not None and np.shape(unitary) != (4, 4):
        raise ValueError("unitary must act on the 4-dimensional joint space")
    if quantity in _WORK_HEAT:
        _check_work_heat_regime(cfg._arrays)
    return cfg.operators


def _weight(
    quantity: str, rho_s: np.ndarray, ops: Operators, unitary: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Validate the quantity; return (propagator U, weighted initial operators W).

    ``rho_s`` is a (..., 2, 2) stack of system states and W the matching
    (..., 4, 4) stack.  ``ops`` are one config's operators or a stack of
    them aligned with the leading axis of ``rho_s``.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    u = ops.u_bare if unitary is None else np.asarray(unitary, dtype=complex)
    if quantity in (US, UA, USA):
        ancilla = ops.rho_a
    elif quantity in (Q, QS):
        ancilla = ops.rho_a_th
    else:
        ancilla = SIGMA_X
    weight = tensor(rho_s, ancilla)
    if quantity in (W, WS):
        weight = ops.prefactor * weight
    return u, weight


def _level_sums(q: np.ndarray, level: np.ndarray, count: int) -> np.ndarray:
    """G^T Q G: each (..., n, n) matrix Q summed over the levels ``level[..., b]`` (of ``count``) of its indices b."""
    g = (level[..., :, None] == np.arange(count)).astype(float)
    return g.swapaxes(-1, -2) @ q @ g


def _transitions(quantity: str, rho_s: np.ndarray, ops: Operators, unitary=None) -> tuple[np.ndarray, ...]:
    """``(Q, level, levels)`` of a (..., 2, 2) stack of system states, which `_kernel` sums: Q[..., i, f] =
    Tr[U^dag |f><f| U |i><i| W] over the product basis, ``level[..., b]`` the level of basis state b = 2 * (system
    index) + (ancilla index), and ``levels`` the quantity's signed levels, (system, ancilla) pairs for ``usa``."""
    u, weight = _weight(quantity, rho_s, ops, unitary)
    if quantity in (US, WS, QS):
        energies, level = ops.levels_s, np.repeat(ops.index_s, 2, axis=-1)
    elif quantity in (UA, W, Q):
        energies, level = ops.levels_a, np.tile(ops.index_a, 2)
    else:
        energies = (ops.levels_s[..., :, None] + ops.levels_a[..., None, :]).reshape(ops.levels_s.shape[:-1] + (-1,))
        level = ops.index_s[..., :, None] * ops.levels_a.shape[-1] + ops.index_a[..., None, :]
        level = level.reshape(level.shape[:-2] + (4,))
    # w and q take the ancilla's values with the opposite sign: -(e_f - e_i).
    levels = (-1.0 if quantity in (W, Q) else 1.0) * energies
    return (weight @ dag(u)) * u.swapaxes(-1, -2), level, levels


def _kernel(quantity: str, rho_s: np.ndarray, ops: Operators, unitary=None) -> tuple[np.ndarray, np.ndarray]:
    """KDQ matrices of a (..., 2, 2) stack of system states; arithmetic only, no check.

    ``ops`` are one config's operators for every state, or a stack of them aligned with the leading axis of
    ``rho_s`` (one level structure per stack).  Returns ``(matrix, levels)``: ``matrix[..., i_in, i_fin]`` the
    quasiprobabilities of each state and ``levels[..., k]`` those of its config.  `kdq_distribution` is the view
    of one state.
    """
    q, level, levels = _transitions(quantity, rho_s, ops, unitary)
    return _level_sums(q, level, levels.shape[-1]), levels


def kdq_distribution(
    quantity: str,
    rho_s: np.ndarray,
    cfg: ModelConfig,
    unitary: np.ndarray | None = None,
    group_degenerate: bool = False,
) -> KdqDistribution:
    """KDQ distribution of one stochastic quantity for one 2x2 system state and a single collision.

    The matrix is indexed [initial level, final level], levels in the order
    of ``linalg.group_levels`` (descending energy).  ``usa`` uses the product
    projectors labelled by (system, ancilla) index pairs; with
    ``group_degenerate=True`` the pair levels of H_S + H_A that coincide
    (resonance) are merged into joint eigenspace projectors instead.
    ``unitary``, if given, is one 4x4 propagator.
    """
    quantity = quantity.lower()
    ops = _operators(quantity, rho_s, cfg, unitary)
    if quantity == USA and group_degenerate:
        # One level-map sum over the joint level of each basis state; summing the pair matrix flips some zeros' signs.
        q, level, pairs = _transitions(quantity, rho_s, ops, unitary)
        joint, index = group_levels(pairs)
        return KdqDistribution(quantity, _level_sums(q, index[level], len(joint)), np.array(joint))
    matrix, levels = _kernel(quantity, rho_s, ops, unitary)
    local_energies = (tuple(ops.levels_s.tolist()), tuple(ops.levels_a.tolist())) if quantity == USA else None
    return KdqDistribution(quantity, matrix, levels, local_energies)


def marginalize_usa_to_us(dist: KdqDistribution) -> KdqDistribution:
    """Sum the ``usa`` quasiprobabilities over the ancilla indices."""
    return _marginalize(dist, target=US)


def marginalize_usa_to_ua(dist: KdqDistribution) -> KdqDistribution:
    """Sum the ``usa`` quasiprobabilities over the system indices."""
    return _marginalize(dist, target=UA)


def _marginalize(dist: KdqDistribution, target: str) -> KdqDistribution:
    if dist.quantity != USA or dist.local_energies is None:
        raise ValueError("marginalization needs a usa distribution with pair labels")
    n_s, n_a = (len(e) for e in dist.local_energies)
    side = 0 if target == US else 1
    return KdqDistribution(target, _block_sums(dist.matrix, n_s, n_a, target), np.asarray(dist.local_energies[side]))


def _block_sums(matrix: np.ndarray, n_s: int, n_a: int, target: str) -> np.ndarray:
    """``target`` (``us`` or ``ua``) marginals of a (..., n_s n_a, n_s n_a) stack of pair-labelled ``usa`` matrices."""
    # Axes (..., system in, ancilla in, system fin, ancilla fin).
    joint = matrix.reshape(matrix.shape[:-2] + (n_s, n_a, n_s, n_a))
    return joint.sum(axis=(-3, -1) if target == US else (-4, -2))


def _moments(matrix: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, second moment, variance) of each quasiprobability matrix in a (..., n, n) stack.

    ``levels`` is (n,) for one config or (..., n) aligned with the stack.
    """
    values = (levels[..., None, :] - levels[..., :, None]).reshape(levels.shape[:-1] + (-1,))
    probs = matrix.reshape(matrix.shape[:-2] + (-1,))
    mean = np.sum(probs * values, axis=-1)
    second = np.sum(probs * values**2, axis=-1)
    # mean**2 as Python's complex power forms it, (1 + 0j) * (mean * mean), whose
    # factor can flip the sign of a zero imaginary part; NumPy's complex product
    # rounds differently on arrays.
    re, im = mean.real, mean.imag
    square_re = re * re - im * im
    variance = np.empty_like(second)
    variance.real = second.real - square_re
    variance.imag = second.imag - (re * im + im * re + 0.0 * square_re)
    return mean, second, variance


def moments(dist: KdqDistribution) -> MomentSet:
    """Mean, second moment and variance of a KDQ distribution (complex)."""
    return MomentSet(*(complex(m) for m in _moments(dist.matrix, dist.levels)))


def average_via_trace(
    quantity: str,
    rho_s: np.ndarray,
    cfg: ModelConfig,
    unitary: np.ndarray | None = None,
) -> complex:
    """Single-trace average of one 2x2 system state, bypassing the distribution.

    Equals ``moments(kdq_distribution(...)).mean`` identically; the two paths
    differ only in floating-point grouping.
    """
    quantity = quantity.lower()
    return complex(_trace_average(quantity, rho_s, _operators(quantity, rho_s, cfg, unitary), unitary))


def _trace_average(quantity: str, rho_s: np.ndarray, ops: Operators, unitary: np.ndarray | None = None) -> np.ndarray:
    """Tr[O (U W U^dag - W)] of a (..., 2, 2) stack of system states, O the quantity's signed energy.

    ``ops`` as in `_kernel`; `average_via_trace` is the view of one state.
    """
    u, weight = _weight(quantity, rho_s, ops, unitary)
    if quantity in (US, WS, QS):
        observable = tensor(ops.h_s, IDENTITY_2)
    elif quantity == USA:
        observable = tensor(ops.h_s, IDENTITY_2) + tensor(IDENTITY_2, ops.h_a)
    else:
        observable = tensor(IDENTITY_2, ops.h_a)
    sign = -1.0 if quantity in (W, Q) else 1.0
    evolved = u @ weight @ dag(u)
    return sign * np.trace(observable @ (evolved - weight), axis1=-2, axis2=-1)


def _witnesses(matrix: np.ndarray) -> np.ndarray:
    """(n_q, n_re, n_im) of each unit-sum quasiprobability matrix in a (..., n, n) stack, on a new last axis."""
    probs = matrix.reshape(matrix.shape[:-2] + (-1,))
    return np.stack(
        [np.abs(probs).sum(axis=-1) - 1.0, np.abs(probs.real).sum(axis=-1) - 1.0, np.abs(probs.imag).sum(axis=-1)],
        axis=-1,
    )


def nonpositivity(dist: KdqDistribution) -> NonPositivityReport:
    """Non-positivity witnesses of a unit-sum KDQ distribution.

    n_q = -1 + sum|q|, n_re = -1 + sum|Re q|, n_im = sum|Im q|; any of them
    being positive certifies genuinely quantum energy statistics.
    """
    if dist.quantity in ZERO_SUM:
        raise ValueError(
            "non-positivity functionals presuppose a unit-sum distribution; "
            f"{dist.quantity!r} sums to zero"
        )
    n_q, n_re, n_im = _witnesses(dist.matrix).tolist()
    return NonPositivityReport(n_q=n_q, n_re=n_re, n_im=n_im)
