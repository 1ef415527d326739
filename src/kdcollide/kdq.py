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
array, Q[i, f] = (W U^dag)[i, f] U[f, i], over the level of each basis state:
system level, ancilla level, or (system, ancilla) pair in the kernel
(`_kernel`).  A qubit's levels are numbered by sigma_z basis index, as in
`model` and `analytic`: level b is basis state b, level 0 at +hbar*omega/2
whatever the sign of omega, or the one level 0 where omega = 0.  The swap
coupling conserves excitations, so U is nonzero only at |00>, |11> and the
{|01>, |10>} block, and Q only at the six (i, f) where U[f, i] is: each is a
sum of one or two products of named entries of rho_S, the ancilla operator
and U (`_transitions`), and each block sum is a sum of named Q entries.  The
kernel is elementwise arithmetic on arrays of rows, with no Kronecker product
and no matrix product; the one-state views refuse a ``unitary`` with weight
outside those six entries.  Only grouped ``usa``, which only the one-state
`kdq_distribution` computes, sums the pair matrix as G^T Q G (`_level_sums`),
where the 0/1 matrix G marks the joint level of H_S + H_A
(``linalg.group_levels`` of the pair levels) of each pair.

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
    """Initial/final level indices of one transition, by sigma_z basis index (level 0 at +hbar*omega/2).

    For ``usa`` the indices are (system, ancilla) pairs unless the
    distribution was built with degenerate levels grouped, when they index
    the joint levels in descending energy.
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


# The entries (row, column) of the swap propagator that can be nonzero: |00>, |11> and the {|01>, |10>} block.
_SWAP = ((0, 3, 1, 1, 2, 2), (0, 3, 1, 2, 1, 2))
_OUTSIDE_SWAP = np.ones((4, 4), bool)
_OUTSIDE_SWAP[_SWAP] = False
# The entries of a 2x2 operator, row major.
_QUBIT = ((0, 0, 1, 1), (0, 1, 0, 1))


def _operators(
    quantity: str, rho_s: np.ndarray, cfg: ModelConfig, unitary: np.ndarray | None
) -> tuple[Operators, np.ndarray]:
    """The config's operators and the propagator for a one-state view, once its inputs are checked: a known
    quantity, one 2x2 state, at most one 4x4 ``unitary`` that is zero outside the six entries the swap coupling
    can fill, and the work/heat regime if ``quantity`` reads the split."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if np.shape(rho_s) != (2, 2):
        raise ValueError(f"rho_s must be one 2x2 system state, got shape {np.shape(rho_s)}")
    ops = cfg.operators
    if unitary is None:
        unitary = ops.u_bare
    else:
        if np.shape(unitary) != (4, 4):
            raise ValueError("unitary must act on the 4-dimensional joint space")
        unitary = np.asarray(unitary, dtype=complex)
        outside = np.where(_OUTSIDE_SWAP, np.abs(unitary), 0.0)
        i, j = np.unravel_index(np.argmax(outside), outside.shape)
        if outside[i, j] != 0.0:
            raise ValueError(
                "unitary must vanish outside (0, 0), (3, 3) and the {|01>, |10>} block, where the excitation-"
                f"conserving swap coupling acts; its largest entry outside is |U[{i}, {j}]| = {outside[i, j]:.6g}"
            )
    if quantity in _WORK_HEAT:
        _check_work_heat_regime(cfg._arrays)
    return ops, unitary


def _entries(a: np.ndarray, index: tuple[tuple[int, ...], tuple[int, ...]], slot) -> np.ndarray:
    """Row k: the entries ``a[..., index[0][k], index[1][k]]`` of a matrix or of a stack on one config axis,
    gathered to the states by ``slot`` if given."""
    entries = np.atleast_2d(a[..., index[0], index[1]]).T
    return entries if slot is None else entries[:, slot]


def _weights(quantity: str, rho_s: np.ndarray, ops: Operators, slot) -> list[np.ndarray]:
    """W = rho_S (x) A, times the coherence prefactor for ``w``/``ws``, at the six basis pairs (i, k) that meet
    U's entries in `_transitions`: (0, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)."""
    if quantity in (W, WS):
        a00, a01, a10, a11 = _entries(SIGMA_X, _QUBIT, None)
    else:
        a00, a01, a10, a11 = _entries(ops.rho_a if quantity in (US, UA, USA) else ops.rho_a_th, _QUBIT, slot)
    r00, r01, r10, r11 = (rho_s[..., i, j] for i, j in zip(*_QUBIT))
    # Every product has a state factor, so that one state's arithmetic runs on arrays, as a stack's does.
    w = [r00 * a00, r11 * a11, r00 * a11, r01 * a10, r10 * a01, r11 * a00]
    if quantity in (W, WS):
        (prefactor,) = _entries(ops.prefactor, ((0,), (0,)), slot)
        w = [prefactor * x for x in w]
    return w


def _transitions(quantity: str, rho_s: np.ndarray, ops: Operators, unitary, slot) -> tuple[np.ndarray, ...]:
    """The six Q[i, f] = (W U^dag)[i, f] U[f, i] that can be nonzero, at the (i, f) of `_SWAP`, as in `_kernel`."""
    w00, w33, w11, w12, w21, w22 = _weights(quantity, rho_s, ops, slot)
    u00, u33, u11, u12, u21, u22 = _entries(ops.u_bare if unitary is None else unitary, _SWAP, slot)
    # U[f, i] is nonzero at these (i, f) only, and (W U^dag)[i, f] = sum_k W[i, k] conj(U[f, k]).
    return (
        w00 * u00.conj() * u00,
        w33 * u33.conj() * u33,
        (w11 * u11.conj() + w12 * u12.conj()) * u11,
        (w11 * u21.conj() + w12 * u22.conj()) * u21,
        (w21 * u11.conj() + w22 * u12.conj()) * u12,
        (w21 * u21.conj() + w22 * u22.conj()) * u22,
    )


def _kernel(quantity: str, rho_s: np.ndarray, ops: Operators, unitary=None, slot=None) -> tuple[np.ndarray, np.ndarray]:
    """KDQ matrices of a (..., 2, 2) stack of system states; elementwise arithmetic only, no check.

    ``ops`` and ``unitary`` (the propagator, ``ops.u_bare`` by default) are one config's for every state, or
    stacks on one config axis of one level structure: aligned with the rows of ``rho_s``, or row ``slot[...]``
    of them for each state when ``slot`` is given.  Only the six entries of U that the swap coupling fills are
    read (`_transitions`), and each level sum is a sum of named Q entries.  Returns ``(matrix, levels)``:
    ``matrix[..., i_in, i_fin]`` the quasiprobabilities of each state and ``levels[..., k]`` those of its
    config.  `kdq_distribution` is the view of one state.
    """
    q = _transitions(quantity, rho_s, ops, unitary, slot)
    q00, q33, q11, q12, q21, q22 = q
    levels_s, levels_a = ops.levels_s, ops.levels_a
    if quantity == USA:
        energies = (levels_s[..., :, None] + levels_a[..., None, :]).reshape(levels_s.shape[:-1] + (-1,))
    else:
        energies = levels_s if quantity in (US, WS, QS) else levels_a
    # w and q take the ancilla's values with the opposite sign: -(e_f - e_i).
    levels = (-1.0 if quantity in (W, Q) else 1.0) * energies
    if slot is not None:
        levels = levels[slot]
    n = levels.shape[-1]
    # The level sums at their (row, column) of basis indices, which are level indices: over one qubit's index,
    # or Q itself over the pair index 2 s + a.  A qubit whose two levels merge (zero frequency) drops out of the
    # pair, and a merged level (n = 1) sums them all.
    if quantity in (US, WS, QS) or (quantity == USA and levels_a.shape[-1] == 1):
        cells, values = _QUBIT, (q00 + q11, q12, q21, q22 + q33)
    elif quantity in (UA, W, Q) or levels_s.shape[-1] == 1:
        cells, values = _QUBIT, (q00 + q22, q21, q12, q11 + q33)
    else:
        cells, values = _SWAP, q
    if n == 1:
        return ((values[0] + values[1]) + (values[2] + values[3]))[..., None, None], levels
    matrix = np.zeros(q00.shape + (n, n), dtype=complex)
    matrix[..., cells[0], cells[1]] = np.stack(values, axis=-1)
    return matrix, levels


def _level_sums(q: np.ndarray, level: np.ndarray, count: int) -> np.ndarray:
    """G^T Q G: each (..., n, n) matrix Q summed over the levels ``level[..., b]`` (of ``count``) of its indices b."""
    g = (level[..., :, None] == np.arange(count)).astype(float)
    return g.swapaxes(-1, -2) @ q @ g


def kdq_distribution(
    quantity: str,
    rho_s: np.ndarray,
    cfg: ModelConfig,
    unitary: np.ndarray | None = None,
    group_degenerate: bool = False,
) -> KdqDistribution:
    """KDQ distribution of one stochastic quantity for one 2x2 system state and a single collision.

    The matrix is indexed [initial level, final level], each qubit's levels
    by sigma_z basis index: level 0 at +hbar*omega/2, which is the lower
    level for omega < 0, and one level where omega = 0.  ``usa`` uses the
    product projectors labelled by (system, ancilla) index pairs; with
    ``group_degenerate=True`` the pair levels of H_S + H_A that coincide
    (resonance) are merged into joint eigenspace projectors instead, in the
    order of ``linalg.group_levels`` (descending energy).
    ``unitary``, if given, is one 4x4 propagator, zero outside the entries
    that the swap coupling fills.
    """
    quantity = quantity.lower()
    ops, unitary = _operators(quantity, rho_s, cfg, unitary)
    # One state on a leading axis of length 1, so that it takes a stack's arithmetic.
    matrix, levels = _kernel(quantity, np.asarray(rho_s, dtype=complex)[None], ops, unitary)
    if quantity == USA and group_degenerate:
        # The pair matrix summed over the joint level of each pair.
        joint, index = group_levels(levels)
        return KdqDistribution(quantity, _level_sums(matrix[0], index, len(joint)), np.array(joint))
    local_energies = (tuple(ops.levels_s.tolist()), tuple(ops.levels_a.tolist())) if quantity == USA else None
    return KdqDistribution(quantity, matrix[0], levels, local_energies)


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
    ops, unitary = _operators(quantity, rho_s, cfg, unitary)
    return complex(_trace_average(quantity, rho_s, ops, unitary))


def _trace_average(quantity: str, rho_s: np.ndarray, ops: Operators, unitary: np.ndarray | None = None) -> np.ndarray:
    """Tr[O (U W U^dag - W)] of a (..., 2, 2) stack of system states, O the quantity's signed energy.

    The dense route, independent of `_kernel`: W is a Kronecker product and U
    the whole 4x4 propagator.  ``ops`` and ``unitary`` are one config's, or
    stacks aligned with the leading axes of ``rho_s``; `average_via_trace` is
    the view of one state.
    """
    u = ops.u_bare if unitary is None else unitary
    if quantity in (US, UA, USA):
        weight = tensor(rho_s, ops.rho_a)
    elif quantity in (Q, QS):
        weight = tensor(rho_s, ops.rho_a_th)
    else:
        weight = ops.prefactor * tensor(rho_s, SIGMA_X)
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
