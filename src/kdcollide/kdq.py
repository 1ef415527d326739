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
array: Q[i, f] = (W U^dag)[i, f] U[f, i] and quasiprobabilities G^T Q G,
where the 0/1 matrix G marks the level of each basis state (system level,
ancilla level, (system, ancilla) pair, or joint level of H_S + H_A), with
levels from ``linalg.group_levels``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import dag, group_levels, tensor
from .model import IDENTITY_2, ModelConfig

US = "us"
UA = "ua"
USA = "usa"
W = "w"
Q = "q"
WS = "ws"
QS = "qs"
QUANTITIES = (US, UA, USA, W, Q, WS, QS)
UNIT_SUM = (US, UA, USA, Q, QS)
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


@dataclass(frozen=True)
class KdqDistribution:
    quantity: str
    entries: tuple[KdqEntry, ...]
    # Local level energies (system, ancilla), kept for marginalization.
    local_energies: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def total(self) -> complex:
        return complex(sum(e.quasiprob for e in self.entries))

    def quasiprobs(self) -> np.ndarray:
        return np.array([e.quasiprob for e in self.entries], dtype=complex)

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries], dtype=float)


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


def _check_work_heat_regime(cfg: ModelConfig) -> None:
    if not (cfg.is_resonant or cfg.is_weak):
        raise ValueError(
            "coherent-work/heat quasiprobabilities require a resonant "
            f"interaction in exact mode (detuning {cfg.detuning:.6g})"
        )
    if not cfg.is_resonant:
        warnings.warn(
            "coherent-work/heat split off resonance is not energy-preserving",
            ValidityWarning,
            stacklevel=4,
        )
    if cfg.g * cfg.tau > PULSE_AREA_VALIDITY + 1e-12:
        warnings.warn(
            f"pulse area g*tau = {cfg.g * cfg.tau:.4g} exceeds pi/6: "
            "coherent work / incoherent heat enter the strong-coupling regime",
            ValidityWarning,
            stacklevel=4,
        )


def _weight(
    quantity: str, rho_s: np.ndarray, cfg: ModelConfig, unitary: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Validate the request; return (propagator U, weighted initial operator W)."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if quantity in _WORK_HEAT:
        _check_work_heat_regime(cfg)
    u = measurement_unitary(cfg) if unitary is None else np.asarray(unitary, dtype=complex)
    ops = cfg.operators
    if quantity in (US, UA, USA):
        return u, tensor(rho_s, ops.rho_a)
    if quantity in (Q, QS):
        return u, tensor(rho_s, ops.rho_a_th)
    return u, cfg.kdq_coherence_prefactor * tensor(rho_s, ops.chi_a)


def kdq_distribution(
    quantity: str,
    rho_s: np.ndarray,
    cfg: ModelConfig,
    unitary: np.ndarray | None = None,
    group_degenerate: bool = False,
) -> KdqDistribution:
    """KDQ distribution of one stochastic quantity for a single collision.

    Entries are enumerated with the initial index as the major key and the
    final index as the minor key, each ascending.  ``usa`` uses the product
    projectors labelled by (system, ancilla) index pairs; with
    ``group_degenerate=True`` levels of H_S + H_A that coincide (resonance)
    are merged into joint eigenspace projectors instead.
    """
    quantity = quantity.lower()
    u, weight = _weight(quantity, rho_s, cfg, unitary)
    if u.shape != (4, 4):
        raise ValueError("unitary must act on the 4-dimensional joint space")
    ops = cfg.operators
    (levels_s, index_s), (levels_a, index_a) = ops.levels_s, ops.levels_a
    local_energies = None
    sign = -1.0 if quantity in (W, Q) else 1.0
    # level[b]: level of product-basis state b = 2 * (system index) + (ancilla index).
    if quantity in (US, WS, QS):
        energies, level = levels_s, np.repeat(index_s, 2)
    elif quantity in (UA, W, Q):
        energies, level = levels_a, np.tile(index_a, 2)
    elif group_degenerate:
        energies, level = group_levels(np.add.outer(np.diag(ops.h_s), np.diag(ops.h_a)).real.ravel())
    else:
        energies = tuple(es + ea for es in levels_s for ea in levels_a)
        level = np.add.outer(index_s * len(levels_a), index_a).ravel()
        local_energies = (levels_s, levels_a)
    n = len(energies)
    labels = [divmod(i, len(levels_a)) if local_energies else i for i in range(n)]
    # G[b, level] = 1 where basis state b belongs to the level.
    g = np.equal.outer(level, np.arange(n)).astype(float)
    # Q[i, f] = Tr[U^dag |f><f| U |i><i| W] = (W U^dag)[i, f] U[f, i].
    q = (weight @ dag(u)) * u.T
    quasiprobs = g.T @ q @ g
    entries = tuple(
        KdqEntry(
            TransitionLabel(quantity, labels[i_in], labels[i_fin]),
            sign * (energies[i_fin] - energies[i_in]),
            complex(quasiprobs[i_in, i_fin]),
        )
        for i_in in range(n)
        for i_fin in range(n)
    )
    return KdqDistribution(quantity, entries, local_energies)


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
    # Axes (system in, ancilla in, system fin, ancilla fin).
    joint = dist.quasiprobs().reshape(n_s, n_a, n_s, n_a)
    acc = joint.sum(axis=(1, 3)) if target == US else joint.sum(axis=(0, 2))
    energies = dist.local_energies[0 if target == US else 1]
    n = len(energies)
    entries = tuple(
        KdqEntry(TransitionLabel(target, i_in, i_fin), energies[i_fin] - energies[i_in], complex(acc[i_in, i_fin]))
        for i_in in range(n)
        for i_fin in range(n)
    )
    return KdqDistribution(target, entries)


def moments(dist: KdqDistribution) -> MomentSet:
    """Mean, second moment and variance of a KDQ distribution (complex)."""
    values = dist.values()
    probs = dist.quasiprobs()
    mean = complex(np.sum(probs * values))
    second = complex(np.sum(probs * values**2))
    return MomentSet(mean, second, second - mean**2)


def average_via_trace(
    quantity: str,
    rho_s: np.ndarray,
    cfg: ModelConfig,
    unitary: np.ndarray | None = None,
) -> complex:
    """Single-trace average, bypassing the distribution.

    Equals ``moments(kdq_distribution(...)).mean`` identically; the two paths
    differ only in floating-point grouping.
    """
    quantity = quantity.lower()
    u, weight = _weight(quantity, rho_s, cfg, unitary)
    h_s, h_a = cfg.operators.h_s, cfg.operators.h_a
    if quantity in (US, WS, QS):
        observable = tensor(h_s, IDENTITY_2)
        sign = 1.0
    elif quantity == USA:
        observable = tensor(h_s, IDENTITY_2) + tensor(IDENTITY_2, h_a)
        sign = 1.0
    else:
        observable = tensor(IDENTITY_2, h_a)
        sign = -1.0 if quantity in (W, Q) else 1.0
    evolved = u @ weight @ dag(u)
    return sign * complex(np.trace(observable @ (evolved - weight)))


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
    probs = dist.quasiprobs()
    return NonPositivityReport(
        n_q=float(np.sum(np.abs(probs)) - 1.0),
        n_re=float(np.sum(np.abs(probs.real)) - 1.0),
        n_im=float(np.sum(np.abs(probs.imag))),
    )
