"""Closed-form expressions for the qubit-qubit collision, used as oracles.

Every function here evaluates an analytic formula in terms of the bare model
parameters only; none of them touches the numerical collision pipeline.
They exist to cross-validate the `kdq` and `collision` modules and to
generate figure curves cheaply.

Each formula is written once, over parameter arrays: the private functions
take N configs and N states (`model._ConfigArrays`, `model._StateArrays`,
row k with row k) and return arrays over N, and the public functions are
their N = 1 views on a `ModelConfig` and a `SystemStateParams`.

Conventions: the pulse area is phi = g*tau, the coherence products are
j1 = lambda*Re[rho12] and j2 = lambda*Im[rho12], and entry arrays are
ordered by sigma_z index (initial index major, final index minor).
`kdq.kdq_distribution` orders levels by descending energy instead, so the
two orders agree only for positive frequencies.  Resonant formulas require
omega_s == omega_a.
Thermal weights enter in forms that cannot overflow (logistic functions of
e^(-2|x|), x = beta*hbar*omega_a/2, or a and b divided by c_beta), so every
formula reaches the zero-temperature limit; the logistic form also keeps the
digits of the smaller weight, which (1 - tanh x)/2 would cancel.
The detuned forms divide their common factor sqrt(4 g^2 + delta^2) out,
so they neither overflow for large g or |delta| nor divide by an
underflowed 4 g^2 at resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, SystemStateParams, _ConfigArrays, _StateArrays


@dataclass(frozen=True)
class AuxiliaryFunctions:
    """Shorthands entering the detuned closed forms.

    ``a`` and ``b`` are carried divided by ``c_beta`` (inf once
    1 + e^(beta*hbar*omega_a) overflows); theta and amplitude*sin(theta) = b
    do not depend on that common factor.
    """

    c_beta: float
    tau_tilde: float
    a: float
    b: float
    theta: float
    j1: float
    j2: float
    z_a: float

    @property
    def amplitude(self) -> float:
        return math.hypot(self.a, self.b)


def _ancilla_populations(cfgs: _ConfigArrays) -> tuple[np.ndarray, np.ndarray]:
    """Thermal ancilla populations (e^-x, e^x)/Z_A, x = beta*hbar*omega_a/2, as t/(1 + t) and 1/(1 + t),
    t = e^(-2|x|), swapped for x < 0: no subtraction cancels the smaller weight, and an overflowing x is inf."""
    with np.errstate(over="ignore"):
        x = 0.5 * cfgs.beta * cfgs.hbar * cfgs.omega_a
    t = np.exp(-2.0 * np.abs(x))
    low, high = t / (1.0 + t), 1.0 / (1.0 + t)
    return np.where(x >= 0.0, low, high), np.where(x >= 0.0, high, low)


def _detuned(cfgs: _ConfigArrays, states: _StateArrays):
    """(root, g/root, delta/root, a/root, b/root, theta) of the detuned closed forms, root = sqrt(4 g^2 + delta^2).

    root is formed as 2*hypot(g, delta/2), which neither overflows nor
    underflows to 0 for a positive g.  theta uses the two-argument
    arctangent of (b, a) so the phase stays on the branch that makes
    amplitude*sin(theta) = b; when both a and b vanish the oscillating term
    has zero amplitude and theta is set to 0.
    """
    delta, lam = cfgs.detuning, cfgs.lambda_eff
    root = 2.0 * np.hypot(cfgs.g, 0.5 * delta)
    ratio, delta_ratio = cfgs.g / root, delta / root
    re12, im12 = states.r * np.cos(states.phi_c), states.r * np.sin(states.phi_c)
    a = lam * im12
    b = ratio * (states.rho11 - _ancilla_populations(cfgs)[0]) - delta_ratio * lam * re12
    theta = np.where((a != 0.0) | (b != 0.0), np.arctan2(b, a), 0.0)
    return root, ratio, delta_ratio, a, b, theta


def auxiliary_functions(cfg: ModelConfig, state: SystemStateParams) -> AuxiliaryFunctions:
    """Evaluate the auxiliary shorthands for a configuration and system state (the N = 1 view of `_detuned`)."""
    cfgs, states = cfg._arrays, state._arrays
    root, _, _, a, b, theta = _detuned(cfgs, states)
    with np.errstate(over="ignore"):
        c_beta = 1.0 + np.exp(cfg.beta * cfg.hbar * cfg.omega_a)
    lam = cfgs.lambda_eff
    return AuxiliaryFunctions(
        c_beta=float(c_beta),
        tau_tilde=float(cfg.tau * root[0]),
        a=float(a[0] * root[0]),
        b=float(b[0] * root[0]),
        theta=float(theta[0]),
        j1=float(lam[0] * state.r * math.cos(state.phi_c)),
        j2=float(lam[0] * state.r * math.sin(state.phi_c)),
        z_a=cfg.z_a,
    )


def _delta_e_s_prefactor(cfgs: _ConfigArrays, ratio: np.ndarray) -> np.ndarray:
    """2 hbar g (omega_a + delta) / root^2 times root, the factor that `_detuned` divides out of a and b.

    omega_a + delta is formed as omega_s, which keeps the digits that the sum
    would cancel.
    """
    return 2.0 * cfgs.hbar * cfgs.omega_s * ratio


def _delta_e_s(cfgs: _ConfigArrays, states: _StateArrays) -> np.ndarray:
    """Average internal-energy change of the system over one collision."""
    root, ratio, _, a, b, theta = _detuned(cfgs, states)
    return _delta_e_s_prefactor(cfgs, ratio) * (-b - np.hypot(a, b) * np.sin(cfgs.tau * root - theta))


def _delta_e_s_envelopes(cfgs: _ConfigArrays, states: _StateArrays) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) envelope of `delta_e_s`, dropping the oscillating term."""
    _, ratio, _, a, b, _ = _detuned(cfgs, states)
    pre, amplitude = _delta_e_s_prefactor(cfgs, ratio), np.hypot(a, b)
    branch_1, branch_2 = pre * (-b - amplitude), pre * (-b + amplitude)
    return np.minimum(branch_1, branch_2), np.maximum(branch_1, branch_2)


def _delta_e_sa(cfgs: _ConfigArrays, states: _StateArrays) -> np.ndarray:
    """Average non-energy-preserving work over one collision."""
    root, _, delta_ratio, a, b, theta = _detuned(cfgs, states)
    # -4 hbar g delta / root^2 times the amplitude root*hypot(a, b).
    half = 0.5 * cfgs.tau * root
    return -4.0 * cfgs.hbar * cfgs.g * delta_ratio * np.hypot(a, b) * np.sin(half) * np.cos(half - theta)


def _delta_e_sa_limit(cfgs: _ConfigArrays, states: _StateArrays) -> np.ndarray:
    """Extreme out-of-resonance form of `delta_e_sa`; valid for |detuning| >> g
    with either sign."""
    half = 0.5 * cfgs.detuning * cfgs.tau
    return 4.0 * cfgs.hbar * cfgs.g * cfgs.lambda_eff * states.r * np.sin(half) * np.sin(half - states.phi_c)


def _resonant_pieces(cfgs: _ConfigArrays, states: _StateArrays):
    resonant = cfgs.is_resonant
    if not resonant.all():
        detuning = cfgs.detuning[np.argmin(resonant)]
        raise ValueError(f"resonant closed form evaluated at detuning {detuning:.6g}")
    w_up, w_dn = _ancilla_populations(cfgs)
    lam_r = cfgs.lambda_eff * states.r
    return w_up, w_dn, cfgs.g * cfgs.tau, lam_r * np.cos(states.phi_c), lam_r * np.sin(states.phi_c)


def _work_coherences(cfgs: _ConfigArrays, states: _StateArrays) -> tuple[np.ndarray, np.ndarray]:
    """(j1, j2) with the quasiprobability prefactor (lambda, or lambda-tilde in the weakly coherent mode)."""
    pref_r = cfgs.kdq_coherence_prefactor * states.r
    return pref_r * np.cos(states.phi_c), pref_r * np.sin(states.phi_c)


def _resonant_kdq_us(cfgs: _ConfigArrays, states: _StateArrays) -> np.ndarray:
    """(N, 4) internal-energy quasiprobabilities of the system at resonance.

    Order: transitions (0->0, 0->1, 1->0, 1->1) with level 0 the upper
    sigma_z eigenstate; the corresponding stochastic values are
    (0, -hbar*omega, +hbar*omega, 0).
    """
    w_up, w_dn, phi, j1, j2 = _resonant_pieces(cfgs, states)
    return _thermal_entries(states, w_up, w_dn, phi) + _coherent_entries(j1, j2, phi)


def _resonant_kdq_q(cfgs: _ConfigArrays, states: _StateArrays) -> np.ndarray:
    """(N, 4) incoherent-heat quasiprobabilities (system side): the thermal parts of
    `resonant_kdq_us`, real and non-negative."""
    w_up, w_dn, phi, _, _ = _resonant_pieces(cfgs, states)
    return _thermal_entries(states, w_up, w_dn, phi)


def _thermal_entries(states: _StateArrays, w_up: np.ndarray, w_dn: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(N, 4) thermal parts of the resonant entries, in transition order."""
    sin_sq, cos_sq = np.sin(phi) ** 2, np.cos(phi) ** 2
    p0, p1 = states.rho11, 1.0 - states.rho11
    return np.stack(
        [p0 * (w_dn * cos_sq + w_up), p0 * w_dn * sin_sq, p1 * w_up * sin_sq, p1 * (w_up * cos_sq + w_dn)], axis=-1
    )


def _coherent_entries(j1: np.ndarray, j2: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(N, 4) coherent parts of the resonant entries: (-+ j2 + i j1, ...) sin(2 phi)/2 in transition order."""
    s2 = np.sin(2.0 * phi)
    re, im = 0.5 * j2 * s2, 0.5 * j1 * s2
    return np.stack([-re + 1j * im, re - 1j * im, -re - 1j * im, re + 1j * im], axis=-1)


def _resonant_kdq_w(cfgs: _ConfigArrays, states: _StateArrays) -> np.ndarray:
    """(N, 4) coherent-work quasiprobabilities (system side); they sum to zero."""
    _, _, phi, _, _ = _resonant_pieces(cfgs, states)
    return _coherent_entries(*_work_coherences(cfgs, states), phi)


@dataclass(frozen=True)
class ResonantWorkHeatStats:
    w_mean: float
    w_variance: complex
    q_mean: float
    q_variance: float


def _resonant_w_q_stats(cfgs: _ConfigArrays, states: _StateArrays) -> ResonantWorkHeatStats:
    """Mean and variance of coherent work and incoherent heat at resonance, each an array over N.

    The work moments carry the quasiprobability prefactor; the heat moments
    are coherence-independent.
    """
    w_up, w_dn, phi, _, _ = _resonant_pieces(cfgs, states)
    j1, j2 = _work_coherences(cfgs, states)
    e = cfgs.hbar * cfgs.omega_a
    s2, sin_sq = np.sin(2.0 * phi), np.sin(phi) ** 2
    w_mean = -e * j2 * s2
    w_variance = -(e**2) * s2 * (j2**2 * s2 + 1j * j1)
    q_mean = e * sin_sq * (w_up - states.rho11)
    q_second = e**2 * sin_sq * (w_up + states.rho11 * (w_dn - w_up))
    return ResonantWorkHeatStats(w_mean, w_variance, q_mean, q_second - q_mean**2)


def _resonant_energy_stats(cfgs: _ConfigArrays, states: _StateArrays) -> tuple[np.ndarray, np.ndarray]:
    """(mean, variance) of the system internal-energy change at resonance.

    The variance keeps its imaginary part -i (hbar*omega)^2 j1 sin(2 phi);
    truncating it would hide the non-classical signature.
    """
    w_up, w_dn, phi, j1, j2 = _resonant_pieces(cfgs, states)
    e = cfgs.hbar * cfgs.omega_a
    s2, sin_sq = np.sin(2.0 * phi), np.sin(phi) ** 2
    mean = -e * (states.rho11 - w_up) * sin_sq - e * j2 * s2
    second = e**2 * sin_sq * (w_up + states.rho11 * (w_dn - w_up))
    return mean, second - 1j * e**2 * j1 * s2 - mean**2


def _resonant_nonpositivity(cfgs: _ConfigArrays, states: _StateArrays) -> tuple[np.ndarray, np.ndarray]:
    """(n_re, n_im) witnesses of the resonant internal-energy distribution.

    n_re depends on the coherence only through j2 = lambda*Im[rho12] and
    n_im only through j1 = lambda*Re[rho12].
    """
    w_up, w_dn, phi, j1, j2 = _resonant_pieces(cfgs, states)
    s1, s2, c2, c1 = np.sin(phi), np.sin(2.0 * phi), np.cos(2.0 * phi), np.cos(phi)
    n_re = -1.0
    # (k, rho_k, e^(k x)/Z_A, e^(-k x)/Z_A)
    branches = ((1.0, states.rho11, w_dn, w_up), (-1.0, 1.0 - states.rho11, w_up, w_dn))
    for k, rho_k, w_k, w_other in branches:
        n_re = n_re + np.abs(s1) * np.abs(rho_k * w_k * s1 + k * j2 * c1)
        n_re = n_re + np.abs(0.5 * rho_k * (1.0 + w_other + w_k * c2) - 0.5 * k * j2 * s2)
    return n_re, 2.0 * np.abs(j1 * s2)


# --------------------------------------------------------------------------
# N = 1 views


def delta_e_s(cfg: ModelConfig, state: SystemStateParams) -> float:
    """Average internal-energy change of the system over one collision."""
    return float(_delta_e_s(cfg._arrays, state._arrays)[0])


def delta_e_s_envelopes(cfg: ModelConfig, state: SystemStateParams) -> tuple[float, float]:
    """(lower, upper) envelope of `delta_e_s`, dropping the oscillating term."""
    lower, upper = _delta_e_s_envelopes(cfg._arrays, state._arrays)
    return float(lower[0]), float(upper[0])


def delta_e_sa(cfg: ModelConfig, state: SystemStateParams) -> float:
    """Average non-energy-preserving work over one collision."""
    return float(_delta_e_sa(cfg._arrays, state._arrays)[0])


def delta_e_sa_limit(cfg: ModelConfig, state: SystemStateParams) -> float:
    """Extreme out-of-resonance form of `delta_e_sa`; valid for |detuning| >> g
    with either sign."""
    return float(_delta_e_sa_limit(cfg._arrays, state._arrays)[0])


def resonant_kdq_us(cfg: ModelConfig, state: SystemStateParams) -> np.ndarray:
    """The four internal-energy quasiprobabilities of the system at resonance (see `_resonant_kdq_us`)."""
    return _resonant_kdq_us(cfg._arrays, state._arrays)[0]


def resonant_kdq_q(cfg: ModelConfig, state: SystemStateParams) -> np.ndarray:
    """Incoherent-heat quasiprobabilities (system side), real and non-negative."""
    return _resonant_kdq_q(cfg._arrays, state._arrays)[0]


def resonant_kdq_w(cfg: ModelConfig, state: SystemStateParams) -> np.ndarray:
    """Coherent-work quasiprobabilities (system side); they sum to zero.

    The coherence products use the quasiprobability prefactor (lambda, or
    lambda-tilde in the weakly coherent mode).
    """
    return _resonant_kdq_w(cfg._arrays, state._arrays)[0]


def resonant_w_q_stats(cfg: ModelConfig, state: SystemStateParams) -> ResonantWorkHeatStats:
    """Mean and variance of coherent work and incoherent heat at resonance."""
    stats = _resonant_w_q_stats(cfg._arrays, state._arrays)
    return ResonantWorkHeatStats(
        float(stats.w_mean[0]), complex(stats.w_variance[0]), float(stats.q_mean[0]), float(stats.q_variance[0])
    )


def resonant_energy_stats(cfg: ModelConfig, state: SystemStateParams) -> tuple[float, complex]:
    """(mean, variance) of the system internal-energy change at resonance."""
    mean, variance = _resonant_energy_stats(cfg._arrays, state._arrays)
    return float(mean[0]), complex(variance[0])


def resonant_nonpositivity(cfg: ModelConfig, state: SystemStateParams) -> tuple[float, float]:
    """(n_re, n_im) witnesses of the resonant internal-energy distribution."""
    n_re, n_im = _resonant_nonpositivity(cfg._arrays, state._arrays)
    return float(n_re[0]), float(n_im[0])
