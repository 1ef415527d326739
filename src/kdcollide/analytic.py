"""Closed-form expressions for the qubit-qubit collision, used as oracles.

Every function here evaluates an analytic formula in terms of the bare model
parameters only; none of them touches the numerical collision pipeline.
They exist to cross-validate the `kdq` and `collision` modules and to
generate figure curves cheaply.

Conventions: the pulse area is phi = g*tau, the coherence products are
j1 = lambda*Re[rho12] and j2 = lambda*Im[rho12], and entry arrays are
ordered by sigma_z index (initial index major, final index minor).
`kdq.kdq_distribution` orders levels by descending energy instead, so the
two orders agree only for positive frequencies.  Resonant formulas require
omega_s == omega_a.
Thermal weights enter in forms that cannot overflow (tanh, or a and b
divided by c_beta), so every formula reaches the zero-temperature limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, SystemStateParams

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # largest argument of a finite math.exp


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


def auxiliary_functions(cfg: ModelConfig, state: SystemStateParams) -> AuxiliaryFunctions:
    """Evaluate the auxiliary shorthands for a configuration and system state.

    theta uses the two-argument arctangent of (b, a) so the phase stays on
    the branch that makes amplitude*sin(theta) = b; when both a and b vanish
    the oscillating term has zero amplitude and theta is set to 0.
    """
    delta = cfg.detuning
    lam = cfg.lambda_eff
    re12 = state.r * math.cos(state.phi_c)
    im12 = state.r * math.sin(state.phi_c)
    y = cfg.beta * cfg.hbar * cfg.omega_a
    c_beta = 1.0 + math.exp(y) if y <= _LOG_FLOAT_MAX else math.inf
    root = math.sqrt(4.0 * cfg.g**2 + delta**2)
    a = lam * im12 * root
    b = cfg.g * (state.rho11 - _ancilla_populations(cfg)[0]) - delta * lam * re12
    theta = math.atan2(b, a) if (a != 0.0 or b != 0.0) else 0.0
    return AuxiliaryFunctions(
        c_beta=c_beta,
        tau_tilde=cfg.tau * root,
        a=a,
        b=b,
        theta=theta,
        j1=lam * re12,
        j2=lam * im12,
        z_a=cfg.z_a,
    )


def _ancilla_populations(cfg: ModelConfig) -> tuple[float, float]:
    """Thermal ancilla populations (e^-x, e^x)/Z_A = (1 -+ tanh x)/2, x = beta*hbar*omega_a/2."""
    t = math.tanh(0.5 * cfg.beta * cfg.hbar * cfg.omega_a)
    return 0.5 * (1.0 - t), 0.5 * (1.0 + t)


def _resonant_pieces(cfg: ModelConfig, state: SystemStateParams):
    if not cfg.is_resonant:
        raise ValueError(f"resonant closed form evaluated at detuning {cfg.detuning:.6g}")
    w_up, w_dn = _ancilla_populations(cfg)
    phi = cfg.g * cfg.tau
    j1 = cfg.lambda_eff * state.r * math.cos(state.phi_c)
    j2 = cfg.lambda_eff * state.r * math.sin(state.phi_c)
    return w_up, w_dn, phi, j1, j2


def resonant_kdq_us(cfg: ModelConfig, state: SystemStateParams) -> np.ndarray:
    """The four internal-energy quasiprobabilities of the system at resonance.

    Order: transitions (0->0, 0->1, 1->0, 1->1) with level 0 the upper
    sigma_z eigenstate; the corresponding stochastic values are
    (0, -hbar*omega, +hbar*omega, 0).
    """
    w_up, w_dn, phi, j1, j2 = _resonant_pieces(cfg, state)
    s2 = math.sin(2.0 * phi)
    sin_sq = math.sin(phi) ** 2
    cos_sq = math.cos(phi) ** 2
    p0, p1 = state.rho11, 1.0 - state.rho11
    return np.array(
        [
            p0 * (w_dn * cos_sq + w_up) - 0.5 * j2 * s2 + 0.5j * j1 * s2,
            p0 * w_dn * sin_sq + 0.5 * j2 * s2 - 0.5j * j1 * s2,
            p1 * w_up * sin_sq - 0.5 * j2 * s2 - 0.5j * j1 * s2,
            p1 * (w_up * cos_sq + w_dn) + 0.5 * j2 * s2 + 0.5j * j1 * s2,
        ],
        dtype=complex,
    )


def resonant_kdq_q(cfg: ModelConfig, state: SystemStateParams) -> np.ndarray:
    """Incoherent-heat quasiprobabilities (system side): the thermal parts of
    `resonant_kdq_us`, real and non-negative."""
    w_up, w_dn, phi, _, _ = _resonant_pieces(cfg, state)
    sin_sq = math.sin(phi) ** 2
    cos_sq = math.cos(phi) ** 2
    p0, p1 = state.rho11, 1.0 - state.rho11
    return np.array(
        [
            p0 * (w_dn * cos_sq + w_up),
            p0 * w_dn * sin_sq,
            p1 * w_up * sin_sq,
            p1 * (w_up * cos_sq + w_dn),
        ],
        dtype=float,
    )


def resonant_kdq_w(cfg: ModelConfig, state: SystemStateParams) -> np.ndarray:
    """Coherent-work quasiprobabilities (system side); they sum to zero.

    The coherence products use the quasiprobability prefactor (lambda, or
    lambda-tilde in the weakly coherent mode).
    """
    _, _, phi, _, _ = _resonant_pieces(cfg, state)
    pref = cfg.kdq_coherence_prefactor
    j1 = pref * state.r * math.cos(state.phi_c)
    j2 = pref * state.r * math.sin(state.phi_c)
    s2 = math.sin(2.0 * phi)
    return np.array(
        [
            -0.5 * j2 * s2 + 0.5j * j1 * s2,
            +0.5 * j2 * s2 - 0.5j * j1 * s2,
            -0.5 * j2 * s2 - 0.5j * j1 * s2,
            +0.5 * j2 * s2 + 0.5j * j1 * s2,
        ],
        dtype=complex,
    )


def delta_e_s(cfg: ModelConfig, state: SystemStateParams) -> float:
    """Average internal-energy change of the system over one collision."""
    aux = auxiliary_functions(cfg, state)
    delta = cfg.detuning
    pre = 2.0 * cfg.hbar * cfg.g * (cfg.omega_a + delta) / (4.0 * cfg.g**2 + delta**2)
    return pre * (-aux.b - aux.amplitude * math.sin(aux.tau_tilde - aux.theta))


def delta_e_s_envelopes(cfg: ModelConfig, state: SystemStateParams) -> tuple[float, float]:
    """(lower, upper) envelope of `delta_e_s`, dropping the oscillating term."""
    aux = auxiliary_functions(cfg, state)
    delta = cfg.detuning
    pre = 2.0 * cfg.hbar * cfg.g * (cfg.omega_a + delta) / (4.0 * cfg.g**2 + delta**2)
    branch_1 = pre * (-aux.b - aux.amplitude)
    branch_2 = pre * (-aux.b + aux.amplitude)
    return min(branch_1, branch_2), max(branch_1, branch_2)


def delta_e_sa(cfg: ModelConfig, state: SystemStateParams) -> float:
    """Average non-energy-preserving work over one collision."""
    aux = auxiliary_functions(cfg, state)
    delta = cfg.detuning
    pre = -4.0 * cfg.hbar * cfg.g * delta / (4.0 * cfg.g**2 + delta**2)
    half = 0.5 * aux.tau_tilde
    return pre * aux.amplitude * math.sin(half) * math.cos(half - aux.theta)


def delta_e_sa_limit(cfg: ModelConfig, state: SystemStateParams) -> float:
    """Extreme out-of-resonance form of `delta_e_sa`; valid for |detuning| >> g
    with either sign."""
    half = 0.5 * cfg.detuning * cfg.tau
    return (
        4.0
        * cfg.hbar
        * cfg.g
        * cfg.lambda_eff
        * state.r
        * math.sin(half)
        * math.sin(half - state.phi_c)
    )


@dataclass(frozen=True)
class ResonantWorkHeatStats:
    w_mean: float
    w_variance: complex
    q_mean: float
    q_variance: float


def resonant_w_q_stats(cfg: ModelConfig, state: SystemStateParams) -> ResonantWorkHeatStats:
    """Mean and variance of coherent work and incoherent heat at resonance.

    The work moments carry the quasiprobability prefactor; the heat moments
    are coherence-independent.
    """
    w_up, w_dn, phi, _, _ = _resonant_pieces(cfg, state)
    pref = cfg.kdq_coherence_prefactor
    j1 = pref * state.r * math.cos(state.phi_c)
    j2 = pref * state.r * math.sin(state.phi_c)
    e = cfg.hbar * cfg.omega_a
    s2 = math.sin(2.0 * phi)
    sin_sq = math.sin(phi) ** 2
    w_mean = -e * j2 * s2
    w_variance = -(e**2) * s2 * (j2**2 * s2 + 1j * j1)
    q_mean = e * sin_sq * (w_up - state.rho11)
    q_second = e**2 * sin_sq * (w_up + state.rho11 * (w_dn - w_up))
    return ResonantWorkHeatStats(w_mean, w_variance, q_mean, q_second - q_mean**2)


def resonant_energy_stats(cfg: ModelConfig, state: SystemStateParams) -> tuple[float, complex]:
    """(mean, variance) of the system internal-energy change at resonance.

    The variance keeps its imaginary part -i (hbar*omega)^2 j1 sin(2 phi);
    truncating it would hide the non-classical signature.
    """
    w_up, w_dn, phi, j1, j2 = _resonant_pieces(cfg, state)
    e = cfg.hbar * cfg.omega_a
    s2 = math.sin(2.0 * phi)
    sin_sq = math.sin(phi) ** 2
    mean = -e * (state.rho11 - w_up) * sin_sq - e * j2 * s2
    second = e**2 * sin_sq * (w_up + state.rho11 * (w_dn - w_up))
    variance = second - 1j * e**2 * j1 * s2 - mean**2
    return mean, variance


def resonant_nonpositivity(cfg: ModelConfig, state: SystemStateParams) -> tuple[float, float]:
    """(n_re, n_im) witnesses of the resonant internal-energy distribution.

    n_re depends on the coherence only through j2 = lambda*Im[rho12] and
    n_im only through j1 = lambda*Re[rho12].
    """
    w_up, w_dn, phi, j1, j2 = _resonant_pieces(cfg, state)
    s1 = math.sin(phi)
    s2 = math.sin(2.0 * phi)
    c2 = math.cos(2.0 * phi)
    n_re = -1.0
    # (k, rho_k, e^(k x)/Z_A, e^(-k x)/Z_A)
    branches = ((1.0, state.rho11, w_dn, w_up), (-1.0, 1.0 - state.rho11, w_up, w_dn))
    for k, rho_k, w_k, w_other in branches:
        n_re += abs(s1) * abs(rho_k * w_k * s1 + k * j2 * math.cos(phi))
        n_re += abs(0.5 * rho_k * (1.0 + w_other + w_k * c2) - 0.5 * k * j2 * s2)
    n_im = 2.0 * abs(j1 * s2)
    return n_re, n_im
