"""Small collision-time machinery of the weakly coherent model.

Covers the coherent drive correction G, the per-collision coherent work and
incoherent heat from the second-order collision expansion, the reduced
master equation with its thermal dissipator (one RK4 step matrix built from
one `master_equation_rhs` call, applied by the collision chains' repeated
squaring), and the operator approach, which reads coherent-work statistics
off the closed-form 2x2 spectrum of one system observable over a config stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _powers, commutator, dag, partial_trace, tensor
from .model import (
    IDENTITY_2, SIGMA_X, SWAP, ModelConfig, _ConfigArrays, _operator_stacks, _require_resonant, _require_weak,
)


@dataclass(frozen=True)
class OperatorWorkSpectrum:
    """Work values and genuine probabilities from the operator approach.

    ``values`` are sorted in descending order with ``probs`` aligned; probs
    are real, non-negative and sum to 1.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def mean(self) -> float:
        return float(sum(v * p for v, p in zip(self.values, self.probs)))

    def moment(self, k: int) -> float:
        return float(sum(v**k * p for v, p in zip(self.values, self.probs)))


def _coupling(cfg: ModelConfig) -> np.ndarray:
    """H_int = hbar*g*(s+ s- + s- s+), with the arithmetic of `model.build_hamiltonians`."""
    return (cfg.hbar * cfg.g) * SWAP


def coherent_correction_G(cfg: ModelConfig) -> np.ndarray:
    """Drive correction G = Tr_A[H_int (I (x) chi_A)] = hbar*g*chi_A on the system qubit."""
    return (cfg.hbar * cfg.g) * SIGMA_X


def coherent_work_bch(rho_s: np.ndarray, cfg: ModelConfig) -> float:
    """Per-collision coherent work of the second-order collision map.

    Evaluates both the system-side expression (i/hbar)*lt*tau*Tr[[G,H_S] rho_S]
    and the ancilla-side one -(i/hbar)*sqrt(tau)*Tr[[G_A,H_A] rho_A] and
    checks that they agree; at resonance they are the same number.
    """
    _require_weak(cfg)
    _require_resonant(cfg._arrays)
    ops = cfg.operators
    g_corr = coherent_correction_G(cfg)
    system_side = (
        (1j / cfg.hbar)
        * cfg.lam_tilde
        * cfg.tau
        * np.trace((g_corr @ ops.h_s - ops.h_s @ g_corr) @ rho_s)
    )
    g_a = partial_trace(_coupling(cfg) @ tensor(rho_s, IDENTITY_2), keep="A")
    ancilla_side = (
        (-1j / cfg.hbar)
        * math.sqrt(cfg.tau)
        * np.trace((g_a @ ops.h_a - ops.h_a @ g_a) @ ops.rho_a)
    )
    scale = max(abs(system_side), abs(ancilla_side), cfg.hbar * abs(cfg.omega_s) * cfg.tau)
    if abs(system_side - ancilla_side) > 1e-10 * scale:
        raise RuntimeError(
            f"coherent-work expressions disagree: {system_side} vs {ancilla_side}"
        )
    return float(system_side.real)


def incoherent_heat_bch(rho_s: np.ndarray, cfg: ModelConfig) -> float:
    """Per-collision incoherent heat Tr[H_A D_n[rho_A_th]] of the collision map."""
    _require_weak(cfg)
    nested = _thermal_double_commutator(rho_s, cfg)
    ancilla_dissipation = (cfg.tau / (2.0 * cfg.hbar**2)) * partial_trace(nested, keep="A")
    return float(np.trace(cfg.operators.h_a @ ancilla_dissipation).real)


def _thermal_double_commutator(rho_s: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """[H_int, [H_int, rho_S (x) rho_A_th]] on the joint space."""
    h_int = _coupling(cfg)
    return commutator(h_int, commutator(h_int, tensor(rho_s, cfg.operators.rho_a_th)))


def dissipator(rho_s: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Thermal dissipator D[rho] = -(1/2 hbar^2) Tr_A[H_int,[H_int, rho (x) rho_A_th]]."""
    return -partial_trace(_thermal_double_commutator(rho_s, cfg), keep="S") / (2.0 * cfg.hbar**2)


def master_equation_rhs(rho_s: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Reduced generator -(i/hbar)[H_S + lt*G, rho] + D[rho]."""
    _require_weak(cfg)
    drive = cfg.operators.h_s + cfg.lam_tilde * coherent_correction_G(cfg)
    rho_s = np.asarray(rho_s, dtype=complex)
    return (-1j / cfg.hbar) * commutator(drive, rho_s) + dissipator(rho_s, cfg)


def integrate_master_equation(
    rho_s0: np.ndarray,
    cfg: ModelConfig,
    t_final: float,
    dt: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step 4th-order integration of the master equation.

    Returns (times, states) on the uniform grid k*dt up to t_final, the states
    as one (steps + 1, 2, 2) array.  The default step is tau/20; steps longer
    than one collision are rejected.  The generator is linear and fixed, so it
    is built once as the 4x4 matrix L on ``rho.ravel()`` from one
    `master_equation_rhs` call on the basis matrices, and the states are
    P^k rho_s0 for the RK4 step P = I + hL(I + hL/2(I + hL/3(I + hL/4))),
    h = dt, applied by repeated squaring (`linalg._powers`).
    """
    _require_weak(cfg)
    if dt is None:
        dt = cfg.tau / 20.0
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > cfg.tau:
        raise ValueError(f"dt = {dt:.6g} exceeds the collision time tau = {cfg.tau:.6g}")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    if not math.isfinite(t_final / dt):
        raise ValueError(f"t_final / dt must be finite, got {t_final / dt!r}")
    steps = int(round(t_final / dt))
    # Rounding up may put the last grid point past t_final.
    if steps * dt - t_final > 1e-9 * dt:
        steps -= 1
    identity = np.eye(4)
    h_l = dt * master_equation_rhs(identity.reshape(4, 2, 2), cfg).reshape(4, 4).T
    step = identity + h_l @ (identity + (h_l / 2.0) @ (identity + (h_l / 3.0) @ (identity + h_l / 4.0)))
    states = _powers(step[None], np.asarray(rho_s0, dtype=complex)[None], steps)[0]
    return dt * np.arange(steps + 1), states


def _work_observables(cfgs: ModelConfig | _ConfigArrays) -> tuple[np.ndarray, np.ndarray]:
    """O1 and O2 of one config or M configs as (M, 2, 2) stacks, built in the parts of `model._operator_stacks`.

    Raises the ValueError of the first detuned config, and RuntimeError if any O1 is not null.
    """
    arrays = cfgs._arrays
    _require_resonant(arrays)
    o1, o2 = np.empty((2, len(arrays), 2, 2), dtype=complex)
    for rows, _, ops in _operator_stacks(cfgs):
        ha_full, chi_full = tensor(IDENTITY_2, ops.h_a), tensor(IDENTITY_2, SIGMA_X)
        o1[rows] = -ops.prefactor * partial_trace(ha_full @ chi_full, keep="S")
        o2[rows] = -ops.prefactor * partial_trace(dag(ops.u_bare) @ ha_full @ ops.u_bare @ chi_full, keep="S")
    scale = np.maximum(1.0, arrays.hbar * abs(arrays.omega_s))
    if np.any(np.linalg.norm(o1, axis=(-2, -1)) > 1e-12 * scale):
        raise RuntimeError("O1 is not null; chi_A must be hollow in the H_A eigenbasis")
    return o1, o2


def work_observables(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """System observables (O1, O2) whose expectation gap is the coherent work.

    O1 is identically zero because chi_A is traceless in the H_A eigenbasis;
    the sign convention makes Tr[O2 rho_S] coincide with the mean of the
    coherent-work KDQ distribution.  The one-config view of `_work_observables`.
    """
    o1, o2 = _work_observables(cfg)
    return o1[0], o2[0]


def _operator_spectra(rho_s: np.ndarray, cfgs: ModelConfig | _ConfigArrays) -> tuple[np.ndarray, ...]:
    """(w_hi, p_hi, w_lo, p_lo) of the operator approach: each state of ``rho_s`` under its config.

    The work values are the eigenvalues of O2 = [[a, b*], [b, d]] in closed
    form, w = (a + d)/2 +- hypot((a - d)/2, |b|), and p_hi = Tr[(O2 - w_lo)/
    (w_hi - w_lo) rho_S] is the population of the eigenprojector of w_hi.
    The threshold of `linalg.group_levels` is relative to the spread, so two
    levels merge exactly when w_hi == w_lo; a merged row lists its one level
    twice, with p_hi = Tr rho_S and p_lo = 0.
    """
    o2 = _work_observables(cfgs)[1]
    a, d, b = o2[..., 0, 0].real, o2[..., 1, 1].real, o2[..., 1, 0]
    mean, radius = 0.5 * (a + d), np.hypot(0.5 * (a - d), np.abs(b))
    w_hi, w_lo = mean + radius, mean - radius
    merged = w_hi == w_lo
    # The eigenprojector of w_hi is formed before it meets rho_S, so that a subnormal O2 keeps p_hi's digits,
    # and part by part, because complex division overflows for a subnormal gap.
    shifted, gap = o2 - w_lo[..., None, None] * IDENTITY_2, np.where(merged, 1.0, w_hi - w_lo)[..., None, None]
    projector = shifted.real / gap + 1j * (shifted.imag / gap)
    p_hi = np.where(merged, np.trace(rho_s, axis1=-2, axis2=-1), np.trace(projector @ rho_s, axis1=-2, axis2=-1)).real
    return w_hi, p_hi, np.where(merged, w_hi, w_lo), np.where(merged, 0.0, 1.0 - p_hi)


def operator_approach(rho_s: np.ndarray, cfg: ModelConfig) -> OperatorWorkSpectrum:
    """Coherent-work statistics from the spectrum of the observable O2.

    The eigenvalues of O2 are the stochastic work values; their genuine
    probabilities are the eigenprojector populations of rho_S.  Unlike the
    KDQ route, here the probabilities are fixed by the state and the values
    move with the collision time.  The one-config view of `_operator_spectra`.
    """
    w_hi, p_hi, w_lo, p_lo = (float(x[0]) for x in _operator_spectra(rho_s, cfg))
    if w_hi == w_lo:
        return OperatorWorkSpectrum((w_hi,), (p_hi,))
    return OperatorWorkSpectrum((w_hi, w_lo), (p_hi, p_lo))
