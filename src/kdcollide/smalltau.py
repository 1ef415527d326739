"""Small collision-time machinery of the weakly coherent model.

Covers the coherent drive correction G, the per-collision coherent work and
incoherent heat from the second-order collision expansion, the reduced
master equation with its thermal dissipator, and the operator approach that
reconstructs coherent-work statistics from a single system observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kdq import measurement_unitary
from .linalg import commutator, dag, eig_hermitian, partial_trace, tensor
from .model import IDENTITY_2, ModelConfig


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


def _require_weak(cfg: ModelConfig) -> None:
    if not cfg.is_weak:
        raise ValueError("this operation requires the weakly coherent mode")


def coherent_correction_G(cfg: ModelConfig, chi_a: np.ndarray | None = None) -> np.ndarray:
    """Drive correction G = Tr_A[H_int (I (x) chi_A)] on the system qubit."""
    if chi_a is None:
        return cfg.operators.g
    return partial_trace(cfg.operators.h_int @ tensor(IDENTITY_2, chi_a), keep="S")


def coherent_work_bch(rho_s: np.ndarray, cfg: ModelConfig) -> float:
    """Per-collision coherent work of the second-order collision map.

    Evaluates both the system-side expression (i/hbar)*lt*tau*Tr[[G,H_S] rho_S]
    and the ancilla-side one -(i/hbar)*sqrt(tau)*Tr[[G_A,H_A] rho_A] and
    checks that they agree; at resonance they are the same number.
    """
    _require_weak(cfg)
    if not cfg.is_resonant:
        raise ValueError(f"resonant interaction required (detuning {cfg.detuning:.6g})")
    ops = cfg.operators
    g_corr = coherent_correction_G(cfg)
    system_side = (
        (1j / cfg.hbar)
        * cfg.lam_tilde
        * cfg.tau
        * np.trace((g_corr @ ops.h_s - ops.h_s @ g_corr) @ rho_s)
    )
    g_a = partial_trace(ops.h_int @ tensor(rho_s, IDENTITY_2), keep="A")
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
    h_int = cfg.operators.h_int
    return commutator(h_int, commutator(h_int, tensor(rho_s, cfg.operators.rho_a_th)))


def dissipator(rho_s: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Thermal dissipator D[rho] = -(1/2 hbar^2) Tr_A[H_int,[H_int, rho (x) rho_A_th]]."""
    return -partial_trace(_thermal_double_commutator(rho_s, cfg), keep="S") / (2.0 * cfg.hbar**2)


def master_equation_rhs(rho_s: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Reduced generator -(i/hbar)[H_S + lt*G, rho] + D[rho]."""
    _require_weak(cfg)
    drive = cfg.operators.h_s + cfg.lam_tilde * cfg.operators.g
    rho_s = np.asarray(rho_s, dtype=complex)
    return (-1j / cfg.hbar) * commutator(drive, rho_s) + dissipator(rho_s, cfg)


def integrate_master_equation(
    rho_s0: np.ndarray,
    cfg: ModelConfig,
    t_final: float,
    dt: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Fixed-step 4th-order integration of the master equation.

    Returns (times, states) on the uniform grid k*dt up to t_final.  The
    default step is tau/20; steps longer than one collision are rejected.
    """
    _require_weak(cfg)
    if dt is None:
        dt = cfg.tau / 20.0
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > cfg.tau:
        raise ValueError(f"dt = {dt:.6g} exceeds the collision time tau = {cfg.tau:.6g}")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    steps = int(round(t_final / dt))
    rho = np.asarray(rho_s0, dtype=complex)
    states = [rho]
    for _ in range(steps):
        k1 = master_equation_rhs(rho, cfg)
        k2 = master_equation_rhs(rho + 0.5 * dt * k1, cfg)
        k3 = master_equation_rhs(rho + 0.5 * dt * k2, cfg)
        k4 = master_equation_rhs(rho + dt * k3, cfg)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho)
    return dt * np.arange(steps + 1), states


def work_observables(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """System observables (O1, O2) whose expectation gap is the coherent work.

    O1 is identically zero because chi_A is traceless in the H_A eigenbasis;
    the sign convention makes Tr[O2 rho_S] coincide with the mean of the
    coherent-work KDQ distribution.
    """
    if not cfg.is_resonant:
        raise ValueError(f"resonant interaction required (detuning {cfg.detuning:.6g})")
    u = measurement_unitary(cfg)
    ha_full = tensor(IDENTITY_2, cfg.operators.h_a)
    chi_full = tensor(IDENTITY_2, cfg.operators.chi_a)
    prefactor = cfg.kdq_coherence_prefactor
    o1 = -prefactor * partial_trace(ha_full @ chi_full, keep="S")
    o2 = -prefactor * partial_trace(dag(u) @ ha_full @ u @ chi_full, keep="S")
    return o1, o2


def operator_approach(rho_s: np.ndarray, cfg: ModelConfig) -> OperatorWorkSpectrum:
    """Coherent-work statistics from the spectrum of the observable O2.

    The eigenvalues of O2 are the stochastic work values; their genuine
    probabilities are the eigenprojector populations of rho_S.  Unlike the
    KDQ route, here the probabilities are fixed by the state and the values
    move with the collision time.
    """
    o1, o2 = work_observables(cfg)
    scale = max(1.0, cfg.hbar * abs(cfg.omega_s))
    if float(np.linalg.norm(o1)) > 1e-12 * scale:
        raise RuntimeError("O1 is not null; chi_A must be hollow in the H_A eigenbasis")
    dec = eig_hermitian(o2)
    probs = [float(np.trace(p @ rho_s).real) for p in dec.projectors]
    return OperatorWorkSpectrum(tuple(dec.eigenvalues), tuple(probs))
