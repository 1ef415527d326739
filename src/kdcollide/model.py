"""Qubit-qubit model: Hamiltonians, ancilla and system states, parameter arrays,
closed-form propagators, and one builder of the operators of a stack of configs.

Basis convention: |0> = (1, 0)^T with sigma_z |0> = +|0>, so the level with
index 0 has energy +hbar*omega/2.  The ancilla coherence operator chi_A is
sigma_x.

A grid of configs or states is evaluated as parameter arrays
(`_ConfigArrays`, `_StateArrays`): each field a length-M array, whose checks
are masks over the rows.  `ModelConfig` and `SystemStateParams` are their
one-row case: the checks, derived quantities and operator builder are
written once, over either one object's floats or the arrays, so each check
exists once.
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .linalg import tensor

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |0><1|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
# The excitation swap s+ s- + s- s+ on the joint space; read-only, because every coupling shares it.
SWAP = tensor(SIGMA_PLUS, SIGMA_MINUS) + tensor(SIGMA_MINUS, SIGMA_PLUS)
SWAP.setflags(write=False)

MODE_EXACT = "exact"
MODE_WEAK = "weakly_coherent"

# Slack for closed constraints that figure presets saturate exactly
# (lambda = lambda_max, r = r_max).
_BOUNDARY_SLACK = 1e-12


def partition_function(beta: float, omega: float, hbar: float = 1.0) -> float:
    """Z = exp(-beta*hbar*omega/2) + exp(+beta*hbar*omega/2); inf once it overflows."""
    x = 0.5 * beta * hbar * omega
    return 2.0 * math.cosh(x) if abs(x) < 710.0 else math.inf


def _elementwise(f: Callable[..., float], *args: np.ndarray) -> np.ndarray:
    """``f`` of scalars applied element by element to equal-length arrays."""
    return np.fromiter(map(f, *(a.tolist() for a in args)), float, len(args[0]))


# Every message with which a config or state parameter is rejected, by check.
_MESSAGES = {
    "finite": "{name} must be finite, got {value!r}",
    "mode": "unknown mode {value!r}",
    "g": "coupling g must be positive",
    "hbar": "hbar must be positive",
    # A level energy hbar*omega/2 below the smallest normal float loses its
    # digits or underflows to 0, merging the qubit's two levels.
    "small": "{name} = {value!r} is too small: hbar*{name}/2 is below the smallest normal float",
    "large": "{name} = {value!r} is too large: hbar*{name} overflows",
    # The coupling energy hbar*g fills H_int and the drive correction, and the
    # closed forms scale it by 4.
    "coupling": "g = {value!r} is too large: 4*hbar*g overflows",
    # The variances square level differences of up to 2*hbar*|omega|.
    "square": "hbar*{name} = {value!r} is too large: (2*hbar*{name})^2 overflows",
    "beta": "inverse temperature beta must be non-negative",
    "weak_tau": "weakly coherent mode requires tau > 0",
    "tau": "collision time tau must be non-negative",
    # The propagators and the closed forms take cos, sin and exp of the
    # collision phases; an infinite (or NaN) one has no value there.
    "phase": "collision phase {name} = {value!r} is not finite at tau = {tau!r}",
    "lambda": "ancilla coherence {value:.6g} exceeds the positivity bound 1/Z_A = {bound:.6g}",
    "rho11": "rho11 must lie in [0, 1]",
    "r": "coherence modulus r must be non-negative",
    "positivity": "r={value:.6g} violates positivity: r^2 must not exceed rho11*(1-rho11) = {bound:.6g}",
}


def _first_failures(checks: list[tuple[np.ndarray, str, dict]]) -> dict[int, str]:
    """Row -> the message of its first failing check, for the failing rows in row order.

    ``checks`` are (mask, `_MESSAGES` key, format arguments) in check order;
    an argument that is an array is read at the row.
    """
    masks = np.array([mask for mask, _, _ in checks])
    failing = np.flatnonzero(masks.any(axis=0)).tolist()
    first = masks.argmax(axis=0)
    errors = {}
    for row in failing:
        _, key, args = checks[first[row]]
        values = {name: v[row].item() if isinstance(v, np.ndarray) else v for name, v in args.items()}
        errors[row] = _MESSAGES[key].format(**values)
    return errors


def _raise_first_failure(checks) -> None:
    """Raise ValueError with the message of the first failing check of one config's or state's floats."""
    for failed, key, args in checks:
        if failed:
            raise ValueError(_MESSAGES[key].format(**args))


# The functions behind the checks, derived quantities and operators, written
# once over either backend: `math` on one config's or state's floats, where
# NumPy's call overhead would make building one `ModelConfig` several times
# slower, and NumPy on parameter arrays.  NumPy's sqrt, sin and cos give
# `math`'s bits; its exp, cosh and hypot differ in the last ulp on a few
# percent of arguments, so the arrays take those from `math` element by element.
# Under ``overflow_to_inf`` an overflowing array product is inf without a
# NumPy warning, as a float product is.
_SCALAR = SimpleNamespace(
    isfinite=math.isfinite, logical_not=operator.not_, sqrt=math.sqrt, sin=math.sin, cos=math.cos, exp=math.exp,
    hypot=math.hypot, maximum=max, where=lambda condition, a, b: a if condition else b, any=bool,
    shape=lambda x: (), partition_function=partition_function, overflow_to_inf=contextlib.nullcontext,
)
_ARRAY = SimpleNamespace(
    isfinite=np.isfinite, logical_not=np.logical_not, sqrt=np.sqrt, sin=np.sin, cos=np.cos,
    exp=lambda x: _elementwise(math.exp, x), hypot=lambda x, y: _elementwise(math.hypot, x, y), maximum=np.maximum,
    where=np.where, any=np.any, shape=np.shape,
    partition_function=lambda *args: _elementwise(partition_function, *args),
    overflow_to_inf=lambda: np.errstate(over="ignore"),
)


class _ConfigQuantities:
    """The checks and derived quantities of one config (`ModelConfig`, floats, ``_xp`` = `_SCALAR`)
    or of M configs (`_ConfigArrays`, length-M arrays, ``_xp`` = `_ARRAY`), written once."""

    _xp = _SCALAR

    @property
    def detuning(self):
        return self.omega_s - self.omega_a

    @property
    def is_resonant(self):
        """|detuning| <= 1e-12 * max(|omega_s|, |omega_a|); the package's one resonance test, free of units."""
        scale = self._xp.maximum(abs(self.omega_s), abs(self.omega_a))
        return abs(self.detuning) <= 1e-12 * scale

    @property
    def is_weak(self):
        return self.mode == MODE_WEAK

    @cached_property
    def z_a(self):
        """The ancilla's partition function; computed once, as no field is written after construction."""
        return self._xp.partition_function(self.beta, self.omega_a, self.hbar)

    @property
    def lambda_max(self):
        """Largest coherence magnitude keeping the ancilla state PSD."""
        return 1.0 / self.z_a

    @property
    def lambda_eff(self):
        """Coherence magnitude actually entering the ancilla state."""
        # Exact rows take sqrt(0): their tau is unbounded, and lam_tilde*sqrt(tau) could overflow.
        xp = self._xp
        return xp.where(self.is_weak, self.lam_tilde * xp.sqrt(xp.where(self.is_weak, self.tau, 0.0)), self.lam)

    @property
    def kdq_coherence_prefactor(self):
        """Prefactor of the coherent-work quasiprobabilities (lam or lam_tilde)."""
        return self._xp.where(self.is_weak, self.lam_tilde, self.lam)

    def _checks(self):
        """(failed, `_MESSAGES` key, format arguments) of each check of `ModelConfig`, in order.

        Lazy, so that one config's checks stop at the first failure: a later
        check may assume that the earlier ones passed.
        """
        xp = self._xp
        for name in _ConfigArrays.FIELDS:
            value = getattr(self, name)
            yield xp.logical_not(xp.isfinite(value)), "finite", {"name": name, "value": value}
        weak, tau = self.is_weak, self.tau
        yield (self.mode != MODE_EXACT) & xp.logical_not(weak), "mode", {"value": self.mode}
        yield self.g <= 0.0, "g", {}
        yield self.hbar <= 0.0, "hbar", {}
        for name in ("omega_s", "omega_a"):
            omega = getattr(self, name)
            args = {"name": name, "value": omega}
            yield (omega != 0.0) & (abs(0.5 * self.hbar * omega) < sys.float_info.min), "small", args
            yield xp.logical_not(xp.isfinite(self.hbar * omega)), "large", args
        yield xp.logical_not(xp.isfinite(4.0 * self.hbar * self.g)), "coupling", {"value": self.g}
        yield self.beta < 0.0, "beta", {}
        yield weak & (tau <= 0.0), "weak_tau", {}
        yield xp.logical_not(weak) & (tau < 0.0), "tau", {}
        delta = self.detuning
        phases = {
            "(omega_s + omega_a)*tau/2": 0.5 * (self.omega_s + self.omega_a) * tau,
            "tau*sqrt(4*g^2 + delta^2)": tau * xp.sqrt(4.0 * self.g * self.g + delta * delta),
        }
        for name, phase in phases.items():
            yield xp.logical_not(xp.isfinite(phase)), "phase", {"name": name, "value": phase, "tau": tau}
        # The weak propagator's phase; an exact config's tau may be 0, so it divides by 1 there.
        phase = tau * xp.hypot(0.5 * delta, self.g / xp.sqrt(xp.where(weak, tau, 1.0)))
        args = {"name": "tau*hypot(delta/2, g/sqrt(tau))", "value": phase, "tau": tau}
        yield weak & xp.logical_not(xp.isfinite(phase)), "phase", args
        for name in ("omega_s", "omega_a"):
            energy = self.hbar * getattr(self, name)
            square = (2.0 * energy) * (2.0 * energy)
            yield xp.logical_not(xp.isfinite(square)), "square", {"name": name, "value": energy}
        lam, bound = self.lambda_eff, self.lambda_max
        yield abs(lam) > bound + _BOUNDARY_SLACK, "lambda", {"value": lam, "bound": bound}


class _StateQuantities:
    """The checks of one system state (`SystemStateParams`) or of M states (`_StateArrays`), written once."""

    _xp = _SCALAR

    def _checks(self):
        """(failed, `_MESSAGES` key, format arguments) of each check of `SystemStateParams`, in order; lazy."""
        xp = self._xp
        for name in _StateArrays.FIELDS:
            value = getattr(self, name)
            yield xp.logical_not(xp.isfinite(value)), "finite", {"name": name, "value": value}
        yield xp.logical_not((0.0 <= self.rho11) & (self.rho11 <= 1.0)), "rho11", {}
        yield self.r < 0.0, "r", {}
        # r*r, not r**2: a float's power raises OverflowError past r ~ 1.3e154.
        bound = self.rho11 * (1.0 - self.rho11)
        yield self.r * self.r > bound + _BOUNDARY_SLACK, "positivity", {"value": self.r, "bound": bound}


class _Arrays:
    """M parameter sets, each float field a length-M array: a row of ``values``, read-only.

    ``LABELS`` name the non-float columns, each broadcast to the row count,
    which `of` reads off the objects, `take` indexes and `replace` keeps.
    """

    FIELDS: tuple[str, ...] = ()
    LABELS: tuple[str, ...] = ()
    _xp = _ARRAY

    def __init__(self, values: np.ndarray, **labels) -> None:
        values.setflags(write=False)
        self.values = values
        for name, row in zip(self.FIELDS, values):
            setattr(self, name, row)
        for name in self.LABELS:
            setattr(self, name, np.broadcast_to(labels[name], values.shape[1:]))

    def __len__(self) -> int:
        return self.values.shape[1]

    @property
    def _arrays(self):
        """These arrays: every parameter set, one object or many, answers ``_arrays`` with its arrays."""
        return self

    @classmethod
    def of(cls, objects: Sequence):
        """The parameter arrays of one-object parameter sets, one row each."""
        values = np.array([[getattr(o, name) for name in cls.FIELDS] for o in objects], dtype=float).T
        return cls(values, **{name: np.array([getattr(o, name) for o in objects]) for name in cls.LABELS})

    def take(self, rows):
        return type(self)(self.values[:, rows], **{name: getattr(self, name)[rows] for name in self.LABELS})

    def replace(self, **changes):
        """These rows with the given fields replaced, each broadcast to one length by `build`; unchecked."""
        return self.build(**{**{name: getattr(self, name) for name in self.FIELDS + self.LABELS}, **changes})

    @classmethod
    def build(cls, **fields):
        """Arrays of every field, each broadcast to one length; unchecked."""
        columns = np.broadcast_arrays(*(np.atleast_1d(np.asarray(fields.pop(name), float)) for name in cls.FIELDS))
        return cls(np.array(columns), **fields)

    def errors(self) -> dict[int, str]:
        """Row -> the message with which the one-object type rejects it, for the rejected rows in row order."""
        with np.errstate(all="ignore"):
            return _first_failures(list(self._checks()))

    def checked(self):
        """These rows; raises the first rejected row's ValueError."""
        if errors := self.errors():
            raise ValueError(next(iter(errors.values())))
        return self


class _ConfigArrays(_Arrays, _ConfigQuantities):
    """M model configs: each `ModelConfig` field a length-M array (``mode`` of strings).

    Built unchecked: `errors` gives the rows that `ModelConfig` rejects, with
    its message.  The checks and derived quantities are those of
    `ModelConfig`, per row.
    """

    FIELDS = ("omega_s", "omega_a", "g", "tau", "beta", "lam", "lam_tilde", "hbar")
    LABELS = ("mode",)


class _StateArrays(_Arrays, _StateQuantities):
    """M system states: each `SystemStateParams` field a length-M array.

    Built unchecked: `errors` gives the rows that `SystemStateParams` rejects,
    with its message.
    """

    FIELDS = ("rho11", "r", "phi_c")


@dataclass(frozen=True)
class ModelConfig(_ConfigQuantities):
    """Physical parameters of a single collision.

    ``lam`` is the ancilla coherence magnitude used in exact mode; in the
    weakly coherent mode the coherence is ``lam_tilde * sqrt(tau)`` with
    ``lam_tilde`` carrying units of time**-1/2.  Its checks and derived
    quantities are those of `_ConfigArrays` (`_ConfigQuantities`), on floats.
    """

    omega_s: float
    omega_a: float
    g: float
    tau: float
    beta: float
    lam: float = 0.0
    lam_tilde: float = 0.0
    hbar: float = 1.0
    mode: str = MODE_EXACT

    def __post_init__(self) -> None:
        _raise_first_failure(self._checks())

    @cached_property
    def _arrays(self) -> _ConfigArrays:
        """This config as `_ConfigArrays` with M = 1; equality, hash and `replace` ignore it."""
        return _ConfigArrays.of([self])

    @cached_property
    def operators(self) -> Operators:
        """This config's `Operators`: the `_stack` of this one config without its config axis, read-only.

        Built on first use; equality, hash and `replace` ignore it.
        """
        ops = _stack(self)
        for a in ops:
            a.setflags(write=False)
        return ops


@dataclass(frozen=True)
class SystemStateParams(_StateQuantities):
    """Parametrization of the system qubit state.

    ``rho11`` is the population of |0>, ``r * exp(i*phi_c)`` the upper-right
    coherence.  Its checks are those of `_StateArrays` (`_StateQuantities`), on floats.
    """

    rho11: float
    r: float = 0.0
    phi_c: float = 0.0

    def __post_init__(self) -> None:
        _raise_first_failure(self._checks())

    @cached_property
    def _arrays(self) -> _StateArrays:
        """This state as `_StateArrays` with M = 1; equality, hash and `replace` ignore it."""
        return _StateArrays.of([self])


def build_system_state(params: SystemStateParams | _StateArrays) -> np.ndarray:
    """2x2 density matrix from the population/coherence parametrization, rho12 = r exp(i phi_c),
    or the (M, 2, 2) stack of the density matrices of M states given as `_StateArrays`."""
    xp = params._xp
    re, im = params.r * xp.cos(params.phi_c), params.r * xp.sin(params.phi_c)
    rho = np.zeros(xp.shape(re) + (2, 2), dtype=complex)
    rho[..., 0, 0], rho[..., 1, 1] = params.rho11, 1.0 - params.rho11
    rho[..., 0, 1].real, rho[..., 0, 1].imag = re, im
    rho[..., 1, 0].real, rho[..., 1, 0].imag = re, -im
    return rho


def build_hamiltonians(
    cfg: ModelConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return (H_S, H_A, H_int, H_SA).

    H_S and H_A are local 2x2 operators; H_int and H_SA act on the 4-dim
    joint space.  The excitation-swapping coupling is hbar*g*(s+ s- + s- s+):
    this normalization makes g*tau the pulse area of the resonant collision,
    which is the convention all closed-form results in `analytic` assume.
    In the weakly coherent mode the interaction enters H_SA scaled by
    1/sqrt(tau).
    """
    h_s = 0.5 * cfg.hbar * cfg.omega_s * SIGMA_Z
    h_a = 0.5 * cfg.hbar * cfg.omega_a * SIGMA_Z
    h_int = cfg.hbar * cfg.g * SWAP
    scale = 1.0 / math.sqrt(cfg.tau) if cfg.is_weak else 1.0
    h_sa = tensor(h_s, IDENTITY_2) + tensor(IDENTITY_2, h_a) + scale * h_int
    return h_s, h_a, h_int, h_sa


def build_ancilla(cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (rho_a, rho_a_th, chi_a) for the environment qubit.

    rho_a = rho_a_th + lambda_eff * chi_a with chi_a = sigma_x; `ModelConfig`
    has already rejected a coherence magnitude beyond 1/Z_A.
    """
    chi_a = SIGMA_X.copy()  # callers may freeze it; the module's SIGMA_X stays writable
    rho_a_th = np.diag(_thermal_populations(cfg)).astype(complex)
    rho_a = rho_a_th + cfg.lambda_eff * chi_a
    return rho_a, rho_a_th, chi_a


def _thermal_populations(cfgs: ModelConfig | _ConfigArrays):
    """Populations (e^-x, e^x)/Z_A of the thermal ancilla of each config, x = beta*hbar*omega_a/2
    (inf once it overflows), as logistic functions of 2x, which cannot overflow."""
    xp = cfgs._xp
    with xp.overflow_to_inf():
        x = 0.5 * cfgs.beta * cfgs.hbar * cfgs.omega_a
    t = xp.exp(-2.0 * abs(x))
    low, high = t / (1.0 + t), 1.0 / (1.0 + t)
    return xp.where(x >= 0.0, low, high), xp.where(x >= 0.0, high, low)


# Rows per part of `_operator_stacks`: bounds the kernel's per-row arrays,
# and so the peak memory of long sweeps.
_PART_ROWS = 4096


class Operators(NamedTuple):
    """The operators of one config (`ModelConfig.operators`) or of a stack of configs (`_operator_stacks`).

    A stack's arrays carry a leading config axis, which the kernel aligns
    with a state stack's rows directly or through each row's slot on it;
    one config's own arrays have none and are read-only, because every
    caller shares them.  ``u`` is the collision propagator exp(-i H_SA tau /
    hbar) (`collision_unitary`), ``u_bare`` the unscaled `measurement_unitary`
    (equal to ``u`` in exact mode), ``rho_a`` = ``rho_a_th`` + lambda_eff
    chi_A the ancilla state, ``prefactor`` the coherence prefactor (shape
    (1, 1) per config), ``h_s``/``h_a`` the local Hamiltonians, ``levels_*``
    the local levels in descending order and ``index_*`` the level of each
    local basis state (the `linalg.group_levels` of diag(H_S), diag(H_A)).
    chi_A is `SIGMA_X` for every config; `smalltau`, the one reader of the
    coupling hbar*g*`SWAP` and of hbar*g*chi_A, forms them itself.
    """

    u: np.ndarray
    u_bare: np.ndarray
    rho_a: np.ndarray
    rho_a_th: np.ndarray
    prefactor: np.ndarray
    h_s: np.ndarray
    h_a: np.ndarray
    levels_s: np.ndarray
    index_s: np.ndarray
    levels_a: np.ndarray
    index_a: np.ndarray


# Where `_swap_propagators` writes each of its parts in the float view of a flat 4x4 complex matrix.
_SWAP_PARTS = np.array([2 * (4 * i + j) + part for i, j, part in [
    (0, 0, 0), (0, 0, 1), (3, 3, 0), (3, 3, 1), (1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 1), (1, 2, 1), (2, 1, 1),
]])


def _swap_propagators(cfgs: ModelConfig | _ConfigArrays, coupling) -> np.ndarray:
    """exp(-i H tau / hbar) of each config, H = H_S (x) I + I (x) H_A + hbar*coupling*(s+ s- + s- s+).

    4x4 for one config, (M, 4, 4) for M.  The swap coupling conserves
    excitations: |00> and |11> pick up a phase and its conjugate, and
    {|01>, |10>} rotates under delta/2 sigma_z + coupling sigma_x at
    Omega = sqrt(delta^2/4 + coupling^2) > 0, giving the block
    [[diag, off], [off, conj(diag)]].  hbar cancels.
    """
    xp = cfgs._xp
    half_delta, tau = 0.5 * cfgs.detuning, cfgs.tau
    omega = xp.hypot(half_delta, coupling)
    # sin(Omega tau)/Omega -> tau where Omega = 0: at resonance, once a weak coupling g/sqrt(tau) underflows.
    rotates = omega > 0.0
    sin_by_omega = xp.where(rotates, xp.sin(omega * tau) / xp.where(rotates, omega, 1.0), tau)
    diag_im, off_im = -sin_by_omega * half_delta, -sin_by_omega * coupling
    angle = -0.5 * (cfgs.omega_s + cfgs.omega_a) * tau
    phase_re, phase_im, diag_re = xp.cos(angle), xp.sin(angle), xp.cos(omega * tau)
    shape = xp.shape(tau)
    u = np.zeros(shape + (32,))
    parts = [phase_re, phase_im, phase_re, -phase_im, diag_re, diag_im, diag_re, -diag_im, off_im, off_im]
    u[..., _SWAP_PARTS] = np.array(parts).T
    return u.view(complex).reshape(shape + (4, 4))


_SIGNS = np.array([1.0, -1.0])
_LEVEL_ORDERS = np.array([[0, 1], [1, 0]])


def _local_levels(x, xp) -> tuple[np.ndarray, np.ndarray]:
    """`linalg.group_levels` of each qubit's level energies (x, -x), x = hbar*omega/2, in closed form.

    ``x`` is one value or an array that is all zeros (one merged level) or
    has none: `ModelConfig` keeps 2|x| finite, so the two levels merge only
    at x = 0.
    """
    if xp.any(x == 0.0):
        return np.zeros(xp.shape(x) + (1,)), np.zeros(xp.shape(x) + (2,), dtype=int)
    return np.multiply.outer(abs(x), _SIGNS), _LEVEL_ORDERS[xp.where(x < 0.0, 1, 0)]


def _matrices(x) -> np.ndarray:
    """One value or an array of them, broadcastable against 2x2 or 4x4 matrices."""
    return np.asarray(x)[..., None, None]


def _stack(cfgs: ModelConfig | _ConfigArrays) -> Operators:
    """The operators of one config, or of M configs with one local level count each on a leading axis.

    The one operator builder: `ModelConfig.operators` is its one-config
    case, computed with `math` on the config's floats.  Filled with the
    arithmetic of `build_hamiltonians` and `build_ancilla`, which it does
    not call.
    """
    xp, weak = cfgs._xp, cfgs.is_weak
    u = u_bare = _swap_propagators(cfgs, cfgs.g)
    if xp.any(weak):
        scaled = _swap_propagators(cfgs, cfgs.g / xp.sqrt(xp.where(weak, cfgs.tau, 1.0)))
        u = np.where(_matrices(weak), scaled, u_bare)
    shape = xp.shape(cfgs.tau)
    rho_a_th = np.zeros(shape + (4,), dtype=complex)
    rho_a_th[..., 0], rho_a_th[..., 3] = _thermal_populations(cfgs)
    rho_a_th = rho_a_th.reshape(shape + (2, 2))
    x_s, x_a = 0.5 * cfgs.hbar * cfgs.omega_s, 0.5 * cfgs.hbar * cfgs.omega_a
    return Operators(
        u, u_bare, rho_a_th + _matrices(cfgs.lambda_eff) * SIGMA_X, rho_a_th, _matrices(cfgs.kdq_coherence_prefactor),
        _matrices(x_s) * SIGMA_Z, _matrices(x_a) * SIGMA_Z, *_local_levels(x_s, xp), *_local_levels(x_a, xp),
    )


def _operator_stacks(
    cfgs: ModelConfig | _ConfigArrays, which: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, Operators]]:
    """The kernel's operators for a state stack whose row k is under config ``which[k]`` of ``cfgs``.

    ``which`` defaults to row k under config k.  Yields ``(rows, slot,
    operators)`` parts in order of first row, each a block of at most
    `_PART_ROWS` rows: the `_stack` of the block's distinct configs, each
    once on the config axis, and ``slot[j]`` the config of row ``rows[j]``
    on that axis (``arange(len(rows))`` for the default ``which``).  A stack
    needs one level structure, and a zero frequency merges a qubit's two
    levels, so the rows are split by which frequencies are zero before they
    are cut into blocks.  The blocks are cut and ordered first, and each
    part's operators are built when the caller reaches it, so a caller that
    uses one part at a time holds one part's operators.  One `ModelConfig`
    is one part, rows = slot = ``[0]``: its cached operators on a config
    axis of length 1.
    """
    if isinstance(cfgs, ModelConfig):
        yield np.zeros(1, np.intp), np.zeros(1, np.intp), Operators(*(a[None] for a in cfgs.operators))
        return
    which = np.arange(len(cfgs)) if which is None else np.asarray(which)
    structure = ((cfgs.omega_s == 0.0) * 2 + (cfgs.omega_a == 0.0))[which]
    blocks = []
    # The distinct keys without `np.unique`, which imports `numpy.ma` (about 1 MB) to check for a mask.
    for key in dict.fromkeys(structure.tolist()):
        rows = np.flatnonzero(structure == key)
        blocks.extend(rows[start : start + _PART_ROWS] for start in range(0, len(rows), _PART_ROWS))
    for block in sorted(blocks, key=lambda block: block[0]):
        members, slot = np.unique(which[block], return_inverse=True)
        yield block, slot, _stack(cfgs.take(members))
