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
import functools
import math
import operator
import sys
import types
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
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


def _first_failures(checks) -> dict[int, str]:
    """Row -> the message of its first failing check, for the failing rows in row order.

    ``checks`` is a `_checks` generator over parameter arrays, of each
    check's failure mask in check order.  A mask that fails some row is
    answered True, and the generator yields that check's `_MESSAGES` key and
    format arguments, whose arrays are read at the row; the passing checks'
    arguments are never built.
    """
    masks, failed = [], {}
    for mask in checks:
        if mask.any():
            failed[len(masks)] = checks.send(True)
        masks.append(mask)
    if not failed:
        return {}
    masks = np.array(masks)
    rows = np.flatnonzero(masks.any(axis=0)).tolist()
    first = masks.argmax(axis=0)
    errors = {}
    for row in rows:
        key, args = failed[first[row]]
        values = {name: v[row].item() if isinstance(v, np.ndarray) else v for name, v in args.items()}
        errors[row] = _MESSAGES[key].format(**values)
    return errors


def _raise_first_failure(checks) -> None:
    """Raise ValueError with the message of the first failing check of a `_checks` generator over one config's
    or state's floats.  Answered True there, it yields that check's `_MESSAGES` key and format arguments, the
    only ones built, and no later check runs."""
    for failed in checks:
        if failed:
            key, args = checks.send(True)
            raise ValueError(_MESSAGES[key].format(**args))


def _require_weak(cfg: ModelConfig) -> None:
    """Raise ValueError unless ``cfg`` is in the weakly coherent mode: the precondition of every weak-mode operation."""
    if not cfg.is_weak:
        raise ValueError("this operation requires the weakly coherent mode")


def _require_resonant(cfgs: _ConfigArrays) -> None:
    """Raise ValueError naming the detuning of the first detuned config: the precondition of every resonant form."""
    if not cfgs.is_resonant.all():
        raise ValueError(f"resonant interaction required (detuning {cfgs.detuning[np.argmin(cfgs.is_resonant)]:.6g})")


class _cached_property:
    """`functools.cached_property` without the lock that it takes on first use before Python 3.12, which costs
    about 0.4 us of a one-config build: the first use stores its value in the instance's ``__dict__``, where
    every later use finds it."""

    def __init__(self, func: Callable) -> None:
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _at_rows(rows: np.ndarray, f: Callable, cfgs: _ConfigArrays) -> np.ndarray:
    """``f`` of the configs at the rows of a mask, evaluated on those rows only, and 0 at the others."""
    out = np.zeros(len(rows))
    if rows.any():
        out[rows] = f(cfgs.take(rows))
    return out


def _namespace(name: str, **functions) -> types.ModuleType:
    """The functions as the attributes of a module object, where CPython finds them about twice as fast as in a
    `types.SimpleNamespace`: the checks and the builder read some 70 of them per config."""
    namespace = types.ModuleType(name)
    vars(namespace).update(functions)
    return namespace


# The functions behind the checks, derived quantities and operators, written
# once over either backend: `math` on one config's or state's floats, where
# NumPy's call overhead would make building one `ModelConfig` several times
# slower, and NumPy on parameter arrays.  NumPy's sqrt, sin and cos give
# `math`'s bits; its exp, cosh and hypot differ in the last ulp on a few
# percent of arguments, so the arrays take those from `math` element by element.
# Under ``overflow_to_inf`` an overflowing array product is inf without a
# NumPy warning, as a float product is.
_SCALAR = _namespace(
    "_SCALAR", isfinite=math.isfinite, logical_not=operator.not_, sqrt=math.sqrt, sin=math.sin, cos=math.cos,
    exp=math.exp, hypot=math.hypot, maximum=max, where=lambda condition, a, b: a if condition else b, any=bool,
    at_rows=lambda row, f, cfg: f(cfg) if row else 0.0, shape=lambda x: (), partition_function=partition_function,
    overflow_to_inf=contextlib.nullcontext,
)
_ARRAY = _namespace(
    "_ARRAY", isfinite=np.isfinite, logical_not=np.logical_not, sqrt=np.sqrt, sin=np.sin, cos=np.cos,
    exp=lambda x: _elementwise(math.exp, x), hypot=lambda x, y: _elementwise(math.hypot, x, y), maximum=np.maximum,
    where=np.where, any=np.ndarray.any, at_rows=_at_rows, shape=np.shape,
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

    @_cached_property
    def is_weak(self):
        return self.mode == MODE_WEAK

    @_cached_property
    def z_a(self):
        """The ancilla's partition function; computed once, as no field is written after construction."""
        return self._xp.partition_function(self.beta, self.omega_a, self.hbar)

    @property
    def lambda_max(self):
        """Largest coherence magnitude keeping the ancilla state PSD."""
        return 1.0 / self.z_a

    @_cached_property
    def lambda_eff(self):
        """Coherence magnitude actually entering the ancilla state; read by the checks and by `_stack`."""
        # Exact rows take sqrt(0): their tau is unbounded, and lam_tilde*sqrt(tau) could overflow.
        xp = self._xp
        return xp.where(self.is_weak, self.lam_tilde * xp.sqrt(xp.where(self.is_weak, self.tau, 0.0)), self.lam)

    @property
    def collision_coupling(self):
        """Coupling of the collision propagator: g, or g/sqrt(tau) in the weakly coherent mode."""
        # An exact config's tau may be 0, so it divides by sqrt(1) there.
        xp = self._xp
        return self.g / xp.sqrt(xp.where(self.is_weak, self.tau, 1.0))

    @property
    def kdq_coherence_prefactor(self):
        """Prefactor of the coherent-work quasiprobabilities (lam or lam_tilde)."""
        return self._xp.where(self.is_weak, self.lam_tilde, self.lam)

    def _checks(self):
        """Whether each check of `ModelConfig` fails, in check order: a bool, or a mask over parameter arrays.

        Lazy, so that one config's checks stop at the first failure: a later
        check may assume that the earlier ones passed.  Answered True after a
        check, it yields that check's `_MESSAGES` key and format arguments
        before it goes on, so that only the failing checks build them
        (`_raise_first_failure`, `_first_failures`).
        """
        xp = self._xp
        for name in _ConfigArrays.FIELDS:
            value = getattr(self, name)
            if (yield xp.logical_not(xp.isfinite(value))):
                yield "finite", {"name": name, "value": value}
        weak, tau = self.is_weak, self.tau
        if (yield (self.mode != MODE_EXACT) & xp.logical_not(weak)):
            yield "mode", {"value": self.mode}
        if (yield self.g <= 0.0):
            yield "g", {}
        if (yield self.hbar <= 0.0):
            yield "hbar", {}
        for name in ("omega_s", "omega_a"):
            omega = getattr(self, name)
            if (yield (omega != 0.0) & (abs(0.5 * self.hbar * omega) < sys.float_info.min)):
                yield "small", {"name": name, "value": omega}
            if (yield xp.logical_not(xp.isfinite(self.hbar * omega))):
                yield "large", {"name": name, "value": omega}
        if (yield xp.logical_not(xp.isfinite(4.0 * self.hbar * self.g))):
            yield "coupling", {"value": self.g}
        if (yield self.beta < 0.0):
            yield "beta", {}
        if (yield weak & (tau <= 0.0)):
            yield "weak_tau", {}
        if (yield xp.logical_not(weak) & (tau < 0.0)):
            yield "tau", {}
        delta = self.detuning
        phases = (
            ("(omega_s + omega_a)*tau/2", 0.5 * (self.omega_s + self.omega_a) * tau),
            ("tau*sqrt(4*g^2 + delta^2)", tau * xp.sqrt(4.0 * self.g * self.g + delta * delta)),
        )
        for name, phase in phases:
            if (yield xp.logical_not(xp.isfinite(phase))):
                yield "phase", {"name": name, "value": phase, "tau": tau}
        # The weak propagator's phase, taken at the weak rows only: an exact row passes either way.
        phase = xp.at_rows(weak, _weak_phase, self)
        if (yield weak & xp.logical_not(xp.isfinite(phase))):
            yield "phase", {"name": "tau*hypot(delta/2, g/sqrt(tau))", "value": phase, "tau": tau}
        for name in ("omega_s", "omega_a"):
            energy = self.hbar * getattr(self, name)
            square = (2.0 * energy) * (2.0 * energy)
            if (yield xp.logical_not(xp.isfinite(square))):
                yield "square", {"name": name, "value": energy}
        lam, bound = self.lambda_eff, self.lambda_max
        if (yield abs(lam) > bound + _BOUNDARY_SLACK):
            yield "lambda", {"value": lam, "bound": bound}


def _weak_phase(cfgs: ModelConfig | _ConfigArrays):
    """tau*hypot(delta/2, g/sqrt(tau)), the phase of each weak config's propagator."""
    return cfgs.tau * cfgs._xp.hypot(0.5 * cfgs.detuning, cfgs.collision_coupling)


class _StateQuantities:
    """The checks of one system state (`SystemStateParams`) or of M states (`_StateArrays`), written once."""

    _xp = _SCALAR

    def _checks(self):
        """Whether each check of `SystemStateParams` fails, in check order; lazy, and answered True it yields
        the check's `_MESSAGES` key and format arguments, as `_ConfigQuantities._checks` does."""
        xp = self._xp
        for name in _StateArrays.FIELDS:
            value = getattr(self, name)
            if (yield xp.logical_not(xp.isfinite(value))):
                yield "finite", {"name": name, "value": value}
        if (yield xp.logical_not((0.0 <= self.rho11) & (self.rho11 <= 1.0))):
            yield "rho11", {}
        if (yield self.r < 0.0):
            yield "r", {}
        # r*r, not r**2: a float's power raises OverflowError past r ~ 1.3e154.
        bound = self.rho11 * (1.0 - self.rho11)
        if (yield self.r * self.r > bound + _BOUNDARY_SLACK):
            yield "positivity", {"value": self.r, "bound": bound}


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
            return _first_failures(self._checks())

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

    @_cached_property
    def _arrays(self) -> _ConfigArrays:
        """This config as `_ConfigArrays` with M = 1; equality, hash and `replace` ignore it."""
        return _ConfigArrays.of([self])

    @_cached_property
    def operators(self) -> Operators:
        """This config's `Operators`: the `_stack` of this one config, without a config axis.

        Views of one read-only buffer of 101 floats or fewer, built on first
        use; equality, hash and `replace` ignore them.
        """
        return _stack(self)


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

    @_cached_property
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
    return xp.where(x >= 0.0, (low, high), (high, low))


# Rows per part of `_operator_stacks`: bounds the kernel's per-row arrays,
# and so the peak memory of long sweeps.
_PART_ROWS = 4096


class Operators(NamedTuple):
    """The operators of one config (`ModelConfig.operators`) or of a stack of configs (`_operator_stacks`).

    A stack's arrays carry a leading config axis, which the kernel aligns
    with a state stack's rows directly or through each row's slot on it;
    one config's own arrays have none.  Every field is a C-contiguous
    read-only view of the one float buffer that `_stack` fills, so no caller
    can change operators that others share.  ``u`` is the collision
    propagator exp(-i H_SA tau / hbar) (`collision_unitary`), ``u_bare`` the
    unscaled `measurement_unitary` (equal to ``u`` in exact mode), ``rho_a``
    = ``rho_a_th`` + lambda_eff chi_A the ancilla state, ``prefactor`` the
    coherence prefactor (float, shape (1, 1) per config), ``h_s``/``h_a`` the
    local Hamiltonians, and ``levels_*`` the local levels (float) in sigma_z
    basis order: diag(H_S), diag(H_A) = (hbar*omega/2, -hbar*omega/2), so
    level b is basis state b for either sign of omega, or the one level 0
    where omega = 0.  The other fields are complex.
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
    levels_a: np.ndarray


# Where `_swap_parts` go in the float view of a flat 4x4 complex matrix.
_SWAP_PARTS = [2 * (4 * i + j) + part for i, j, part in [
    (0, 0, 0), (0, 0, 1), (3, 3, 0), (3, 3, 1), (1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 1), (1, 2, 1), (2, 1, 1),
]]
# Where the parts of a 2x2 complex matrix go in its float view: the real parts of [0, 0], [1, 1], [0, 1] and
# [1, 0] of an ancilla state, and also the imaginary part of [1, 1] of a local Hamiltonian.
_ANCILLA_PARTS = [0, 6, 2, 4]
_HAMILTONIAN_PARTS = [0, 6, 2, 4, 7]


def _swap_parts(cfgs: ModelConfig | _ConfigArrays, coupling) -> list:
    """The nonzero real and imaginary parts, at `_SWAP_PARTS`, of exp(-i H tau / hbar) of each config,
    H = H_S (x) I + I (x) H_A + hbar*coupling*(s+ s- + s- s+).

    The swap coupling conserves excitations: |00> and |11> pick up a phase
    and its conjugate, and {|01>, |10>} rotates under delta/2 sigma_z +
    coupling sigma_x at Omega = sqrt(delta^2/4 + coupling^2) > 0, giving the
    block [[diag, off], [off, conj(diag)]].  hbar cancels.
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
    return [phase_re, phase_im, phase_re, -phase_im, diag_re, diag_im, diag_re, -diag_im, off_im, off_im]


@functools.lru_cache(maxsize=16)
def _layout(
    shape: tuple[int, ...], propagators: int, levels_s: int, levels_a: int
) -> tuple[np.ndarray, int, Callable[[np.ndarray], Operators]]:
    """How `_stack` lays out the operators of the configs of ``shape`` (() for one config) in one float buffer.

    Returns where it writes its parts, in order, the buffer's length, and
    the function that views a filled buffer as `Operators`.  The buffer
    holds the operators one after another as C-contiguous blocks, the
    complex ones first: ``propagators`` (2: ``u`` and ``u_bare``; 1:
    ``u_bare``, which exact configs share as ``u``), ``rho_a``,
    ``rho_a_th``, ``h_s``, ``h_a``, ``prefactor``, ``levels_s``,
    ``levels_a``.  The one level of a merged qubit is +0, like every entry
    that no part is written to.  Cached, with the views' bounds and shapes:
    a stack's positions are a (parts, M) array, at most 16 of which are kept.
    """
    m = math.prod(shape)
    fields = [
        *[(32, _SWAP_PARTS)] * propagators, (8, _ANCILLA_PARTS), (8, _ANCILLA_PARTS[:2]),
        (8, _HAMILTONIAN_PARTS), (8, _HAMILTONIAN_PARTS), (1, [0]),
        (levels_s, [0, 1] if levels_s == 2 else []), (levels_a, [0, 1] if levels_a == 2 else []),
    ]
    blocks, start = [], 0
    for size, parts in fields:
        blocks.append(m * start + np.add.outer(np.array(parts, np.intp), size * np.arange(m)))
        start += size
    positions = np.concatenate(blocks).reshape(-1, *shape)
    positions.setflags(write=False)  # every `_stack` call of this layout shares it
    # In floats, the complex blocks end at `floats`, the propagators at `unitaries` of them.  One config's
    # prefactor is (1, 1), whose one entry `prefactor` indexes in a stack's case too; its levels are slices,
    # and a stack's are reshaped to (M, levels).
    floats, unitaries = 2 * (16 * propagators + 16) * m, 16 * propagators * m
    unitary_shape, matrix_shape = (propagators, *shape, 4, 4), (4, *shape, 2, 2)
    prefactor = (slice(0, m), *[None] * (len(shape) + 1))
    bounds_s, bounds_a = slice(m, (1 + levels_s) * m), slice((1 + levels_s) * m, None)
    shape_s, shape_a = (*shape, levels_s), (*shape, levels_a)

    def views(buffer: np.ndarray) -> Operators:
        matrices = buffer[:floats].view(complex)
        u = matrices[:unitaries].reshape(unitary_shape)
        u_bare = u[-1]
        two_by_two = matrices[unitaries:].reshape(matrix_shape)
        tail = buffer[floats:]
        level_s, level_a = tail[bounds_s], tail[bounds_a]
        if shape:
            level_s, level_a = level_s.reshape(shape_s), level_a.reshape(shape_a)
        return Operators(
            u[0] if propagators == 2 else u_bare, u_bare, two_by_two[0], two_by_two[1], tail[prefactor],
            two_by_two[2], two_by_two[3], level_s, level_a,
        )

    return positions, start * m, views


def _stack(cfgs: ModelConfig | _ConfigArrays) -> Operators:
    """The operators of one config, or of M configs with one local level count each on a leading axis.

    The one operator builder: `ModelConfig.operators` is its one-config
    case, computed with `math` on the config's floats.  It computes each
    nonzero real or imaginary part of every operator once per config,
    writes them with one scatter into one float buffer (`_layout`), freezes
    it, and returns views of it.  The parts are those of the arithmetic of
    `build_hamiltonians` and `build_ancilla`, which it does not call, bit
    for bit.
    """
    xp = cfgs._xp
    # An exact config's collision coupling is g itself, so its u is u_bare.
    swap = _swap_parts(cfgs, cfgs.collision_coupling) if xp.any(cfgs.is_weak) else []
    low, high = _thermal_populations(cfgs)
    # rho_a_th + lambda_eff*chi_A is 0 + lambda_eff off the diagonal: +0 where lambda_eff is -0.
    lam = cfgs.lambda_eff + 0.0
    x_s, x_a = 0.5 * cfgs.hbar * cfgs.omega_s, 0.5 * cfgs.hbar * cfgs.omega_a
    # The complex products x*SIGMA_Z: x*0 (-0 where x < 0) off the diagonal and in [1, 1]'s imaginary part.
    zero_s, zero_a = x_s * 0.0, x_a * 0.0
    # `ModelConfig` keeps 2|x| finite, so a qubit's levels merge only at x = 0: in every row of a stack or none.
    merged_s, merged_a = xp.any(x_s == 0.0), xp.any(x_a == 0.0)
    parts = [
        *swap, *_swap_parts(cfgs, cfgs.g), low, high, lam, lam, low, high, x_s, -x_s, zero_s, zero_s, zero_s,
        x_a, -x_a, zero_a, zero_a, zero_a, cfgs.kdq_coherence_prefactor,
        *([] if merged_s else [x_s, -x_s]), *([] if merged_a else [x_a, -x_a]),
    ]
    positions, size, views = _layout(
        xp.shape(cfgs.tau), 2 if swap else 1, 1 if merged_s else 2, 1 if merged_a else 2
    )
    buffer = np.zeros(size)
    buffer[positions] = np.array(parts, float)
    buffer.setflags(write=False)
    return views(buffer)


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
