"""Experiment presets, config parsing, parameter sweeps and CSV emission.

Config files are flat ``key = value`` lines grouped in sections:

    [run]
    preset = custom          # or fig1..fig7
    points = 512             # grid density of figure presets

    [model]
    mode = exact             # or weakly_coherent
    omega_s = 4.0
    omega_a = 1.0
    g = 1.0
    tau = 0.5235987755982988
    beta = 1.0
    lambda = 0.2

    [state]
    rho11 = 0.25
    r = 0.4330127018922193
    phi_c = 0.7853981633974483

    [sweep]
    phi_c = linspace(0.0, 6.283185307179586, 64)
    lambda = 0.0, 0.1, 0.2

    [output]
    path = out.csv
    quantities = delta_e_s, n_q_us, var_us

Unknown sections or keys, a key given twice in a section and a quantity
listed twice are errors.  The custom sweep and the presets fig1 to fig6
build their grids with one builder (`_grid`) as parameter arrays: one row
per distinct model config (`model._ConfigArrays`) and one per grid point
(`model._StateArrays`), whose checks are masks.  A custom run skips a row
with the reason of its model config, else of its state, else of the first
quantity undefined for its config (`validate` fails when every row would be
skipped), and evaluates the kept rows of the grid's own arrays in one call
(`_evaluate`, shared with fig1 to fig4, which computes each analytic output
as one call of the array oracle, and checks the work/heat regime once, so
a sweep warns at most once per kind).  One table, `_OUTPUTS`, gives what
each output quantity reads and the columns it emits.  fig5 and fig6 reduce
one tau grid: the coherent-work KDQ per work value (across g*tau = pi/6 on
purpose, so unchecked), and the spectrum of the operator approach's
observable O2 (`smalltau`).  A grid or chain too large to hold is an error.
One dict, `_RUNNERS`, names the runner of each preset and of ``custom``
(`PRESETS` are its keys), and every grid run but fig4's two panels
assembles its table with one builder (`_table`): each row's value on every
axis, then its value columns.

A run's table holds its rows as one float array (`ResultTable`), which
`write_csv` writes in blocks of rows.  Output is a deterministic CSV (17
significant digits, no timestamps) plus a ``<path>.meta.json`` sidecar with
the run parameters, encoded to its open file; for custom runs it also
counts the skipped rows per reason in row order (``skip_reasons``, the row's
numbers in the message masked as ``<x>``).  A write that fails leaves
neither file.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, _g17, analytic, collision, kdq, smalltau
from .model import (
    MODE_EXACT,
    MODE_WEAK,
    ModelConfig,
    SystemStateParams,
    _ConfigArrays,
    _operator_stacks,
    _StateArrays,
    build_system_state,
)

HBAR_SI = 1.054571817e-34

# Config key -> field of ModelConfig ([model]) or SystemStateParams ([state]).
_FIELDS = {
    "model": {
        "mode": "mode", "omega_s": "omega_s", "omega_a": "omega_a", "g": "g", "tau": "tau", "beta": "beta",
        "lambda": "lam", "lambda_tilde": "lam_tilde", "hbar": "hbar",
    },
    "state": {"rho11": "rho11", "r": "r", "phi_c": "phi_c"},
}
_SWEEPABLE = (set(_FIELDS["model"]) | set(_FIELDS["state"])) - {"mode"}
# The keys of each config-file section.
_KEYS = {"run": ("preset", "points", "collisions"), **_FIELDS, "sweep": _SWEEPABLE, "output": ("path", "quantities")}


class _Output(NamedTuple):
    """What an output quantity reads, of which KDQ quantity or `analytic` array formula, and its columns."""

    reads: str  # "mean", "var", a witness ("n_q", "n_re", "n_im") or "analytic"
    source: str
    columns: tuple[str, ...]


_WITNESSES = ("n_q", "n_re", "n_im")
_MEANS = {"delta_e_s": kdq.US, "delta_e_a": kdq.UA, "delta_e_sa": kdq.USA, "w_mean": kdq.W, "q_mean": kdq.Q}
# The output quantities of custom runs, also read by fig1, fig2 and fig4.
_OUTPUTS: dict[str, _Output] = {
    **{name: _Output("mean", q, (name,)) for name, q in _MEANS.items()},
    **{f"var_{q}": _Output("var", q, (f"var_{q}_re", f"var_{q}_im")) for q in _MEANS.values()},
    **{f"{k}_{q}": _Output(k, q, (f"{k}_{q}",)) for q in _MEANS.values() if q not in kdq.ZERO_SUM for k in _WITNESSES},
    **{f"analytic_{f}": _Output("analytic", f"_{f}", (f"analytic_{f}",)) for f in ("delta_e_s", "delta_e_sa")},
    "analytic_delta_e_s_envelopes": _Output(
        "analytic", "_delta_e_s_envelopes", ("analytic_delta_e_s_lower", "analytic_delta_e_s_upper")
    ),
    "analytic_delta_e_sa_limit": _Output("analytic", "_delta_e_sa_limit", ("analytic_delta_e_sa_limit",)),
}


def _reads_split(outputs: tuple[str, ...]) -> bool:
    """Whether any of ``outputs`` reads the coherent-work/heat split."""
    return any(_OUTPUTS[name].source in kdq._WORK_HEAT for name in outputs)


class ConfigError(ValueError):
    """Config-file problem; the message carries the offending line number."""


@dataclass(frozen=True)
class ExperimentSpec:
    preset: str
    cfg: ModelConfig | None
    state: SystemStateParams | None
    sweep: tuple[tuple[str, np.ndarray], ...] = ()  # (config key, read-only float64 values)
    outputs: tuple[str, ...] = ()
    out_path: str | None = None
    points: int = 512
    collisions: int = 100

    def __post_init__(self) -> None:
        if self.points < 1 or self.collisions < 1:
            raise ConfigError("points and collisions must be positive")


@dataclass
class ResultTable:
    """A run's table: ``rows`` is one (rows, columns) float array, its columns named by ``header``,
    and ``meta`` the run parameters that `write_csv` puts in the sidecar."""

    header: list[str]
    rows: np.ndarray
    meta: dict = field(default_factory=dict)


# Values per chunk of a sidecar array: bounds what `write_csv` holds at once.
_JSON_CHUNK = 4096


class _JsonArray(list):
    """An array as `json` encodes a list: its values as Python floats one chunk at a time."""

    def __init__(self, values: np.ndarray) -> None:
        super().__init__()
        self.values = values.ravel()

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        for start in range(0, len(self.values), _JSON_CHUNK):
            yield from self.values[start : start + _JSON_CHUNK].tolist()


def _json_array(value):
    """`json.dump`'s ``default``: an array of ``meta`` as a list."""
    if isinstance(value, np.ndarray):
        return _JsonArray(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_csv(table: ResultTable, path: str | Path) -> None:
    """Write the table and its metadata sidecar; output is byte-deterministic.

    Every cell is ``"%.17g" % value``: `_g17.blocks` formats the rows a
    block of a few thousand cells at a time as NumPy array operations, and
    each block's text goes to the file opened in binary mode.
    ``table.rows`` may also be any sequence of rows that NumPy turns into
    such an array.  The sidecar is written as it is encoded, an array in
    ``meta`` as the list of its values.  A write that raises first removes
    the files it opened.
    """
    path = Path(path)
    rows = np.asarray(table.rows, dtype=float)
    meta = {**table.meta, "columns": table.header, "rows": len(rows), "tool": "kdcollide", "version": __version__}
    opened: list[Path] = []

    def create(target: Path, mode: str, **kwargs):
        out = open(target, mode, **kwargs)
        opened.append(target)
        return out

    try:
        with create(path, "wb") as out:
            out.write((",".join(table.header) + "\n").encode("utf-8"))
            out.writelines(_g17.blocks(rows))
        with create(Path(f"{path}.meta.json"), "w", encoding="utf-8") as out:
            # With an indent, `json.dump` and `json.dumps` share one pure-Python encoder: the same bytes.
            json.dump(meta, out, indent=2, sort_keys=True, default=_json_array)
            out.write("\n")
    except BaseException:
        for target in opened:
            target.unlink(missing_ok=True)
        raise


# --------------------------------------------------------------------------
# config parsing


def _parse_grid(raw: str, lineno: int) -> np.ndarray:
    """A ``[sweep]`` value, ``linspace(start, stop, count)`` or listed values, as one read-only float64 array."""
    raw = raw.strip()
    if raw.startswith("linspace(") and raw.endswith(")"):
        inner = raw[len("linspace(") : -1]
        parts = [p.strip() for p in inner.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"line {lineno}: linspace needs (start, stop, count)")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad linspace arguments: {exc}") from exc
        if count < 1:
            raise ConfigError(f"line {lineno}: linspace count must be >= 1")
        grid = _linspace(start, stop, count, where=f"line {lineno}: ")
    else:
        try:
            grid = np.array([float(p) for p in raw.split(",")])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad grid value: {exc}") from exc
    if not np.isfinite(grid).all():
        raise ConfigError(f"line {lineno}: sweep grid must be finite")
    grid.flags.writeable = False
    return grid


def parse_config(text: str) -> ExperimentSpec:
    """Parse and fully validate a config file into an ExperimentSpec.

    Each line is checked as it is read (syntax, empty value, duplicate key,
    a key outside `_KEYS`, then its value), with its line number; then the
    run as a whole.  ``values`` holds each section's values by config key,
    ``lines`` the line of each section header and each (section, key).
    """
    section = None
    values: dict[str, dict] = {name: {} for name in _KEYS}
    lines: dict[str | tuple[str, str], int] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            lines[section] = lineno
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if (section, key) in lines:
            first = lines[section, key]
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}] (first on line {first})")
        lines[section, key] = lineno
        if key not in _KEYS[section]:
            if section == "sweep":
                raise ConfigError(f"line {lineno}: {key!r} is not a sweepable parameter")
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if section == "sweep":
            value = _parse_grid(value, lineno)
        elif key == "mode":
            if value not in (MODE_EXACT, MODE_WEAK):
                raise ConfigError(f"line {lineno}: mode must be {MODE_EXACT} or {MODE_WEAK}")
        elif section in _FIELDS:
            try:
                value = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad number for {key!r}: {value!r}") from exc
        values[section][key] = value

    preset = values["run"].get("preset", "custom")
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose one of {', '.join(PRESETS)}")
    try:
        sizes = {key: int(values["run"][key]) for key in ("points", "collisions") if key in values["run"]}
    except ValueError as exc:
        raise ConfigError(f"bad integer in [run]: {exc}") from exc
    output = values["output"]

    if preset != "custom":
        for name in ("model", "state", "sweep"):
            if name in lines:
                raise ConfigError(f"line {lines[name]}: preset {preset!r} takes no [{name}] overrides")
        if "quantities" in output:
            raise ConfigError(f"preset {preset!r} defines its own output quantities")
        return ExperimentSpec(preset, None, None, out_path=output.get("path"), **sizes)

    if "model" not in lines:
        raise ConfigError("custom run needs a [model] section")
    if "state" not in lines:
        raise ConfigError("custom run needs a [state] section")
    quantities = tuple(q.strip() for q in output.get("quantities", "").split(",") if q.strip())
    if not quantities:
        raise ConfigError("custom run needs [output] quantities")
    for i, q in enumerate(quantities):
        if q not in _OUTPUTS:
            raise ConfigError(f"unknown output quantity {q!r}; known: {', '.join(sorted(_OUTPUTS))}")
        if q in quantities[:i]:
            raise ConfigError(f"line {lines['output', 'quantities']}: duplicate quantity {q!r} in [output]")
    params = {name: {_FIELDS[name][key]: v for key, v in values[name].items()} for name in _FIELDS}
    for key in ("omega_s", "omega_a", "g", "tau", "beta"):
        if key not in params["model"]:
            raise ConfigError(f"[model] is missing required key {key!r}")
    cfg = ModelConfig(**params["model"])
    if "rho11" not in params["state"]:
        raise ConfigError("[state] is missing required key 'rho11'")
    return ExperimentSpec(
        preset="custom",
        cfg=cfg,
        state=SystemStateParams(**params["state"]),
        sweep=tuple(values["sweep"].items()),
        outputs=quantities,
        out_path=output.get("path"),
        **sizes,
    )


# --------------------------------------------------------------------------
# evaluation and custom sweep execution


def _evaluate(cfgs: _ConfigArrays, states: _StateArrays, outputs: tuple[str, ...], which, kept) -> np.ndarray:
    """The `_OUTPUTS` columns of ``outputs`` for rows ``kept`` of a stack of states, state k under config ``which[k]``.

    Row k of the result is state k, NaN unless k is in ``kept``.  Each analytic
    output is one oracle call over the kept rows, with no operators.  The
    outputs that read the KDQ kernel stack the kept rows' configs in parts by
    `model._operator_stacks`: each part builds the states of its own rows and
    takes one kernel call per quantity, and at most one `kdq._moments` and one
    `kdq._witnesses` call of it.  The work/heat regime of those configs is
    checked once: raises ValueError when the split is undefined for a config,
    and warns once per kind.
    """
    bounds = np.cumsum([0] + [len(_OUTPUTS[name].columns) for name in outputs]).tolist()
    table = np.full((len(states), bounds[-1]), math.nan)
    which_kept = which[kept]
    # Each KDQ quantity -> the (reads, columns) of the outputs that read it, in output order.
    reads_of: dict[str, list[tuple[str, slice]]] = {}
    oracle_rows = None
    for name, lo, hi in zip(outputs, bounds[:-1], bounds[1:]):
        reads, source, _ = _OUTPUTS[name]
        if reads != "analytic":
            reads_of.setdefault(source, []).append((reads, slice(lo, hi)))
            continue
        oracle_rows = (cfgs.take(which_kept), states.take(kept)) if oracle_rows is None else oracle_rows
        # Looked up on the module at each call, so that wrappers installed there see the calls.
        table[kept, lo:hi] = np.array(getattr(analytic, source)(*oracle_rows), ndmin=2).T
    if not reads_of:
        return table
    if _reads_split(outputs):
        kdq._check_work_heat_regime(cfgs.take(np.unique(which_kept)))
    for rows, slot, ops in _operator_stacks(cfgs, which_kept):
        rows = kept[rows]
        rho_s = build_system_state(states.take(rows))
        for quantity, pairs in reads_of.items():
            matrix, levels = kdq._kernel(quantity, rho_s, ops, slot=slot)
            needs = {reads for reads, _ in pairs}
            mean, _, variance = kdq._moments(matrix, levels) if needs & {"mean", "var"} else (None,) * 3
            witnesses = kdq._witnesses(matrix) if needs.intersection(_WITNESSES) else None
            for reads, columns in pairs:
                if reads == "mean":
                    # Physical averages are real; a visible imaginary part means the
                    # pipeline is broken, not that truncation is in order.
                    complex_rows = np.abs(mean.imag) > 1e-12 * np.maximum(1.0, np.abs(mean.real))
                    if complex_rows.any():
                        raise RuntimeError(f"expected a real average, got {complex(mean[complex_rows][0])}")
                    values = [mean.real]
                elif reads == "var":
                    values = [variance.real, variance.imag]
                else:
                    values = [witnesses[..., _WITNESSES.index(reads)]]
                table[rows, columns] = np.array(values).T
    return table


class _Grid(NamedTuple):
    """The rows of a product grid of parameter axes (`_grid`)."""

    position: np.ndarray  # (axes, rows): the position of each row on each axis, rows in row-major order
    cfgs: _ConfigArrays  # the distinct points of the model axes, in order of first row
    which: np.ndarray  # the config of each row
    states: _StateArrays  # the state of each row

    def at(self, axis: int, values) -> np.ndarray:
        """``values`` at each row's position on the axis."""
        return np.asarray(values)[self.position[axis]]

    def evaluate(self, outputs: tuple[str, ...]) -> np.ndarray:
        """`_evaluate` of every row; raises the ValueError of the first invalid config, else state."""
        return _evaluate(self.cfgs.checked(), self.states.checked(), outputs, self.which, np.arange(len(self.which)))


def _grid(cfg: ModelConfig, state: SystemStateParams, axes) -> _Grid:
    """The product grid of ``axes``, (config key, values) pairs, the last axis varying fastest; unchecked.

    Each model axis replaces a field of ``cfg``, each state axis one of
    ``state``.  Rows at the same position on every model axis share one
    config: positions, not values, so that -0.0 and 0.0 stay apart.  Raises
    ConfigError with the row count if NumPy cannot hold the grid's positions.
    """
    sizes = [len(values) for _, values in axes]
    try:
        position = np.indices(sizes, dtype=np.intp).reshape(len(sizes), math.prod(sizes))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"the sweep grid has {math.prod(sizes)} rows, too many to evaluate") from exc
    model = [k for k, (key, _) in enumerate(axes) if key in _FIELDS["model"]]
    model_sizes = [sizes[k] for k in model]
    model_position = np.indices(model_sizes, dtype=np.intp).reshape(len(model), math.prod(model_sizes))
    which = np.ravel_multi_index(position[model], model_sizes) if model else np.zeros(position.shape[1], np.intp)
    grids = [(key, np.asarray(values, float)) for key, values in axes]
    cfgs = cfg._arrays.replace(**{_FIELDS["model"][grids[k][0]]: grids[k][1][p] for k, p in zip(model, model_position)})
    states = state._arrays.take(np.zeros(len(which), np.intp)).replace(
        **{_FIELDS["state"][key]: grid[position[k]] for k, (key, grid) in enumerate(grids) if k not in model}
    )
    return _Grid(position, cfgs, which, states)


# A row's own numbers in an error message (not the 1 of "1/Z_A"), masked in skip reasons.
_ROW_NUMBER = re.compile(r"(?<=[\s=])[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?(?=[\s),:;]|$)")


def _sweep(spec: ExperimentSpec) -> tuple[_Grid, np.ndarray, dict[str, int]]:
    """A custom spec's `_grid`, the mask of its skipped rows and the count of skipped rows per reason.

    A row's reason is that of its model config, else of its state, else of
    the first quantity undefined for its config, with the row's numbers masked.
    """
    assert spec.cfg is not None and spec.state is not None
    grid = _grid(spec.cfg, spec.state, spec.sweep)
    cfg_errors, state_errors = grid.cfgs.errors(), grid.states.errors()
    regime_errors = kdq._work_heat_errors(grid.cfgs) if _reads_split(spec.outputs) else {}
    skipped = np.isin(grid.which, [*cfg_errors, *regime_errors])
    skipped[list(state_errors)] = True
    skip_reasons: dict[str, int] = {}
    masked: dict[str, str] = {}  # each distinct message's reason, masked once
    for row in np.flatnonzero(skipped).tolist():
        config = grid.which[row]
        message = cfg_errors.get(config) or state_errors.get(row) or regime_errors[config]
        reason = masked.get(message) or masked.setdefault(message, _ROW_NUMBER.sub("<x>", message))
        skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
    return grid, skipped, skip_reasons


def _every_row_skipped(skip_reasons: dict[str, int], rows: int) -> bool:
    """Whether the reasons account for every row; if so, says so on stderr with the first reason."""
    if not skip_reasons or sum(skip_reasons.values()) != rows:
        return False
    print(f"error: every row skipped; first reason: {next(iter(skip_reasons))}", file=sys.stderr)
    return True


def _table(spec: ExperimentSpec, grid: _Grid, shown, values, header: list[str], meta: dict) -> ResultTable:
    """A grid run's table: each row's value on every axis, shown as (name, values) pairs in grid order,
    then its ``values`` columns, named by ``header``; the sidecar holds ``meta`` and the preset."""
    columns = [grid.at(k, axis) for k, (_, axis) in enumerate(shown)]
    rows = np.column_stack([*columns, *values])
    return ResultTable([name for name, _ in shown] + header, rows, {"preset": spec.preset, **meta})


def _run_custom(spec: ExperimentSpec) -> ResultTable:
    """Evaluate every point of the sweep grid that `_sweep` does not skip."""
    grid, skipped, skip_reasons = _sweep(spec)
    header = [column for name in spec.outputs for column in _OUTPUTS[name].columns]
    data = _evaluate(grid.cfgs, grid.states, spec.outputs, grid.which, np.flatnonzero(~skipped))
    meta = {
        **_params_meta(spec.cfg, spec.state),
        "sweep": dict(spec.sweep),
        "quantities": list(spec.outputs),
        "skip_reasons": skip_reasons,
    }
    return _table(spec, grid, spec.sweep, [skipped, data], ["skipped", *header], meta)


def _params_meta(cfg: ModelConfig, state: SystemStateParams) -> dict:
    """Sidecar "model" and "state" entries under their config keys."""
    return {
        section: {key: getattr(params, name) for key, name in _FIELDS[section].items()}
        for section, params in (("model", cfg), ("state", state))
    }


# --------------------------------------------------------------------------
# figure presets

# The presets' system state, r = r_max for rho11 = 1/4; fig1 and fig2 sweep its phi_c, fig5 and fig6 take pi/3.
_STATE = SystemStateParams(rho11=0.25, r=math.sqrt(3.0) / 4.0, phi_c=math.pi / 4)
# The resonant collision of fig3a and fig4.
_RESONANT = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=math.pi / 6, beta=1.0)


def _linspace(start: float, stop: float, points: int, endpoint: bool = True, where: str = "") -> np.ndarray:
    """A grid of ``points`` values; raises ConfigError with ``where`` and the count if NumPy cannot hold it."""
    try:
        return np.linspace(start, stop, points, endpoint=endpoint)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{where}{points} points are too many to evaluate") from exc


def _nonpositivity_sweep(spec: ExperimentSpec) -> ResultTable:
    """Non-positivity witnesses of ``us`` (fig1) or ``usa`` (fig2) vs. coherence
    phase, for the detuned single collision at three temperatures and six
    pulse durations."""
    quantity = {"fig1": kdq.US, "fig2": kdq.USA}[spec.preset]
    taus = [math.pi / 36, math.pi / 18, math.pi / 12, math.pi / 9, 5 * math.pi / 36, math.pi / 6]
    betas = [5.0, 1.0, 0.2]
    axes = [("beta", betas), ("tau", taus), ("phi_c", _linspace(0.0, 2.0 * math.pi, spec.points, endpoint=False))]
    grid = _grid(ModelConfig(omega_s=4.0, omega_a=1.0, g=1.0, tau=taus[0], beta=betas[0]), _STATE, axes)
    grid = grid._replace(cfgs=grid.cfgs.replace(lam=grid.cfgs.lambda_max))
    witnesses = grid.evaluate(tuple(f"{kind}_{quantity}" for kind in _WITNESSES))
    meta = {
        "quantity": quantity,
        "detuning": 3.0,
        "omega_a": 1.0,
        "omega_s": 4.0,
        "g": 1.0,
        "hbar": 1.0,
        "rho11": _STATE.rho11,
        "r": _STATE.r,
        "betas": betas,
        "taus": taus,
        "lambda": "lambda_max per beta",
        "lambda_max_values": grid.cfgs.lam[:: len(taus)].tolist(),
        "phi_c_points": spec.points,
    }
    return _table(spec, grid, axes, [witnesses], ["n_q", "n_re", "n_im"], meta)


def _preset_fig3a(spec: ExperimentSpec) -> ResultTable:
    lams = [0.0, _RESONANT.lambda_max / 2.0, _RESONANT.lambda_max]
    deltas = _linspace(-20.0, 20.0, spec.points)
    grid = _grid(_RESONANT, _STATE, [("lambda", lams), ("omega_s", 1.0 + deltas)])
    values = grid.evaluate(("analytic_delta_e_s", "analytic_delta_e_s_envelopes"))
    meta = {
        **_params_meta(_RESONANT, _STATE),
        "lambdas": lams,
        "delta_range": [-20.0, 20.0],
        "delta_points": spec.points,
    }
    header = ["delta_e_s", "envelope_lower", "envelope_upper"]
    return _table(spec, grid, [("lambda", lams), ("delta", deltas)], [values], header, meta)


def _preset_fig3b(spec: ExperimentSpec) -> ResultTable:
    base = ModelConfig(omega_s=21.0, omega_a=1.0, g=1.0, tau=1e-6, beta=1.0)
    lams = [-base.lambda_max, -base.lambda_max / 2.0, base.lambda_max / 2.0, base.lambda_max]
    axes = [("lambda", lams), ("tau", _linspace(0.0, math.pi / 2.0, spec.points))]
    grid = _grid(base, _STATE, axes)
    values = grid.evaluate(("analytic_delta_e_sa", "analytic_delta_e_sa_limit"))
    meta = {
        **_params_meta(base, _STATE),
        "detuning": 20.0,
        "lambdas": lams,
        "tau_range": [0.0, math.pi / 2.0],
        "tau_points": spec.points,
    }
    return _table(spec, grid, axes, [values], ["delta_e_sa", "delta_e_sa_limit"], meta)


def _preset_fig4(spec: ExperimentSpec) -> ResultTable:
    """Variance of the system energy change and of the non-energy-preserving
    work: vs. detuning at lambda=0 (panel a), then vs. lambda at the local
    maxima of the panel-a curve, normalized to their lambda=0 value."""
    deltas = _linspace(0.0, 20.0, spec.points)
    var_us0, var_usa0 = _grid(_RESONANT, _STATE, [("omega_s", 1.0 + deltas)]).evaluate(("var_us", "var_usa"))[:, ::2].T
    # The first three local maxima of var_us, the lambda = 0 references of panel 1.
    peaks = (np.flatnonzero((var_us0[1:-1] > var_us0[:-2]) & (var_us0[1:-1] >= var_us0[2:])) + 1)[:3]
    lam_max = _RESONANT.lambda_max
    lams = np.linspace(-lam_max, lam_max, spec.points)
    grid = _grid(_RESONANT, _STATE, [("omega_s", 1.0 + deltas[peaks]), ("lambda", lams)])
    var_us1, var_usa1 = grid.evaluate(("var_us", "var_usa"))[:, ::2].T
    peak = peaks[grid.position[0]]
    zeros, nans = np.zeros(len(deltas)), np.full(len(deltas), math.nan)
    panel_0 = [zeros, deltas, zeros, var_us0, var_usa0, nans, nans]
    panel_1 = [
        np.ones(len(peak)), deltas[peak], grid.at(1, lams),
        var_us1, var_usa1, var_us1 / var_us0[peak], var_usa1 / var_usa0[peak],
    ]
    header = ["panel", "delta", "lambda", "var_us_re", "var_usa_re", "var_us_norm", "var_usa_norm"]
    meta = {
        "preset": "fig4",
        **_params_meta(_RESONANT, _STATE),
        "delta_range": [0.0, 20.0],
        "lambda_range": [-lam_max, lam_max],
        "points": spec.points,
        "peak_deltas": deltas[peaks].tolist(),
        "panel": "0: delta sweep at lambda=0; 1: lambda sweep at each peak delta",
    }
    return ResultTable(header, np.vstack([np.column_stack(panel_0), np.column_stack(panel_1)]), meta)


def _kdq_work_values(cfgs: _ConfigArrays, rho_s: np.ndarray) -> list[np.ndarray]:
    """fig5's columns: the coherent-work KDQ of each row, its entries summed per stochastic work value.

    The sweep deliberately crosses the g*tau = pi/6 validity border, so it checks no regime.
    """
    q = np.empty((len(cfgs), 2, 2), dtype=complex)
    for rows, _, ops in _operator_stacks(cfgs):
        q[rows] = kdq._kernel(kdq.W, rho_s[rows], ops)[0]
    # Ancilla levels (+hbar*omega/2, -hbar*omega/2) for either sign of omega: w = 0, +hbar*omega, -hbar*omega.
    w0, w_plus, w_minus = np.trace(q, axis1=-2, axis2=-1), q[:, 0, 1], q[:, 1, 0]
    return [w0.real, w0.imag, w_plus.real, w_plus.imag, w_minus.real, w_minus.imag]


def _coherent_work_sweep(spec: ExperimentSpec) -> ResultTable:
    """Coherent work vs. collision time at resonance, by the KDQ (fig5: moving
    quasiprobabilities at the fixed values 0, +hbar*omega, -hbar*omega) or by
    the operator approach (fig6: moving values at fixed probabilities)."""
    state = replace(_STATE, phi_c=math.pi / 3)
    base = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.0, beta=0.1)
    base = replace(base, lam=base.lambda_max)
    axes = [("tau", _linspace(0.0, math.pi, spec.points))]
    grid = _grid(base, state, axes)
    cfgs, rho_s = grid.cfgs.checked(), build_system_state(grid.states)
    meta = {
        **_params_meta(base, state),
        "lambda": base.lam,
        "tau_range": [0.0, math.pi],
        "tau_points": spec.points,
    }
    if spec.preset == "fig6":
        # The spectrum of O2 of each row: its two work values (descending) with their probabilities;
        # a merged level is listed twice, with probability 0 the second time.
        return _table(spec, grid, axes, smalltau._operator_spectra(rho_s, cfgs), ["w_hi", "p_hi", "w_lo", "p_lo"], meta)
    meta["note"] = "ancilla-side coherent-work KDQ, entries summed per stochastic value"
    header = ["w0_re", "w0_im", "wplus_re", "wplus_im", "wminus_re", "wminus_im"]
    return _table(spec, grid, axes, _kdq_work_values(cfgs, rho_s), header, meta)


def fig7_config() -> ModelConfig:
    """Superconducting-circuit parameter set in SI units.

    The inverse temperature is 0.4e-9 / hbar in 1/J, i.e. beta*hbar*omega =
    2.28 for omega = 5.7e9 rad/s; the ancilla coherence is lambda_max/2.
    """
    omega = 5.7e9
    cfg = ModelConfig(
        omega_s=omega,
        omega_a=omega,
        g=0.4 * omega,
        tau=135e-12,
        beta=0.4e-9 / HBAR_SI,
        hbar=HBAR_SI,
    )
    return replace(cfg, lam=cfg.lambda_max / 2.0)


def _preset_fig7(spec: ExperimentSpec) -> ResultTable:
    """Per-collision incoherent heat and coherent work of a resonant
    superconducting-circuit collision chain, from both sides."""
    cfg = fig7_config()
    try:
        chains = collision._evolve(cfg, build_system_state(_STATE)[None], spec.collisions, thermo=True)
    except (ValueError, MemoryError) as exc:  # NumPy refuses to hold the states
        raise ConfigError(f"{spec.collisions} collisions are too many to evaluate") from exc
    columns = [chains.columns[name][0] for name in ("q_s", "q_a", "w_s", "w_a", "delta_e_s", "delta_e_a")]
    rows = np.column_stack([np.arange(1.0, spec.collisions + 1), *columns])
    meta = {
        "preset": "fig7",
        **_params_meta(cfg, _STATE),
        "collisions": spec.collisions,
        "beta_hbar_omega": cfg.beta * cfg.hbar * cfg.omega_a,
        "lambda": cfg.lam,
        "lambda_max": cfg.lambda_max,
        "pulse_area": cfg.g * cfg.tau,
    }
    return ResultTable(["step", "q_s", "q_a", "w_s", "w_a", "delta_e_s", "delta_e_a"], rows, meta)


# The runner of each preset; "custom" runs a config file's sweep.
_RUNNERS = {
    "fig1": _nonpositivity_sweep,
    "fig2": _nonpositivity_sweep,
    "fig3a": _preset_fig3a,
    "fig3b": _preset_fig3b,
    "fig4": _preset_fig4,
    "fig5": _coherent_work_sweep,
    "fig6": _coherent_work_sweep,
    "fig7": _preset_fig7,
    "custom": _run_custom,
}
PRESETS = tuple(_RUNNERS)


def run(spec: ExperimentSpec) -> ResultTable:
    """Execute a spec and write its CSV (plus metadata sidecar) if requested."""
    table = _RUNNERS[spec.preset](spec)
    if spec.out_path:
        write_csv(table, Path(spec.out_path))
    return table


# --------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kdcollide",
        description="Coherent collision models with Kirkwood-Dirac energy statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a config file")
    run_parser.add_argument("config", type=Path)
    run_parser.add_argument("--out", type=Path, default=None, help="override the output path")

    preset_parser = sub.add_parser("preset", help="run a named figure preset")
    preset_parser.add_argument("name", choices=[p for p in PRESETS if p != "custom"])
    preset_parser.add_argument("--out", type=Path, default=None)
    preset_parser.add_argument("--points", type=int, default=ExperimentSpec.points)
    preset_parser.add_argument("--collisions", type=int, default=ExperimentSpec.collisions)

    validate_parser = sub.add_parser("validate", help="check a config file")
    validate_parser.add_argument("config", type=Path)

    sub.add_parser("selftest", help="run the oracle-equivalence and invariant suites")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        from .selftest import run_selftest

        return run_selftest()

    try:
        if args.command == "preset":
            spec = ExperimentSpec(args.name, None, None, points=args.points, collisions=args.collisions)
        else:
            spec = parse_config(args.config.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1

    try:
        if args.command == "validate":
            if spec.preset == "custom":
                _, skipped, skip_reasons = _sweep(spec)
                if _every_row_skipped(skip_reasons, len(skipped)):
                    return 1
            print(f"ok: {args.config} is a valid {spec.preset} spec")
            return 0
        if args.out is not None:
            spec = replace(spec, out_path=str(args.out))
        if spec.out_path is None:
            spec = replace(spec, out_path=f"{spec.preset}.csv")
        table = run(spec)
    except (OSError, ConfigError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    print(f"{spec.preset}: wrote {len(table.rows)} rows to {spec.out_path}")
    return 1 if _every_row_skipped(table.meta.get("skip_reasons", {}), len(table.rows)) else 0


if __name__ == "__main__":
    sys.exit(main())
