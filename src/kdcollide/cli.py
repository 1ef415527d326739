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

Unknown sections or keys are errors.  Output is a deterministic CSV (17
significant digits, no timestamps) plus a ``<path>.meta.json`` sidecar with
the run parameters; for custom runs it also counts the skipped rows per
reason (``skip_reasons``, the row's numbers in the message masked as ``<x>``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, analytic, kdq
from .collision import evolve
from .model import MODE_EXACT, MODE_WEAK, ModelConfig, SystemStateParams, build_system_state

HBAR_SI = 1.054571817e-34

PRESETS = ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7", "custom")

_MODEL_KEYS = {
    "mode": str,
    "omega_s": float,
    "omega_a": float,
    "g": float,
    "tau": float,
    "beta": float,
    "lambda": float,
    "lambda_tilde": float,
    "hbar": float,
}
_STATE_KEYS = {"rho11": float, "r": float, "phi_c": float}
_SWEEPABLE = tuple(k for k in _MODEL_KEYS if k != "mode") + tuple(_STATE_KEYS)

# Output quantities for custom runs -> emitted columns.
QUANTITY_COLUMNS: dict[str, tuple[str, ...]] = {
    "delta_e_s": ("delta_e_s",),
    "delta_e_a": ("delta_e_a",),
    "delta_e_sa": ("delta_e_sa",),
    "w_mean": ("w_mean",),
    "q_mean": ("q_mean",),
    "var_us": ("var_us_re", "var_us_im"),
    "var_ua": ("var_ua_re", "var_ua_im"),
    "var_usa": ("var_usa_re", "var_usa_im"),
    "var_w": ("var_w_re", "var_w_im"),
    "var_q": ("var_q_re", "var_q_im"),
    "n_q_us": ("n_q_us",),
    "n_re_us": ("n_re_us",),
    "n_im_us": ("n_im_us",),
    "n_q_ua": ("n_q_ua",),
    "n_re_ua": ("n_re_ua",),
    "n_im_ua": ("n_im_ua",),
    "n_q_usa": ("n_q_usa",),
    "n_re_usa": ("n_re_usa",),
    "n_im_usa": ("n_im_usa",),
    "n_q_q": ("n_q_q",),
    "n_re_q": ("n_re_q",),
    "n_im_q": ("n_im_q",),
    "analytic_delta_e_s": ("analytic_delta_e_s",),
    "analytic_delta_e_s_envelopes": ("analytic_delta_e_s_lower", "analytic_delta_e_s_upper"),
    "analytic_delta_e_sa": ("analytic_delta_e_sa",),
    "analytic_delta_e_sa_limit": ("analytic_delta_e_sa_limit",),
}


class ConfigError(ValueError):
    """Config-file problem; the message carries the offending line number."""


@dataclass(frozen=True)
class ExperimentSpec:
    preset: str
    cfg: ModelConfig | None
    state: SystemStateParams | None
    sweep: tuple[tuple[str, tuple[float, ...]], ...] = ()
    outputs: tuple[str, ...] = ()
    out_path: str | None = None
    points: int = 512
    collisions: int = 100

    def __post_init__(self) -> None:
        if self.points < 1 or self.collisions < 1:
            raise ConfigError("points and collisions must be positive")


@dataclass
class ResultTable:
    header: list[str]
    rows: list[list[float]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def write_csv(table: ResultTable, path: Path) -> None:
    """Write the table and its metadata sidecar; output is byte-deterministic."""
    path = Path(path)
    # "%.17g" % v is format(float(v), ".17g") for every float and int, nan and inf included.
    row_format = ",".join(["%.17g"] * len(table.header))
    lines = [",".join(table.header)]
    lines.extend(row_format % tuple(row) for row in table.rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = dict(table.meta)
    meta["columns"] = table.header
    meta["rows"] = len(table.rows)
    meta["tool"] = "kdcollide"
    meta["version"] = __version__
    Path(str(path) + ".meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# --------------------------------------------------------------------------
# config parsing


def _parse_grid(raw: str, lineno: int) -> tuple[float, ...]:
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
        grid = tuple(float(v) for v in np.linspace(start, stop, count))
    else:
        try:
            grid = tuple(float(p) for p in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad grid value: {exc}") from exc
    if not grid:
        raise ConfigError(f"line {lineno}: empty sweep grid")
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError(f"line {lineno}: sweep grid must be finite")
    return grid


def parse_config(text: str) -> ExperimentSpec:
    """Parse and fully validate a config file into an ExperimentSpec."""
    section = None
    run_kv: dict[str, str] = {}
    model_kv: dict[str, float | str] = {}
    state_kv: dict[str, float] = {}
    sweep: list[tuple[str, tuple[float, ...]]] = []
    output_kv: dict[str, str] = {}
    section_lines: dict[str, int] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("run", "model", "state", "sweep", "output"):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            section_lines[section] = lineno
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
        if section == "run":
            if key not in ("preset", "points", "collisions"):
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [run]")
            run_kv[key] = value
        elif section == "model":
            if key not in _MODEL_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [model]")
            if key == "mode":
                if value not in (MODE_EXACT, MODE_WEAK):
                    raise ConfigError(f"line {lineno}: mode must be {MODE_EXACT} or {MODE_WEAK}")
                model_kv[key] = value
            else:
                try:
                    model_kv[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: bad number for {key!r}: {value!r}") from exc
        elif section == "state":
            if key not in _STATE_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [state]")
            try:
                state_kv[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad number for {key!r}: {value!r}") from exc
        elif section == "sweep":
            if key not in _SWEEPABLE:
                raise ConfigError(f"line {lineno}: {key!r} is not a sweepable parameter")
            sweep.append((key, _parse_grid(value, lineno)))
        else:
            if key not in ("path", "quantities"):
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [output]")
            output_kv[key] = value

    preset = run_kv.get("preset", "custom")
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose one of {', '.join(PRESETS)}")
    try:
        points = int(run_kv.get("points", "512"))
        collisions = int(run_kv.get("collisions", "100"))
    except ValueError as exc:
        raise ConfigError(f"bad integer in [run]: {exc}") from exc

    if preset != "custom":
        for name in ("model", "state", "sweep"):
            if name in section_lines:
                raise ConfigError(
                    f"line {section_lines[name]}: preset {preset!r} takes no [{name}] overrides"
                )
        if "quantities" in output_kv:
            raise ConfigError(f"preset {preset!r} defines its own output quantities")
        return ExperimentSpec(
            preset=preset,
            cfg=None,
            state=None,
            out_path=output_kv.get("path"),
            points=points,
            collisions=collisions,
        )

    if "model" not in section_lines:
        raise ConfigError("custom run needs a [model] section")
    if "state" not in section_lines:
        raise ConfigError("custom run needs a [state] section")
    quantities = tuple(
        q.strip() for q in output_kv.get("quantities", "").split(",") if q.strip()
    )
    if not quantities:
        raise ConfigError("custom run needs [output] quantities")
    for q in quantities:
        if q not in QUANTITY_COLUMNS:
            raise ConfigError(
                f"unknown output quantity {q!r}; known: {', '.join(sorted(QUANTITY_COLUMNS))}"
            )
    cfg = _build_config(model_kv)
    state = _build_state(state_kv)
    return ExperimentSpec(
        preset="custom",
        cfg=cfg,
        state=state,
        sweep=tuple(sweep),
        outputs=quantities,
        out_path=output_kv.get("path"),
        points=points,
        collisions=collisions,
    )


def _build_config(kv: dict[str, float | str]) -> ModelConfig:
    required = ("omega_s", "omega_a", "g", "tau", "beta")
    for key in required:
        if key not in kv:
            raise ConfigError(f"[model] is missing required key {key!r}")
    return ModelConfig(
        omega_s=float(kv["omega_s"]),
        omega_a=float(kv["omega_a"]),
        g=float(kv["g"]),
        tau=float(kv["tau"]),
        beta=float(kv["beta"]),
        lam=float(kv.get("lambda", 0.0)),
        lam_tilde=float(kv.get("lambda_tilde", 0.0)),
        hbar=float(kv.get("hbar", 1.0)),
        mode=str(kv.get("mode", MODE_EXACT)),
    )


def _build_state(kv: dict[str, float]) -> SystemStateParams:
    if "rho11" not in kv:
        raise ConfigError("[state] is missing required key 'rho11'")
    return SystemStateParams(
        rho11=kv["rho11"], r=kv.get("r", 0.0), phi_c=kv.get("phi_c", 0.0)
    )


# --------------------------------------------------------------------------
# custom sweep execution


def _apply_parameter(cfg: ModelConfig, state: SystemStateParams, name: str, value: float):
    if name in _STATE_KEYS:
        return cfg, replace(state, **{name: value})
    field_name = {"lambda": "lam", "lambda_tilde": "lam_tilde"}.get(name, name)
    return replace(cfg, **{field_name: value}), state


def _real_mean(value: complex) -> float:
    # Physical averages are real; a visible imaginary part means the pipeline
    # is broken, not that truncation is in order.
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise RuntimeError(f"expected a real average, got {value}")
    return value.real


_MEAN_QUANTITIES = {
    "delta_e_s": kdq.US, "delta_e_a": kdq.UA, "delta_e_sa": kdq.USA, "w_mean": kdq.W, "q_mean": kdq.Q,
}


def _evaluate_outputs(
    cfg: ModelConfig, state: SystemStateParams, outputs: tuple[str, ...]
) -> list[float]:
    rho_s = build_system_state(state)
    dists: dict[str, kdq.KdqDistribution] = {}

    def dist(quantity: str) -> kdq.KdqDistribution:
        if quantity not in dists:
            dists[quantity] = kdq.kdq_distribution(quantity, rho_s, cfg)
        return dists[quantity]

    values: list[float] = []
    for name in outputs:
        if name in _MEAN_QUANTITIES:
            values.append(_real_mean(kdq.moments(dist(_MEAN_QUANTITIES[name])).mean))
        elif name.startswith("var_"):
            quantity = name[len("var_") :]
            var = kdq.moments(dist(quantity)).variance
            values.extend([var.real, var.imag])
        elif name.startswith(("n_q_", "n_re_", "n_im_")):
            kind, _, quantity = name.rpartition("_")
            report = kdq.nonpositivity(dist(quantity))
            values.append({"n_q": report.n_q, "n_re": report.n_re, "n_im": report.n_im}[kind])
        elif name == "analytic_delta_e_s":
            values.append(analytic.delta_e_s(cfg, state))
        elif name == "analytic_delta_e_s_envelopes":
            values.extend(analytic.delta_e_s_envelopes(cfg, state))
        elif name == "analytic_delta_e_sa":
            values.append(analytic.delta_e_sa(cfg, state))
        elif name == "analytic_delta_e_sa_limit":
            values.append(analytic.delta_e_sa_limit(cfg, state))
        else:
            raise ValueError(f"unknown output quantity {name!r}")
    return values


# A row's own numbers in an error message (not the 1 of "1/Z_A"), masked in skip reasons.
_ROW_NUMBER = re.compile(r"(?<=[\s=])[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?(?=[\s),:;]|$)")


def _run_custom(spec: ExperimentSpec) -> ResultTable:
    assert spec.cfg is not None and spec.state is not None
    sweep_names = [name for name, _ in spec.sweep]
    header = list(sweep_names) + ["skipped"]
    for name in spec.outputs:
        header.extend(QUANTITY_COLUMNS[name])
    n_output_cols = len(header) - len(sweep_names) - 1

    table = ResultTable(header=header)
    skip_reasons: dict[str, int] = {}
    combos = itertools.product(*(grid for _, grid in spec.sweep)) if spec.sweep else [()]
    for combo in combos:
        cfg, state = spec.cfg, spec.state
        row = list(combo)
        try:
            for name, value in zip(sweep_names, combo):
                cfg, state = _apply_parameter(cfg, state, name, value)
            outputs = _evaluate_outputs(cfg, state, spec.outputs)
        except ValueError as exc:
            reason = _ROW_NUMBER.sub("<x>", str(exc))
            skip_reasons[reason] = skip_reasons.get(reason, 0) + 1
            row.append(1.0)
            row.extend([math.nan] * n_output_cols)
        else:
            row.append(0.0)
            row.extend(outputs)
        table.rows.append(row)
    table.meta = {
        "preset": "custom",
        "model": _config_meta(spec.cfg),
        "state": _state_meta(spec.state),
        "sweep": {name: list(grid) for name, grid in spec.sweep},
        "quantities": list(spec.outputs),
        "skip_reasons": skip_reasons,
    }
    return table


def _config_meta(cfg: ModelConfig) -> dict:
    return {
        "mode": cfg.mode,
        "omega_s": cfg.omega_s,
        "omega_a": cfg.omega_a,
        "g": cfg.g,
        "tau": cfg.tau,
        "beta": cfg.beta,
        "lambda": cfg.lam,
        "lambda_tilde": cfg.lam_tilde,
        "hbar": cfg.hbar,
    }


def _state_meta(state: SystemStateParams) -> dict:
    return {"rho11": state.rho11, "r": state.r, "phi_c": state.phi_c}


# --------------------------------------------------------------------------
# figure presets

_R_MAX_QUARTER = math.sqrt(3.0) / 4.0  # r_max for rho11 = 1/4


def _nonpositivity_sweep(quantity: str, points: int) -> ResultTable:
    """Non-positivity witness of one distribution vs. coherence phase, for the
    detuned single collision at three temperatures and six pulse durations."""
    taus = [math.pi / 36, math.pi / 18, math.pi / 12, math.pi / 9, 5 * math.pi / 36, math.pi / 6]
    betas = [5.0, 1.0, 0.2]
    phis = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False).tolist()
    rho_s = np.array(
        [build_system_state(SystemStateParams(rho11=0.25, r=_R_MAX_QUARTER, phi_c=phi_c)) for phi_c in phis]
    )
    table = ResultTable(header=["beta", "tau", "phi_c", "n_q", "n_re", "n_im"])
    for beta in betas:
        for tau in taus:
            cfg = ModelConfig(omega_s=4.0, omega_a=1.0, g=1.0, tau=tau, beta=beta)
            cfg = replace(cfg, lam=cfg.lambda_max)
            # One kernel call and one witness reduction over the whole phase grid.
            matrix, _, _ = kdq._kernel(quantity, rho_s, cfg)
            witnesses = kdq._witnesses(matrix).tolist()
            table.rows.extend([beta, tau, phi_c, *w] for phi_c, w in zip(phis, witnesses))
    table.meta = {
        "quantity": quantity,
        "detuning": 3.0,
        "omega_a": 1.0,
        "omega_s": 4.0,
        "g": 1.0,
        "hbar": 1.0,
        "rho11": 0.25,
        "r": _R_MAX_QUARTER,
        "betas": betas,
        "taus": taus,
        "lambda": "lambda_max per beta",
        "lambda_max_values": [
            ModelConfig(omega_s=4.0, omega_a=1.0, g=1.0, tau=taus[0], beta=b).lambda_max
            for b in betas
        ],
        "phi_c_points": points,
    }
    return table


def _preset_fig1(spec: ExperimentSpec) -> ResultTable:
    table = _nonpositivity_sweep(kdq.US, spec.points)
    table.meta["preset"] = "fig1"
    return table


def _preset_fig2(spec: ExperimentSpec) -> ResultTable:
    table = _nonpositivity_sweep(kdq.USA, spec.points)
    table.meta["preset"] = "fig2"
    return table


def _preset_fig3a(spec: ExperimentSpec) -> ResultTable:
    state = SystemStateParams(rho11=0.25, r=_R_MAX_QUARTER, phi_c=math.pi / 4)
    base = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=math.pi / 6, beta=1.0)
    lam_max = base.lambda_max
    lams = [0.0, lam_max / 2.0, lam_max]
    deltas = np.linspace(-20.0, 20.0, spec.points)
    table = ResultTable(
        header=["lambda", "delta", "delta_e_s", "envelope_lower", "envelope_upper"]
    )
    for lam in lams:
        for delta in deltas:
            cfg = replace(base, omega_s=1.0 + float(delta), lam=lam)
            lo, hi = analytic.delta_e_s_envelopes(cfg, state)
            table.rows.append([lam, float(delta), analytic.delta_e_s(cfg, state), lo, hi])
    table.meta = {
        "preset": "fig3a",
        "model": _config_meta(base),
        "state": _state_meta(state),
        "lambdas": lams,
        "delta_range": [-20.0, 20.0],
        "delta_points": spec.points,
    }
    return table


def _preset_fig3b(spec: ExperimentSpec) -> ResultTable:
    state = SystemStateParams(rho11=0.25, r=_R_MAX_QUARTER, phi_c=math.pi / 4)
    base = ModelConfig(omega_s=21.0, omega_a=1.0, g=1.0, tau=1e-6, beta=1.0)
    lam_max = base.lambda_max
    lams = [-lam_max, -lam_max / 2.0, lam_max / 2.0, lam_max]
    taus = np.linspace(0.0, math.pi / 2.0, spec.points)
    table = ResultTable(header=["lambda", "tau", "delta_e_sa", "delta_e_sa_limit"])
    for lam in lams:
        for tau in taus:
            cfg = replace(base, tau=float(tau), lam=lam)
            table.rows.append(
                [lam, float(tau), analytic.delta_e_sa(cfg, state), analytic.delta_e_sa_limit(cfg, state)]
            )
    table.meta = {
        "preset": "fig3b",
        "model": _config_meta(base),
        "state": _state_meta(state),
        "detuning": 20.0,
        "lambdas": lams,
        "tau_range": [0.0, math.pi / 2.0],
        "tau_points": spec.points,
    }
    return table


def _variance_re(quantity: str, rho_s: np.ndarray, cfg: ModelConfig) -> float:
    return kdq.moments(kdq.kdq_distribution(quantity, rho_s, cfg)).variance.real


def _preset_fig4(spec: ExperimentSpec) -> ResultTable:
    """Variance of the system energy change and of the non-energy-preserving
    work: vs. detuning at lambda=0 (panel a), then vs. lambda at the local
    maxima of the panel-a curve, normalized to their lambda=0 value."""
    state = SystemStateParams(rho11=0.25, r=_R_MAX_QUARTER, phi_c=math.pi / 4)
    rho_s = build_system_state(state)
    base = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=math.pi / 6, beta=1.0)
    deltas = np.linspace(0.0, 20.0, spec.points)
    var_us0 = []
    var_usa0 = []
    for delta in deltas:
        cfg = replace(base, omega_s=1.0 + float(delta))
        var_us0.append(_variance_re(kdq.US, rho_s, cfg))
        var_usa0.append(_variance_re(kdq.USA, rho_s, cfg))

    table = ResultTable(
        header=[
            "panel", "delta", "lambda",
            "var_us_re", "var_usa_re", "var_us_norm", "var_usa_norm",
        ]
    )
    for delta, v_us, v_usa in zip(deltas, var_us0, var_usa0):
        table.rows.append([0.0, float(delta), 0.0, v_us, v_usa, math.nan, math.nan])

    # (delta, var_us, var_usa) at the local maxima of var_us, the lambda = 0 references.
    peaks = [
        (float(deltas[i]), var_us0[i], var_usa0[i])
        for i in range(1, len(deltas) - 1)
        if var_us0[i] > var_us0[i - 1] and var_us0[i] >= var_us0[i + 1]
    ][:3]
    lam_max = base.lambda_max
    lams = np.linspace(-lam_max, lam_max, spec.points)
    for delta, ref_us, ref_usa in peaks:
        for lam in lams:
            cfg = replace(base, omega_s=1.0 + delta, lam=float(lam))
            v_us = _variance_re(kdq.US, rho_s, cfg)
            v_usa = _variance_re(kdq.USA, rho_s, cfg)
            table.rows.append(
                [1.0, delta, float(lam), v_us, v_usa, v_us / ref_us, v_usa / ref_usa]
            )
    table.meta = {
        "preset": "fig4",
        "model": _config_meta(base),
        "state": _state_meta(state),
        "delta_range": [0.0, 20.0],
        "lambda_range": [-lam_max, lam_max],
        "points": spec.points,
        "peak_deltas": [delta for delta, _, _ in peaks],
        "panel": "0: delta sweep at lambda=0; 1: lambda sweep at each peak delta",
    }
    return table


def _fig56_config(tau: float) -> ModelConfig:
    cfg = ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=tau, beta=0.1)
    return replace(cfg, lam=cfg.lambda_max)


def _preset_fig5(spec: ExperimentSpec) -> ResultTable:
    """Coherent-work quasiprobabilities vs. collision time at resonance,
    grouped by the three stochastic work values (0, +hbar*omega, -hbar*omega)."""
    state = SystemStateParams(rho11=0.25, r=_R_MAX_QUARTER, phi_c=math.pi / 3)
    rho_s = build_system_state(state)
    taus = np.linspace(0.0, math.pi, spec.points)
    table = ResultTable(
        header=["tau", "w0_re", "w0_im", "wplus_re", "wplus_im", "wminus_re", "wminus_im"]
    )
    with warnings.catch_warnings():
        # The sweep intentionally crosses the g*tau = pi/6 validity border.
        warnings.simplefilter("ignore", kdq.ValidityWarning)
        for tau in taus:
            # Ancilla levels (+hbar*omega/2, -hbar*omega/2): w = 0, +hbar*omega, -hbar*omega.
            q = kdq.kdq_distribution(kdq.W, rho_s, _fig56_config(float(tau))).matrix
            w0, w_plus, w_minus = np.trace(q), q[0, 1], q[1, 0]
            table.rows.append(
                [float(tau), w0.real, w0.imag, w_plus.real, w_plus.imag, w_minus.real, w_minus.imag]
            )
    table.meta = {
        "preset": "fig5",
        "model": _config_meta(_fig56_config(0.0)),
        "state": _state_meta(state),
        "lambda": _fig56_config(0.0).lam,
        "tau_range": [0.0, math.pi],
        "tau_points": spec.points,
        "note": "ancilla-side coherent-work KDQ, entries summed per stochastic value",
    }
    return table


def _preset_fig6(spec: ExperimentSpec) -> ResultTable:
    """Operator-approach coherent work vs. collision time: the two work
    eigenvalues (descending) with their fixed probabilities."""
    from .smalltau import operator_approach

    state = SystemStateParams(rho11=0.25, r=_R_MAX_QUARTER, phi_c=math.pi / 3)
    rho_s = build_system_state(state)
    taus = np.linspace(0.0, math.pi, spec.points)
    table = ResultTable(header=["tau", "w_hi", "p_hi", "w_lo", "p_lo"])
    for tau in taus:
        spectrum = operator_approach(rho_s, _fig56_config(float(tau)))
        if len(spectrum.values) == 1:
            table.rows.append([float(tau), spectrum.values[0], spectrum.probs[0], spectrum.values[0], 0.0])
        else:
            table.rows.append(
                [float(tau), spectrum.values[0], spectrum.probs[0], spectrum.values[1], spectrum.probs[1]]
            )
    table.meta = {
        "preset": "fig6",
        "model": _config_meta(_fig56_config(0.0)),
        "state": _state_meta(state),
        "lambda": _fig56_config(0.0).lam,
        "tau_range": [0.0, math.pi],
        "tau_points": spec.points,
    }
    return table


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
    state = SystemStateParams(rho11=0.25, r=_R_MAX_QUARTER, phi_c=math.pi / 4)
    trajectory = evolve(build_system_state(state), cfg, spec.collisions, thermo=True)
    table = ResultTable(
        header=["step", "q_s", "q_a", "w_s", "w_a", "delta_e_s", "delta_e_a"]
    )
    for step, record in enumerate(trajectory.per_step, start=1):
        table.rows.append(
            [
                float(step),
                record.q_s, record.q_a, record.w_s, record.w_a,
                record.delta_e_s, record.delta_e_a,
            ]
        )
    table.meta = {
        "preset": "fig7",
        "model": _config_meta(cfg),
        "state": _state_meta(state),
        "collisions": spec.collisions,
        "beta_hbar_omega": cfg.beta * cfg.hbar * cfg.omega_a,
        "lambda": cfg.lam,
        "lambda_max": cfg.lambda_max,
        "pulse_area": cfg.g * cfg.tau,
    }
    return table


_PRESET_RUNNERS = {
    "fig1": _preset_fig1,
    "fig2": _preset_fig2,
    "fig3a": _preset_fig3a,
    "fig3b": _preset_fig3b,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
}


def run(spec: ExperimentSpec) -> ResultTable:
    """Execute a spec and write its CSV (plus metadata sidecar) if requested."""
    if spec.preset == "custom":
        table = _run_custom(spec)
    else:
        table = _PRESET_RUNNERS[spec.preset](spec)
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
    preset_parser.add_argument("--points", type=int, default=512)
    preset_parser.add_argument("--collisions", type=int, default=100)

    validate_parser = sub.add_parser("validate", help="check a config file")
    validate_parser.add_argument("config", type=Path)

    sub.add_parser("selftest", help="run the oracle-equivalence and invariant suites")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        from .selftest import run_selftest

        return run_selftest()

    try:
        if args.command == "preset":
            spec = ExperimentSpec(
                preset=args.name, cfg=None, state=None, points=args.points, collisions=args.collisions
            )
        else:
            spec = parse_config(args.config.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"ok: {args.config} is a valid {spec.preset} spec")
        return 0

    if args.out is not None:
        spec = replace(spec, out_path=str(args.out))
    if spec.out_path is None:
        spec = replace(spec, out_path=f"{spec.preset}.csv")
    try:
        table = run(spec)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{spec.preset}: wrote {len(table.rows)} rows to {spec.out_path}")
    reasons = table.meta.get("skip_reasons")
    if reasons and sum(reasons.values()) == len(table.rows):
        print(f"error: every row skipped; first reason: {next(iter(reasons))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
