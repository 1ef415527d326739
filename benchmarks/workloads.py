"""Seeded inputs, timed passes and the correctness gate of the three workloads.

phase_grid
    Presets fig1 (``us``) and fig2 (``usa``) through ``cli.run``: 18 model
    configs, each reused across a whole phase grid, so nearly every row
    shares its config with the previous row.  ``kdq`` and ``linalg`` do the
    work; ``collision``, ``smalltau`` and ``analytic`` sit idle.  The presets
    fix the library inputs; the seed picks the run order and the grid rows
    the gate recomputes.
config_sweep
    A seeded custom sweep whose innermost axis is a model parameter (no two
    consecutive rows share a config, and a known share of rows exceeds
    lambda_max and must come back skipped), the presets fig3a/fig3b/fig4/
    fig5/fig6, and ``run_selftest()``.  Model construction, ``analytic``, the
    cli parse/skip path and the self-check carry the load.
trajectory
    The SI-unit fig7 collision chain through ``cli.run``, seeded detuned,
    weak-mode and long non-thermo ``evolve`` chains, 100 seeded
    ``find_steady_state`` solves with pulse areas g*tau stratified over
    [0.1, 0.8], and one weak-mode ``integrate_master_equation`` run.
    ``collision`` and ``smalltau`` dominate.

Inputs are plain JSON data made from the seed; the library receives only
those.  Every parameter draw is stratified or bounded so that the amount of
work per pass barely depends on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("phase_grid", "config_sweep", "trajectory")

PHASE_PRESETS = ("fig1", "fig2")
PHASE_POINTS = 128
PHASE_CONFIGS = 18  # 3 temperatures x 6 pulse durations per preset
PHASE_CHECK_ROWS = 48

SWEEP_PRESETS = (("fig3a", 256), ("fig3b", 256), ("fig4", 64), ("fig5", 128), ("fig6", 128))
SWEEP_PHASES = 12
SWEEP_LAMBDAS = 16
SWEEP_LAMBDAS_OVER = 4  # lambda values beyond lambda_max: their rows must be skipped
SWEEP_QUANTITIES = (
    "delta_e_s", "delta_e_sa", "var_us", "var_usa", "n_q_us", "n_q_usa",
    "analytic_delta_e_s", "analytic_delta_e_sa",
)

FIG7_COLLISIONS = 400
THERMO_CHAIN_STEPS = 40
LONG_CHAINS = 4
LONG_CHAIN_STEPS = 400
SOLVES = 100
GTAU_RANGE = (0.1, 0.8)
RK4_STEPS = 1000

# CSV columns that are ModelConfig parameters; a row repeats its
# predecessor's config when all of these are equal.
MODEL_COLUMNS = ("omega_s", "omega_a", "g", "tau", "beta", "lambda", "lambda_tilde", "hbar", "delta")
TOL = 1e-10


# --------------------------------------------------------------------------
# input generation


def _lambda_max(beta: float, omega_a: float, hbar: float = 1.0) -> float:
    return 1.0 / (2.0 * math.cosh(0.5 * beta * hbar * omega_a))


def _state(rng: np.random.Generator) -> dict:
    rho11 = float(rng.uniform(0.2, 0.8))
    r = float(rng.uniform(0.3, 0.95) * math.sqrt(rho11 * (1.0 - rho11)))
    return {"rho11": rho11, "r": r, "phi_c": float(rng.uniform(0.0, 2.0 * math.pi))}


def _exact_config(rng: np.random.Generator, resonant: bool, gtau: float | None = None) -> dict:
    omega_a = float(rng.uniform(0.8, 1.2))
    tau = float(rng.uniform(0.2, 0.6))
    g = gtau / tau if gtau is not None else float(rng.uniform(0.5, 1.0))
    beta = float(rng.uniform(0.5, 2.0))
    detuning = 0.0 if resonant else float(rng.uniform(0.2, 0.6))
    return {
        "mode": "exact", "omega_s": omega_a + detuning, "omega_a": omega_a, "g": g, "tau": tau,
        "beta": beta, "lam": float(rng.uniform(-0.9, 0.9) * _lambda_max(beta, omega_a)),
    }


def _weak_config(rng: np.random.Generator) -> dict:
    tau = float(rng.uniform(0.05, 0.1))
    beta = float(rng.uniform(0.5, 2.0))
    lam_eff = float(rng.uniform(-0.9, 0.9) * _lambda_max(beta, 1.0))
    return {
        "mode": "weakly_coherent", "omega_s": 1.0, "omega_a": 1.0, "g": float(rng.uniform(0.8, 1.2)),
        "tau": tau, "beta": beta, "lam_tilde": lam_eff / math.sqrt(tau),
    }


def _preset_text(name: str, points: int | None = None, collisions: int | None = None) -> str:
    lines = ["[run]", f"preset = {name}"]
    if points is not None:
        lines.append(f"points = {points}")
    if collisions is not None:
        lines.append(f"collisions = {collisions}")
    return "\n".join(lines) + "\n"


def _sweep_text(rng: np.random.Generator) -> tuple[str, dict]:
    omega_a = float(rng.uniform(0.6, 1.4))
    g = float(rng.uniform(0.6, 1.2))
    tau = float(rng.uniform(0.25, 0.6))
    beta = float(rng.uniform(0.5, 2.0))
    lam_max = _lambda_max(beta, omega_a)
    state = _state(rng)
    omega_s = [omega_a, omega_a + float(rng.uniform(1.0, 3.0)), omega_a + float(rng.uniform(3.0, 6.0))]
    rng.shuffle(omega_s)
    phases = [2.0 * math.pi * (k + float(rng.uniform())) / SWEEP_PHASES for k in range(SWEEP_PHASES)]
    inside = SWEEP_LAMBDAS - SWEEP_LAMBDAS_OVER
    lambdas = [float(rng.uniform(-0.95, 0.95)) * lam_max for _ in range(inside)]
    lambdas += [float(rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 1.6)) * lam_max for _ in range(SWEEP_LAMBDAS_OVER)]
    rng.shuffle(lambdas)

    def values(xs):
        return ", ".join(repr(float(x)) for x in xs)

    text = "\n".join([
        "[run]", "preset = custom",
        "[model]", "mode = exact", f"omega_s = {omega_a!r}", f"omega_a = {omega_a!r}", f"g = {g!r}",
        f"tau = {tau!r}", f"beta = {beta!r}", "lambda = 0.0",
        "[state]", f"rho11 = {state['rho11']!r}", f"r = {state['r']!r}", "phi_c = 0.0",
        "[sweep]", f"omega_s = {values(omega_s)}", f"phi_c = {values(phases)}", f"lambda = {values(lambdas)}",
        "[output]", f"quantities = {', '.join(SWEEP_QUANTITIES)}",
    ]) + "\n"
    skipped_lambdas = sum(abs(lam) > lam_max for lam in lambdas)
    rows = len(omega_s) * len(phases) * len(lambdas)
    facts = {
        "rows": rows,
        "expected_skipped": skipped_lambdas * len(omega_s) * len(phases),
        "resonant_rows": len(phases) * len(lambdas),
    }
    return text, facts


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs as JSON data; equal seeds give equal inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "phase_grid":
        order = list(PHASE_PRESETS)
        rng.shuffle(order)
        rows = PHASE_CONFIGS * PHASE_POINTS
        return {
            "workload": workload,
            "runs": [{"name": name, "config": _preset_text(name, points=PHASE_POINTS)} for name in order],
            "check_rows": {
                name: sorted(int(i) for i in rng.choice(rows, PHASE_CHECK_ROWS, replace=False)) for name in order
            },
        }
    if workload == "config_sweep":
        text, facts = _sweep_text(rng)
        runs = [{"name": "custom", "config": text}]
        presets = list(SWEEP_PRESETS)
        rng.shuffle(presets)
        runs += [{"name": name, "config": _preset_text(name, points=points)} for name, points in presets]
        return {"workload": workload, "runs": runs, "sweep": facts}
    if workload == "trajectory":
        chains = [
            {"cfg": _exact_config(rng, resonant=False), "state": _state(rng), "n": THERMO_CHAIN_STEPS, "thermo": True},
            {"cfg": _weak_config(rng), "state": _state(rng), "n": THERMO_CHAIN_STEPS, "thermo": True},
        ]
        chains += [
            {"cfg": _exact_config(rng, resonant=k % 2 == 0), "state": _state(rng), "n": LONG_CHAIN_STEPS, "thermo": False}
            for k in range(LONG_CHAINS)
        ]
        lo, hi = GTAU_RANGE
        # One pulse area per stratum keeps the iteration total nearly seed-independent.
        gtaus = [lo + (hi - lo) * (k + float(rng.uniform())) / SOLVES for k in range(SOLVES)]
        solves = [_exact_config(rng, resonant=k % 2 == 0, gtau=gt) for k, gt in enumerate(gtaus)]
        order = rng.permutation(SOLVES)
        rk4_cfg = _weak_config(rng)
        return {
            "workload": workload,
            "runs": [{"name": "fig7", "config": _preset_text("fig7", collisions=FIG7_COLLISIONS)}],
            "chains": chains,
            "solves": [solves[i] for i in order],
            "rk4": {"cfg": rk4_cfg, "state": _state(rng), "steps": RK4_STEPS},
        }
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def input_properties(inputs: dict) -> dict:
    """Shares of resonant, weak-mode and expected-skipped cases among the
    configurations the benchmark generates, and the pulse-area range of the
    solves; 0 where the workload generates none."""
    props = {"resonant_share": 0.0, "weak_share": 0.0, "skip_share": 0.0, "gtau_min": 0.0, "gtau_max": 0.0}
    if inputs["workload"] == "config_sweep":
        sweep = inputs["sweep"]
        props["resonant_share"] = sweep["resonant_rows"] / sweep["rows"]
        props["skip_share"] = sweep["expected_skipped"] / sweep["rows"]
    elif inputs["workload"] == "trajectory":
        cfgs = [c["cfg"] for c in inputs["chains"]] + inputs["solves"] + [inputs["rk4"]["cfg"]]
        props["resonant_share"] = sum(c["omega_s"] == c["omega_a"] for c in cfgs) / len(cfgs)
        props["weak_share"] = sum(c["mode"] == "weakly_coherent" for c in cfgs) / len(cfgs)
        gtaus = [c["g"] * c["tau"] for c in inputs["solves"]]
        props["gtau_min"], props["gtau_max"] = min(gtaus), max(gtaus)
    return props


# --------------------------------------------------------------------------
# timed passes


@dataclass
class Timing:
    """Durations and counts of a pass or of one section of it."""

    wall_s: float = 0.0
    cli_s: float = 0.0
    rows: int = 0
    solve_s: list[float] = field(default_factory=list)
    chain_s: float = 0.0
    chain_collisions: int = 0
    selftest_s: float = 0.0


@dataclass
class PassResult(Timing):
    """A pass's times in reference-speed seconds (see `calibrate`), its raw
    work time and calibration time, and the library results the gate and
    the output statistics read."""

    raw_wall_s: float = 0.0
    probe_s: float = 0.0
    csv_paths: dict = field(default_factory=dict)
    trajectories: list = field(default_factory=list)
    steady: list = field(default_factory=list)
    rk4_states: list = field(default_factory=list)
    selftest_rc: int | None = None
    selftest_out: str = ""
    digest: str = ""

    def absorb(self, t: Timing, scale: float) -> None:
        self.raw_wall_s += t.wall_s
        self.wall_s += scale * t.wall_s
        self.cli_s += scale * t.cli_s
        self.rows += t.rows
        self.solve_s += [scale * s for s in t.solve_s]
        self.chain_s += scale * t.chain_s
        self.chain_collisions += t.chain_collisions
        self.selftest_s += scale * t.selftest_s

    @property
    def scale(self) -> float:
        return self.wall_s / self.raw_wall_s

    def csv_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.csv_paths):
            h.update(Path(self.csv_paths[name]).read_bytes())
        return h.hexdigest()

    def release(self) -> None:
        """Drop the library results, keeping times and counts."""
        self.csv_paths = {}
        self.trajectories, self.steady, self.rk4_states = [], [], []


def _model(cfg: dict):
    from kdcollide.model import ModelConfig

    return ModelConfig(**cfg)


def _rho(state: dict):
    from kdcollide.model import SystemStateParams, build_system_state

    return build_system_state(SystemStateParams(**state))


def _cli_runs(runs: list[dict], out_dir: Path, result: PassResult, t: Timing, now) -> None:
    from kdcollide import cli

    for run in runs:
        path = out_dir / f"{run['name']}.csv"
        t0 = now()
        spec = replace(cli.parse_config(run["config"]), out_path=str(path))
        table = cli.run(spec)
        t.cli_s += now() - t0
        t.rows += len(table.rows)
        result.csv_paths[run["name"]] = path


def _selftest(result: PassResult, t: Timing, now) -> None:
    from kdcollide import selftest

    buffer = io.StringIO()
    t0 = now()
    with contextlib.redirect_stdout(buffer):
        result.selftest_rc = selftest.run_selftest()
    t.selftest_s += now() - t0
    result.selftest_out = buffer.getvalue()


def _chains(chains: list[dict], result: PassResult, t: Timing, now) -> None:
    from kdcollide import collision

    for chain in chains:
        t0 = now()
        trajectory = collision.evolve(_rho(chain["state"]), _model(chain["cfg"]), chain["n"], thermo=chain["thermo"])
        t.chain_s += now() - t0
        t.chain_collisions += chain["n"]
        result.trajectories.append(trajectory)


def _solves(cfgs: list[dict], result: PassResult, t: Timing, now) -> None:
    from kdcollide import collision

    for cfg in cfgs:
        t0 = now()
        result.steady.append(collision.find_steady_state(_model(cfg)))
        t.solve_s.append(now() - t0)


def _rk4(rk4: dict, result: PassResult, t: Timing, now) -> None:
    from kdcollide import smalltau

    cfg = _model(rk4["cfg"])
    dt = cfg.tau / 20.0
    _, result.rk4_states = smalltau.integrate_master_equation(_rho(rk4["state"]), cfg, rk4["steps"] * dt, dt)


def _sections(inputs: dict, out_dir: Path) -> list:
    """The pass cut into sections; each gets the speed factor sampled
    while it ran."""
    runs = inputs["runs"]
    if inputs["workload"] == "phase_grid":
        return [functools.partial(_cli_runs, runs, out_dir)]
    if inputs["workload"] == "config_sweep":
        return [
            functools.partial(_cli_runs, runs[:1], out_dir),
            functools.partial(_cli_runs, runs[1:], out_dir),
            _selftest,
        ]
    return [
        functools.partial(_cli_runs, runs, out_dir),
        functools.partial(_chains, inputs["chains"]),
        functools.partial(_solves, inputs["solves"]),
        functools.partial(_rk4, inputs["rk4"]),
    ]


def run_pass(inputs: dict, out_dir: Path, clock) -> PassResult:
    """One timed pass over the workload's inputs; `clock` (an active
    `calibrate.Clock`) supplies work time and speed factors."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result = PassResult()
    for section in _sections(inputs, out_dir):
        t = Timing()
        probe_s, t0 = clock.probe_s, clock.now()
        section(result, t, clock.now)
        t.wall_s = clock.now() - t0
        result.probe_s += clock.probe_s - probe_s
        result.absorb(t, clock.factor())
    return result


# --------------------------------------------------------------------------
# output statistics


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)


def output_stats(result: PassResult) -> dict:
    """Rows, skipped rows, CSV bytes and the share of rows whose model config
    equals the previous row's, over every CSV of the pass."""
    rows = skipped = repeats = size = 0
    for path in result.csv_paths.values():
        header, data = read_csv(path)
        size += Path(path).stat().st_size
        rows += len(data)
        if "skipped" in header:
            skipped += int(np.count_nonzero(data[:, header.index("skipped")]))
        cols = [header.index(c) for c in MODEL_COLUMNS if c in header]
        keys = data[:, cols]
        repeats += int(np.count_nonzero(np.all(keys[1:] == keys[:-1], axis=1))) if len(data) > 1 else 0
    return {
        "rows": rows,
        "rows_skipped": skipped,
        "csv_bytes": size,
        "config_repeat_share": repeats / rows if rows else 0.0,
    }


# --------------------------------------------------------------------------
# correctness gate


class Gate:
    """Counts attempted and failed checks; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


_SZ = np.diag([1.0, -1.0]).astype(complex)
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _reference_unitary(omega_s, omega_a, g, tau, hbar=1.0):
    from scipy.linalg import expm

    h = hbar * (
        0.5 * omega_s * np.kron(_SZ, _I2) + 0.5 * omega_a * np.kron(_I2, _SZ)
        + g * (np.kron(_SP, _SP.T) + np.kron(_SP.T, _SP))
    )
    return expm(-1j * h * tau / hbar)


def _reference_states(rho11, r, phi_c, beta, omega_a, lam, hbar=1.0):
    x = 0.5 * beta * hbar * omega_a
    z = 2.0 * math.cosh(x)
    rho_a = np.array([[math.exp(-x) / z, lam], [lam, math.exp(x) / z]], dtype=complex)
    c = r * complex(math.cos(phi_c), math.sin(phi_c))
    rho_s = np.array([[rho11, c], [c.conjugate(), 1.0 - rho11]], dtype=complex)
    return rho_s, rho_a


def reference_witnesses(quantity, rho_s, rho_a, u):
    """(n_q, n_re, n_im) from Q[i,f] = (W U^dag)[i,f] U[f,i], W = rho_S (x) rho_A."""
    w = np.kron(rho_s, rho_a)
    q = (w @ u.conj().T) * u.T
    if quantity == "us":
        q = q.reshape(2, 2, 2, 2).sum(axis=(1, 3))
    q = q.ravel()
    return np.sum(np.abs(q)) - 1.0, np.sum(np.abs(q.real)) - 1.0, np.sum(np.abs(q.imag))


def _is_density_matrix(m: np.ndarray) -> bool:
    m = np.asarray(m)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        return False
    hermitian = np.max(np.abs(m - m.conj().T)) <= TOL
    unit_trace = abs(np.trace(m) - 1.0) <= TOL
    return bool(hermitian and unit_trace and np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -TOL)


def _meta(path: Path) -> dict:
    return json.loads(Path(str(path) + ".meta.json").read_text(encoding="utf-8"))


def _check_phase_grid(inputs: dict, result: PassResult, gate: Gate) -> None:
    for name, quantity in (("fig1", "us"), ("fig2", "usa")):
        path = result.csv_paths[name]
        header, data = read_csv(path)
        meta = _meta(path)
        gate.check(len(data) == PHASE_CONFIGS * PHASE_POINTS and meta["rows"] == len(data), f"{name}: row count")
        col = {c: header.index(c) for c in header}
        lam_of = dict(zip(meta["betas"], meta["lambda_max_values"]))
        for i in inputs["check_rows"][name]:
            row = data[i]
            beta, tau, phi_c = row[col["beta"]], row[col["tau"]], row[col["phi_c"]]
            u = _reference_unitary(meta["omega_s"], meta["omega_a"], meta["g"], tau, meta["hbar"])
            rho_s, rho_a = _reference_states(meta["rho11"], meta["r"], phi_c, beta, meta["omega_a"], lam_of[beta], meta["hbar"])
            ref = reference_witnesses(quantity, rho_s, rho_a, u)
            got = (row[col["n_q"]], row[col["n_re"]], row[col["n_im"]])
            gate.check(max(abs(a - b) for a, b in zip(ref, got)) <= TOL, f"{name} row {i}: witnesses off reference")


def _check_config_sweep(inputs: dict, result: PassResult, gate: Gate) -> None:
    sweep = inputs["sweep"]
    header, data = read_csv(result.csv_paths["custom"])
    col = {c: header.index(c) for c in header}
    gate.check(len(data) == sweep["rows"], "custom: row count")
    skipped = data[:, col["skipped"]] == 1.0
    gate.check(int(np.count_nonzero(skipped)) == sweep["expected_skipped"], "custom: skipped-row count")
    outputs = data[:, col["skipped"] + 1:]
    gate.check(bool(np.all(np.isnan(outputs[skipped]))), "custom: skipped rows must hold NaN")
    for i in np.flatnonzero(~skipped):
        row = data[i]
        gate.check(bool(np.all(np.isfinite(outputs[i]))), f"custom row {i}: NaN output")
        for numeric, closed in (("delta_e_s", "analytic_delta_e_s"), ("delta_e_sa", "analytic_delta_e_sa")):
            ref = row[col[closed]]
            gate.check(abs(row[col[numeric]] - ref) <= TOL * max(1.0, abs(ref)), f"custom row {i}: {numeric} off {closed}")
    for name, points in SWEEP_PRESETS:
        header, data = read_csv(result.csv_paths[name])
        gate.check(len(data) >= points and _meta(result.csv_paths[name])["rows"] == len(data), f"{name}: row count")
        if name != "fig4":  # fig4 panel 0 carries NaN normalisations by design
            gate.check(bool(np.all(np.isfinite(data))), f"{name}: non-finite output")
    gate.check(result.selftest_rc == 0, "run_selftest() did not return 0")


def _check_trajectory(inputs: dict, result: PassResult, gate: Gate) -> None:
    path = result.csv_paths["fig7"]
    header, data = read_csv(path)
    meta = _meta(path)
    col = {c: header.index(c) for c in header}
    quantum = meta["model"]["hbar"] * meta["model"]["omega_s"]
    gate.check(len(data) == FIG7_COLLISIONS, "fig7: row count")
    for i, row in enumerate(data):
        de_s, de_a = row[col["delta_e_s"]], row[col["delta_e_a"]]
        # Resonant chain: delta_e_sa vanishes, and each side splits into q + w.
        gate.check(abs(de_s + de_a) <= TOL * quantum, f"fig7 step {i + 1}: first law")
        gate.check(abs(row[col["q_s"]] + row[col["w_s"]] - de_s) <= TOL * quantum, f"fig7 step {i + 1}: system split")
        gate.check(abs(row[col["q_a"]] + row[col["w_a"]] - de_a) <= TOL * quantum, f"fig7 step {i + 1}: ancilla split")
    for k, (chain, trajectory) in enumerate(zip(inputs["chains"], result.trajectories)):
        cfg = chain["cfg"]
        scale = max(1.0, cfg.get("hbar", 1.0) * max(abs(cfg["omega_s"]), abs(cfg["omega_a"])))
        gate.check(len(trajectory.states) == chain["n"] + 1, f"chain {k}: state count")
        gate.check(len(trajectory.per_step) == (chain["n"] if chain["thermo"] else 0), f"chain {k}: record count")
        for step, rec in enumerate(trajectory.per_step, start=1):
            gate.check(abs(rec.delta_e_s + rec.delta_e_a - rec.delta_e_sa) <= TOL * scale, f"chain {k} step {step}: first law")
        for step, state in enumerate(trajectory.states):
            gate.check(_is_density_matrix(state), f"chain {k} state {step}: not a density matrix")
    for k, (cfg, res) in enumerate(zip(inputs["solves"], result.steady)):
        gate.check(bool(res.converged) and res.residual <= 10 * 1e-12, f"solve {k}: not converged")
        gate.check(_is_density_matrix(res.state), f"solve {k}: not a density matrix")
        # Independent fixed-point check with a reference propagator.
        u = _reference_unitary(cfg["omega_s"], cfg["omega_a"], cfg["g"], cfg["tau"])
        _, rho_a = _reference_states(0.5, 0.0, 0.0, cfg["beta"], cfg["omega_a"], cfg["lam"])
        joint = u @ np.kron(res.state, rho_a) @ u.conj().T
        image = np.einsum("ikjk->ij", joint.reshape(2, 2, 2, 2))
        gate.check(np.max(np.abs(image - res.state)) <= 1e-9, f"solve {k}: state is not a fixed point")
    gate.check(len(result.rk4_states) == inputs["rk4"]["steps"] + 1, "rk4: state count")
    for step, state in enumerate(result.rk4_states):
        gate.check(_is_density_matrix(state), f"rk4 state {step}: not a density matrix")


_CHECKS = {
    "phase_grid": _check_phase_grid,
    "config_sweep": _check_config_sweep,
    "trajectory": _check_trajectory,
}


def check(inputs: dict, result: PassResult, gate: Gate) -> None:
    """Check every output of one pass against references and invariants."""
    _CHECKS[inputs["workload"]](inputs, result, gate)
