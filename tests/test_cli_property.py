"""An accepted run is finite: custom sweeps over extreme parameter values.

Each example writes a custom config, an admissible base config and state
with 1-3 swept keys whose values range from subnormal to 1e300, both signs
and zeros, and runs it in-process through `main`.  The run either succeeds
or fails with one ``error:`` line; it never raises, never writes a
non-finite value in a row it did not skip, counts every skipped row under a
reason, and lets no NumPy `RuntimeWarning` through.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import admissible_cases
from kdcollide.cli import _FIELDS, _OUTPUTS, _SWEEPABLE, main
from kdcollide.model import ModelConfig, SystemStateParams

# Magnitudes log-uniform over [1e-320, 1e300], either sign, and both zeros.
_extreme = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda exponent, sign: sign * 10.0**exponent, st.floats(-320.0, 300.0), st.sampled_from([1.0, -1.0])),
)
_sweeps = st.lists(
    st.tuples(st.sampled_from(sorted(_SWEEPABLE)), st.lists(_extreme, min_size=1, max_size=3).map(tuple)),
    min_size=1, max_size=3, unique_by=lambda axis: axis[0],
).map(tuple)
_outputs = st.lists(st.sampled_from(sorted(_OUTPUTS)), min_size=1, max_size=5, unique=True).map(tuple)


def _config_text(cfg: ModelConfig, state: SystemStateParams, sweep, outputs) -> str:
    lines = ["[model]", f"mode = {cfg.mode}"]
    lines += [f"{key} = {getattr(cfg, name)!r}" for key, name in _FIELDS["model"].items() if key != "mode"]
    lines += ["[state]"] + [f"{key} = {getattr(state, name)!r}" for key, name in _FIELDS["state"].items()]
    lines += ["[sweep]"] + [f"{key} = {', '.join(map(repr, values))}" for key, values in sweep]
    lines += ["[output]", f"quantities = {', '.join(outputs)}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(case=admissible_cases(), sweep=_sweeps, outputs=_outputs)
# beta*hbar*omega_a overflows in the ancilla's thermal populations, in the kernel's and in the oracle's.
@example(
    case=(ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=0.5, beta=1.0), SystemStateParams(rho11=0.25)),
    sweep=(("beta", (1.0, 1e300)), ("omega_a", (1.0, 1e10))),
    outputs=("delta_e_s", "analytic_delta_e_s"),
)
# An exact config never uses lambda_tilde*sqrt(tau), which overflows here.
@example(
    case=(ModelConfig(omega_s=1.0, omega_a=1.0, g=1.0, tau=1e100, beta=1.0), SystemStateParams(rho11=0.25)),
    sweep=(("lambda_tilde", (1e300,)),),
    outputs=("delta_e_s",),
)
def test_accepted_run_is_finite(case, sweep, outputs):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "run.csv"
        config.write_text(_config_text(*case, sweep, outputs), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout):
                code = main(["run", str(config), "--out", str(out)])
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = stderr.getvalue()
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1
            if not out.exists():
                return
        else:
            assert code == 0 and err == ""
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines]
        skipped = header.split(",").index("skipped")
        assert all(math.isfinite(v) for row in rows if row[skipped] == 0.0 for v in row)
        meta = json.loads(Path(str(out) + ".meta.json").read_text(encoding="utf-8"))
        assert sum(meta["skip_reasons"].values()) == sum(row[skipped] == 1.0 for row in rows)
