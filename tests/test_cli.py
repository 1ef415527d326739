import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kdcollide import analytic, cli, kdq, model
from kdcollide.cli import (
    ConfigError,
    ExperimentSpec,
    ResultTable,
    fig7_config,
    main,
    parse_config,
    run,
    write_csv,
)
from kdcollide.kdq import ValidityWarning, kdq_distribution, nonpositivity
from kdcollide.model import ModelConfig, SystemStateParams, build_system_state

CUSTOM_CONFIG = """
[run]
preset = custom

[model]
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
phi_c = linspace(0.0, 6.0, 5)

[output]
quantities = delta_e_s, n_q_us, var_us
"""
# A custom run of ten lines, every required key given once.
MINIMAL_CUSTOM = (
    "[model]\nomega_s = 1.0\nomega_a = 1.0\ng = 1.0\ntau = 0.1\nbeta = 1.0\n"
    "[state]\nrho11 = 0.5\n[output]\nquantities = delta_e_s\n"
)


class TestParseConfig:
    def test_minimal_preset(self):
        spec = parse_config("[run]\npreset = fig5\n")
        assert spec.preset == "fig5"
        assert spec.points == 512

    def test_custom_round_trip(self):
        spec = parse_config(CUSTOM_CONFIG)
        assert spec.preset == "custom"
        assert spec.cfg.omega_s == 4.0
        assert spec.cfg.lam == 0.2
        assert spec.state.rho11 == 0.25
        assert spec.sweep[0][0] == "phi_c"
        assert len(spec.sweep[0][1]) == 5
        assert spec.outputs == ("delta_e_s", "n_q_us", "var_us")

    def test_sweep_values_are_one_read_only_array(self):
        # A linspace is kept as NumPy's own array, not as Python floats too:
        # parsing 2e5 points allocates less than twice their 1.6 MB.
        sweep = "phi_c = linspace(0.0, 6.0, 200000)\nlambda = 0.1, -0.0, 0.2"
        text = CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", sweep)
        tracemalloc.start()
        try:
            spec = parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 200_000 * 8
        (phi_c, phases), (lam, lams) = spec.sweep
        assert (phi_c, lam) == ("phi_c", "lambda")
        for values in (phases, lams):
            assert isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable
        assert np.array_equal(phases, np.linspace(0.0, 6.0, 200_000))
        assert lams.tolist() == [0.1, -0.0, 0.2] and math.copysign(1.0, lams[1]) == -1.0

    def test_unknown_key_reports_line(self):
        text = "[model]\nomega_s = 1.0\nfrequency = 2.0\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(text)

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[run]\npreset fig5\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[experiment]\n")

    def test_lambda_bound_violation_names_bound(self):
        text = (
            "[run]\npreset = custom\n"
            "[model]\nomega_s = 1.0\nomega_a = 1.0\ng = 1.0\ntau = 0.1\nbeta = 1.0\n"
            "lambda = 0.9\n"
            "[state]\nrho11 = 0.5\n"
            "[output]\nquantities = delta_e_s\n"
        )
        with pytest.raises(ValueError, match="0.443"):
            parse_config(text)

    def test_negative_tau_rejected(self):
        text = (
            "[run]\npreset = custom\n"
            "[model]\nomega_s = 1.0\nomega_a = 1.0\ng = 1.0\ntau = -0.1\nbeta = 1.0\n"
            "[state]\nrho11 = 0.5\n"
            "[output]\nquantities = delta_e_s\n"
        )
        with pytest.raises(ValueError, match="tau"):
            parse_config(text)

    def test_preset_rejects_overrides(self):
        with pytest.raises(ConfigError, match="no \\[model\\] overrides"):
            parse_config("[run]\npreset = fig5\n[model]\ng = 1.0\n")

    def test_unknown_quantity(self):
        text = CUSTOM_CONFIG.replace("delta_e_s, n_q_us, var_us", "entropy")
        with pytest.raises(ConfigError, match="unknown output quantity"):
            parse_config(text)

    def test_unknown_sweep_parameter(self):
        text = CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", "mode = 1, 2")
        with pytest.raises(ConfigError, match="not a sweepable"):
            parse_config(text)

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("omega_a = 1.0", "omega_a = 1.0\nomega_a = 2.0", 8),
            ("phi_c = linspace(0.0, 6.0, 5)", "g = 1, 2\ng = 3", 20),
        ],
        ids=["model", "sweep"],
    )
    def test_duplicate_key_rejected(self, old, new, line):
        with pytest.raises(ConfigError, match=f"line {line}: duplicate key"):
            parse_config(CUSTOM_CONFIG.replace(old, new))

    def test_duplicate_quantity_rejected(self):
        text = CUSTOM_CONFIG.replace("delta_e_s, n_q_us, var_us", "delta_e_s, var_us, delta_e_s")
        with pytest.raises(ConfigError, match="line 22: duplicate quantity 'delta_e_s'"):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL_CUSTOM + "[sweep]\nphi_c = linspace(0, 1)\n", "line 12: linspace needs (start, stop, count)"),
            (
                MINIMAL_CUSTOM + "[sweep]\nphi_c = linspace(0, x, 3)\n",
                "line 12: bad linspace arguments: could not convert string to float: 'x'",
            ),
            (MINIMAL_CUSTOM + "[sweep]\nphi_c = linspace(0, 1, 0)\n", "line 12: linspace count must be >= 1"),
            (
                MINIMAL_CUSTOM + "[sweep]\nphi_c = 0.1, x\n",
                "line 12: bad grid value: could not convert string to float: ' x'",
            ),
            (MINIMAL_CUSTOM + "[sweep]\nphi_c = 0.1, inf\n", "line 12: sweep grid must be finite"),
            ("# comment\ng = 1.0\n[model]\n", "line 2: key outside of any [section]"),
            ("[model]\ng =\n", "line 2: empty value for 'g'"),
            ("[run]\nfoo =\n", "line 2: empty value for 'foo'"),
            ("[run]\npreset = fig5\nfoo = 1\n", "line 3: unknown key 'foo' in [run]"),
            ("[model]\nmode = strong\n", "line 2: mode must be exact or weakly_coherent"),
            ("[model]\ng = 1.0\ng = x\n", "line 3: duplicate key 'g' in [model] (first on line 2)"),
            ("[state]\nrho11 = x\n", "line 2: bad number for 'rho11': 'x'"),
            ("[state]\nrho = 0.5\n", "line 2: unknown key 'rho' in [state]"),
            ("[output]\npath = a.csv\nfoo = 1\n", "line 3: unknown key 'foo' in [output]"),
            (
                "[run]\npreset = fig9\npoints = x\n",
                "unknown preset 'fig9'; choose one of fig1, fig2, fig3a, fig3b, fig4, fig5, fig6, fig7, custom",
            ),
            ("[run]\npreset = fig5\npoints = x\n", "bad integer in [run]: invalid literal for int() with base 10: 'x'"),
            (
                "[run]\npreset = fig5\n[output]\nquantities = delta_e_s\n",
                "preset 'fig5' defines its own output quantities",
            ),
            ("[run]\npreset = fig5\n[output]\n[state]\n", "line 4: preset 'fig5' takes no [state] overrides"),
            ("[state]\nrho11 = 0.5\n[output]\nquantities = delta_e_s\n", "custom run needs a [model] section"),
            ("[model]\ng = 1.0\n[output]\nquantities = delta_e_s\n", "custom run needs a [state] section"),
            ("[model]\ng = 1.0\n[state]\nrho11 = 0.5\n[output]\npath = a.csv\n", "custom run needs [output] quantities"),
            ("[model]\ng = 1.0\n[state]\n[output]\nquantities = delta_e_s\n", "[model] is missing required key 'omega_s'"),
            (MINIMAL_CUSTOM.replace("tau = 0.1\n", ""), "[model] is missing required key 'tau'"),
            (MINIMAL_CUSTOM.replace("rho11 = 0.5", "r = 0.0"), "[state] is missing required key 'rho11'"),
        ],
    )
    def test_config_error_message(self, text, message):
        with pytest.raises(ConfigError) as error:
            parse_config(text)
        assert str(error.value) == message


class TestCustomRun:
    def test_sweep_table_shape(self, tmp_path):
        spec = parse_config(CUSTOM_CONFIG)
        table = run(spec)
        assert table.header[:2] == ["phi_c", "skipped"]
        assert len(table.rows) == 5
        assert all(row[1] == 0.0 for row in table.rows)

    def test_each_skip_message_masked_once(self, monkeypatch):
        # The rows of a config share its message, which is masked once however many rows it skips.
        text = (Path(__file__).parent / "golden" / "custom.cfg").read_text(encoding="utf-8")
        text = text.replace("lambda = -0.3, 0.0, 0.2, 0.5", "lambda = -0.3, 0.5, 0.6, 0.7")
        messages, pattern = [], cli._ROW_NUMBER
        masking = mock.Mock(sub=lambda repl, message: messages.append(message) or pattern.sub(repl, message))
        monkeypatch.setattr(cli, "_ROW_NUMBER", masking)
        _, skipped, skip_reasons = cli._sweep(parse_config(text))
        assert skip_reasons == {"ancilla coherence <x> exceeds the positivity bound 1/Z_A = <x>": 12}
        assert skipped.sum() == 12 and len(messages) == len(set(messages)) == 3

    @staticmethod
    def _evaluated_on_the_grid(spec, tmp_path):
        """Runs ``spec``; asserts one evaluator call on the grid's own state and config-index arrays with the
        kept rows, and a CSV with the bytes that evaluating copies of the kept rows gives; returns the skip mask."""
        spec = replace(spec, out_path=str(tmp_path / "run.csv"))
        sweeps = []

        def recorded(spec):
            sweeps.append(sweep(spec))
            return sweeps[-1]

        sweep = cli._sweep
        with mock.patch.object(cli, "_sweep", recorded):
            with mock.patch.object(cli, "_evaluate", wraps=cli._evaluate) as evaluate:
                table = run(spec)
        (grid, skipped, _), = sweeps
        (call,) = evaluate.call_args_list
        kept = np.flatnonzero(~skipped)
        assert call.args[1] is grid.states and call.args[3] is grid.which and np.array_equal(call.args[4], kept)
        header = table.header[len(spec.sweep) :]  # "skipped", then the value columns
        copied = np.full((len(skipped), len(header) - 1), math.nan)
        copied[kept] = cli._evaluate(
            grid.cfgs, grid.states.take(kept), spec.outputs, grid.which[kept], np.arange(len(kept))
        )
        write_csv(cli._table(spec, grid, spec.sweep, [skipped, copied], header, table.meta), tmp_path / "copied.csv")
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "copied.csv").read_bytes()
        return skipped

    def test_sweep_without_skipped_rows_evaluates_the_grid_itself(self, tmp_path):
        # With no row skipped, the evaluator reads the grid's own state and
        # config-index arrays, not copies of them, and the CSV has the bytes
        # that evaluating copies of every row gives.
        assert not self._evaluated_on_the_grid(parse_config(CUSTOM_CONFIG), tmp_path).any()

    def test_sweep_with_skipped_rows_evaluates_the_grid_itself(self, tmp_path):
        # The golden sweep skips its four lambda = 0.5 rows; the evaluator still
        # reads the grid's own arrays, at the kept rows, in one call.
        spec = parse_config((Path(__file__).parent / "golden" / "custom.cfg").read_text(encoding="utf-8"))
        assert self._evaluated_on_the_grid(spec, tmp_path).sum() == 4

    def test_complex_average_raises(self, monkeypatch):
        # A mean with a visible imaginary part means a broken pipeline: the run stops, naming the value.
        moments = kdq._moments

        def complex_mean(matrix, levels):
            mean, second, variance = moments(matrix, levels)
            return mean + 1e-3j, second, variance

        monkeypatch.setattr(kdq, "_moments", complex_mean)
        with pytest.raises(RuntimeError, match=r"^expected a real average, got \(\S+\+0\.001j\)$"):
            run(parse_config(CUSTOM_CONFIG))

    def test_each_part_builds_only_its_own_states(self, monkeypatch):
        # The evaluator builds the 2x2 states of one part of the configs at a
        # time, never a stack of the whole sweep; the parts give the same bits.
        spec = parse_config(CUSTOM_CONFIG.replace("linspace(0.0, 6.0, 5)", "linspace(0.0, 6.0, 200)"))
        whole = run(spec).rows
        sizes = []

        def recorded(states):
            sizes.append(len(states))
            return system_states(states)

        system_states = cli.build_system_state
        monkeypatch.setattr(model, "_PART_ROWS", 64)
        monkeypatch.setattr(cli, "build_system_state", recorded)
        assert np.array_equal(run(spec).rows, whole)
        assert sizes == [64, 64, 64, 8]

    def test_one_kernel_and_reduction_call_per_quantity_and_part(self, monkeypatch):
        outputs = "delta_e_s, var_us, n_q_us, n_re_us, analytic_delta_e_s, analytic_delta_e_sa"
        text = CUSTOM_CONFIG.replace("linspace(0.0, 6.0, 5)", "linspace(0.0, 6.0, 200)")
        spec = parse_config(text.replace("delta_e_s, n_q_us, var_us", outputs))
        monkeypatch.setattr(model, "_PART_ROWS", 64)
        calls = {}
        for module, name in [(kdq, "_kernel"), (kdq, "_moments"), (kdq, "_witnesses"),
                             (analytic, "_delta_e_s"), (analytic, "_delta_e_sa")]:
            calls[name] = mock.Mock(wraps=getattr(module, name))
            monkeypatch.setattr(module, name, calls[name])
        assert len(run(spec).rows) == 200
        assert [c.args[0] for c in calls["_kernel"].call_args_list] == ["us"] * 4
        assert calls["_moments"].call_count == calls["_witnesses"].call_count == 4
        (oracle_s,), (oracle_sa,) = calls["_delta_e_s"].call_args_list, calls["_delta_e_sa"].call_args_list
        assert oracle_s.args[0] is oracle_sa.args[0]

    def test_empty_sweep_single_row(self):
        text = CUSTOM_CONFIG.replace("[sweep]\nphi_c = linspace(0.0, 6.0, 5)\n", "")
        table = run(parse_config(text))
        assert len(table.rows) == 1

    def test_lambda_bound_rows_flagged(self):
        text = CUSTOM_CONFIG.replace(
            "phi_c = linspace(0.0, 6.0, 5)", "lambda = 0.0, 0.2, 0.9"
        )
        table = run(parse_config(text))
        flags = [row[1] for row in table.rows]
        assert flags == [0.0, 0.0, 1.0]
        assert math.isnan(table.rows[2][2])

    @pytest.mark.parametrize(
        "base, first, second",
        [
            (("lambda = 0.2", "lambda = 0.4"), "beta = 5.0", "lambda = 0.05"),
            (("rho11 = 0.25\nr = 0.4330127018922193", "rho11 = 0.5\nr = 0.5"), "rho11 = 0.9", "r = 0.1"),
        ],
        ids=["beta-lambda", "rho11-r"],
    )
    def test_sweep_order_does_not_skip_valid_rows(self, base, first, second):
        # Alone, the first swept value breaks a base constraint that the second
        # restores; the row is valid whichever order the [sweep] keys come in.
        text = CUSTOM_CONFIG.replace(*base)
        rows = [
            run(parse_config(text.replace("phi_c = linspace(0.0, 6.0, 5)", f"{a}\n{b}"))).rows
            for a, b in ((first, second), (second, first))
        ]
        assert [len(r) for r in rows] == [1, 1]
        assert np.array_equal(rows[0][0, 2:], rows[1][0, 2:])
        assert rows[0][0][2] == 0.0 and not any(math.isnan(v) for v in rows[0][0])

    def test_off_resonant_work_request_flagged(self):
        # The base config is detuned, so coherent-work output cannot be
        # produced; the row is flagged instead of crashing.
        text = CUSTOM_CONFIG.replace("delta_e_s, n_q_us, var_us", "w_mean")
        text = text.replace("[sweep]\nphi_c = linspace(0.0, 6.0, 5)\n", "")
        table = run(parse_config(text))
        assert table.rows[0][0] == 1.0


class TestPresets:
    def test_fig5_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            spec = ExperimentSpec(
                preset="fig5", cfg=None, state=None,
                out_path=str(tmp_path / name), points=24,
            )
            run(spec)
            paths.append(tmp_path / name)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fig7_energy_bookkeeping(self, tmp_path):
        spec = ExperimentSpec(
            preset="fig7", cfg=None, state=None,
            out_path=str(tmp_path / "fig7.csv"), collisions=8,
        )
        table = run(spec)
        assert len(table.rows) == 8
        cols = {name: i for i, name in enumerate(table.header)}
        scale = fig7_config().hbar * fig7_config().omega_s
        for row in table.rows:
            assert abs(row[cols["q_s"]] + row[cols["q_a"]]) < 1e-10 * scale
            assert abs(row[cols["w_s"]] + row[cols["w_a"]]) < 1e-10 * scale
        meta = json.loads((tmp_path / "fig7.csv.meta.json").read_text())
        assert meta["beta_hbar_omega"] == pytest.approx(2.28)
        assert meta["preset"] == "fig7"

    def test_fig1_small_grid(self, tmp_path):
        spec = ExperimentSpec(
            preset="fig1", cfg=None, state=None,
            out_path=str(tmp_path / "fig1.csv"), points=8,
        )
        table = run(spec)
        # 3 temperatures x 6 collision times x 8 phases
        assert len(table.rows) == 3 * 6 * 8
        n_q = np.array([row[3] for row in table.rows])
        assert np.all(n_q > -1e-12)
        assert np.max(n_q) > 0.01  # coherent ancillas do produce negativity
        # The metadata sidecar round-trips the caption parameter set.
        meta = json.loads((tmp_path / "fig1.csv.meta.json").read_text())
        assert meta["betas"] == [5.0, 1.0, 0.2]
        assert len(meta["taus"]) == 6
        assert meta["taus"][-1] == pytest.approx(math.pi / 6)
        assert meta["rho11"] == 0.25
        assert meta["detuning"] == 3.0
        for value, quoted in zip(meta["lambda_max_values"], (0.082, 0.443, 0.498)):
            assert value == pytest.approx(quoted, abs=5e-4)

    @pytest.mark.parametrize("preset, quantity", [("fig1", "us"), ("fig2", "usa")])
    def test_phase_grid_matches_per_state_path(self, preset, quantity, tmp_path):
        # The preset evaluates each config's whole phase grid at once; its CSV
        # must be byte for byte the one built row by row from the per-state
        # distribution and witnesses, on the grid its sidecar records.
        points = 16
        out = tmp_path / f"{preset}.csv"
        table = run(ExperimentSpec(preset=preset, cfg=None, state=None, out_path=str(out), points=points))
        meta = table.meta
        rows = []
        for beta in meta["betas"]:
            for tau in meta["taus"]:
                cfg = ModelConfig(omega_s=meta["omega_s"], omega_a=meta["omega_a"], g=meta["g"], tau=tau, beta=beta)
                cfg = replace(cfg, lam=cfg.lambda_max)
                for phi_c in np.linspace(0.0, 2.0 * math.pi, points, endpoint=False):
                    rho_s = build_system_state(SystemStateParams(meta["rho11"], meta["r"], float(phi_c)))
                    report = nonpositivity(kdq_distribution(quantity, rho_s, cfg))
                    rows.append([beta, tau, float(phi_c), report.n_q, report.n_re, report.n_im])
        write_csv(ResultTable(table.header, np.array(rows), meta), tmp_path / "reference.csv")
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_csv_special_values(self, tmp_path):
        values = [0.0, -0.0, 1, -7, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 0.1, 1e300,
                  np.float64(1.0 / 3.0)]
        path = tmp_path / "special.csv"
        write_csv(ResultTable(header=[f"c{i}" for i in range(len(values))], rows=[values]), path)
        assert path.read_text().splitlines()[1] == ",".join(format(float(v), ".17g") for v in values)

    def test_csv_floats_round_trip(self, tmp_path):
        # 17 significant digits reproduce the doubles bit-exactly on re-read.
        spec = ExperimentSpec(
            preset="fig3a", cfg=None, state=None,
            out_path=str(tmp_path / "fig3a.csv"), points=16,
        )
        table = run(spec)
        lines = (tmp_path / "fig3a.csv").read_text().splitlines()
        assert lines[0].split(",") == table.header
        for row, line in zip(table.rows, lines[1:]):
            parsed = [float(cell) for cell in line.split(",")]
            assert parsed == [float(v) for v in row]

    def test_fig3a_envelopes(self, tmp_path):
        spec = ExperimentSpec(preset="fig3a", cfg=None, state=None, points=16)
        table = run(spec)
        cols = {name: i for i, name in enumerate(table.header)}
        for row in table.rows:
            assert row[cols["envelope_lower"]] - 1e-12 <= row[cols["delta_e_s"]]
            assert row[cols["delta_e_s"]] <= row[cols["envelope_upper"]] + 1e-12

    def test_fig4_normalization_column(self):
        spec = ExperimentSpec(preset="fig4", cfg=None, state=None, points=48)
        table = run(spec)
        cols = {name: i for i, name in enumerate(table.header)}
        lam_rows = [row for row in table.rows if row[cols["panel"]] == 1.0]
        assert lam_rows, "expected lambda-sweep rows at the variance peaks"
        # Normalized to the lambda = 0 value: close to 1 near the centre and
        # strictly reduced at the strongest coherence.
        for row in lam_rows:
            assert row[cols["var_us_norm"]] <= 1.01
        lam_max = max(abs(row[cols["lambda"]]) for row in lam_rows)
        for row in lam_rows:
            if abs(row[cols["lambda"]]) == lam_max:
                assert row[cols["var_us_norm"]] < 1.0

    def test_fig6_probabilities(self):
        spec = ExperimentSpec(preset="fig6", cfg=None, state=None, points=16)
        table = run(spec)
        cols = {name: i for i, name in enumerate(table.header)}
        for row in table.rows:
            assert row[cols["p_hi"]] + row[cols["p_lo"]] == pytest.approx(1.0, abs=1e-12)
            assert row[cols["w_hi"]] >= row[cols["w_lo"]]
        # At tau = 0 the collision is the identity, so O2 = 0: w = 0 with certainty.
        assert np.array_equal(table.rows[0], [0.0, 0.0, 1.0, 0.0, 0.0])


class TestMain:
    def test_run_and_validate(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {tmp_path / 'out.csv'}\nquantities = delta_e_s",
            )
        )
        assert main(["validate", str(config)]) == 0
        assert main(["run", str(config)]) == 0
        assert (tmp_path / "out.csv").exists()
        assert (tmp_path / "out.csv.meta.json").exists()

    def test_validate_bad_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("[model]\nbogus = 1\n")
        assert main(["validate", str(config)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1

    def test_validate_rejects_nan_parameter(self, tmp_path, capsys):
        config = tmp_path / "nan.cfg"
        config.write_text(CUSTOM_CONFIG.replace("omega_s = 4.0", "omega_s = nan"))
        assert main(["validate", str(config)]) == 1
        assert "omega_s must be finite" in capsys.readouterr().err

    def test_all_skipped_run_fails(self, tmp_path, capsys):
        # Detuned exact mode: the coherent-work mean is undefined on every row.
        out = tmp_path / "skipped.csv"
        config = tmp_path / "skipped.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {out}\nquantities = w_mean, delta_e_s",
            )
        )
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert "every row skipped" in err and "resonant" in err
        meta = json.loads((tmp_path / "skipped.csv.meta.json").read_text())
        assert sum(meta["skip_reasons"].values()) == meta["rows"] == 5

    @pytest.mark.parametrize(
        "sweep, quantities",
        [
            ("", "w_mean"),  # detuned exact mode, one row: the coherent-work mean is undefined
            ("lambda = 0.5, 0.6", "delta_e_s"),  # every lambda exceeds 1/Z_A = 0.4434 at beta = 1
        ],
    )
    def test_validate_fails_when_every_row_is_skipped(self, tmp_path, capsys, sweep, quantities):
        # `validate` runs the checks of `run` and fails with the same message.
        config = tmp_path / "skipped.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", sweep).replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {tmp_path / 'skipped.csv'}\nquantities = {quantities}",
            )
        )
        assert main(["validate", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: every row skipped; first reason: ")
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err == err

    def test_partly_skipped_run_succeeds(self, tmp_path):
        out = tmp_path / "partly.csv"
        config = tmp_path / "partly.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", "lambda = 0.0, 0.2, 0.9").replace(
                "[output]\nquantities", f"[output]\npath = {out}\nquantities"
            )
        )
        assert main(["run", str(config)]) == 0
        meta = json.loads((tmp_path / "partly.csv.meta.json").read_text())
        assert list(meta["skip_reasons"].values()) == [1]
        assert "exceeds the positivity bound" in next(iter(meta["skip_reasons"]))

    def test_skipped_rows_counted_per_cause(self, tmp_path):
        # lambda > 1/Z_A = 0.4434 at beta = 1 on four rows, each with its own numbers.
        out = tmp_path / "lambdas.csv"
        config = tmp_path / "lambdas.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", "lambda = 0.1, 0.5, 0.6, 0.7, 0.8").replace(
                "[output]\nquantities", f"[output]\npath = {out}\nquantities"
            )
        )
        assert main(["run", str(config)]) == 0
        (reason, rows), = json.loads((tmp_path / "lambdas.csv.meta.json").read_text())["skip_reasons"].items()
        assert rows == 4
        assert "exceeds the positivity bound 1/Z_A" in reason

    def test_infinite_collision_phase_row_skipped(self, tmp_path):
        # At resonance with tau = 1e308 the closed forms' phase 2 g tau overflows:
        # that config's row is skipped with a reason naming the phase, and the
        # stacked evaluation of the other row goes on.
        out = tmp_path / "phase.csv"
        config = tmp_path / "phase.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("omega_s = 4.0", "omega_s = 1.0")
            .replace("phi_c = linspace(0.0, 6.0, 5)", "tau = 0.5, 1e308")
            .replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {out}\nquantities = delta_e_s, w_mean, analytic_delta_e_s",
            )
        )
        assert main(["run", str(config)]) == 0
        meta = json.loads((tmp_path / "phase.csv.meta.json").read_text())
        assert meta["skip_reasons"] == {"collision phase tau*sqrt(4*g^2 + delta^2) = inf is not finite at tau = <x>": 1}
        header, *lines = out.read_text().splitlines()
        assert header == "tau,skipped,delta_e_s,w_mean,analytic_delta_e_s"
        (tau_ok, skipped_ok, *values), (tau_bad, skipped_bad, *_) = ([float(v) for v in l.split(",")] for l in lines)
        assert (tau_ok, skipped_ok, tau_bad, skipped_bad) == (0.5, 0.0, 1e308, 1.0)
        assert all(math.isfinite(v) for v in values)
        assert values[0] == pytest.approx(values[2], abs=1e-12)

    def test_overflowing_coherence_row_skipped(self, tmp_path):
        # r*r overflows at r = 1e200; the row fails the positivity check with
        # its message, not with an OverflowError, and the other row goes on.
        out = tmp_path / "huge_r.csv"
        config = tmp_path / "huge_r.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", "r = 0.1, 1e200").replace(
                "[output]\nquantities", f"[output]\npath = {out}\nquantities"
            )
        )
        assert main(["validate", str(config)]) == 0
        assert main(["run", str(config)]) == 0
        meta = json.loads((tmp_path / "huge_r.csv.meta.json").read_text())
        assert meta["skip_reasons"] == {"r=<x> violates positivity: r^2 must not exceed rho11*(1-rho11) = <x>": 1}
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [[0.1, 0.0], [1e200, 1.0]]
        assert all(math.isfinite(v) for v in rows[0])

    def test_overflowing_base_coherence_fails_run(self, tmp_path, capsys):
        config = tmp_path / "huge_r.cfg"
        config.write_text(CUSTOM_CONFIG.replace("r = 0.4330127018922193", "r = 1e200"))
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: r=1e+200 violates positivity: r^2 must not exceed rho11*(1-rho11) = 0.1875")

    def test_oversized_grid_fails_with_row_count(self, tmp_path, capsys):
        # Four axes of 10^5 points: NumPy rejects the 10^20 rows' positions
        # without allocating them.
        config = tmp_path / "huge.cfg"
        axes = "\n".join(f"{key} = linspace(0.1, 0.2, 100000)" for key in ("phi_c", "r", "g", "tau"))
        config.write_text(
            CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", axes).replace(
                "[output]\nquantities", f"[output]\npath = {tmp_path / 'huge.csv'}\nquantities"
            )
        )
        for command in ("validate", "run"):
            assert main([command, str(config)]) == 1
            err = capsys.readouterr().err
            assert err == "error: the sweep grid has 100000000000000000000 rows, too many to evaluate\n"
        assert not (tmp_path / "huge.csv").exists()

    def test_sweep_warns_once_per_evaluation(self, tmp_path):
        # 300 strong-pulse configs fill three parts of the evaluator; the
        # pulse-area warning is given once, for the whole sweep.
        config = tmp_path / "strong.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("omega_s = 4.0", "omega_s = 1.0")
            .replace("tau = 0.5235987755982988", "tau = 0.5")
            .replace("phi_c = linspace(0.0, 6.0, 5)", "g = linspace(1.1, 3.0, 300)")
            .replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {tmp_path / 'strong.csv'}\nquantities = w_mean, var_w, q_mean",
            )
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ValidityWarning)
            assert main(["run", str(config)]) == 0
        assert [str(w.message) for w in caught] == [
            "pulse area g*tau exceeds pi/6 in 300 configs (largest 1.5): "
            "coherent work / incoherent heat enter the strong-coupling regime"
        ]

    def test_overflowing_variance_rows_skipped(self, tmp_path):
        # The variances square level differences of up to 2*hbar*omega, which
        # overflow once hbar*omega passes about 6.7e153: those rows are skipped
        # with their reason instead of holding NaN, and the others are finite.
        out = tmp_path / "huge_hbar.csv"
        config = tmp_path / "huge_hbar.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("omega_s = 4.0", "omega_s = 1.0")
            .replace("beta = 1.0", "beta = 0.0")
            .replace("lambda = 0.2", "lambda = 0.0")
            .replace("phi_c = linspace(0.0, 6.0, 5)", "hbar = 1.0, 1e100, 1e160, 1e200")
            .replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {out}\nquantities = delta_e_s, var_us, var_usa, q_mean",
            )
        )
        assert main(["run", str(config)]) == 0
        meta = json.loads((tmp_path / "huge_hbar.csv.meta.json").read_text())
        assert meta["skip_reasons"] == {"hbar*omega_s = <x> is too large: (2*hbar*omega_s)^2 overflows": 2}
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [[1.0, 0.0], [1e100, 0.0], [1e160, 1.0], [1e200, 1.0]]
        for row in rows:
            assert all(math.isfinite(v) for v in row[2:]) if row[1] == 0.0 else all(math.isnan(v) for v in row[2:])

    def test_overflowing_coupling_energy_rejected(self, tmp_path, capsys):
        # hbar*g = 1e310 overflows: the config is rejected with its reason, as
        # a base config or as a swept row, and NumPy never sees the inf.
        overflowing = (
            CUSTOM_CONFIG.replace("omega_s = 4.0\nomega_a = 1.0", "omega_s = 1e-150\nomega_a = 1e-150\nhbar = 1e160")
            .replace("beta = 1.0", "beta = 0.0")
            .replace("lambda = 0.2", "lambda = 0.0")
            .replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {tmp_path / 'hg.csv'}\nquantities = analytic_delta_e_sa, analytic_delta_e_sa_limit",
            )
        )
        base = tmp_path / "base.cfg"
        base.write_text(overflowing.replace("g = 1.0", "g = 1e150"))
        swept = tmp_path / "swept.cfg"
        swept.write_text(overflowing.replace("phi_c = linspace(0.0, 6.0, 5)", "g = 1.0, 1e150"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(base)]) == 1
            assert capsys.readouterr().err == "error: g = 1e+150 is too large: 4*hbar*g overflows\n"
            assert main(["run", str(swept)]) == 0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        meta = json.loads((tmp_path / "hg.csv.meta.json").read_text())
        assert meta["skip_reasons"] == {"g = <x> is too large: 4*hbar*g overflows": 1}
        rows = [[float(v) for v in line.split(",")] for line in (tmp_path / "hg.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [[1.0, 0.0], [1e150, 1.0]]
        assert all(math.isfinite(v) for v in rows[0])

    def test_resonant_sweep_at_underflowing_coupling(self, tmp_path):
        # 4 g^2 underflows to 0 at these couplings; the closed forms stay finite
        # and agree with the kernel, which gives 0 there.
        out = tmp_path / "tiny_g.csv"
        config = tmp_path / "tiny_g.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("omega_s = 4.0", "omega_s = 1.0")
            .replace("phi_c = linspace(0.0, 6.0, 5)", "g = 1e-200, 1e-310, 5e-324")
            .replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {out}\nquantities = delta_e_s, delta_e_sa, analytic_delta_e_s, "
                "analytic_delta_e_s_envelopes, analytic_delta_e_sa",
            )
        )
        assert main(["run", str(config)]) == 0
        header, *lines = out.read_text().splitlines()
        col = {name: k for k, name in enumerate(header.split(","))}
        for line in lines:
            row = [float(v) for v in line.split(",")]
            assert row[col["skipped"]] == 0.0 and all(math.isfinite(v) for v in row)
            assert abs(row[col["analytic_delta_e_s"]] - row[col["delta_e_s"]]) <= 1e-10
            assert abs(row[col["analytic_delta_e_sa"]] - row[col["delta_e_sa"]]) <= 1e-10
            assert row[col["analytic_delta_e_s_lower"]] <= row[col["analytic_delta_e_s"]] + 1e-12
            assert row[col["analytic_delta_e_s"]] <= row[col["analytic_delta_e_s_upper"]] + 1e-12

    def test_zero_temperature_sweep(self, tmp_path):
        # beta*hbar*omega_a up to 2000 overflows exp and cosh; every row must
        # still be evaluated and agree with the closed form.
        out = tmp_path / "cold.csv"
        config = tmp_path / "cold.cfg"
        config.write_text(
            CUSTOM_CONFIG.replace("lambda = 0.2", "lambda = 0.0")
            .replace("phi_c = linspace(0.0, 6.0, 5)", "beta = 1.0, 800.0, 2000.0")
            .replace(
                "[output]\nquantities = delta_e_s, n_q_us, var_us",
                f"[output]\npath = {out}\nquantities = delta_e_s, analytic_delta_e_s",
            )
        )
        assert main(["validate", str(config)]) == 0
        assert main(["run", str(config)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert header == ["beta", "skipped", "delta_e_s", "analytic_delta_e_s"]
        assert [row[0] for row in rows] == ["1", "800", "2000"]
        for row in rows:
            assert row[1] == "0"
            assert abs(float(row[2]) - float(row[3])) <= 1e-10

    def test_preset_subcommand(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["preset", "fig6", "--out", str(out), "--points", "8"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv, name, rows", [(["preset", "fig6", "--points", "8"], "fig6", 8), (["run"], "custom", 5)])
    def test_default_output_path_is_preset_name(self, argv, name, rows, tmp_path, monkeypatch, capsys):
        # Neither --out nor [output] path: <preset>.csv in the working directory.
        if argv == ["run"]:
            (tmp_path / "sweep.cfg").write_text(CUSTOM_CONFIG)
            argv = ["run", "sweep.cfg"]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr().out == f"{name}: wrote {rows} rows to {name}.csv\n"
        assert sorted(p.name for p in tmp_path.glob(f"{name}.csv*")) == [f"{name}.csv", f"{name}.csv.meta.json"]

    def test_preset_rejects_non_positive_sizes(self, tmp_path, capsys):
        for argv in (["fig1", "--points", "0"], ["fig3a", "--points", "-3"], ["fig7", "--collisions", "0"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert main(["preset", argv[0], "--out", str(out), *argv[1:]]) == 1
            assert "points and collisions must be positive" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6"])
    def test_oversized_preset_fails_with_size(self, preset, tmp_path, capsys):
        # NumPy rejects a grid of 2**62 points without allocating it.
        out = tmp_path / f"{preset}.csv"
        assert main(["preset", preset, "--out", str(out), "--points", str(2**62)]) == 1
        assert capsys.readouterr().err == f"error: {2**62} points are too many to evaluate\n"
        assert not out.exists()

    def test_oversized_chain_fails_in_process(self, tmp_path, capsys):
        # NumPy refuses the states of 10**18 collisions before it allocates them.
        out = tmp_path / "fig7.csv"
        assert main(["preset", "fig7", "--collisions", str(10**18), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {10**18} collisions are too many to evaluate\n"
        assert not out.exists()

    def test_oversized_chain_fails_with_size(self, tmp_path):
        # NumPy rejects the states of 2**62 collisions without allocating them.
        # Run in a child with bounded memory and time, so that a chain that
        # grows one state at a time fails instead of filling the machine.
        out = tmp_path / "fig7.csv"
        argv = [sys.executable, "-m", "kdcollide.cli", "preset", "fig7", "--out", str(out), "--collisions", str(2**62)]
        limit = 512 << 20
        child = subprocess.run(
            argv, capture_output=True, text=True, timeout=60, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (child.returncode, child.stderr) == (1, f"error: {2**62} collisions are too many to evaluate\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("count", [10**14, 2**62])
    def test_oversized_sweep_linspace_fails_with_line(self, command, count, tmp_path):
        # NumPy cannot allocate 10**14 values under the limit and refuses 2**62 outright.
        sweep = f"phi_c = linspace(0.0, 1.0, {count})"
        text = CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", sweep)
        lineno = text.splitlines().index(sweep) + 1
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text + f"path = {tmp_path / 'big.csv'}\n")
        limit = 512 << 20
        child = subprocess.run(
            [sys.executable, "-m", "kdcollide.cli", command, str(cfg)], capture_output=True, text=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (child.returncode, child.stderr) == (1, f"error: line {lineno}: {count} points are too many to evaluate\n")
        assert not (tmp_path / "big.csv").exists()

    @pytest.mark.parametrize(
        "command, count",
        # 3e7 values parse into one float array under the limit, and the grid
        # of their row positions does not fit beside it.
        [("validate", 30_000_000), ("run", 30_000_000)],
    )
    def test_sweep_out_of_memory_fails_with_line(self, command, count, tmp_path):
        cfg = tmp_path / "big.cfg"
        sweep = CUSTOM_CONFIG.replace("phi_c = linspace(0.0, 6.0, 5)", f"phi_c = linspace(0.0, 1.0, {count})")
        cfg.write_text(sweep + f"path = {tmp_path / 'big.csv'}\n")
        limit = 512 << 20
        child = subprocess.run(
            [sys.executable, "-m", "kdcollide.cli", command, str(cfg)], capture_output=True, text=True, timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        grid_line = f"error: the sweep grid has {count} rows, too many to evaluate\n"
        assert child.returncode == 1 and child.stderr.startswith(grid_line), child.stderr
        assert child.stderr.count("\n") == 1
        assert not (tmp_path / "big.csv").exists()

    def test_sweep_table_larger_than_memory_fails_with_line(self, tmp_path):
        # Every output that the detuned exact model defines, 23 columns: the
        # evaluator's table of 3.2e6 rows (562 MiB) is larger than the 512 MB
        # limit on its own, so the run runs out of memory however little the
        # rest of it holds, while the same file validates under the limit.
        outputs = [name for name, output in cli._OUTPUTS.items() if output.source not in kdq._WORK_HEAT]
        assert sum(len(cli._OUTPUTS[name].columns) for name in outputs) == 23
        count, out = 3_200_000, tmp_path / "big.csv"
        text = CUSTOM_CONFIG.replace("linspace(0.0, 6.0, 5)", f"linspace(0.0, 1.0, {count})")
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text.replace("delta_e_s, n_q_us, var_us", ", ".join(outputs)) + f"path = {out}\n")
        limit = 512 << 20
        children = {
            command: subprocess.run(
                [sys.executable, "-m", "kdcollide.cli", command, str(cfg)], capture_output=True, text=True,
                timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            )
            for command in ("validate", "run")
        }
        assert (children["validate"].returncode, children["validate"].stderr) == (0, "")
        run_child = children["run"]
        # NumPy's MemoryError names the array it could not allocate: the table.
        assert run_child.returncode == 1 and run_child.stderr.startswith("error: Unable to allocate "), run_child.stderr
        assert f"({count}, 23)" in run_child.stderr and run_child.stderr.count("\n") == 1
        assert not out.exists()

    def test_failed_sidecar_write_leaves_no_csv(self, tmp_path, capsys):
        # A directory stands where the sidecar goes: the run fails with one
        # line, removes the CSV it wrote, and leaves the directory alone.
        config, out = tmp_path / "run.cfg", tmp_path / "run.csv"
        config.write_text(CUSTOM_CONFIG)
        (tmp_path / "run.csv.meta.json").mkdir()
        assert main(["run", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() and (tmp_path / "run.csv.meta.json").is_dir()

    def test_long_sweep_runs_in_bounded_memory(self, tmp_path):
        # The table is one float array and the CSV is written in blocks, so
        # 3e5 rows run in a 256 MB address space; holding every row as Python
        # floats and every line as text took more than 320 MB.
        count, out = 300_000, tmp_path / "long.csv"
        cfg = tmp_path / "long.cfg"
        cfg.write_text(CUSTOM_CONFIG.replace("linspace(0.0, 6.0, 5)", f"linspace(0.0, 6.0, {count})") + f"path = {out}\n")
        limit = 256 << 20
        child = subprocess.run(
            [sys.executable, "-m", "kdcollide.cli", "run", str(cfg)], capture_output=True, text=True, timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, f"custom: wrote {count} rows to {out}\n", "")
        with open(out, encoding="utf-8") as lines:
            assert next(lines) == "phi_c,skipped,delta_e_s,n_q_us,var_us_re,var_us_im\n"
            assert sum(1 for _ in lines) == count
        assert json.loads((tmp_path / "long.csv.meta.json").read_text())["rows"] == count

    def test_selftest_exit_code(self, capsys):
        assert main(["selftest"]) == 0
        assert "all checks passed" in capsys.readouterr().out
