"""Tests for the command-line interface."""

import json
import math
import multiprocessing
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from condid import cli, gaussian, simulation
from condid.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    main,
    report_payload,
)
from condid.estimators import analyze, eta_gamma
from condid.event_study import estimate_event_study, load_panel
from condid.simulation import SimConfig

from _oracles import full_panel, write_panel

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_PANEL = REPO_ROOT / "data" / "trend_panel.csv"


def _leaves(node, path=""):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, f"{path}/{key}")
    else:
        yield path, node


class TestAnalyze:
    def test_bundled_dataset_fills_all_blocks(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--input", str(EXAMPLE_PANEL), "--output", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["k"] == 3
        assert payload["pretest"]["passed"] is True
        for block in ("traditional", "efficient", "median_unbiased_beta",
                      "median_unbiased_gamma"):
            assert payload[block] is not None
            assert payload[block]["estimate"] is not None
        assert payload["median_unbiased_gamma"]["trend_order"] == 1
        assert payload["median_unbiased_beta"]["window_lower"] is not None
        assert len(payload["sigma"]) == 4

    def test_matches_regenerated_panel(self, tmp_path):
        # the bundled file is exactly the trend DGP at seed 1 (K=3, N=100)
        cfg = SimConfig(n_per_cell=100, trend_slope=0.065, reps=1, seed=0)
        panel = full_panel(cfg, 3, cfg.trend_slope, np.random.default_rng(1))
        regenerated = tmp_path / "regen.csv"
        write_panel(regenerated, panel)
        assert regenerated.read_bytes() == EXAMPLE_PANEL.read_bytes()

    def test_round_trip_bit_for_bit(self, tmp_path):
        # the CLI report equals the in-process result exactly
        out = tmp_path / "report.json"
        rc = main(["analyze", "--input", str(EXAMPLE_PANEL), "--output", str(out)])
        assert rc == EXIT_OK
        bundle = estimate_event_study(load_panel(EXAMPLE_PANEL))
        report = analyze(bundle, alpha_pretest=0.05, alpha_ci=0.05, trend_order=1)
        expected = report_payload(report, bundle.sigma)
        assert json.loads(out.read_text()) == json.loads(json.dumps(expected))

    def test_failing_pretest_nulls_conditional_blocks(self, tmp_path):
        # inject a huge jump in the earliest pre-period for the treated group
        panel = load_panel(EXAMPLE_PANEL)
        outcome = panel.outcome + 5.0 * ((panel.period == -3) & panel.treatment)
        from condid.event_study import PanelData

        bad = PanelData(unit=panel.unit, period=panel.period,
                        treatment=panel.treatment, outcome=outcome)
        src = tmp_path / "bad.csv"
        write_panel(src, bad)
        out = tmp_path / "report.json"
        rc = main(["analyze", "--input", str(src), "--output", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["pretest"]["passed"] is False
        assert payload["median_unbiased_beta"] is None
        assert payload["median_unbiased_gamma"] is None
        assert payload["traditional"]["estimate"] is not None

    def test_byte_order_mark_leaves_the_report_unchanged(self, tmp_path):
        # as spreadsheets save "CSV UTF-8"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + EXAMPLE_PANEL.read_bytes())
        reports = []
        for src in (EXAMPLE_PANEL, marked):
            out = tmp_path / f"{src.stem}.json"
            assert main(["analyze", "--input", str(src), "--output", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_malformed_csv_exit_code_and_line(self, tmp_path, capsys):
        src = tmp_path / "broken.csv"
        src.write_text("unit,period,treatment,outcome\na,-1,0,1.0\nb,oops,1,2.0\n")
        rc = main(["analyze", "--input", str(src), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_PARSE
        assert "line 3" in capsys.readouterr().err

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        src = tmp_path / "thin.csv"
        rows = ["unit,period,treatment,outcome"]
        for t in (-1, 0, 1):
            rows.append(f"t0,{t},1,1.0")
            rows.append(f"c0,{t},0,1.0")
        src.write_text("\n".join(rows) + "\n")
        rc = main(["analyze", "--input", str(src), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_VALIDATION

    def test_a_unit_that_changes_group_exit_code(self, tmp_path, capsys):
        src = tmp_path / "switch.csv"
        rows = ["unit,period,treatment,outcome"]
        for t in (-1, 0, 1):
            for i in range(8):
                treated = i >= 4 or (i == 0 and t >= 0)
                rows.append(f"u{i},{t},{int(treated)},{i + t * 0.5}")
        src.write_text("\n".join(rows) + "\n")
        rc = main(["analyze", "--input", str(src), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_VALIDATION
        message = "unit 'u0' is a control in its first row but treated at period 0"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("power, what", [(509, "cell squared deviations"),
                                             (1022, "cell sums"), (None, "coefficients")])
    def test_outcomes_that_overflow_name_the_outcome(self, power, what, tmp_path, capsys):
        # the bundled panel scaled by 2**power: at 509 the squared deviations
        # overflow, at 1022 the sums already do; with power None, cell means
        # of -/+0.89e308 whose differences overflow the coefficients.  No
        # RuntimeWarning leaks
        if power is None:
            y = {1: 0.89e308, 0: -0.89e308, -1: 0.0}
            rows = [f"{g}{i},{t},{d},{(2 * d - 1) * y[t] + i!r}"
                    for t in (-1, 0, 1) for i in range(2) for g, d in (("c", 0), ("t", 1))]
            largest = 0.89e308
        else:
            header, *lines = EXAMPLE_PANEL.read_text().splitlines()
            scaled = [row.rsplit(",", 1) for row in lines]
            rows = [f"{head},{float(y) * 2.0**power!r}" for head, y in scaled]
            largest = max(abs(float(y)) * 2.0**power for _, y in scaled)
        src = tmp_path / "huge.csv"
        src.write_text("\n".join(["unit,period,treatment,outcome"] + rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["analyze", "--input", str(src), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"validation error: outcome values up to {largest!r} in magnitude overflow the {what}\n"
        )

    @pytest.mark.parametrize("outcome", [lambda t, d: 0.1 * t + d, lambda t, d: float(t + d)],
                             ids=["decimal", "integer"])
    def test_constant_cells_are_refused_naming_their_periods(self, outcome, tmp_path, capsys):
        # the bundled panel with outcomes constant within each cell: its
        # covariance would be rounding dust, or zero.  No RuntimeWarning leaks
        header, *lines = EXAMPLE_PANEL.read_text().splitlines()
        rows = [f"{u},{t},{d},{outcome(int(t), int(d))!r}"
                for u, t, d, _ in (line.split(",") for line in lines)]
        src = tmp_path / "constant.csv"
        src.write_text("\n".join([header] + rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["analyze", "--input", str(src), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: outcome is constant within each group at periods "
            "[-3, -2, -1, 0, 1], so the covariance of the coefficients is singular\n"
        )

    def test_an_outlying_row_gives_one_report_first_or_last(self, tmp_path, capsys):
        # the bundled panel's first record with outcome 1e17, kept first and
        # moved last: each cell is centred on its own midrange, so the
        # outlier costs bits in its own cell only, whatever the row order
        header, first, *rest = EXAMPLE_PANEL.read_text().splitlines()
        outlier = first.rsplit(",", 1)[0] + ",1e17"
        reports = []
        for name, lines in (("first", [outlier, *rest]), ("last", [*rest, outlier])):
            src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            src.write_text("\n".join([header, *lines]) + "\n")
            assert main(["analyze", "--input", str(src), "--output", str(out)]) == EXIT_OK
            reports.append(dict(_leaves(json.loads(out.read_text()))))
        first_order, last_order = reports
        assert first_order.keys() == last_order.keys()
        for path, value in first_order.items():
            other = last_order[path]
            if isinstance(value, bool) or value is None:
                assert other == value, path
            else:  # "inf" and "-inf" are numbers too
                assert float(other) == pytest.approx(float(value), rel=1e-12), path

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["analyze", "--input", str(tmp_path / "nope.csv"),
                   "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_PARSE

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # outcomes so small that their squared deviations underflow: the
        # estimated covariance is singular
        src = tmp_path / "tiny.csv"
        rows = ["unit,period,treatment,outcome"]
        for t in (-1, 0, 1):
            for d in (0, 1):
                for i in range(3):
                    rows.append(f"{'t' if d else 'c'}{i},{t},{d},{i}e-170")
        src.write_text("\n".join(rows) + "\n")
        rc = main(["analyze", "--input", str(src), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_NUMERICAL

    def test_a_cancelled_adjusted_variance_exit_code(self, tmp_path, capsys):
        # K = 2, one row per unit, two rows per cell, and the first treated
        # period-0 outcome set to 1e9: the adjusted variance cancels to a
        # negative number, a numerical error rather than a math.sqrt traceback
        rng = np.random.default_rng(2)
        rows = ["unit,period,treatment,outcome"]
        for t in range(-2, 2):
            for d in (0, 1):
                for _ in range(2):
                    rows.append(f"u{len(rows)},{t},{d},{rng.standard_normal()!r}")
        assert rows[11].startswith("u11,0,1,")
        rows[11] = "u11,0,1,1e9"
        src = tmp_path / "outlier.csv"
        src.write_text("\n".join(rows) + "\n")
        rc = main(["analyze", "--input", str(src), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_NUMERICAL
        assert "numerical error: adjusted variance is" in capsys.readouterr().err

    def test_unconverged_solve_exit_code(self, tmp_path, capsys, monkeypatch):
        # one iteration cannot converge: the bundled panel passes its
        # pretest, so analyze runs the conditional solve and must say so
        monkeypatch.setattr(gaussian, "_MAX_ITER", 1)
        out = tmp_path / "r.json"
        rc = main(["analyze", "--input", str(EXAMPLE_PANEL), "--output", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "did not converge" in capsys.readouterr().err

    def test_non_utf8_input_is_parse_error_with_line(self, tmp_path, capsys):
        src = tmp_path / "latin.csv"
        body = EXAMPLE_PANEL.read_bytes().splitlines(keepends=True)
        body[5] = b"\xff\xfe" + body[5]  # a unit label on line 6
        src.write_bytes(b"".join(body))
        rc = main(["analyze", "--input", str(src), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_PARSE
        assert "line 6: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_left_out_options_take_analyze_defaults(self, fmt, tmp_path):
        base = ["analyze", "--input", str(EXAMPLE_PANEL), "--format", fmt, "--output"]
        implicit, explicit = tmp_path / "implicit", tmp_path / "explicit"
        assert main(base + [str(implicit)]) == EXIT_OK
        assert main(base + [str(explicit), "--alpha-pretest", "0.05", "--alpha-ci", "0.05",
                            "--trend-order", "1"]) == EXIT_OK
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_csv_format_output(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["analyze", "--input", str(EXAMPLE_PANEL), "--format", "csv",
                   "--output", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        assert text.startswith("key,value\n")
        assert "traditional.estimate," in text

    def test_infinity_serialized_as_string(self):
        from condid.cli import _json_num

        assert _json_num(math.inf) == "inf"
        assert _json_num(-math.inf) == "-inf"
        assert _json_num(math.nan) is None
        assert _json_num(1.5) == 1.5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--input", str(EXAMPLE_PANEL), "--alpha-pretest", "1.5"], "--alpha-pretest"),
        (["analyze", "--input", str(EXAMPLE_PANEL), "--alpha-ci", "0"], "--alpha-ci"),
        (["analyze", "--input", str(EXAMPLE_PANEL), "--trend-order", "9"], "K=3"),
        (["simulate", "--table", "1", "--reps", "0"], "reps must be >= 1"),
        (["simulate", "--table", "1", "--dgp", "trend"], "table 1 has only null rows"),
        (["simulate", "--table", "2", "--slope", "nan"], "trend_slope must be finite"),
        (["simulate", "--table", "2", "--slope", "inf"], "trend_slope must be finite"),
        (["simulate", "--table", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["simulate", "--table", "1", "--alpha-ci", "0"], "alpha_ci must lie strictly inside"),
        (["simulate", "--table", "1", "--alpha-pretest", "1"], "alpha_pretest must lie strictly"),
    ],
    ids=["alpha-pretest", "alpha-ci", "trend-order", "reps", "dgp", "slope-nan", "slope-inf",
         "seed-negative", "simulate-alpha-ci", "simulate-alpha-pretest"],
)
def test_invalid_argument_exit_code(argv, message, tmp_path, capsys):
    rc = main(argv + ["--output", str(tmp_path / "out")])
    assert rc == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, field, low", [("--reps", "reps", 1), ("--n", "n_per_cell", 2),
                                              ("--k-max", "k_max", 1)])
def test_count_of_2_63_or_more_is_an_argument_error(flag, field, low, tmp_path, capsys):
    # 10**400 died in a float conversion with a traceback and exit 1
    rc = main(["simulate", "--table", "1", "--reps", "200", "--k-max", "1", flag, str(10**400),
               "--output", str(tmp_path / "out")])
    assert rc == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {field} must be >= {low} and below 2**63\n"
    assert not (tmp_path / "out").exists()


SLOPE_RUN = ["simulate", "--table", "2", "--reps", "200", "--k-max", "1", "--slope"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (SLOPE_RUN + ["-1e-3"], EXIT_OK, ""),
        (SLOPE_RUN + ["-3.002e6"], EXIT_VALIDATION, "trend_slope must be finite, with"),
        (["analyze", "--input", str(EXAMPLE_PANEL), "--alpha-ci", "-1e-3"], EXIT_VALIDATION,
         "--alpha-ci must lie strictly inside"),
    ],
    ids=["slope-admitted", "slope-beyond-edge", "analyze-alpha-ci"],
)
def test_negative_value_in_exponent_form_reaches_its_option(argv, code, message, tmp_path,
                                                            capsys):
    # argparse alone reads a separate "-1e-3" as an option: a usage error, exit 2
    assert main(argv + ["--output", str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err
    assert (tmp_path / "out").exists() == (code == EXIT_OK)


class TestEta:
    def test_k1_p1(self, capsys):
        rc = main(["eta", "--k", "1", "--p", "1"])
        assert rc == EXIT_OK
        values = [float(x) for x in capsys.readouterr().out.split()]
        assert values == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_cubic_reproduction(self, capsys):
        rc = main(["eta", "--k", "3", "--p", "3"])
        assert rc == EXIT_OK
        eta = np.array([float(x) for x in capsys.readouterr().out.split()])
        np.testing.assert_allclose(eta, eta_gamma(3, 3), atol=1e-12)
        # reproduces any cubic trend to zero
        beta = np.concatenate(([1.0], (-np.arange(1.0, 4.0)) ** 3))
        assert abs(eta @ beta) < 1e-10

    def test_p_above_k_is_validation_error(self, capsys):
        rc = main(["eta", "--k", "2", "--p", "3"])
        assert rc == EXIT_VALIDATION

    def test_rank_deficient_basis_is_numerical_error(self, capsys):
        assert main(["eta", "--k", "11", "--p", "11"]) == EXIT_OK
        assert main(["eta", "--k", "12", "--p", "12"]) == EXIT_NUMERICAL
        assert "trend basis rank 12 < 13" in capsys.readouterr().err


class TestSimulate:
    def test_small_run_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "table2.csv"
        rc = main([
            "simulate", "--table", "2", "--reps", "400", "--seed", "42",
            "--k-max", "1", "--output", str(out),
        ])
        assert rc == EXIT_OK
        text = out.read_text()
        assert text.splitlines()[0].startswith("dgp,k,")
        assert "dgp=trend k=0" in capsys.readouterr().out

    def test_tiny_reps_degenerate_rows_exit_zero(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--table", "2", "--reps", "10", "--seed", "1",
                   "--k-max", "1", "--output", str(out)])
        assert rc == EXIT_OK
        assert "true" in out.read_text()  # degenerate flag set somewhere

    def test_same_invocation_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--table", "1", "--reps", "500", "--seed", "7",
                "--k-max", "2"]
        assert main(argv + ["--output", str(out1)]) == EXIT_OK
        assert main(argv + ["--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        rc = main(["simulate", "--table", "1", "--reps", "300", "--seed", "3",
                   "--k-max", "1", "--format", "json", "--output", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and payload[0]["dgp"] == "null"

    def test_unconverged_solve_exit_code(self, tmp_path, capsys, monkeypatch):
        # one iteration cannot converge: the table must not be written with
        # the unconverged solves as NaN medians and zero rejection rates
        monkeypatch.setattr(gaussian, "_MAX_ITER", 1)
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--table", "4", "--reps", "2000", "--k-max", "2",
                   "--output", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched iteration budget only when forked")
    def test_unconverged_solve_in_a_worker_exits_as_in_the_parent(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setattr(gaussian, "_MAX_ITER", 1)
        errors = []
        for workers in ("1", "2"):
            rc = main(["simulate", "--table", "4", "--reps", "2000", "--k-max", "8",
                       "--workers", workers, "--output", str(tmp_path / "t.csv")])
            assert rc == EXIT_NUMERICAL
            errors.append(capsys.readouterr().err)
        assert errors[0].endswith("did not converge (null DGP, K=1)\n")
        assert errors[1] == errors[0]
        assert not (tmp_path / "t.csv").exists()

    def test_left_out_options_take_simconfig_defaults(self, tmp_path, monkeypatch):
        configs = []

        def capture(config, table_id, dgp=None):
            configs.append(config)
            return []

        monkeypatch.setattr(cli, "run_table", capture)
        assert main(["simulate", "--table", "1", "--output", str(tmp_path / "t.csv")]) == EXIT_OK
        assert configs == [SimConfig()]

    def test_dgp_default_is_not_a_choice(self, tmp_path, capsys):
        # leaving --dgp out runs every DGP of the table
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--table", "3", "--dgp", "default",
                  "--output", str(tmp_path / "t.csv")])
        assert exc.value.code == EXIT_PARSE
        assert "invalid choice: 'default'" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_dgp_filter(self, tmp_path):
        out = tmp_path / "rows.json"
        rc = main(["simulate", "--table", "3", "--reps", "300", "--seed", "3",
                   "--k-max", "1", "--dgp", "trend", "--format", "json",
                   "--output", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert {row["dgp"] for row in payload} == {"trend"}

    def test_dgp_filter_simulates_only_that_dgp(self, tmp_path, monkeypatch):
        cells = []
        simulate_cell = simulation.simulate_cell

        def counting_cell(config, k, dgp):
            cells.append((dgp, k))
            return simulate_cell(config, k, dgp)

        monkeypatch.setattr(simulation, "simulate_cell", counting_cell)
        rc = main(["simulate", "--table", "3", "--reps", "300", "--k-max", "2",
                   "--dgp", "null", "--output", str(tmp_path / "t.csv")])
        assert rc == EXIT_OK
        assert cells == [("null", 1), ("null", 2)]


class TestDispatch:
    @staticmethod
    def record(monkeypatch):
        # perfbench's cli.* spans replace these module attributes: main must
        # reach the commands through them, whichever parser it builds
        calls = []

        def recorder(name):
            def record(args):
                calls.append((name, args.command, args.output))
                return EXIT_OK
            return record

        for name in ("cmd_analyze", "cmd_simulate"):
            monkeypatch.setattr(cli, name, recorder(name))
        return calls

    def test_main_calls_the_patched_commands(self, monkeypatch):
        calls = self.record(monkeypatch)
        assert main(["analyze", "--input", "in.csv", "--output", "a.json"]) == EXIT_OK
        assert main(["simulate", "--table", "1", "--output", "s.csv"]) == EXIT_OK
        assert calls == [("cmd_analyze", "analyze", "a.json"),
                         ("cmd_simulate", "simulate", "s.csv")]

    def test_main_without_argv_reads_the_command_line(self, monkeypatch):
        calls = self.record(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["condid", "analyze", "--input", "in.csv",
                                          "--output", "a.json"])
        assert main() == EXIT_OK
        assert calls == [("cmd_analyze", "analyze", "a.json")]


class TestConsoleEntrypoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "condid.cli", "eta", "--k", "2", "--p", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert len(result.stdout.split()) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", str(EXAMPLE_PANEL)],
            ["simulate", "--table", "1", "--reps", "200", "--k-max", "1"],
        ],
        ids=["analyze", "simulate"],
    )
    def test_alpha_ci_whose_quantile_rounds_to_one_exits_at_once(self, argv, tmp_path):
        # 1 - 1e-17/2 rounds to 1.0: a solve for that target never ends
        result = subprocess.run(
            [sys.executable, "-m", "condid.cli", *argv, "--alpha-ci", "1e-17",
             "--output", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=10,
        )
        assert result.returncode == EXIT_VALIDATION, result.stderr
        assert "alpha" in result.stderr and "below 1.0" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_startup_skips_optimize_and_stats(self):
        # each adds 100-200 ms to every command's start-up
        code = (
            "import sys, condid.cli; "
            "print(sorted({'scipy.optimize', 'scipy.stats'} & set(sys.modules)))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
