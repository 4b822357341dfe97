"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def cli():
    return run.import_condid().cli


# --- generator ----------------------------------------------------------------


def test_small_mix_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.generate("analyze-small", seed, tmp_path / name, run.BUNDLED)
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert a == b
    assert a != c
    manifest = json.loads(a["manifest.json"])
    generated = [e for e in manifest if e["dgp"] != "bundled"]
    assert len(generated) == len(gen.SMALL_K) * 2 * (gen.SMALL_PASS + gen.SMALL_FAIL)
    assert sum(e["pretest_passed"] for e in generated) == len(gen.SMALL_K) * 2 * gen.SMALL_PASS


def test_large_panel_is_deterministic_per_seed(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        gen.make_large(5, tmp_path / name, n_per_cell=200)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


# --- corrupted outputs are failures -------------------------------------------


@pytest.fixture(scope="module")
def passing_report(cli, tmp_path_factory):
    """A real report on a generated panel that passes the pretest."""
    out = tmp_path_factory.mktemp("report")
    entry = next(e for e in gen.make_small(6, out, None) if e["pretest_passed"])
    report = out / "report.json"
    assert cli.main(["analyze", "--input", str(out / entry["path"]), "--output", str(report)]) == 0
    return json.loads(report.read_text()), entry


def _flip(payload: dict, path: tuple, value) -> str:
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]])
    return json.dumps(payload)


def test_report_checks_pass_on_real_output(passing_report):
    payload, entry = passing_report
    assert checks.check_report(json.dumps(payload), entry) == []


@pytest.mark.parametrize("path, value", [
    (("traditional", "estimate"), lambda x: x * (1 + 1e-6)),
    (("efficient", "estimate"), lambda x: x + 1e-3),
    (("pretest", "passed"), lambda x: not x),
    (("sigma", 1, 1), lambda x: x * 1.01),
    (("median_unbiased_beta", "estimate"), lambda x: x + 1e-3),
    (("median_unbiased_gamma", "ci_upper"), lambda x: x - 1e-3),
    (("median_unbiased_beta", "window_upper"), lambda x: -1e9),
    (("median_unbiased_beta", "ci_upper"), lambda x: "inf"),
    (("median_unbiased_gamma", "ci_lower"), lambda x: "-inf"),
])
def test_flipped_report_value_is_a_failure(passing_report, path, value):
    payload, entry = passing_report
    assert checks.check_report(_flip(payload, path, value), entry)


def test_legitimate_infinite_endpoints_pass(cli, tmp_path):
    # in seed 6's mix this panel's observed contrast sits so near its window
    # edge that the estimate and the upper bound are unbounded
    entry = next(e for e in gen.make_small(6, tmp_path, None)
                 if e["path"] == "small-k3-trend-2.csv")
    report = tmp_path / "report.json"
    assert cli.main(["analyze", "--input", str(tmp_path / entry["path"]),
                     "--output", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["median_unbiased_beta"]["estimate"] == "inf"
    assert checks.check_report(json.dumps(payload), entry) == []
    # an unbounded lower end on the other side is not legitimate there
    assert checks.check_report(
        _flip(payload, ("median_unbiased_gamma", "ci_lower"), lambda x: "-inf"), entry
    )


def test_flipped_output_counts_as_failed_operation(cli, tmp_path):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    entries = [e for e in gen.make_small(7, in_dir, None) if e["k"] <= 2][:3]
    wl = run.Analyze(cli, entries, in_dir, tmp_path)
    lat, ok, errors = run.measure(wl, 0, 0, n_ops=6)
    assert all(ok) and not errors
    assert run.count_failed(wl, ok)[0] == 0
    # a later call whose bytes differ from the first for its input fails ...
    out = wl._output(0)
    out.write_text(out.read_text().replace('"k":', '"k" :', 1))
    assert wl.verify(3) is False
    # ... and a wrong reference fails every call on that input
    payload = json.loads(wl.reference[1])
    payload["traditional"]["estimate"] += 1.0
    wl.reference[1] = json.dumps(payload).encode()
    failed, problems = run.count_failed(wl, ok)
    assert failed == 2 and list(problems) == ["1"]


@pytest.mark.parametrize("table, columns", [
    (1, ("n_accepted", "tn_reject_beta_post", "tn_reject_zero_gamma", "size_efficient",
         "dgp", "degenerate")),
    (2, ("tn_reject_beta_post", "tn_reject_zero_gamma")),
])
def test_flipped_table_cell_is_a_failure(cli, tmp_path, table, columns):
    out = tmp_path / f"table{table}.csv"
    assert cli.main(["simulate", "--table", str(table), "--reps", "1500", "--seed", "2",
                     "--output", str(out)]) == 0
    text = out.read_text()
    assert checks.check_table(table, text, 1500) == []
    lines = text.splitlines()
    header = lines[0].split(",")
    flipped = {"n_accepted": "1", "dgp": "null" if table == 2 else "trend",
               "degenerate": "true"}
    for column in columns:
        row = lines[3].split(",")  # K = 2, not degenerate at 1500 reps
        assert row[header.index("degenerate")] == "false"
        row[header.index(column)] = flipped.get(column, "0.2")
        corrupted = "\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n"
        assert checks.check_table(table, corrupted, 1500), column
    assert checks.check_table(table, "\n".join(lines[:-1]) + "\n", 1500)


def test_tables_repeat_with_other_bytes_is_a_failure(cli, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TABLE_REPS", 600)
    # the row checks are covered above; at 600 reps they flag degenerate rows
    monkeypatch.setattr(checks, "check_table", lambda *args: [])
    wl = run.Tables(cli, 3, tmp_path)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        wl.run(0)
    assert wl.verify(0)
    assert wl.check_references() == {0: []}
    wl.reference[run.REPEAT_TABLE] += "\n"
    assert wl.check_references()[0]


# --- metric names -------------------------------------------------------------


def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def test_declared_metrics_match_the_runner():
    end_to_end, per_layer, workloads = _declared()
    assert run.END_TO_END == end_to_end
    assert run.PER_LAYER == per_layer
    assert workloads == list(run.WORKLOADS)


@pytest.mark.parametrize("traced", [0, 1])
def test_printed_metrics_match_benchmark_json(traced):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "analyze-small",
         "--seed", "8", "--seconds", "1", "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = _declared()[traced]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
