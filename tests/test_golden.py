"""Golden outputs: the bytes of a fixed set of CLI invocations.

Each case runs ``cli.main`` in-process and compares what it wrote -- the
output file, stdout, stderr and the exit code -- with the files under
``tests/golden``.  Those were made with the numpy, scipy and Python versions
that ``golden/versions.json`` records: table and report bytes follow numpy's
random streams and scipy's ``log_ndtr``/``ndtri``, help and usage text
follows Python's ``argparse``.

On the recorded versions, on which CI runs one leg, every byte must match.
On others the comparison is by token: all text that is not a number (keys,
column names, ``inf``, ``nan``, ``null``, statuses, words) and every integer
must match exactly, whitespace runs aside, and each decimal number must
agree within ``RTOL``/``ATOL``; a figure printed on stdout or stderr may also
differ by one unit in its last printed digit.  The tolerance is a first
guess, not yet measured against the oldest numpy and scipy that
pyproject.toml allows.

A change that moves an output byte on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says which bytes moved and why.  ``golden/panels`` holds three panels
drawn with ``perfbench/gen.py`` (``draw_panel`` at 20 rows per cell and the
trend DGP's slope, ``write_csv``): ``fails_pretest`` (seed 1, K = 3),
``infinite_endpoint`` (seed 7, K = 3, with infinite upper interval
endpoints) and ``k8`` (seed 0, K = 8).
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy

from condid import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PANELS = GOLDEN / "panels"

RTOL = 1e-6
ATOL = 1e-12

# inputs of the error cases, written into the working directory
BAD_INPUTS = {
    "malformed.csv": "unit,period,treatment,outcome\na,-1,0,1.0\nb,oops,1,2.0\n",
    "thin.csv": "unit,period,treatment,outcome\n"
    + "".join(f"t0,{t},1,1.0\nc0,{t},0,1.0\n" for t in (-1, 0, 1)),
}


def _simulate(table, fmt):
    return ["simulate", "--table", str(table), "--reps", "30000", "--k-max", "3",
            "--format", fmt, "--output"]


def _analyze(panel, fmt):
    return ["analyze", "--input", str(panel), "--format", fmt, "--output"]


# case name -> argv; an argv ending in "--output" writes the file named by
# the case, which the case's name ends with
CASES = {
    **{
        f"simulate-table{t}.{fmt}": _simulate(t, fmt)
        for t in (1, 2, 3, 4)
        for fmt in ("csv", "json")
    },
    **{
        f"analyze-{path.stem}.{fmt}": _analyze(path, fmt)
        for path in (REPO_ROOT / "data" / "trend_panel.csv", PANELS / "fails_pretest.csv",
                     PANELS / "infinite_endpoint.csv", PANELS / "k8.csv")
        for fmt in ("json", "csv")
    },
    "eta-k4-p1": ["eta", "--k", "4", "--p", "1"],
    "help": ["--help"],
    "help-analyze": ["analyze", "--help"],
    "help-simulate": ["simulate", "--help"],
    "help-eta": ["eta", "--help"],
    # one input of each error class, in the order cli.main catches them
    "error-usage": ["simulate", "--table", "5", "--output", "out.csv"],
    # the parser's dispatch: no command, an unknown one, a missing required
    # option, and an unknown option after a command, which the top level reports
    "error-no-command": [],
    "error-unknown-command": ["frobnicate"],
    "error-missing-input": ["analyze", "--output", "r.json"],
    "error-extra-argument": ["eta", "--k", "4", "--p", "1", "--frob"],
    "error-parse": ["analyze", "--input", "malformed.csv", "--output", "r.json"],
    "error-validation": ["analyze", "--input", "thin.csv", "--output", "r.json"],
    "error-numerical": ["eta", "--k", "12", "--p", "12"],
    "error-argument": ["analyze", "--input", str(REPO_ROOT / "data" / "trend_panel.csv"),
                       "--alpha-ci", "1e-17", "--output", "r.json"],
    "error-argument-simulate": ["simulate", "--table", "1", "--reps", "200", "--k-max", "1",
                                "--seed", "-1", "--output", "out.csv"],
    "error-io": ["analyze", "--input", "missing.csv", "--output", "r.json"],
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": "%d.%d" % sys.version_info[:2]}


def run_case(name: str, workdir: Path) -> tuple[dict, str | None]:
    """``({"exit", "stdout", "stderr"}, output file text or None)`` of one case,
    run with ``workdir`` as the working directory and 80 terminal columns."""
    argv = list(CASES[name])
    writes = argv[-1:] == ["--output"]
    if writes:
        argv.append(name)
    for file_name, text in BAD_INPUTS.items():
        (workdir / file_name).write_text(text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = workdir / name
    output = written.read_text(encoding="utf-8") if written.exists() else None
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}, output


_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _last_digit(token: str) -> float:
    """One unit in the last printed digit of a decimal token."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def assert_tokens_close(got: str, want: str, rounded: bool) -> None:
    """The token comparison used off the recorded versions."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), "different number of figures"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            assert g.split() == w.split(), (g, w)
        elif not re.search(r"[.eE]", g + w):
            assert g == w, (g, w)  # an integer
        else:
            a, b = float(g), float(w)
            slack = 1.01 * _last_digit(w) if rounded else 0.0
            assert abs(a - b) <= max(RTOL * max(abs(a), abs(b)), ATOL, slack), (g, w)


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads((GOLDEN / "versions.json").read_text(encoding="utf-8"))
    streams = json.loads((GOLDEN / "streams.json").read_text(encoding="utf-8"))
    return recorded == versions(), streams


def test_every_case_has_golden_streams(golden):
    assert list(golden[1]) == list(CASES)


def _scaled(text: str, factor: float) -> str:
    """``text`` with every decimal number multiplied by ``factor``."""
    def scale(match):
        return repr(float(match[0]) * factor) if re.search(r"[.eE]", match[0]) else match[0]
    return _NUMBER.sub(scale, text)


def test_token_comparison_keeps_structure_and_statuses():
    want = (GOLDEN / "analyze-infinite_endpoint.json").read_text(encoding="utf-8")
    assert_tokens_close(_scaled(want, 1.0 + 1e-9), want, rounded=False)
    assert_tokens_close("accept=0.9476  k=3", "accept=0.9475  k=3", rounded=True)
    for got, expected, rounded in ((want.replace('"inf"', "null", 1), want, False),
                                   (want.replace("true", "false", 1), want, False),
                                   (_scaled(want, 1.0 + 1e-4), want, False),
                                   (want.replace('"k": 3', '"k": 4'), want, False),
                                   ("accept=0.9477  k=3", "accept=0.9475  k=3", True)):
        with pytest.raises(AssertionError):
            assert_tokens_close(got, expected, rounded)


def test_ci_runs_a_leg_on_the_recorded_versions():
    # the byte comparison runs only on the recorded versions, so regenerating
    # the golden files on others must move the CI leg along with them
    recorded = json.loads((GOLDEN / "versions.json").read_text(encoding="utf-8"))
    workflow = (REPO_ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    leg = (f'- python-version: "{recorded["python"]}"\n'
           f"            pins: \"'numpy=={recorded['numpy']}' 'scipy=={recorded['scipy']}'\"\n")
    assert leg in workflow


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name, golden, tmp_path, monkeypatch):
    exact, streams = golden
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    got, output = run_case(name, tmp_path)
    want = streams[name]
    kept = GOLDEN / name
    want_output = kept.read_text(encoding="utf-8") if kept.exists() else None
    assert got["exit"] == want["exit"]
    assert (output is None) == (want_output is None)
    if exact:
        assert got == want
        assert output == want_output
        return
    for stream in ("stdout", "stderr"):
        assert_tokens_close(got[stream], want[stream], rounded=True)
    if output is not None:
        assert_tokens_close(output, want_output, rounded=False)


def write_golden() -> None:
    """Regenerate every golden file from the current code."""
    os.environ["COLUMNS"] = "80"
    streams = {}
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            for name in CASES:
                streams[name], output = run_case(name, Path(tmp))
                if output is not None:
                    (GOLDEN / name).write_text(output, encoding="utf-8")
        finally:
            os.chdir(home)
    (GOLDEN / "streams.json").write_text(json.dumps(streams, indent=1) + "\n", encoding="utf-8")
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=1) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    write_golden()
