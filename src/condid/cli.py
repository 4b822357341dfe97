"""Command-line interface.

Three subcommands: ``analyze`` runs the full inference pipeline on a panel
CSV, ``simulate`` reproduces one of the published tables, ``eta`` prints a
trend-adjustment contrast.  Exit codes: 0 ok, 2 parse error, 3 validation
error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import fields

from . import __version__
from .errors import (
    CondidError,
    NumericalError,
    PanelParseError,
    PanelValidationError,
)
from .estimators import analyze, eta_gamma
from .event_study import estimate_event_study, load_panel
from .pretest import critical_value
from .simulation import TABLE_SPECS, SimConfig, SimTableRow, run_table

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

REPORT_SCHEMA_VERSION = 1

# argparse reads a separate argument that starts with "-" and is not a plain
# decimal, such as "-1e-3", as an option; this matcher also takes the exponent
# form, and no condid option looks like a number
NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

# (label, field, format) of each figure a summary line shows unless it is NaN
SUMMARY_FIELDS = (("accept", "accept_prob", ".4f"), ("bias", "bias_traditional", "+.4f"),
                  ("size", "size_traditional", ".4f"), ("tn_reject", "tn_reject_beta_post", ".4f"))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_num(value):
    """JSON has no infinity or NaN literals: infinities become "inf"/"-inf",
    NaN becomes null; anything else passes through."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(rows) -> str:
    """Rows of strings as CSV text, one line per row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _block_payload(block) -> dict | None:
    """A report block's fields in declaration order; a None field is left out."""
    if block is None:
        return None
    values = ((f.name, getattr(block, f.name)) for f in fields(block))
    return {name: _json_num(value) for name, value in values if value is not None}


def report_payload(report, sigma) -> dict:
    """Serializable report: all estimator blocks, the pretest verdict, the
    estimated covariance and the truncation windows used."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "k": report.k,
        "pretest": _block_payload(report.pretest),
        "traditional": _block_payload(report.traditional),
        "efficient": _block_payload(report.efficient),
        "median_unbiased_beta": _block_payload(report.median_unbiased_beta),
        "median_unbiased_gamma": _block_payload(report.median_unbiased_gamma),
        "sigma": [[float(x) for x in row] for row in sigma.entries],
    }


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, rows)
    elif isinstance(value, list):
        rows.append((prefix, json.dumps(value)))
    else:
        rows.append((prefix, "" if value is None else _format_value(value)))


def payload_to_csv(payload: dict) -> str:
    """One ``key,value`` line per leaf; nested keys are dot-joined."""
    rows = [("key", "value")]
    _flatten("", payload, rows)
    return _csv_text(rows)


def rows_to_csv(rows: list[SimTableRow]) -> str:
    """One row per line, header matching the field names, full-precision floats."""
    names = [f.name for f in fields(SimTableRow)]
    return _csv_text([names, *([_format_value(getattr(row, n)) for n in names] for row in rows)])


def rows_to_json(rows: list[SimTableRow]) -> str:
    """JSON array of row objects; infinities as "inf"/"-inf", NaN as null."""
    return _json_text([_block_payload(row) for row in rows])


def _given(args, names) -> dict:
    """The given options among ``names``; the library defaults the rest."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def cmd_analyze(args) -> int:
    options = _given(args, ("alpha_pretest", "alpha_ci", "trend_order"))
    for name in ("alpha_pretest", "alpha_ci"):
        if name in options:
            critical_value(options[name], "--" + name.replace("_", "-"))
    bundle = estimate_event_study(load_panel(args.input))
    payload = report_payload(analyze(bundle, **options), bundle.sigma)
    text = _json_text(payload) if args.format == "json" else payload_to_csv(payload)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_OK


def _print_simulation_summary(rows: list[SimTableRow]) -> None:
    for row in rows:
        se = row.mc_standard_errors()
        parts = [f"dgp={row.dgp} k={row.k}"]
        if row.degenerate:
            parts.append(f"DEGENERATE (n_accepted={row.n_accepted})")
        else:
            for label, name, spec in SUMMARY_FIELDS:
                value = getattr(row, name)
                if not math.isnan(value):
                    parts.append(f"{label}={value:{spec}} (mc se {se[name]:.4f})")
        print("  ".join(parts))


def cmd_simulate(args) -> int:
    config = SimConfig(**_given(args, [f.name for f in fields(SimConfig)]))
    rows = run_table(config, args.table, **_given(args, ("dgp",)))
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    _print_simulation_summary(rows)
    return EXIT_OK


def cmd_eta(args) -> int:
    vec = eta_gamma(args.k, args.p)
    print(" ".join(repr(float(x)) for x in vec))
    return EXIT_OK


# the subcommands, in the order ``condid --help`` lists them
COMMANDS = ("analyze", "simulate", "eta")


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for one command line.  Where ``argv`` starts with a
    subcommand, it holds only that subcommand's parser, which is all argparse
    needs to parse it; for anything else (``--help``, ``--version``, no or an
    unknown subcommand) it holds every subcommand's parser."""
    named = argv[0] if argv and argv[0] in COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="condid",
        description=(
            "Difference-in-differences estimation and inference conditional "
            "on passing the pre-trends test"
        ),
    )
    parser.add_argument("--version", action="version", version=f"condid {__version__}")
    # a usage line printed for one subcommand's parser still lists them all;
    # the subcommands' prog is given, so argparse formats no usage to find it
    metavar = None if named is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar, prog=parser.prog)

    # flags for SimConfig fields and library keywords state no default
    quiet = argparse.SUPPRESS
    if named in (None, "analyze"):
        p_an = sub.add_parser("analyze", help="analyze a panel CSV", argument_default=quiet)
        p_an._negative_number_matcher = NEGATIVE_NUMBER
        p_an.add_argument("--input", required=True,
                          help="panel CSV (unit,period,treatment,outcome)")
        p_an.add_argument("--output", required=True, help="report path")
        p_an.add_argument("--format", choices=("json", "csv"), default="json")
        p_an.add_argument("--alpha-pretest", type=float)
        p_an.add_argument("--alpha-ci", type=float)
        p_an.add_argument("--trend-order", type=int)
        p_an.set_defaults(func=cmd_analyze)

    if named in (None, "simulate"):
        p_sim = sub.add_parser(
            "simulate", help="reproduce one of the published tables", argument_default=quiet
        )
        p_sim._negative_number_matcher = NEGATIVE_NUMBER
        p_sim.add_argument("--table", type=int, required=True, choices=TABLE_SPECS)
        p_sim.add_argument("--output", required=True)
        p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
        p_sim.add_argument("--reps", type=int)
        p_sim.add_argument("--seed", type=int)
        p_sim.add_argument("--dgp", choices=("null", "trend"), help="restrict output rows to one DGP")
        p_sim.add_argument("--k-max", type=int)
        p_sim.add_argument("--n", type=int, dest="n_per_cell", metavar="N",
                           help="observations per (group, period) cell")
        p_sim.add_argument("--slope", type=float, dest="trend_slope", metavar="SLOPE",
                           help="trend DGP slope")
        p_sim.add_argument("--alpha-pretest", type=float)
        p_sim.add_argument("--alpha-ci", type=float)
        p_sim.add_argument("--workers", type=int)
        p_sim.set_defaults(func=cmd_simulate)

    if named in (None, "eta"):
        p_eta = sub.add_parser(
            "eta", help="print a trend-adjustment contrast vector", argument_default=quiet
        )
        p_eta.add_argument("--k", type=int, required=True)
        p_eta.add_argument("--p", type=int, required=True)
        p_eta.set_defaults(func=cmd_eta)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except PanelParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PanelValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CondidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
