"""Command-line interface.

Three subcommands: ``analyze`` runs the full inference pipeline on a panel
CSV, ``simulate`` reproduces one of the published tables, ``eta`` prints a
trend-adjustment contrast.  Exit codes: 0 ok, 2 parse error, 3 validation
error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from . import __version__
from .errors import (
    CondidError,
    InvalidArgumentError,
    NumericalError,
    PanelParseError,
    PanelValidationError,
)
from .estimators import analyze, eta_gamma
from .event_study import estimate_event_study, load_panel
from .simulation import SimConfig, SimTableRow, _format_value, rows_to_csv, rows_to_json, run_table
from .simulation import json_number as _json_num

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

REPORT_SCHEMA_VERSION = 1


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
    import csv
    import io

    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def _check_alphas(args) -> None:
    for flag, alpha in (("--alpha-pretest", args.alpha_pretest), ("--alpha-ci", args.alpha_ci)):
        if not 0.0 < alpha < 1.0:
            raise InvalidArgumentError(f"{flag} must lie strictly inside (0, 1), got {alpha}")


def cmd_analyze(args) -> int:
    _check_alphas(args)
    bundle = estimate_event_study(load_panel(args.input))
    report = analyze(
        bundle,
        alpha_pretest=args.alpha_pretest,
        alpha_ci=args.alpha_ci,
        trend_order=args.trend_order,
    )
    payload = report_payload(report, bundle.sigma)
    text = (
        json.dumps(payload, indent=2) + "\n"
        if args.format == "json"
        else payload_to_csv(payload)
    )
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
            parts.append(f"accept={row.accept_prob:.4f} (mc se {se['accept_prob']:.4f})")
            if not math.isnan(row.bias_traditional):
                parts.append(
                    f"bias={row.bias_traditional:+.4f} (mc se {se['bias_traditional']:.4f})"
                )
            if not math.isnan(row.size_traditional):
                parts.append(
                    f"size={row.size_traditional:.4f} (mc se {se['size_traditional']:.4f})"
                )
            if not math.isnan(row.tn_reject_beta_post):
                parts.append(
                    f"tn_reject={row.tn_reject_beta_post:.4f} "
                    f"(mc se {se['tn_reject_beta_post']:.4f})"
                )
        print("  ".join(parts))


def cmd_simulate(args) -> int:
    config = SimConfig(
        k_max=args.k_max,
        n_per_cell=args.n,
        sigma_noise=args.sigma,
        trend_slope=args.slope,
        reps=args.reps,
        seed=args.seed,
        alpha_pretest=args.alpha_pretest,
        alpha_ci=args.alpha_ci,
        workers=args.workers,
    )
    rows = run_table(config, args.table, None if args.dgp == "default" else args.dgp)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    _print_simulation_summary(rows)
    return EXIT_OK


def cmd_eta(args) -> int:
    vec = eta_gamma(args.k, args.p, args.m)
    print(" ".join(repr(float(x)) for x in vec))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condid",
        description=(
            "Difference-in-differences estimation and inference conditional "
            "on passing the pre-trends test"
        ),
    )
    parser.add_argument("--version", action="version", version=f"condid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a panel CSV")
    p_an.add_argument("--input", required=True, help="panel CSV (unit,period,treatment,outcome)")
    p_an.add_argument("--output", required=True, help="report path")
    p_an.add_argument("--format", choices=("json", "csv"), default="json")
    p_an.add_argument("--alpha-pretest", type=float, default=0.05, dest="alpha_pretest")
    p_an.add_argument("--alpha-ci", type=float, default=0.05, dest="alpha_ci")
    p_an.add_argument("--trend-order", type=int, default=1, dest="trend_order")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="reproduce one of the published tables")
    p_sim.add_argument("--table", type=int, required=True, choices=(1, 2, 3, 4))
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--reps", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--dgp", choices=("default", "null", "trend"), default="default",
                       help="restrict output rows to one DGP")
    p_sim.add_argument("--k-max", type=int, default=8, dest="k_max")
    p_sim.add_argument("--n", type=int, default=250, help="observations per (group, period) cell")
    p_sim.add_argument("--sigma", type=float, default=1.0, help="outcome noise sd")
    p_sim.add_argument("--slope", type=float, default=0.065, help="trend DGP slope")
    p_sim.add_argument("--alpha-pretest", type=float, default=0.05, dest="alpha_pretest")
    p_sim.add_argument("--alpha-ci", type=float, default=0.05, dest="alpha_ci")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_eta = sub.add_parser("eta", help="print a trend-adjustment contrast vector")
    p_eta.add_argument("--k", type=int, required=True)
    p_eta.add_argument("--p", type=int, required=True)
    p_eta.add_argument("--m", type=int, default=1)
    p_eta.set_defaults(func=cmd_eta)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
