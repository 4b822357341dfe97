"""Spans around condid's public functions, recorded from outside the package.

Each wrapper is installed at the name its caller resolves: ``cmd_analyze``
calls ``load_panel`` through ``condid.cli``'s globals, so that is the
attribute replaced; a ``from ... import`` binding is not reached by patching
the defining module.  Spans (id, parent id, name, start, end, attributes)
stay in memory until the run ends; per-layer metrics are derived from them
afterwards.  A layer is the module prefix of a span name.
"""

from __future__ import annotations

import functools
import json
import math
from time import perf_counter

import numpy as np

LAYERS = ("cli", "simulation", "gaussian", "estimators", "pretest", "event_study")


def _bulk_attrs(args, kwargs, result, exc):
    if exc is not None:
        return {"error": type(exc).__name__}
    status = result[1]
    return {"elements": int(np.size(status)), "unbounded": int(np.count_nonzero(status))}


def _scalar_attrs(args, kwargs, result, exc):
    # NoBracketError is how the scalar solve reports an unbounded root
    return {"unbounded": int(exc is not None and type(exc).__name__ == "NoBracketError")}


def _cell_attrs(args, kwargs, result, exc):
    config, k, dgp = args[:3]
    attrs = {"k": int(k), "dgp": dgp, "reps": int(config.reps)}
    if exc is None:
        attrs["accepted"] = int(np.count_nonzero(result.accepted))
    return attrs


def _analyze_attrs(args, kwargs, result, exc):
    if exc is not None:
        return {}
    n_inf = 0
    for block in (result.median_unbiased_beta, result.median_unbiased_gamma):
        if block is not None:
            n_inf += sum(math.isinf(x) for x in (block.estimate, block.ci_lower, block.ci_upper))
    return {"infinite": n_inf}


def _pretest_attrs(args, kwargs, result, exc):
    return {"passed": bool(result)} if exc is None else {}


def _load_attrs(args, kwargs, result, exc):
    return {"rows": int(result.n_rows)} if exc is None else {}


def targets(condid):
    """(owner, attribute, span name, attribute extractor) for every wrapped
    function, grouped by the layer the span is charged to."""
    cli, est, es, gs, sim = (
        condid.cli, condid.estimators, condid.event_study, condid.gaussian, condid.simulation
    )
    return [
        (cli, "cmd_analyze", "cli.cmd_analyze", None),
        (cli, "cmd_simulate", "cli.cmd_simulate", None),
        (cli, "report_payload", "cli.report_payload", None),
        (cli, "load_panel", "event_study.load_panel", _load_attrs),
        (es.PanelData, "__post_init__", "event_study.validate", None),
        (cli, "estimate_event_study", "event_study.estimate", None),
        (cli, "analyze", "estimators.analyze", _analyze_attrs),
        (est, "condition_contrast", "estimators.condition_contrast", None),
        (sim, "eta_gamma", "estimators.eta_gamma", None),
        (est, "passes_pretest", "pretest.passes_pretest", _pretest_attrs),
        (est, "build_ns_polyhedron", "pretest.build_ns_polyhedron", None),
        (est, "critical_value", "pretest.critical_value", None),
        (sim, "critical_value", "pretest.critical_value", None),
        (est, "solve_tn_mean", "gaussian.solve_tn_mean", _scalar_attrs),
        (gs, "solve_tn_mean_bulk", "gaussian.solve_tn_mean_bulk", _bulk_attrs),
        (sim, "solve_tn_mean_bulk", "gaussian.solve_tn_mean_bulk", _bulk_attrs),
        (cli, "run_table", "simulation.run_table", None),
        (sim, "simulate_cell", "simulation.simulate_cell", _cell_attrs),
        (sim, "summarize_row", "simulation.summarize_row", None),
        (cli, "rows_to_csv", "simulation.serialize", None),
        (cli, "rows_to_json", "simulation.serialize", None),
    ]


class Tracer:
    """Records nested spans for the functions it wraps until ``restore``."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs, tag]
        self.tag = None  # set by the caller; copied into each span
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr, name, extract=None):
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        orig = vars(owner)[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None, self.tag]
            spans.append(span)
            stack.append(span[0])
            span[3] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                span[4] = perf_counter()
                stack.pop()
                if extract is not None:
                    span[5] = extract(args, kwargs, None, exc)
                raise
            span[4] = perf_counter()
            stack.pop()
            if extract is not None:
                span[5] = extract(args, kwargs, result, None)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self, condid):
        self.missing = []
        for owner, attr, name, extract in targets(condid):
            self.wrap(owner, attr, name, extract)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                sid, parent, name, t0, t1, attrs, tag = span
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": t0,
                    "end": t1, "attrs": attrs, "tag": tag,
                }) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics from recorded spans.

    Self time is a span's duration minus the durations of its direct
    children.  ``wall_s`` is the traced wall time of the measured operations.
    """
    n = len(spans)
    dur = np.array([s[4] - s[3] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
    self_t = dur - child
    names = [s[2] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        return float(dur[ids(name)].sum()) if ids(name) else 0.0

    def self_total(name):
        return float(self_t[ids(name)].sum()) if ids(name) else 0.0

    def attr_sum(name, key, where=lambda s: True):
        return sum((spans[i][5] or {}).get(key, 0) for i in ids(name) if where(spans[i]))

    def dgp_of(span):
        # the enclosing simulated cell, else the input the caller tagged
        p = span[1]
        while p >= 0:
            if spans[p][2] == "simulation.simulate_cell":
                return (spans[p][5] or {}).get("dgp")
            p = spans[p][1]
        return span[6]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(
            sum(self_t[i] for i, nm in enumerate(names) if nm.split(".", 1)[0] == layer)
        )

    # cli: serialization is everything a command does after its compute call
    serialize = 0.0
    for cmd, compute in (("cli.cmd_analyze", "estimators.analyze"),
                         ("cli.cmd_simulate", "simulation.run_table")):
        for i in ids(cmd):
            ends = [spans[j][4] for j in ids(compute) if spans[j][1] == i]
            if ends:
                serialize += spans[i][4] - max(ends)
    m["cli.serialize_s"] = serialize

    cells = "simulation.simulate_cell"
    reps = attr_sum(cells, "reps")
    m["simulation.cell_s"] = total(cells)
    m["simulation.cell_self_s"] = self_total(cells)
    m["simulation.reps"] = reps
    for dgp in ("null", "trend"):
        def in_dgp(s, dgp=dgp):
            return s[5] is not None and s[5]["dgp"] == dgp and s[5]["k"] >= 1
        m[f"simulation.accept_ratio.{dgp}"] = _ratio(
            attr_sum(cells, "accepted", in_dgp), attr_sum(cells, "reps", in_dgp)
        )
    m["simulation.summarize_s"] = total("simulation.summarize_row")
    m["simulation.serialize_s"] = total("simulation.serialize")

    bulk = "gaussian.solve_tn_mean_bulk"
    elements = attr_sum(bulk, "elements")
    m["gaussian.bulk_calls"] = len(ids(bulk))
    m["gaussian.bulk_elements"] = elements
    m["gaussian.bulk_s"] = total(bulk)
    m["gaussian.bulk_ns_per_element"] = _ratio(total(bulk) * 1e9, elements)
    for dgp in ("null", "trend"):
        def in_dgp(s, dgp=dgp):
            return dgp_of(s) == dgp
        m[f"gaussian.unbounded_ratio.{dgp}"] = _ratio(
            attr_sum(bulk, "unbounded", in_dgp), attr_sum(bulk, "elements", in_dgp)
        )
    m["gaussian.scalar_solves"] = len(ids("gaussian.solve_tn_mean"))
    m["gaussian.scalar_solve_s"] = total("gaussian.solve_tn_mean")
    m["gaussian.scalar_unbounded"] = attr_sum("gaussian.solve_tn_mean", "unbounded")

    m["estimators.analyze_s"] = total("estimators.analyze")
    m["estimators.analyze_self_s"] = self_total("estimators.analyze")
    m["estimators.condition_contrast_s"] = total("estimators.condition_contrast")
    m["estimators.infinite_endpoints"] = attr_sum("estimators.analyze", "infinite")

    calls = len(ids("pretest.passes_pretest"))
    m["pretest.calls"] = calls
    m["pretest.pass_ratio"] = _ratio(attr_sum("pretest.passes_pretest", "passed"), calls)
    m["pretest.s"] = float(sum(dur[i] for i, nm in enumerate(names) if nm.startswith("pretest.")))

    m["event_study.load_s"] = total("event_study.load_panel")
    m["event_study.validate_s"] = total("event_study.validate")
    m["event_study.parse_s"] = self_total("event_study.load_panel")
    m["event_study.rows"] = attr_sum("event_study.load_panel", "rows")
    m["event_study.estimate_s"] = total("event_study.estimate")

    m["trace.wall_s"] = wall_s
    m["trace.spans"] = n
    m["trace.coverage"] = _ratio(sum(m[f"{layer}.self_s"] for layer in LAYERS), wall_s)
    return m
