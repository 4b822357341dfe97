"""End-to-end and per-layer benchmark for condid.

Three workloads, each a closed loop with one caller in its own process,
calling ``condid.cli.main`` in-process:

* ``tables``: ``simulate --table 1..4`` at ``TABLE_REPS`` replications; one
  operation reproduces all four tables.  The vectorized truncated-normal
  (TN) solve does nearly all the work.
* ``analyze-small``: ``analyze`` over a seeded mix of ~1000-row panels
  (K = 1..8, null and trend, 3 of 4 passing the pretest) plus the bundled
  sample panel.  The scalar TN solve and per-call overhead dominate.
* ``analyze-large``: ``analyze`` on one seeded 1e6-row K=8 panel.  CSV
  parsing and panel validation dominate.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

With ``--trace 0`` the operations repeat until their summed latency reaches
``--seconds`` and the end-to-end metrics are reported.  With ``--trace 1`` a
fixed list of operations runs once untraced and once traced, so the counts
repeat exactly for a seed, and the per-layer metrics are reported together
with the tracing overhead.  Every operation's output is checked outside the
timed region; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

from probe import THREAD_VARS, warmup

# pin BLAS/OpenMP to one thread before numpy is imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = ROOT / "data" / "trend_panel.csv"
WORK = ROOT / ".perfbench_work"

TABLES = (1, 2, 3, 4)
REPEAT_TABLE = 2  # the cheapest table, repeated to check that bytes repeat
# one full chunk of the vectorized solve per cell, as in the program's own
# runs of the tables (its chunk size is 25 000)
TABLE_REPS = 25_000
SETUP_PROBES = 5

# min_ops: fewest operations in an untraced run.  trace_cycles: passes over
# the workload's inputs in a traced run.  tail: the latency percentile
# reported as latency_tail_ms; it needs at least ten samples beyond it, so
# the workloads with few, long operations report their maximum instead.
WORKLOADS = {
    "tables": {"min_ops": 1, "trace_cycles": 1, "tail": None},
    "analyze-small": {"min_ops": 300, "trace_cycles": 1, "tail": 95},
    "analyze-large": {"min_ops": 3, "trace_cycles": 2, "tail": None},
}

END_TO_END = {
    "reps_per_s": "1/s",
    "calls_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_ns_per_element"):
        return "ns"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "ratio" in name or name.endswith("coverage"):
        return "ratio"
    return "count"


PER_LAYER_NAMES = list(tracing.layer_metrics([], 1.0)) + [
    "trace.untraced_wall_s", "trace.overhead_ratio",
]
PER_LAYER = {name: _layer_unit(name) for name in PER_LAYER_NAMES}


class InputError(Exception):
    """The checkout is missing the program or its bundled data."""


def import_condid():
    """Import condid from this checkout's ``src`` and nowhere else."""
    if not (SRC / "condid" / "__init__.py").is_file() or not BUNDLED.is_file():
        raise InputError(f"no condid sources under {SRC} or no {BUNDLED}")
    sys.path.insert(0, str(SRC))
    import condid
    import condid.cli

    if Path(condid.__file__).resolve().parent != SRC / "condid":
        raise InputError(f"condid imported from {condid.__file__}, not {SRC}")
    return condid


class Tables:
    """One operation: ``simulate --table N`` for every table, same seed."""

    calls_per_op = len(TABLES)
    reps_per_op = TABLE_REPS * sum(len(checks.expected_rows(t)) for t in TABLES)

    def __init__(self, cli, seed: int, work: Path):
        self.cli, self.seed, self.out = cli, seed, work / "out"
        self.out.mkdir(parents=True)
        self.reference: dict[int, str] | None = None
        self.n_inputs = 1

    def describe(self) -> dict:
        return {"tables": list(TABLES), "reps": TABLE_REPS, "seed": self.seed, "workers": 1}

    def tag(self, i: int):
        return None

    def _simulate(self, table: int, path: Path) -> None:
        rc = self.cli.main([
            "simulate", "--table", str(table), "--reps", str(TABLE_REPS),
            "--seed", str(self.seed), "--workers", "1", "--output", str(path),
        ])
        if rc != 0:
            raise RuntimeError(f"simulate --table {table} exited {rc}")

    def run(self, i: int) -> None:
        for t in TABLES:
            self._simulate(t, self.out / f"table{t}.csv")

    def verify(self, i: int) -> bool:
        texts = {t: (self.out / f"table{t}.csv").read_text(encoding="utf-8") for t in TABLES}
        if self.reference is None:
            self.reference = texts
        return texts == self.reference

    def check_references(self) -> dict[int, list[str]]:
        if self.reference is None:
            return {0: ["no output"]}
        problems = []
        for t in TABLES:
            problems += checks.check_table(t, self.reference[t], TABLE_REPS)
        # an untimed run has a single operation, so the same seed's bytes are
        # compared against a repeat of the cheapest table
        repeat = self.out / "repeat.csv"
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                self._simulate(REPEAT_TABLE, repeat)
            same = repeat.read_text(encoding="utf-8") == self.reference[REPEAT_TABLE]
        except Exception as exc:
            return {0: problems + [f"table {REPEAT_TABLE} repeat raised {exc!r}"]}
        if not same:
            problems.append(f"table {REPEAT_TABLE}: a repeat with the same seed gave other bytes")
        return {0: problems}

    def input_of(self, i: int) -> int:
        return 0


class Analyze:
    """One operation: ``analyze`` on the next input of the generated mix."""

    calls_per_op = 1
    reps_per_op = 1

    def __init__(self, cli, entries: list[dict], in_dir: Path, work: Path):
        self.cli, self.entries, self.in_dir = cli, entries, in_dir
        self.out = work / "out"
        self.out.mkdir(parents=True)
        self.reference: dict[int, bytes] = {}
        self.n_inputs = len(entries)

    def describe(self) -> dict:
        passed = sum(e["pretest_passed"] for e in self.entries)
        return {
            "inputs": [[e["path"], e["rows"], e["k"], e["pretest_passed"]] for e in self.entries],
            "pass_share": passed / len(self.entries),
        }

    def input_of(self, i: int) -> int:
        return i % self.n_inputs

    def tag(self, i: int):
        return self.entries[self.input_of(i)]["dgp"]

    def _output(self, i: int) -> Path:
        return self.out / (self.entries[self.input_of(i)]["path"] + ".json")

    def run(self, i: int) -> None:
        entry = self.entries[self.input_of(i)]
        rc = self.cli.main([
            "analyze", "--input", str(self.in_dir / entry["path"]),
            "--output", str(self._output(i)),
        ])
        if rc != 0:
            raise RuntimeError(f"analyze {entry['path']} exited {rc}")

    def verify(self, i: int) -> bool:
        data = self._output(i).read_bytes()
        return self.reference.setdefault(self.input_of(i), data) == data

    def rows(self, i: int) -> int:
        return self.entries[self.input_of(i)]["rows"]

    def check_references(self) -> dict[int, list[str]]:
        return {
            j: checks.check_report(self.reference[j].decode("utf-8"), self.entries[j])
            for j in self.reference
        }


def measure(wl, seconds: float, min_ops: int, n_ops: int | None = None, tracer=None,
            first: int = 0):
    """Run operations ``first``, ``first + 1``, ... until their summed latency
    reaches ``seconds`` (and at least ``min_ops`` ran), or exactly ``n_ops``
    of them when given."""
    lat, ok, errors = [], [], []
    busy = 0.0
    i = first
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        while (i - first < n_ops) if n_ops is not None else (busy < seconds or i < min_ops):
            if tracer is not None:
                tracer.tag = wl.tag(i)
            t0 = perf_counter()
            try:
                wl.run(i)
                good = True
            except Exception:
                good = False
                errors.append(traceback.format_exc(limit=3))
            dt = perf_counter() - t0
            try:
                good = good and wl.verify(i)
            except (OSError, UnicodeDecodeError):
                good = False
                errors.append(traceback.format_exc(limit=3))
            lat.append(dt)
            ok.append(good)
            busy += dt
            i += 1
    return lat, ok, errors


def count_failed(wl, ok: list[bool]) -> tuple[int, dict]:
    """Operations that raised, whose output differed from the first output
    for the same input, or whose input's output failed its checks."""
    problems = wl.check_references()
    bad_inputs = {j for j, p in problems.items() if p}
    failed = sum(1 for i, good in enumerate(ok) if not good or wl.input_of(i) in bad_inputs)
    return failed, {str(j): p for j, p in problems.items() if p}


def setup_samples(workload: str, work: Path, n: int) -> list[float]:
    """Launch-to-ready time of ``n`` fresh processes, one after another."""
    samples = []
    for _ in range(n):
        cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
               "--src", str(SRC), "--bundled", str(BUNDLED), "--out", str(work)]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: rc={rc} {line!r}")
        samples.append(dt)
    return samples


def generate_inputs(workload: str, seed: int, in_dir: Path) -> list[dict]:
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(in_dir), "--bundled", str(BUNDLED)],
        check=True, timeout=600,
    )
    return json.loads((in_dir / "manifest.json").read_text(encoding="utf-8"))


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(condid, seed: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "condid": condid.__version__,
        "commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail_latency(lat: list[float], pct) -> tuple[float, str]:
    if pct is None:
        return max(lat), "max"
    if len(lat) * (100 - pct) / 100 < 10:
        raise RuntimeError(f"{len(lat)} samples leave fewer than 10 beyond p{pct}")
    return float(np.percentile(lat, pct)), f"p{pct}"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    condid = import_condid()
    spec = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        setup = [] if traced else setup_samples(workload, work, SETUP_PROBES)
        if workload == "tables":
            wl = Tables(condid.cli, seed, work)
        else:
            entries = generate_inputs(workload, seed, work / "in")
            wl = Analyze(condid.cli, entries, work / "in", work)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if warmup(condid.cli, workload, str(BUNDLED), str(work)) != 0:
                raise RuntimeError("warm-up call failed")

        info = {"workload": workload, **provenance(condid, seed), "inputs": wl.describe()}
        if traced:
            # each operation runs untraced and then traced, so the overhead
            # compares the two on the same input at nearly the same moment
            tracer = tracing.Tracer()
            plain, lat, ok, errors = [], [], [], []
            for i in range(spec["trace_cycles"] * wl.n_inputs):
                p_lat, p_ok, p_err = measure(wl, 0, 0, n_ops=1, first=i)
                tracer.install(condid)
                try:
                    t_lat, t_ok, t_err = measure(wl, 0, 0, n_ops=1, first=i, tracer=tracer)
                finally:
                    tracer.restore()
                plain += p_lat
                lat += t_lat
                ok += p_ok + t_ok
                errors += p_err + t_err
            wall, plain_wall = sum(lat), sum(plain)
            metrics = tracing.layer_metrics(tracer.spans, wall)
            metrics["trace.untraced_wall_s"] = plain_wall
            metrics["trace.overhead_ratio"] = (wall - plain_wall) / plain_wall
            span_file = WORK / f"spans-{workload}-s{seed}.jsonl"
            tracer.write(span_file)
            info["spans"] = str(span_file.relative_to(ROOT))
            info["unwrapped"] = tracer.missing
            units = PER_LAYER
        else:
            lat, ok, errors = measure(wl, seconds, spec["min_ops"])
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            busy = sum(lat)
            tail, tail_label = tail_latency(lat, spec["tail"])
            metrics = {
                "reps_per_s": len(lat) * wl.reps_per_op / busy,
                "calls_per_s": len(lat) * wl.calls_per_op / busy,
                "latency_p50_ms": statistics.median(lat) * 1e3,
                "latency_tail_ms": tail * 1e3,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            }
            info["samples"] = len(lat)
            info["latency_tail"] = tail_label
            info["setup_samples_s"] = setup
            if isinstance(wl, Analyze):
                info["rows_per_s"] = sum(wl.rows(i) for i in range(len(lat))) / busy
            units = END_TO_END

        failed, problems = count_failed(wl, ok)
        info["failed_ratio"] = failed / len(ok)
        info["problems"] = problems
        info["errors"] = errors[:5]
        return {
            "info": info,
            "result": {
                "correct": failed == 0,
                "attempted": len(ok),
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items()},
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="condid benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        # one process per workload, each measured on its own
        results = {}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(results))
        return 0

    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except InputError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info, result = out["info"], out["result"]
    print(json.dumps({"info": info}))
    print(f"# {args.workload} seed={args.seed} attempted={result['attempted']} "
          f"failed={result['failed']} failed_ratio={info['failed_ratio']:.6g}")
    if "rows_per_s" in info:
        print(f"rows_per_s = {info['rows_per_s']:.6g} 1/s")
    if "latency_tail" in info:
        print(f"latency_tail_ms is {info['latency_tail']} of {info['samples']} samples")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
