"""Seeded input generator for the condid benchmark (numpy and csv only).

Builds the panels the ``analyze-small`` and ``analyze-large`` workloads feed
to ``condid analyze`` and a manifest with, for every input, the values an
independent recomputation expects: coefficients and covariance from a numpy
group-by, the pretest verdict and the trend-adjustment contrast.  Nothing
here imports condid, so the expectations do not share code with the program
under test.

Run as a script to write one workload's inputs:

    python3 perfbench/gen.py --workload analyze-small --seed 1 --out DIR

Panels are repeated cross-sections with iid N(0, 1) noise: ``null`` has no
differential trend, ``trend`` gives the treated group a linear trend of
slope ``TREND_SLOPE`` per period.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path
from statistics import NormalDist

import numpy as np

HEADER = ("unit", "period", "treatment", "outcome")
ALPHA_PRETEST = 0.05
TREND_ORDER = 1
TREND_SLOPE = 0.065

# analyze-small: every (K, dgp) pair gets SMALL_PASS panels that pass the
# pretest and SMALL_FAIL that fail it.  A passing call runs six TN solves and
# takes several times longer than a failing one, so a fixed 3:1 share keeps
# the latency median inside the passing mode for every seed.
SMALL_ROWS = 1000
SMALL_K = range(1, 9)
SMALL_PASS = 6
SMALL_FAIL = 2
# analyze-large: one K=8 null panel of 20 cells x 50 000 rows, drawn until it
# passes the pretest so the conditional path runs as well as the load.
LARGE_K = 8
LARGE_N_PER_CELL = 50_000
MAX_DRAWS = 10_000


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


def draw_panel(rng: np.random.Generator, k: int, n_per_cell: int, slope: float) -> dict:
    """Columns of one panel, cells in (period, group) order."""
    periods = np.repeat(np.arange(-k, 2), 2 * n_per_cell)
    treatment = np.tile(np.repeat([0, 1], n_per_cell), k + 2)
    outcome = slope * periods * treatment + rng.standard_normal(periods.shape[0])
    return {"period": periods, "treatment": treatment, "outcome": outcome}


def expected_values(period: np.ndarray, treatment: np.ndarray, outcome: np.ndarray) -> dict:
    """Event-study coefficients, covariance, pretest verdict and the
    trend-adjusted contrast, recomputed cell by cell with masks."""
    k = -int(period.min())
    t_order = [1] + [-j for j in range(1, k + 1)]  # coefficient order
    delta = {}
    v = {}
    for t in range(-k, 2):
        in_t = period == t
        y_t = outcome[in_t & (treatment == 1)]
        y_c = outcome[in_t & (treatment == 0)]
        delta[t] = y_t.mean() - y_c.mean()
        v[t] = y_t.var(ddof=1) / y_t.size + y_c.var(ddof=1) / y_c.size
    beta = np.array([delta[t] - delta[0] for t in t_order])
    sigma = np.full((k + 1, k + 1), v[0]) + np.diag([v[t] for t in t_order])
    crit = NormalDist().inv_cdf(1.0 - ALPHA_PRETEST / 2.0)
    passed = bool(np.all(np.abs(beta[1:]) <= crit * np.sqrt(np.diag(sigma)[1:])))
    eta = trend_contrast(k, TREND_ORDER)
    return {
        "k": k,
        "rows": int(outcome.size),
        "beta": beta.tolist(),
        "sigma": sigma.tolist(),
        "pretest_passed": passed,
        "eta_gamma": eta.tolist(),
    }


def trend_contrast(k: int, p: int) -> np.ndarray:
    """eta with eta'beta = beta_post minus the degree-p polynomial through
    (0, 0), (-1, beta_-1), ..., (-K, beta_-K) extrapolated to period 1."""
    t = -np.arange(k + 1, dtype=float)
    design = t[:, None] ** np.arange(p + 1)
    weights = np.ones(p + 1) @ np.linalg.pinv(design)
    return np.concatenate(([1.0], -weights[1:]))


def write_csv(path: Path, cols: dict) -> None:
    treat = cols["treatment"]
    # unit ids are unique within each (group, period) cell
    idx = np.arange(treat.size) % int(np.count_nonzero(cols["period"] == 1) // 2)
    units = [("T" if d else "C") + str(i) for d, i in zip(treat.tolist(), idx.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(
            zip(units, cols["period"].tolist(), treat.tolist(), map(repr, cols["outcome"].tolist()))
        )


def read_csv(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {
        "period": np.array([int(r[1]) for r in rows]),
        "treatment": np.array([int(r[2]) for r in rows]),
        "outcome": np.array([float(r[3]) for r in rows]),
    }


def _draw_with_verdict(seed: int, key: tuple, k: int, n_per_cell: int, slope: float, passed: bool):
    rng = _rng(seed, *key)
    for _ in range(MAX_DRAWS):
        cols = draw_panel(rng, k, n_per_cell, slope)
        exp = expected_values(cols["period"], cols["treatment"], cols["outcome"])
        if exp["pretest_passed"] == passed:
            return cols, exp
    raise RuntimeError(f"no panel with pretest_passed={passed} for key {key}")


def make_small(seed: int, out: Path, bundled: Path | None) -> list[dict]:
    """The analyze-small mix; ``bundled`` (the repo's sample panel) is
    appended as is when given."""
    entries = []
    for k in SMALL_K:
        n_per_cell = round(SMALL_ROWS / (2 * (k + 2)))
        for d, (dgp, slope) in enumerate((("null", 0.0), ("trend", TREND_SLOPE))):
            verdicts = [True] * SMALL_PASS + [False] * SMALL_FAIL
            for j, passed in enumerate(verdicts):
                cols, exp = _draw_with_verdict(seed, (0, k, d, j), k, n_per_cell, slope, passed)
                path = out / f"small-k{k}-{dgp}-{j}.csv"
                write_csv(path, cols)
                entries.append({"path": path.name, "dgp": dgp, **exp})
    if bundled is not None:
        cols = read_csv(bundled)
        path = out / "bundled.csv"
        path.write_bytes(bundled.read_bytes())
        exp = expected_values(cols["period"], cols["treatment"], cols["outcome"])
        entries.append({"path": path.name, "dgp": "bundled", **exp})
    # a seeded call order, so no K or DGP runs in a block
    order = _rng(seed, 2).permutation(len(entries))
    return [entries[i] for i in order]


def make_large(seed: int, out: Path, n_per_cell: int = LARGE_N_PER_CELL) -> list[dict]:
    cols, exp = _draw_with_verdict(seed, (1,), LARGE_K, n_per_cell, 0.0, True)
    path = out / "large.csv"
    write_csv(path, cols)
    return [{"path": path.name, "dgp": "null", **exp}]


def generate(workload: str, seed: int, out: Path, bundled: Path | None = None) -> list[dict]:
    """Write one workload's inputs into ``out`` plus ``manifest.json``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "analyze-small":
        entries = make_small(seed, out, bundled)
    elif workload == "analyze-large":
        entries = make_large(seed, out)
    else:
        raise ValueError(f"no generated inputs for workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps(entries), encoding="utf-8")
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("analyze-small", "analyze-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--bundled", help="sample panel appended to the analyze-small mix")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), Path(args.bundled) if args.bundled else None)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
