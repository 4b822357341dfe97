"""Output checks for the benchmark's workloads.

Every check returns a list of problems; an empty list means the output is
correct.  The expectations come from the generator's independent numpy
recomputation and, for the truncated-normal solves, from
``scipy.stats.truncnorm`` as the oracle.  None of them runs inside a timed
region.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

ALPHA = 0.05
K_MAX = 8  # the tables' default number of pre-periods
MIN_ACCEPTED = 500  # condid flags cells with fewer accepted replications
# Monte Carlo rejection rates are checked within this many binomial standard
# errors of alpha; at 5 the chance of a false alarm per row is below 1e-6
MC_Z = 5.0
CDF_TOL = 1e-6  # the solver pins the CDF to 1e-8; slack for the oracle
# the scalar solve reports an infinite mean when its root lies beyond
# observed +/- MAX_RADIUS standard deviations
MAX_RADIUS = 40.0
REL_TOL = 1e-9


def _num(x) -> float:
    if x is None:
        return math.nan
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


def _close(a, b, scale=1.0) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


# --- tables -----------------------------------------------------------------


def expected_rows(table: int) -> list[tuple[str, int]]:
    if table == 1:
        return [("null", k) for k in range(K_MAX + 1)]
    if table == 2:
        return [("trend", k) for k in range(K_MAX + 1)]
    return [(dgp, k) for dgp in ("null", "trend") for k in range(1, K_MAX + 1)]


def check_table(table: int, text: str, reps: int) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    got = [(r["dgp"], int(r["k"])) for r in rows]
    if got != expected_rows(table):
        return [f"table {table}: rows {got} != {expected_rows(table)}"]
    for r in rows:
        where = f"table {table} {r['dgp']} k={r['k']}"
        k = int(r["k"])
        n_acc = int(r["n_accepted"])
        if abs(float(r["accept_prob"]) * reps - n_acc) > 1e-6 * reps:
            problems.append(f"{where}: n_accepted {n_acc} != accept_prob x {reps}")
        if (r["degenerate"] == "true") != (k >= 1 and n_acc < MIN_ACCEPTED):
            problems.append(f"{where}: degenerate flag {r['degenerate']} with {n_acc} accepted")
        if k == 0 or r["degenerate"] == "true":
            continue
        # conditional intervals cover the truth (the post coefficient, and a
        # trend-adjusted contrast of zero) at 1 - alpha under both DGPs; the
        # unconditional efficient test is only nominal under the null
        names = ["tn_reject_beta_post", "tn_reject_zero_gamma"]
        if r["dgp"] == "null":
            names.append("size_efficient")
        tol = MC_Z * math.sqrt(ALPHA * (1 - ALPHA) / n_acc)
        for name in names:
            value = float(r[name])
            if not abs(value - ALPHA) <= tol:
                problems.append(f"{where}: {name}={value} not within {tol:.4f} of {ALPHA}")
    return problems


# --- analyze ----------------------------------------------------------------


def _tn_cdf(x, mu, sd, lower, upper) -> float:
    from scipy.stats import truncnorm

    return float(truncnorm.cdf(x, (lower - mu) / sd, (upper - mu) / sd, loc=mu, scale=sd))


def check_report(text: str, exp: dict) -> list[str]:
    """Check one ``condid analyze`` JSON report against the generator's
    expectations for its input."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    beta = np.array(exp["beta"])
    sigma = np.array(exp["sigma"])
    scale = float(np.abs(beta).max() + np.sqrt(sigma.diagonal()).max())

    if payload["k"] != exp["k"]:
        problems.append(f"k {payload['k']} != {exp['k']}")
        return problems
    got_sigma = np.array(payload["sigma"], dtype=float)
    if got_sigma.shape != sigma.shape or not np.allclose(got_sigma, sigma, rtol=REL_TOL, atol=0):
        problems.append("sigma differs from the group-by recomputation")
    if payload["pretest"]["passed"] != exp["pretest_passed"]:
        problems.append(f"pretest verdict {payload['pretest']['passed']} != recomputed")

    trad = payload["traditional"]
    if not _close(_num(trad["estimate"]), beta[0], scale):
        problems.append(f"traditional estimate {trad['estimate']} != {beta[0]}")
    if not _close(_num(trad["se"]), math.sqrt(sigma[0, 0]), scale):
        problems.append("traditional se != sqrt(sigma11)")
    weights = np.linalg.solve(sigma[1:, 1:], sigma[1:, 0])
    eff_est = beta[0] - weights @ beta[1:]
    if not _close(_num(payload["efficient"]["estimate"]), eff_est, scale):
        problems.append(f"efficient estimate {payload['efficient']['estimate']} != {eff_est}")

    eta_beta = np.zeros(exp["k"] + 1)
    eta_beta[0] = 1.0
    blocks = [("traditional", None), ("efficient", None),
              ("median_unbiased_beta", eta_beta),
              ("median_unbiased_gamma", np.array(exp["eta_gamma"]))]
    for name, eta in blocks:
        block = payload[name]
        if eta is not None and not exp["pretest_passed"]:
            if block is not None:
                problems.append(f"{name} reported although the pretest failed")
            continue
        if block is None:
            problems.append(f"{name} missing")
            continue
        est, lo, hi = (_num(block[key]) for key in ("estimate", "ci_lower", "ci_upper"))
        if not lo <= est <= hi:
            problems.append(f"{name}: ci [{lo}, {hi}] does not contain estimate {est}")
        if eta is None:
            continue
        observed = float(eta @ beta)
        w_lo, w_hi = _num(block["window_lower"]), _num(block["window_upper"])
        slack = REL_TOL * scale
        if not w_lo - slack <= observed <= w_hi + slack:
            problems.append(f"{name}: observed {observed} outside window [{w_lo}, {w_hi}]")
            continue
        x = min(max(observed, w_lo), w_hi)
        sd = math.sqrt(float(eta @ sigma @ eta))
        for mu, target in ((est, 0.5), (lo, 1 - ALPHA / 2), (hi, ALPHA / 2)):
            if math.isfinite(mu):
                cdf = _tn_cdf(x, mu, sd, w_lo, w_hi)
                if not abs(cdf - target) <= CDF_TOL:
                    problems.append(f"{name}: TN cdf at observed under mu={mu} is {cdf}, "
                                    f"not {target}")
                continue
            # an infinite mean is legitimate only if the CDF, which falls as
            # mu grows, is still on the far side of the target at the edge of
            # the solver's search on the reported side
            edge = x + math.copysign(MAX_RADIUS, mu) * sd
            cdf = _tn_cdf(x, edge, sd, w_lo, w_hi)
            if not (cdf >= target - CDF_TOL if mu > 0 else cdf <= target + CDF_TOL):
                problems.append(f"{name}: mu={mu} for target {target}, but the TN cdf at "
                                f"observed under mu={edge} is already {cdf}")
    return problems
