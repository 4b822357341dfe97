"""Monte Carlo engine: data-generating processes, replicated experiments and
table aggregation.

Two DGPs are supported, both with iid N(0, 1) noise on top of group means
(the noise sd is the outcome's unit): a flat one (no trend, no effect) and a
linear differential trend of slope ``trend_slope`` for the treated group that
continues into the post period.  Under the trend DGP the population post
coefficient equals the slope and the trend-adjusted contrast equals zero.

Each replication draws the sufficient statistics directly -- per-period
difference-in-means ~ N(slope * t, 2 / N) plus independent chi-square
within-cell variance estimates -- which is distributionally identical to
estimating on a full simulated panel.  All replication-level computation is
vectorized and elementwise across replications, so results are invariant to
how replications are split into chunks; workers each simulate whole cells.
A chunk's draws span the chunk; every step after them runs in one loop over
blocks of :data:`BULK_BLOCK` // 6 replications, so a cell holds the draws and
one block's arrays at a time.  Conditional inference is the step
:func:`condid.estimators.analyze` runs: each block's accepted replications go
through one :func:`~condid.estimators.conditional_quantiles` call (with
``Sigma eta`` formed from the rank-one-plus-diagonal covariance, never as a
dense matrix), whose :class:`~condid.errors.NoConvergenceError` for a solve
that does not converge gains the DGP and K in its message.  No product over a
block calls BLAS: the pretest event's rows are +/-e_j, so
:func:`~condid.pretest.event_product` forms them by gathering columns, and no
BLAS thread wakes to take the core another worker needs.  Chunk RNG streams
are derived from the root seed with a splittable seed sequence keyed by
(seed, DGP slope, K, chunk index), and aggregation is a deterministic fold
over chunk order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, NoConvergenceError, as_integer
from .estimators import conditional_quantiles, eta_gamma
from .event_study import coefficients
from .pretest import ALPHA, critical_value, event_product, ns_event

__all__ = [
    "SimConfig",
    "SimTableRow",
    "ReplicationRecords",
    "simulate_cell",
    "run_table",
    "summarize_row",
    "MIN_ACCEPTED",
]

# Cells with fewer accepted replications are flagged and their conditional
# statistics suppressed.
MIN_ACCEPTED = 500

# Replications per chunk.  Each chunk draws from its own RNG stream, so this
# value decides every table's bytes.
CHUNK_REPS = 25_000

# Most (replication, contrast, target) triples one block of a chunk hands the
# bulk solve.  The solve's temporaries grow with its batch, and so set the
# simulator's peak memory; below about this size its time per pair rises.
BULK_BLOCK = 12_000


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulation study.

    ``trend_slope`` applies to the trend DGP only; the null DGP always uses
    slope zero.  ``use_estimated_sigma`` mirrors what a practitioner can do
    (per-replication estimated covariance); switching it off isolates the
    known-covariance behaviour.  ``workers`` is how many of a table's cells
    :func:`run_table` simulates at once; each cell runs its chunks of
    :data:`CHUNK_REPS` in one process, which is what makes output
    byte-identical under any worker count.
    """

    k_max: int = 8
    n_per_cell: int = 250
    trend_slope: float = 0.065
    reps: int = 100_000
    seed: int = 0
    alpha_pretest: float = ALPHA
    alpha_ci: float = ALPHA
    use_estimated_sigma: bool = True
    workers: int = 1

    def __post_init__(self):
        # Counts must lie below 2**63, which numpy needs to index them anyway.
        # With unit noise, no intermediate then leaves the normal doubles except
        # with probability under 2**-64.  Floor: an estimated variance falls below
        # (2 / n_per_cell) 2**(-64/df) / e >= 2**-64 / e with probability under
        # 2**-64 (a chi-square Chernoff bound), and the pre-period adjustment's
        # shrinkage 1 / (1/v0 + sum 1/v) is at least min(v) / (k_max + 1) > 2**-129.
        # Ceiling: np.std sums the squared deviations of beta_post, 4 / n_per_cell
        # <= 2 times a chi-square on fewer than reps degrees of freedom, which
        # exceeds reps + 2 sqrt(reps x) + 2x < 2**64 at x = 64 ln 2 with
        # probability under 2**-64 (Laurent and Massart 2000).
        for name, low in (("reps", 1), ("n_per_cell", 2), ("k_max", 1)):
            if not low <= getattr(self, name) < 2**63:
                raise InvalidArgumentError(f"{name} must be >= {low} and below 2**63")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise InvalidArgumentError("workers must be >= 1")
        # after the ranges, which name the bound for a nan count
        for name in ("reps", "n_per_cell", "k_max", "seed", "workers"):
            as_integer(getattr(self, name), name)
        # A draw adds slope * t (|t| <= k_max + 1, the span the trend-adjusted
        # contrast extrapolates over) to noise of sd sqrt(2 / n_per_cell); rounding
        # moves it by up to 2**-53 |slope| (k_max + 1).  Within 2**-27 noise sd, half
        # the significand's bits survive and the error stays below the solve's 1e-8 sd step.
        slope_max = 2.0**26 * math.sqrt(2.0 / self.n_per_cell) / (self.k_max + 1)
        if not abs(self.trend_slope) <= slope_max:
            raise InvalidArgumentError(f"trend_slope must be finite, with |trend_slope| <= "
                                       f"{slope_max!r} at these settings, got {self.trend_slope}")
        for name in ("alpha_pretest", "alpha_ci"):
            critical_value(getattr(self, name), name)


@dataclass(frozen=True)
class SimTableRow:
    """Aggregated statistics for one (DGP, K) cell.

    ``size_*`` and ``reject_beta_post_*`` are one rejection rate at the true
    post coefficient under the two labels of the published tables;
    ``reject_zero_*`` tests zero.  Conditional statistics are NaN when K = 0
    (nothing to condition on) or when the cell is degenerate.
    """

    dgp: str
    k: int
    n_accepted: int
    accept_prob: float
    degenerate: bool
    bias_traditional: float
    mean_se_traditional: float
    actual_sd_traditional: float
    size_traditional: float
    reject_beta_post_traditional: float
    reject_zero_traditional: float
    bias_efficient: float
    mean_se_efficient: float
    actual_sd_efficient: float
    size_efficient: float
    reject_beta_post_efficient: float
    reject_zero_efficient: float
    median_traditional: float
    median_tn_beta: float
    median_tn_gamma: float
    tn_reject_beta_post: float
    tn_reject_zero_gamma: float
    median_width_traditional: float
    median_width_tn_beta: float
    median_width_tn_gamma: float

    def mc_standard_errors(self) -> dict[str, float]:
        """Monte Carlo standard errors for the headline statistics."""
        n_unc = self.n_accepted / self.accept_prob if self.accept_prob > 0 else math.nan
        out = {"accept_prob": _proportion_se(self.accept_prob, n_unc)}
        n = self.n_accepted
        for name in (
            "size_traditional",
            "reject_zero_traditional",
            "size_efficient",
            "reject_zero_efficient",
            "tn_reject_beta_post",
            "tn_reject_zero_gamma",
        ):
            out[name] = _proportion_se(getattr(self, name), n)
        for name in ("traditional", "efficient"):
            sd = getattr(self, f"actual_sd_{name}")
            out[f"bias_{name}"] = sd / math.sqrt(n) if n > 0 else math.nan
        return out


def _proportion_se(p: float, n: float) -> float:
    if not (n and n > 0) or math.isnan(p):
        return math.nan
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(eq=False)
class ReplicationRecords:
    """Per-replication results for one (DGP, K) cell; plain parallel arrays.

    ``accepted`` marks which simulated replications passed the pretest; every
    other array holds the accepted ones only, in order (the TN arrays are NaN
    when K = 0).
    """

    dgp: str
    k: int
    alpha_ci: float
    accepted: np.ndarray
    beta_post: np.ndarray
    se_trad: np.ndarray
    beta_tilde: np.ndarray
    se_eff: np.ndarray
    tn_beta_est: np.ndarray
    tn_beta_lo: np.ndarray
    tn_beta_hi: np.ndarray
    tn_gamma_est: np.ndarray
    tn_gamma_lo: np.ndarray
    tn_gamma_hi: np.ndarray

    @staticmethod
    def concatenate(parts: list["ReplicationRecords"]) -> "ReplicationRecords":
        head = parts[0]
        return ReplicationRecords(**{
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            if isinstance(getattr(head, f.name), np.ndarray) else getattr(head, f.name)
            for f in fields(ReplicationRecords)
        })


# --- data generation ---------------------------------------------------------


def _fast_cell_draws(
    config: SimConfig, k: int, slope: float, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n replications of (difference-in-means, estimated variances)."""
    t = np.concatenate(([1.0, 0.0], -np.arange(1.0, k + 1)))  # periods (1, 0, -1, ..., -K)
    n_cell = config.n_per_cell
    cell_var = 2.0 / n_cell
    # in place, with the operations in the order every table's bytes were made with
    delta = rng.standard_normal((n, k + 2))
    delta *= math.sqrt(cell_var)
    delta += slope * t
    if config.use_estimated_sigma:
        df = n_cell - 1
        # times 1/df, not divided by df
        v = rng.chisquare(df, (n, k + 2))
        v *= 1.0 / df
        s2_c = rng.chisquare(df, (n, k + 2))
        s2_c *= 1.0 / df
        v += s2_c
        v /= n_cell
    else:
        v = np.full((n, k + 2), cell_var)
    return delta, v


# --- vectorized replication kernel -------------------------------------------


def _chunk_records(
    config: SimConfig,
    k: int,
    dgp: str,
    etas: tuple[np.ndarray, ...],
    rng: np.random.Generator,
    n: int,
) -> ReplicationRecords:
    """Everything the tables need from ``n`` replications drawn from ``rng``,
    for the cell's contrasts ``etas``.

    The draws span the chunk, since the stream's order decides every byte.
    Every step after them runs in the one block loop, ``BULK_BLOCK // 6``
    replications at a time (two contrasts at three targets each), so no other
    array spans the chunk.  Each step is elementwise across replications, so
    the blocks move no bit.
    """
    delta, v = _fast_cell_draws(config, k, _slope(config, dgp), rng, n)
    step = max(1, BULK_BLOCK // 6)
    # the draws run over periods (1, 0, -1, ..., -K): reverse them to ascending
    return ReplicationRecords.concatenate([
        _block_records(config, k, dgp, etas, delta[rows, ::-1], v[rows, ::-1])
        for rows in (slice(start, start + step) for start in range(0, n, step))
    ])


def _block_records(
    config: SimConfig,
    k: int,
    dgp: str,
    etas: tuple[np.ndarray, ...],
    delta: np.ndarray,
    v: np.ndarray,
) -> ReplicationRecords:
    """The records of one block of replications from its draws, with the
    periods in ascending order."""
    beta, v0, v_coef = coefficients(delta, v)
    # the pretest event A beta <= b, formed without a BLAS call (event_product)
    a, b = ns_event(v0[:, None] + v_coef[:, 1:], config.alpha_pretest)
    accepted = np.all(event_product(a, beta) <= b, axis=1)

    # the tables read the accepted replications only; at K = 0 that is every
    # replication, and the adjusted estimator is the traditional one
    beta, v0, v_coef, b = beta[accepted], v0[accepted], v_coef[accepted], b[accepted]

    mu = np.full((beta.shape[0], 2, 3), math.nan)  # K = 0: nothing to condition on
    if etas and mu.size:
        # Sigma eta for Sigma = v0 11' + diag(v_coef)
        sigma_etas = [v0[:, None] * eta.sum() + v_coef * eta for eta in etas]
        try:
            _, _, mu = conditional_quantiles(beta, sigma_etas, etas, a, b, config.alpha_ci)
        except NoConvergenceError as exc:
            raise NoConvergenceError(f"{exc} ({dgp} DGP, K={k})") from None

    # pre-period adjustment: the estimated covariance is always a rank-one
    # update of a diagonal, so the solve has a closed form
    var_trad = v0 + v_coef[:, 0]
    inv_lam = 1.0 / v_coef[:, 1:]
    s = inv_lam.sum(axis=1)
    shrink = v0 / (1.0 + v0 * s)
    w = shrink[:, None] * inv_lam
    beta_tilde = beta[:, 0] - (w * beta[:, 1:]).sum(axis=1)
    var_eff = var_trad - v0 * w.sum(axis=1)

    return ReplicationRecords(
        dgp=dgp,
        k=k,
        alpha_ci=config.alpha_ci,
        accepted=accepted,
        beta_post=beta[:, 0].copy(),  # not a view that keeps the block's beta
        se_trad=np.sqrt(var_trad),
        beta_tilde=beta_tilde,
        se_eff=np.sqrt(var_eff),
        tn_beta_est=mu[:, 0, 0], tn_beta_lo=mu[:, 0, 1], tn_beta_hi=mu[:, 0, 2],
        tn_gamma_est=mu[:, 1, 0], tn_gamma_lo=mu[:, 1, 1], tn_gamma_hi=mu[:, 1, 2],
    )


# --- chunked execution --------------------------------------------------------


def _chunk_seed(config: SimConfig, slope: float, k: int, chunk_index: int):
    slope_bits = int(np.float64(slope).view(np.uint64))
    return np.random.SeedSequence([int(config.seed), slope_bits, k, chunk_index])


def _slope(config: SimConfig, dgp: str) -> float:
    """The DGP's trend slope, which is also its true post coefficient."""
    slopes = {"null": 0.0, "trend": config.trend_slope}
    if dgp not in slopes:
        raise InvalidArgumentError(f"dgp must be 'null' or 'trend', got {dgp!r}")
    return slopes[dgp]


def simulate_cell(config: SimConfig, k: int, dgp: str) -> ReplicationRecords:
    """All replications for one (DGP, K) cell, run chunk by chunk in this
    process and reduced in chunk order; ``config.workers`` is not read."""
    slope = _slope(config, dgp)
    k = as_integer(k, "k")
    if k < 0:
        raise InvalidArgumentError(f"k must be >= 0, got {k}")
    # the contrasts depend on K alone, so every chunk shares them
    etas = (np.eye(k + 1)[0], eta_gamma(k, 1)) if k >= 1 else ()
    return ReplicationRecords.concatenate([
        _chunk_records(config, k, dgp, etas,
                       np.random.default_rng(_chunk_seed(config, slope, k, i)),
                       min(CHUNK_REPS, config.reps - start))
        for i, start in enumerate(range(0, config.reps, CHUNK_REPS))
    ])


# --- aggregation --------------------------------------------------------------


def _sd(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1)) if x.size >= 2 else math.nan


def _median(x: np.ndarray) -> float:
    return float(np.median(x))


def _reject_rate(estimate, se, z, value) -> float:
    return float(np.mean(np.abs(estimate - value) > z * se))


def _ci_reject_rate(lo, hi, value) -> float:
    return float(np.mean((lo > value) | (hi < value)))


def _widths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        w = hi - lo
    # both endpoints diverged the same way (observed value essentially on a
    # window edge): the interval is unusable, count its width as infinite
    return np.where(np.isnan(w), math.inf, w)


def _wald_stats(name: str, estimate, se, z: float, truth_beta: float) -> dict:
    """The six Wald statistics of one estimator; ``size_*`` and
    ``reject_beta_post_*`` are one rate under two labels."""
    size = _reject_rate(estimate, se, z, truth_beta)
    return {
        f"bias_{name}": float(np.mean(estimate)) - truth_beta,
        f"mean_se_{name}": float(np.mean(se)),
        f"actual_sd_{name}": _sd(estimate),
        f"size_{name}": size,
        f"reject_beta_post_{name}": size,
        f"reject_zero_{name}": _reject_rate(estimate, se, z, 0.0),
    }


def summarize_row(records: ReplicationRecords, truth_beta: float) -> SimTableRow:
    """Aggregate one (DGP, K) cell into a table row.

    ``truth_beta`` is the true post coefficient; the trend-adjusted
    coefficient is zero under both DGPs.  Statistics run over the accepted
    replications (the K = 0 cell accepts everything); infinite interval
    widths participate in medians as infinities, and a single accepted
    replication yields NaN standard deviations rather than a crash.  Fields
    left uncomputed -- the conditional statistics when K = 0, everything but
    the counts when the cell is degenerate (fewer than :data:`MIN_ACCEPTED`
    accepted replications, or none at K = 0) -- are NaN.
    """
    if records.accepted.size == 0:
        raise InvalidArgumentError("no replication records")
    k = records.k
    n_accepted = int(np.count_nonzero(records.accepted))
    degenerate = n_accepted < (MIN_ACCEPTED if k >= 1 else 1)
    row = {
        "dgp": records.dgp,
        "k": k,
        "n_accepted": n_accepted,
        "accept_prob": n_accepted / records.accepted.size,
        "degenerate": degenerate,
    }
    z = critical_value(records.alpha_ci)
    if not degenerate:
        row.update(
            _wald_stats("traditional", records.beta_post, records.se_trad, z, truth_beta),
            median_traditional=_median(records.beta_post),
            median_width_traditional=_median(2.0 * z * records.se_trad),
        )
    if not degenerate and k >= 1:
        row.update(
            _wald_stats("efficient", records.beta_tilde, records.se_eff, z, truth_beta),
            median_tn_beta=_median(records.tn_beta_est),
            median_tn_gamma=_median(records.tn_gamma_est),
            tn_reject_beta_post=_ci_reject_rate(records.tn_beta_lo, records.tn_beta_hi, truth_beta),
            tn_reject_zero_gamma=_ci_reject_rate(records.tn_gamma_lo, records.tn_gamma_hi, 0.0),
            median_width_tn_beta=_median(_widths(records.tn_beta_lo, records.tn_beta_hi)),
            median_width_tn_gamma=_median(_widths(records.tn_gamma_lo, records.tn_gamma_hi)),
        )
    return SimTableRow(**{f.name: row.get(f.name, math.nan) for f in fields(SimTableRow)})


# --- table drivers ------------------------------------------------------------

TABLE_SPECS = {
    1: (("null",), 0),
    2: (("trend",), 0),
    3: (("null", "trend"), 1),
    4: (("null", "trend"), 1),
}


def run_table(config: SimConfig, table_id: int, dgp: str | None = None) -> list[SimTableRow]:
    """Simulate and aggregate every row of one published table.

    Tables 1 and 2 include the unconditional K = 0 row; tables 3 and 4 run
    both DGPs, or only ``dgp`` when it is given.  Cells with too few accepted
    replications are flagged degenerate rather than failing the run.  With
    ``config.workers`` above 1 and more than one cell, one process pool of up
    to that many workers simulates the cells; rows come back in cell order.
    """
    if table_id not in TABLE_SPECS:
        raise InvalidArgumentError(f"table_id must be one of {sorted(TABLE_SPECS)}")
    dgps, k_lo = TABLE_SPECS[table_id]
    if dgp is not None:
        if dgp not in dgps:
            raise InvalidArgumentError(f"table {table_id} has only {'/'.join(dgps)} rows")
        dgps = (dgp,)
    cells = [(config, dgp, k) for dgp in dgps for k in range(k_lo, config.k_max + 1)]
    if config.workers <= 1 or len(cells) == 1:
        return [_table_row(cell) for cell in cells]
    # a fork pool starts every worker at its first submit: no more than there
    # are cells
    with ProcessPoolExecutor(max_workers=min(config.workers, len(cells))) as pool:
        return list(pool.map(_table_row, cells))


def _table_row(cell) -> SimTableRow:
    config, dgp, k = cell
    return summarize_row(simulate_cell(config, k, dgp), _slope(config, dgp))
