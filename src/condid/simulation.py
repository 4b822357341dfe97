"""Monte Carlo engine: data-generating processes, replicated experiments and
table aggregation.

Two DGPs are supported, both with iid N(0, sigma^2) noise on top of group
means: a flat one (no trend, no effect) and a linear differential trend of
slope ``trend_slope`` for the treated group that continues into the post
period.  Under the trend DGP the population post coefficient equals the
slope and the trend-adjusted contrast equals zero.

Each replication draws the sufficient statistics directly -- per-period
difference-in-means ~ N(slope * t, 2 sigma^2 / N) plus independent chi-square
within-cell variance estimates -- which is distributionally identical to
estimating on a full simulated panel.  All replication-level computation is
vectorized and elementwise across replications, so results are invariant to
how replications are split into chunks or across workers.  Conditional
inference runs on the kernel that :func:`condid.estimators.analyze` uses:
each chunk's accepted replications go through
:func:`~condid.estimators.polyhedral_window` (with ``Sigma eta`` formed from
the rank-one-plus-diagonal covariance, never as a dense matrix) and one
stacked :func:`~condid.gaussian.solve_tn_quantiles` call, whose
:class:`~condid.errors.NoConvergenceError` for a solve that does not converge
gains the DGP and K in its message.  Chunk RNG streams are derived
from the root seed with a splittable seed sequence keyed by (seed, DGP slope,
K, chunk index), and aggregation is a deterministic fold over chunk order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import NoConvergenceError
from .estimators import eta_gamma, polyhedral_window
from .gaussian import solve_tn_quantiles
from .pretest import critical_value, ns_rows

__all__ = [
    "SimConfig",
    "SimTableRow",
    "ReplicationRecords",
    "simulate_cell",
    "run_table",
    "summarize_row",
    "rows_to_csv",
    "rows_to_json",
    "MIN_ACCEPTED",
]

# Cells with fewer accepted replications are flagged and their conditional
# statistics suppressed.
MIN_ACCEPTED = 500


@dataclass(frozen=True)
class SimConfig:
    """Settings for one simulation study.

    ``trend_slope`` applies to the trend DGP only; the null DGP always uses
    slope zero.  ``use_estimated_sigma`` mirrors what a practitioner can do
    (per-replication estimated covariance); switching it off isolates the
    known-covariance behaviour.  ``chunk_size`` fixes the replication
    partition regardless of ``workers``, which is what makes output
    byte-identical under any worker count.
    """

    k_max: int = 8
    n_per_cell: int = 250
    sigma_noise: float = 1.0
    trend_slope: float = 0.065
    reps: int = 100_000
    seed: int = 0
    alpha_pretest: float = 0.05
    alpha_ci: float = 0.05
    use_estimated_sigma: bool = True
    workers: int = 1
    chunk_size: int = 25_000

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.n_per_cell < 2:
            raise ValueError("n_per_cell must be >= 2")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 < self.sigma_noise < math.inf:
            raise ValueError(f"sigma_noise must be positive and finite, got {self.sigma_noise}")
        if not math.isfinite(self.trend_slope):
            raise ValueError(f"trend_slope must be finite, got {self.trend_slope}")
        for name in ("alpha_pretest", "alpha_ci"):
            alpha = getattr(self, name)
            if not 0.0 < alpha < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {alpha}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass(frozen=True)
class SimTableRow:
    """Aggregated statistics for one (DGP, K) cell.

    ``size_*`` and ``reject_beta_post_*`` are both rejection rates at the
    true post coefficient (the published tables label them differently);
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
        out["bias_traditional"] = (
            self.actual_sd_traditional / math.sqrt(n) if n > 0 else math.nan
        )
        out["bias_efficient"] = (
            self.actual_sd_efficient / math.sqrt(n) if n > 0 else math.nan
        )
        return out


def _proportion_se(p: float, n: float) -> float:
    if not (n and n > 0) or math.isnan(p):
        return math.nan
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


@dataclass(eq=False)
class ReplicationRecords:
    """Per-replication results for one (DGP, K) cell; plain parallel arrays.

    TN fields are NaN for replications that failed the pretest (no
    conditional law exists there) and everywhere when K = 0.
    """

    dgp: str
    k: int
    alpha_ci: float
    beta_post: np.ndarray
    se_trad: np.ndarray
    beta_tilde: np.ndarray
    se_eff: np.ndarray
    accepted: np.ndarray
    tn_beta_est: np.ndarray
    tn_beta_lo: np.ndarray
    tn_beta_hi: np.ndarray
    tn_gamma_est: np.ndarray
    tn_gamma_lo: np.ndarray
    tn_gamma_hi: np.ndarray

    _ARRAYS = (
        "beta_post",
        "se_trad",
        "beta_tilde",
        "se_eff",
        "accepted",
        "tn_beta_est",
        "tn_beta_lo",
        "tn_beta_hi",
        "tn_gamma_est",
        "tn_gamma_lo",
        "tn_gamma_hi",
    )

    @property
    def n(self) -> int:
        return self.beta_post.shape[0]

    def subset(self, mask: np.ndarray) -> "ReplicationRecords":
        kwargs = {name: getattr(self, name)[mask] for name in self._ARRAYS}
        return ReplicationRecords(dgp=self.dgp, k=self.k, alpha_ci=self.alpha_ci, **kwargs)

    @staticmethod
    def concatenate(parts: list["ReplicationRecords"]) -> "ReplicationRecords":
        head = parts[0]
        kwargs = {
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in ReplicationRecords._ARRAYS
        }
        return ReplicationRecords(dgp=head.dgp, k=head.k, alpha_ci=head.alpha_ci, **kwargs)


# --- data generation ---------------------------------------------------------


def _t_values(k: int) -> np.ndarray:
    """Periods in coefficient-aligned order (1, 0, -1, ..., -K)."""
    return np.concatenate(([1, 0], -np.arange(1, k + 1)))


def _fast_cell_draws(
    config: SimConfig, k: int, slope: float, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n replications of (difference-in-means, estimated variances)."""
    t = _t_values(k).astype(float)
    n_cell = config.n_per_cell
    sig2 = config.sigma_noise**2
    cell_var = 2.0 * sig2 / n_cell
    delta = rng.standard_normal((n, k + 2)) * math.sqrt(cell_var) + slope * t
    if config.use_estimated_sigma:
        df = n_cell - 1
        s2_t = rng.chisquare(df, (n, k + 2)) * (sig2 / df)
        s2_c = rng.chisquare(df, (n, k + 2)) * (sig2 / df)
        v = (s2_t + s2_c) / n_cell
    else:
        v = np.full((n, k + 2), cell_var)
    return delta, v


# --- vectorized replication kernel -------------------------------------------


def _records_from_draws(
    config: SimConfig,
    k: int,
    dgp: str,
    delta: np.ndarray,
    v: np.ndarray,
    eta_gamma_vec: np.ndarray | None,
) -> ReplicationRecords:
    """Everything the tables need, computed elementwise across replications.

    Uses only elementwise operations and per-axis reductions so that results
    do not depend on chunk boundaries.
    """
    n = delta.shape[0]
    beta = delta - delta[:, [1]]
    beta = np.delete(beta, 1, axis=1)  # coefficient order (post, -1, ..., -K)
    v0 = v[:, 1]
    v_coef = np.delete(v, 1, axis=1)
    var_trad = v0 + v_coef[:, 0]
    se_trad = np.sqrt(var_trad)

    nan = np.full(n, math.nan)
    tn = {name: nan.copy() for name in ReplicationRecords._ARRAYS if name.startswith("tn_")}
    if k == 0:
        return ReplicationRecords(
            dgp=dgp,
            k=k,
            alpha_ci=config.alpha_ci,
            beta_post=beta[:, 0],
            se_trad=se_trad,
            beta_tilde=nan.copy(),
            se_eff=nan.copy(),
            accepted=np.ones(n, dtype=bool),
            **tn,
        )

    lam = v_coef[:, 1:]
    sd_pre = np.sqrt(v0[:, None] + lam)
    c_crit = critical_value(config.alpha_pretest)
    accepted = np.all(np.abs(beta[:, 1:]) <= c_crit * sd_pre, axis=1)

    # pre-period adjustment: the estimated covariance is always a rank-one
    # update of a diagonal, so the solve has a closed form
    inv_lam = 1.0 / lam
    s = inv_lam.sum(axis=1)
    shrink = v0 / (1.0 + v0 * s)
    w = shrink[:, None] * inv_lam
    beta_tilde = beta[:, 0] - (w * beta[:, 1:]).sum(axis=1)
    var_eff = var_trad - v0 * w.sum(axis=1)
    se_eff = np.sqrt(var_eff)

    idx = np.flatnonzero(accepted)
    if idx.size:
        beta_a = beta[idx]
        a = ns_rows(k)
        b = np.tile(c_crit * sd_pre[idx], 2)
        # one window call per contrast keeps the (n, 2K) temporaries at one
        # contrast's size; Sigma eta for Sigma = v0 11' + diag(v_coef)
        windows = [
            polyhedral_window(
                beta_a, (v0[idx, None] * eta.sum() + v_coef[idx] * eta)[:, None], eta[None], a, b
            )
            for eta in (np.eye(k + 1)[0], eta_gamma_vec)
        ]
        obs, var, lo, hi = (np.concatenate(parts, axis=1) for parts in zip(*windows))
        alpha = config.alpha_ci
        targets = (0.5, 1.0 - alpha / 2.0, alpha / 2.0)
        try:
            mu = solve_tn_quantiles(obs, np.sqrt(var), lo, hi, targets)
        except NoConvergenceError as exc:
            raise NoConvergenceError(f"{exc} ({dgp} DGP, K={k})") from None
        for j, name in enumerate(("tn_beta", "tn_gamma")):
            tn[f"{name}_est"][idx] = mu[:, j, 0]
            tn[f"{name}_lo"][idx] = mu[:, j, 1]
            tn[f"{name}_hi"][idx] = mu[:, j, 2]

    return ReplicationRecords(
        dgp=dgp,
        k=k,
        alpha_ci=config.alpha_ci,
        beta_post=beta[:, 0],
        se_trad=se_trad,
        beta_tilde=beta_tilde,
        se_eff=se_eff,
        accepted=accepted,
        **tn,
    )


# --- chunked, optionally parallel execution -----------------------------------


def _chunk_seed(config: SimConfig, slope: float, k: int, chunk_index: int):
    slope_bits = int(np.float64(slope).view(np.uint64))
    return np.random.SeedSequence([int(config.seed), slope_bits, k, chunk_index])


def _run_chunk(args) -> ReplicationRecords:
    config, k, dgp, slope, chunk_index, n = args
    rng = np.random.default_rng(_chunk_seed(config, slope, k, chunk_index))
    eta_vec = eta_gamma(k, 1) if k >= 1 else None
    delta, v = _fast_cell_draws(config, k, slope, rng, n)
    return _records_from_draws(config, k, dgp, delta, v, eta_vec)


def simulate_cell(config: SimConfig, k: int, dgp: str) -> ReplicationRecords:
    """All replications for one (DGP, K) cell, reduced in chunk order."""
    slope = 0.0 if dgp == "null" else config.trend_slope
    sizes = []
    remaining = config.reps
    while remaining > 0:
        take = min(config.chunk_size, remaining)
        sizes.append(take)
        remaining -= take
    args = [
        (config, k, dgp, slope, i, size) for i, size in enumerate(sizes)
    ]
    if config.workers <= 1 or len(args) == 1:
        parts = [_run_chunk(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(_run_chunk, args))
    return ReplicationRecords.concatenate(parts)


# --- aggregation --------------------------------------------------------------


def _mean(x: np.ndarray) -> float:
    return float(np.mean(x)) if x.size else math.nan


def _sd(x: np.ndarray) -> float:
    if x.size < 2:
        return math.nan
    return float(np.std(x, ddof=1))


def _median(x: np.ndarray) -> float:
    return float(np.median(x)) if x.size else math.nan


def _reject_rate(estimate, se, z, value) -> float:
    if estimate.size == 0:
        return math.nan
    return float(np.mean(np.abs(estimate - value) > z * se))


def _ci_reject_rate(lo, hi, value) -> float:
    if lo.size == 0:
        return math.nan
    return float(np.mean((lo > value) | (hi < value)))


def _widths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        w = hi - lo
    # both endpoints diverged the same way (observed value essentially on a
    # window edge): the interval is unusable, count its width as infinite
    return np.where(np.isnan(w), math.inf, w)


def summarize_row(
    accepted: ReplicationRecords,
    unconditional: ReplicationRecords,
    truth: tuple[float, float],
) -> SimTableRow:
    """Aggregate one (DGP, K) cell into a table row.

    ``truth`` is (post coefficient, trend-adjusted coefficient).  Statistics
    run over the accepted replications (the K = 0 cell accepts everything);
    infinite interval widths participate in medians as infinities, and a
    single accepted replication yields NaN standard deviations rather than a
    crash.
    """
    if unconditional.n == 0:
        raise ValueError("no replication records")
    truth_beta, truth_gamma = truth
    k = unconditional.k
    z = critical_value(unconditional.alpha_ci)
    n_acc = accepted.n
    degenerate = k >= 1 and n_acc < MIN_ACCEPTED

    width_trad = 2.0 * z * accepted.se_trad
    row = {
        "dgp": unconditional.dgp,
        "k": k,
        "n_accepted": n_acc,
        "accept_prob": n_acc / unconditional.n,
        "degenerate": degenerate,
        "bias_traditional": _mean(accepted.beta_post) - truth_beta,
        "mean_se_traditional": _mean(accepted.se_trad),
        "actual_sd_traditional": _sd(accepted.beta_post),
        "size_traditional": _reject_rate(accepted.beta_post, accepted.se_trad, z, truth_beta),
        "reject_beta_post_traditional": _reject_rate(
            accepted.beta_post, accepted.se_trad, z, truth_beta
        ),
        "reject_zero_traditional": _reject_rate(accepted.beta_post, accepted.se_trad, z, 0.0),
        "median_traditional": _median(accepted.beta_post),
        "median_width_traditional": _median(width_trad),
    }
    if k == 0:
        # no pre-periods: nothing to adjust for or condition on
        nan = {f.name: math.nan for f in fields(SimTableRow) if f.name not in row}
        return SimTableRow(**row, **nan)

    row.update(
        bias_efficient=_mean(accepted.beta_tilde) - truth_beta,
        mean_se_efficient=_mean(accepted.se_eff),
        actual_sd_efficient=_sd(accepted.beta_tilde),
        size_efficient=_reject_rate(accepted.beta_tilde, accepted.se_eff, z, truth_beta),
        reject_beta_post_efficient=_reject_rate(
            accepted.beta_tilde, accepted.se_eff, z, truth_beta
        ),
        reject_zero_efficient=_reject_rate(accepted.beta_tilde, accepted.se_eff, z, 0.0),
        median_tn_beta=_median(accepted.tn_beta_est),
        median_tn_gamma=_median(accepted.tn_gamma_est),
        tn_reject_beta_post=_ci_reject_rate(
            accepted.tn_beta_lo, accepted.tn_beta_hi, truth_beta
        ),
        tn_reject_zero_gamma=_ci_reject_rate(
            accepted.tn_gamma_lo, accepted.tn_gamma_hi, truth_gamma
        ),
        median_width_tn_beta=_median(_widths(accepted.tn_beta_lo, accepted.tn_beta_hi)),
        median_width_tn_gamma=_median(_widths(accepted.tn_gamma_lo, accepted.tn_gamma_hi)),
    )
    if degenerate:
        keep = {"dgp", "k", "n_accepted", "accept_prob", "degenerate"}
        row = {
            name: (value if name in keep else math.nan)
            for name, value in row.items()
        }
    return SimTableRow(**row)


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
    replications are flagged degenerate rather than failing the run.
    """
    if table_id not in TABLE_SPECS:
        raise ValueError(f"table_id must be one of {sorted(TABLE_SPECS)}")
    dgps, k_lo = TABLE_SPECS[table_id]
    if dgp is not None:
        if dgp not in dgps:
            raise ValueError(f"table {table_id} has only {'/'.join(dgps)} rows")
        dgps = (dgp,)
    rows = []
    for dgp in dgps:
        truth_beta = 0.0 if dgp == "null" else config.trend_slope
        for k in range(k_lo, config.k_max + 1):
            records = simulate_cell(config, k, dgp)
            accepted = records.subset(records.accepted)
            rows.append(summarize_row(accepted, records, (truth_beta, 0.0)))
    return rows


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[SimTableRow]) -> str:
    """One row per line, header matching the field names, full-precision floats."""
    names = [f.name for f in fields(SimTableRow)]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


def json_number(value):
    """JSON has no infinity or NaN literals: infinities become "inf"/"-inf",
    NaN becomes null; anything else passes through."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def rows_to_json(rows: list[SimTableRow]) -> str:
    """JSON array of row objects; infinities as "inf"/"-inf", NaN as null."""
    import json

    names = [f.name for f in fields(SimTableRow)]
    payload = [
        {name: json_number(getattr(row, name)) for name in names} for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"
