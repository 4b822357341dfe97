"""Inference for event-study contrasts conditional on a polyhedral event.

The machinery: any linear contrast eta'beta_hat, conditioned on the event
{A beta_hat <= b} and on the residual Z = (I - c eta') beta_hat with
c = Sigma eta / (eta' Sigma eta), follows a univariate truncated normal with
untruncated mean eta'beta, untruncated variance eta'Sigma eta, and window

    V- = max over {j : (Ac)_j < 0} of (b_j - (AZ)_j) / (Ac)_j,
    V+ = min over {j : (Ac)_j > 0} of (b_j - (AZ)_j) / (Ac)_j,

with empty index sets giving -inf / +inf.  Quantile-unbiased point estimates
and equal-tailed intervals then come from solving the truncated-normal mean.

One kernel serves every caller.  :func:`polyhedral_window` computes the
observed value, variance and window of ``m`` contrasts over a stack of ``n``
datasets, and :func:`~condid.gaussian.solve_tn_quantiles` solves every
(dataset, contrast, target) triple in one stacked call.  :func:`analyze` is a
batch of one dataset and two contrasts; the simulator runs the same two
functions on each chunk of replications; :func:`condition_contrast` is a
batch of one dataset and one contrast, and :func:`quantile_unbiased_estimate`
and :func:`conditional_ci` solve its law through the same call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolatedError,
    InvalidArgumentError,
    RankDeficientError,
    SingularMatrixError,
    ZeroContrastError,
)
from .event_study import EstimateBundle
from .gaussian import CovarianceMatrix, TruncatedNormalSpec, solve_tn_quantiles
from .pretest import PolyhedralConstraint, build_ns_polyhedron, critical_value

__all__ = [
    "ConditionalLaw",
    "EstimatorBlock",
    "ConditionalBlock",
    "PretestResult",
    "InferenceReport",
    "efficient_estimator",
    "polyhedral_window",
    "condition_contrast",
    "quantile_unbiased_estimate",
    "conditional_ci",
    "eta_gamma",
    "analyze",
]

# rows with |(Ac)_j| below this relative threshold are treated as orthogonal
# to the contrast and excluded from the window competition
AC_ZERO_RTOL = 1e-10


def efficient_estimator(bundle: EstimateBundle) -> tuple[float, float]:
    """Pre-period-adjusted point estimate and its variance.

    Returns ``beta_post - w' beta_pre`` with ``w = Sigma22^-1 Sigma21`` and
    variance ``Sigma11 - Sigma12 w``, both via a Cholesky solve of the pre
    block (no explicit inverse).

    Raises
    ------
    SingularMatrixError
        When the pre-coefficient covariance block is not positive definite.
    """
    sigma = bundle.sigma
    if sigma.k == 0:
        raise InvalidArgumentError("bundle has no pre-period coefficients")
    weights = adjustment_weights(sigma)
    estimate = bundle.beta_post - float(weights @ bundle.beta_pre)
    variance = sigma.sigma11 - float(sigma.sigma12 @ weights)
    return estimate, variance


def adjustment_weights(sigma: CovarianceMatrix) -> np.ndarray:
    """The weight vector Sigma22^-1 Sigma21 applied to beta_pre."""
    try:
        chol = np.linalg.cholesky(sigma.sigma22)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("pre-coefficient covariance block is singular") from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, sigma.sigma12))


def polyhedral_window(
    beta: np.ndarray,
    sigma_eta: np.ndarray,
    eta: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Truncation windows of ``m`` contrasts over a stack of ``n`` datasets.

    Takes ``beta`` (n, d), ``sigma_eta`` (n, m, d) holding ``Sigma_i eta_j``,
    ``eta`` (m, d), ``a`` (r, d) and ``b`` (n, r), the event of dataset i
    being ``a beta_i <= b_i``.  Returns ``(observed, var, lower, upper)``,
    each (n, m): ``eta_j' beta_i``, ``eta_j' Sigma_i eta_j`` and ``[V-, V+]``.
    ``observed`` is not clamped into its window; the mean solve absorbs that
    float dust.  Rows with ``|(Ac)_j|`` below :data:`AC_ZERO_RTOL` times
    ``max_j ||A_j||_1 * max|c|`` do not constrain the window.

    Raises
    ------
    ZeroContrastError
        Some contrast has zero variance under its dataset's covariance.
    """
    n, m, d = sigma_eta.shape
    observed = (beta[:, None, :] * eta).sum(axis=-1)
    var = (sigma_eta * eta).sum(axis=-1)
    if not np.all(var > 0.0):
        raise ZeroContrastError("contrast has zero variance under sigma")
    # c = Sigma eta / var is never formed: one (n, m, d) array fewer
    ac = (sigma_eta.reshape(-1, d) @ a.T).reshape(n, m, -1)
    ac /= var[..., None]
    max_c = np.abs(sigma_eta).max(axis=-1, keepdims=True) / var[..., None]
    tol = AC_ZERO_RTOL * float(np.abs(a).sum(axis=1).max(initial=0.0)) * max_c
    # (b - A z) / (A c) with A z = A beta - (A c) observed, built in place
    ratio = ac * observed[..., None]
    np.subtract((beta @ a.T)[:, None, :], ratio, out=ratio)
    np.subtract(b[:, None, :], ratio, out=ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= ac
    lower = np.max(ratio, axis=-1, where=ac < -tol, initial=-math.inf)
    upper = np.min(ratio, axis=-1, where=ac > tol, initial=math.inf)
    return observed, var, lower, upper


@dataclass(frozen=True, eq=False)
class ConditionalLaw:
    """Truncated-normal law of one contrast, conditional on the event.

    ``spec.mu`` stores the observed contrast as a reference point only: the
    mean is the free parameter in every downstream solve.  ``z_vector`` and
    ``c_vector`` satisfy ``beta_hat = z_vector + c_vector * observed``.
    """

    spec: TruncatedNormalSpec
    observed: float
    z_vector: np.ndarray
    c_vector: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        if not self.spec.lower <= self.observed <= self.spec.upper:
            raise InvalidArgumentError(f"observed {self.observed} outside window {self.window}")

    @property
    def window(self) -> tuple[float, float]:
        return self.spec.lower, self.spec.upper


def condition_contrast(
    bundle: EstimateBundle,
    eta,
    constraint: PolyhedralConstraint,
) -> ConditionalLaw:
    """Conditional law of ``eta' beta_hat`` given ``A beta_hat <= b`` and Z.

    Preconditions: ``eta`` nonzero, the observed coefficients satisfy the
    constraint, and ``eta' Sigma eta > 0``.

    Raises
    ------
    ZeroContrastError
        ``eta`` is zero (or has zero variance under a singular covariance).
    ConstraintViolatedError
        The observed coefficient vector is outside the polyhedron.
    """
    eta = np.asarray(eta, dtype=float)
    beta = bundle.beta
    if eta.shape != beta.shape:
        raise InvalidArgumentError(f"eta has shape {eta.shape}, expected {beta.shape}")
    if not np.any(eta != 0.0):
        raise ZeroContrastError("contrast vector is zero")
    if constraint.dim != beta.shape[0]:
        raise InvalidArgumentError("constraint dimension does not match bundle")
    if not constraint.holds_at(beta):
        raise ConstraintViolatedError(
            "observed coefficients violate the conditioning event; "
            "condition_contrast requires a bundle that passed it"
        )

    sigma_eta = (bundle.sigma.entries * eta).sum(axis=-1)
    window = polyhedral_window(
        beta[None], sigma_eta[None, None], eta[None], constraint.a_matrix,
        constraint.b_vector[None],
    )
    observed, var, lower, upper = (float(x[0, 0]) for x in window)
    c = sigma_eta / var
    z = beta - c * observed
    # float dust can place the observed value epsilon outside its window
    observed = min(max(observed, lower), upper)
    spec = TruncatedNormalSpec(mu=observed, var=var, lower=lower, upper=upper)
    return ConditionalLaw(spec=spec, observed=observed, z_vector=z, c_vector=c, eta=eta)


def quantile_unbiased_estimate(law: ConditionalLaw, target: float = 0.5) -> float:
    """The mean parameter placing the observed contrast at quantile ``target``.

    ``target=0.5`` gives the median-unbiased point estimate.  A root beyond
    ``observed +/- 40 sd`` is returned as ``-inf``/``+inf``, as
    :func:`conditional_ci` and :func:`analyze` report it.

    Raises
    ------
    NoConvergenceError
        The solve used up its iteration budget.
    """
    return float(solve_tn_quantiles(law.observed, law.spec.sd, *law.window, (target,))[0])


def conditional_ci(law: ConditionalLaw, alpha: float = 0.05) -> tuple[float, float]:
    """Equal-tailed 1-alpha interval for the contrast mean.

    The CDF at the observed value is decreasing in the mean, so the lower
    endpoint solves for quantile ``1 - alpha/2`` and the upper endpoint for
    ``alpha/2``; a solve that runs off ``observed +/- 40 sd`` yields an
    infinite endpoint on that side.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidArgumentError("alpha must lie strictly inside (0, 1)")
    targets = (1.0 - alpha / 2.0, alpha / 2.0)
    lower, upper = solve_tn_quantiles(law.observed, law.spec.sd, *law.window, targets)
    return float(lower), float(upper)


def eta_gamma(k: int, p: int = 1, m: int = 1) -> np.ndarray:
    """Contrast whose value equals the trend-adjusted post coefficient.

    Fitting a degree-``p`` polynomial through the points
    ``(0, 0), (-1, beta_-1), ..., (-K, beta_-K)`` and extrapolating it to
    period ``m`` gives the adjustment; the returned vector eta (length K+1,
    ordered post-first) satisfies

        eta' beta = beta_m - [extrapolated trend at m].

    A pure polynomial trend of degree <= p therefore maps to exactly zero.

    Raises
    ------
    RankDeficientError
        The Vandermonde basis is full rank in exact arithmetic, but its
        least-squares solve loses rank in floating point at high orders,
        first at ``k = p = 12``.
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if not (1 <= p <= k):
        raise InvalidArgumentError(f"trend order p={p} must satisfy 1 <= p <= k={k}")
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    t = -np.arange(k + 1, dtype=float)  # 0, -1, ..., -K
    x = np.vander(t, p + 1, increasing=True)  # rows (t^0, ..., t^p)
    pinv, _, rank, _ = np.linalg.lstsq(x, np.eye(k + 1), rcond=None)
    if rank < p + 1:
        raise RankDeficientError(f"trend basis rank {rank} < {p + 1}")
    m_powers = float(m) ** np.arange(p + 1)
    # drop the t=0 column: beta_0 is identically zero
    weights = m_powers @ pinv[:, 1:]
    return np.concatenate(([1.0], -weights))


@dataclass(frozen=True)
class EstimatorBlock:
    """Point estimate with standard error and a Wald interval."""

    estimate: float
    se: float
    ci_lower: float
    ci_upper: float


@dataclass(frozen=True)
class ConditionalBlock:
    """Median-unbiased estimate with its conditional interval and the
    truncation window it was computed under."""

    estimate: float
    ci_lower: float
    ci_upper: float
    window_lower: float
    window_upper: float
    trend_order: int | None = None


@dataclass(frozen=True)
class PretestResult:
    alpha: float
    passed: bool


@dataclass(frozen=True)
class InferenceReport:
    """Everything :func:`analyze` produces for one dataset.

    The conditional blocks are ``None`` when the pretest failed: the
    truncated-normal corrections are defined only on the acceptance event.
    """

    k: int
    pretest: PretestResult
    traditional: EstimatorBlock
    efficient: EstimatorBlock
    median_unbiased_beta: ConditionalBlock | None
    median_unbiased_gamma: ConditionalBlock | None


def _wald_block(estimate: float, variance: float, alpha: float) -> EstimatorBlock:
    se = math.sqrt(variance)
    z = critical_value(alpha)
    return EstimatorBlock(
        estimate=estimate, se=se, ci_lower=estimate - z * se, ci_upper=estimate + z * se
    )


def analyze(
    bundle: EstimateBundle,
    alpha_pretest: float = 0.05,
    alpha_ci: float = 0.05,
    trend_order: int = 1,
) -> InferenceReport:
    """Run the full inference pipeline on one estimated bundle.

    Always reports the traditional and pre-period-adjusted estimators; when
    the pretest passes, adds median-unbiased conditional estimates and
    intervals for the post coefficient and for the trend-adjusted contrast.
    A ``trend_order`` outside 1..K raises :class:`InvalidArgumentError`
    whatever the pretest verdict; a conditional solve that does not converge
    raises :class:`NoConvergenceError`.
    """
    k = bundle.k
    if not 1 <= trend_order <= k:
        raise InvalidArgumentError(f"trend_order must satisfy 1 <= p <= K={k}, got {trend_order}")
    traditional = _wald_block(bundle.beta_post, bundle.sigma.sigma11, alpha_ci)
    eff_est, eff_var = efficient_estimator(bundle)
    efficient = _wald_block(eff_est, eff_var, alpha_ci)
    # the pretest verdict of passes_pretest, on the polyhedron the windows use
    constraint = build_ns_polyhedron(bundle.sigma, alpha_pretest)
    passed = constraint.holds_at(bundle.beta, rtol=0.0)
    beta_block = None
    gamma_block = None
    if passed:
        eta = np.stack([np.eye(k + 1)[0], eta_gamma(k, trend_order)])
        sigma_eta = (bundle.sigma.entries * eta[:, None, :]).sum(axis=-1)
        observed, var, lower, upper = polyhedral_window(
            bundle.beta[None], sigma_eta[None], eta, constraint.a_matrix,
            constraint.b_vector[None],
        )
        # the CDF at the observed value decreases in the mean: the lower
        # interval endpoint solves for quantile 1 - alpha/2
        targets = (0.5, 1.0 - alpha_ci / 2.0, alpha_ci / 2.0)
        mu = solve_tn_quantiles(observed, np.sqrt(var), lower, upper, targets)[0]
        beta_block, gamma_block = (
            ConditionalBlock(
                estimate=float(mu[j, 0]),
                ci_lower=float(mu[j, 1]),
                ci_upper=float(mu[j, 2]),
                window_lower=float(lower[0, j]),
                window_upper=float(upper[0, j]),
                trend_order=order,
            )
            for j, order in enumerate((None, trend_order))
        )
    return InferenceReport(
        k=k,
        pretest=PretestResult(alpha=alpha_pretest, passed=passed),
        traditional=traditional,
        efficient=efficient,
        median_unbiased_beta=beta_block,
        median_unbiased_gamma=gamma_block,
    )
