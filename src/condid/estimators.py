"""Inference for event-study contrasts conditional on a polyhedral event.

The machinery: any linear contrast eta'beta_hat, conditioned on the event
{A beta_hat <= b} and on the residual Z = (I - c eta') beta_hat with
c = Sigma eta / (eta' Sigma eta), follows a univariate truncated normal with
untruncated mean eta'beta, untruncated variance eta'Sigma eta, and window

    V- = max over {j : (Ac)_j < 0} of (b_j - (AZ)_j) / (Ac)_j,
    V+ = min over {j : (Ac)_j > 0} of (b_j - (AZ)_j) / (Ac)_j,

with empty index sets giving -inf / +inf.  Quantile-unbiased point estimates
and equal-tailed intervals then come from solving the truncated-normal mean.

One step serves every caller.  :func:`polyhedral_window` computes the
observed value, variance and window of one contrast over a stack of ``n``
datasets, and :func:`conditional_quantiles` runs it once per contrast and
solves every (dataset, contrast, target) triple in one
:func:`~condid.gaussian.solve_tn_quantiles` call.  :func:`analyze` calls it
on one dataset and two contrasts, and the simulator on each block of
replications; :func:`condition_contrast` is a window on a stack of one, and
:func:`quantile_unbiased_estimate` and :func:`conditional_ci` solve its law
through the same solve.
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
    as_integer,
)
from .event_study import EstimateBundle
from .gaussian import CovarianceMatrix, solve_tn_quantiles
from .pretest import (
    ALPHA,
    PolyhedralConstraint,
    build_ns_polyhedron,
    critical_value,
    event_product,
)

__all__ = [
    "ConditionalLaw",
    "EstimatorBlock",
    "ConditionalBlock",
    "PretestResult",
    "InferenceReport",
    "efficient_estimator",
    "polyhedral_window",
    "conditional_quantiles",
    "condition_contrast",
    "quantile_targets",
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
        When the pre-coefficient covariance block is not positive definite,
        or the adjusted variance is not positive.
    """
    sigma = bundle.sigma
    if sigma.k == 0:
        raise InvalidArgumentError("bundle has no pre-period coefficients")
    weights = adjustment_weights(sigma)
    estimate = bundle.beta_post - float(weights @ bundle.beta_pre)
    variance = sigma.sigma11 - float(sigma.sigma12 @ weights)
    if not variance > 0:  # the subtraction cancelled; NaN fails too
        raise SingularMatrixError(f"adjusted variance is {variance!r}, not positive")
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
    """Truncation windows of one contrast over a stack of ``n`` datasets.

    Takes ``beta`` (n, d), ``sigma_eta`` (n, d) holding ``Sigma_i eta``,
    ``eta`` (d,), ``a`` (r, d) and ``b`` (n, r), the event of dataset i being
    ``a beta_i <= b_i``.  Returns ``(observed, var, lower, upper)``, each
    (n,): ``eta' beta_i``, ``eta' Sigma_i eta`` and ``[V-, V+]``.
    ``observed`` is not clamped into its window; the mean solve absorbs that
    float dust.  Rows with ``|(Ac)_j|`` below :data:`AC_ZERO_RTOL` times
    ``max_j ||A_j||_1 * max|c|`` do not constrain the window.  Both products
    with ``a`` go through :func:`~condid.pretest.event_product`: the pretest
    event's +/-e_j rows gather columns, exactly and with no BLAS call, and
    any other polyhedron takes the matrix product.

    Raises
    ------
    ZeroContrastError
        The contrast has zero variance under some dataset's covariance.
    """
    observed = (beta * eta).sum(axis=-1)
    var = (sigma_eta * eta).sum(axis=-1)
    if not np.all(var > 0.0):
        raise ZeroContrastError("contrast has zero variance under sigma")
    # c = Sigma eta / var is never formed: one (n, d) array fewer
    ac = event_product(a, sigma_eta)
    ac /= var[:, None]
    max_c = np.abs(sigma_eta).max(axis=-1, keepdims=True) / var[:, None]
    tol = AC_ZERO_RTOL * float(np.abs(a).sum(axis=1).max(initial=0.0)) * max_c
    # (b - A z) / (A c) with A z = A beta - (A c) observed, built in place
    ratio = ac * observed[:, None]
    np.subtract(event_product(a, beta), ratio, out=ratio)
    np.subtract(b, ratio, out=ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= ac
    lower = np.max(ratio, axis=-1, where=ac < -tol, initial=-math.inf)
    upper = np.min(ratio, axis=-1, where=ac > tol, initial=math.inf)
    return observed, var, lower, upper


def conditional_quantiles(beta, sigma_etas, etas, a, b, alpha):
    """The conditional step after the pretest, for ``m`` contrasts ``etas``
    (m, d) over ``n`` datasets, with ``sigma_etas`` (m, n, d) holding
    ``Sigma_i eta_j``: one :func:`polyhedral_window` call per contrast, then
    one :func:`~condid.gaussian.solve_tn_quantiles` call at
    :func:`quantile_targets` of ``alpha``, which is a single bulk solve.  Its
    temporaries grow with the stack: a caller with a large stack blocks it, as
    the simulator does, and since every step is elementwise over datasets,
    the blocks move no bit.  Returns the windows ``lower`` and ``upper``, each
    (n, m), and ``mu`` (n, m, 3): the median and the 1-alpha interval's lower
    and upper endpoints.  Raises what those two raise."""
    windows = [polyhedral_window(beta, s_eta, eta, a, b) for s_eta, eta in zip(sigma_etas, etas)]
    observed, var, lower, upper = (np.stack(x, axis=1) for x in zip(*windows))
    return lower, upper, solve_tn_quantiles(observed, np.sqrt(var), lower, upper,
                                            quantile_targets(alpha))


@dataclass(frozen=True, eq=False)
class ConditionalLaw:
    """Truncated-normal law of one contrast, conditional on the event.

    The observed contrast ``observed`` follows TN(mean, ``sd``^2, [``lower``,
    ``upper``]); the mean is the free parameter of every solve.  Any known
    window makes a law: :func:`condition_contrast` builds one from a bundle.
    """

    observed: float
    sd: float
    lower: float
    upper: float

    def __post_init__(self):
        observed, lower, upper = self.observed, self.lower, self.upper
        if not 0.0 < self.sd < math.inf:
            raise InvalidArgumentError(f"sd must be positive and finite, got {self.sd}")
        if not lower < upper:
            raise InvalidArgumentError(f"lower bound {lower} must be strictly below upper {upper}")
        if not (math.isfinite(observed) and lower <= observed <= upper):
            raise InvalidArgumentError(f"observed {observed} outside window [{lower}, {upper}]")


def condition_contrast(
    bundle: EstimateBundle,
    eta,
    constraint: PolyhedralConstraint,
) -> ConditionalLaw:
    """Conditional law of ``eta' beta_hat`` given ``A beta_hat <= b`` and Z.

    Raises
    ------
    ZeroContrastError
        ``eta' Sigma eta`` is zero, as it is for ``eta = 0``.
    ConstraintViolatedError
        The observed coefficient vector is outside the polyhedron.
    """
    eta = np.asarray(eta, dtype=float)
    beta = bundle.beta
    if eta.shape != beta.shape:
        raise InvalidArgumentError(f"eta has shape {eta.shape}, expected {beta.shape}")
    if constraint.dim != beta.shape[0]:
        raise InvalidArgumentError("constraint dimension does not match bundle")
    if not constraint.holds_at(beta):
        raise ConstraintViolatedError(
            "observed coefficients violate the conditioning event; "
            "condition_contrast requires a bundle that passed it"
        )
    window = polyhedral_window(beta[None], (bundle.sigma.entries * eta).sum(axis=-1)[None], eta,
                               constraint.a_matrix, constraint.b_vector[None])
    observed, var, lower, upper = (float(x[0]) for x in window)
    # float dust can place the observed value epsilon outside its window
    return ConditionalLaw(min(max(observed, lower), upper), math.sqrt(var), lower, upper)


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
    return float(solve_tn_quantiles(law.observed, law.sd, law.lower, law.upper, (target,))[0])


def quantile_targets(alpha: float) -> tuple[float, float, float]:
    """CDF targets of the median and of the 1-alpha interval's lower and upper
    endpoints; the CDF decreases in the mean, so the lower one is 1 - alpha/2."""
    return 0.5, 1.0 - alpha / 2.0, alpha / 2.0


def conditional_ci(law: ConditionalLaw, alpha: float = ALPHA) -> tuple[float, float]:
    """Equal-tailed 1-alpha interval for the contrast mean, infinite on a side
    where the solve runs off ``observed +/- 40 sd``; ``alpha`` obeys
    :func:`~condid.pretest.critical_value`'s range rule."""
    critical_value(alpha)
    targets = quantile_targets(alpha)[1:]
    lower, upper = solve_tn_quantiles(law.observed, law.sd, law.lower, law.upper, targets)
    return float(lower), float(upper)


def eta_gamma(k: int, p: int = 1) -> np.ndarray:
    """Contrast whose value equals the trend-adjusted post coefficient.

    Fitting a degree-``p`` polynomial through the points
    ``(0, 0), (-1, beta_-1), ..., (-K, beta_-K)`` and extrapolating it to the
    post period, 1, gives the adjustment; the returned vector eta (length K+1,
    ordered post-first) satisfies

        eta' beta = beta_1 - [extrapolated trend at 1].

    A pure trend b_t = t^q, 1 <= q <= p <= k <= 11, maps to zero up to rounding:
    |eta' b| <= 1e-7 sum_i |eta_i b_i| (worst 9.5e-8, at k = p = 11, q = 1).

    Raises
    ------
    RankDeficientError
        The Vandermonde basis is full rank in exact arithmetic, but its
        least-squares solve loses rank in floating point at high orders,
        first at ``k = p = 12``.
    """
    k, p = as_integer(k, "k"), as_integer(p, "p")
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if not (1 <= p <= k):
        raise InvalidArgumentError(f"trend order p={p} must satisfy 1 <= p <= k={k}")
    t = -np.arange(k + 1, dtype=float)  # 0, -1, ..., -K
    x = np.vander(t, p + 1, increasing=True)  # rows (t^0, ..., t^p)
    pinv, _, rank, _ = np.linalg.lstsq(x, np.eye(k + 1), rcond=None)
    if rank < p + 1:
        raise RankDeficientError(f"trend basis rank {rank} < {p + 1}")
    # the basis at t = 1 is all ones; drop the t=0 column: beta_0 is identically zero
    weights = np.ones(p + 1) @ pinv[:, 1:]
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
    alpha_pretest: float = ALPHA,
    alpha_ci: float = ALPHA,
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
    trend_order = as_integer(trend_order, "trend_order")
    if not 1 <= trend_order <= k:
        raise InvalidArgumentError(f"trend_order must satisfy 1 <= p <= K={k}, got {trend_order}")
    traditional = _wald_block(bundle.beta_post, bundle.sigma.sigma11, alpha_ci)
    eff_est, eff_var = efficient_estimator(bundle)
    efficient = _wald_block(eff_est, eff_var, alpha_ci)
    # the verdict of passes_pretest, read from the polyhedron the windows use
    constraint = build_ns_polyhedron(bundle.sigma, alpha_pretest)
    passed = constraint.holds_at(bundle.beta, rtol=0.0)
    beta_block = gamma_block = None
    if passed:
        eta = np.stack([np.eye(k + 1)[0], eta_gamma(k, trend_order)])
        sigma_eta = (bundle.sigma.entries * eta[:, None, :]).sum(axis=-1)
        lower, upper, mu = conditional_quantiles(
            bundle.beta[None], sigma_eta[:, None], eta,
            constraint.a_matrix, constraint.b_vector[None], alpha_ci,
        )
        # fields in order: estimate, ci_lower, ci_upper, window_lower, window_upper
        beta_block, gamma_block = (
            ConditionalBlock(*map(float, (*mu[0, j], lower[0, j], upper[0, j])), order)
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
