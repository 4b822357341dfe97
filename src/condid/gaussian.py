"""Gaussian numerics: small dense covariance objects, a tail-stable
truncated-normal CDF, and the monotone mean solve that underlies
quantile-unbiased estimation.

The mean solve works on the offset of the mean from the observed value in
units of sd, where the CDF no longer depends on the location or scale of the
data: a bracket grows from +/-1 to +/-40 and Chandrupatla's (1997) hybrid of
inverse quadratic interpolation and bisection shrinks it to 1e-8, in about
10 CDF evaluations per element.  :func:`solve_tn_quantiles` is the one entry
into the solve for every estimate and interval: it returns unbounded roots as
infinities and raises :class:`~condid.errors.NoConvergenceError` for a solve
that did not converge.

All truncated-normal computations run in log space throughout, so windows
many standard deviations out in a tail keep full relative accuracy.
Truncation bounds are IEEE infinities used as explicit sentinels; wherever a
bound enters an expression, an ``isinf`` selection keeps the infinite value
out of the finite-float path (an infinite bound standardizes to the infinite
z-value directly, never to an overflowed intermediate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .errors import CholeskyError, DegenerateWindowError, NoConvergenceError

__all__ = [
    "CovarianceMatrix",
    "TruncatedNormalSpec",
    "tn_cdf",
    "solve_tn_mean_bulk",
    "solve_tn_quantiles",
]

# Window mass below exp(LOG_MASS_FLOOR) cannot be represented even as a
# subnormal double; tn_cdf refuses such windows rather than returning noise.
LOG_MASS_FLOOR = -740.0

_SYM_RTOL = 1e-12

# Most elements per solve_tn_mean_bulk call in solve_tn_quantiles: the bulk
# solve's temporaries grow with its batch, while its cost per element stops
# falling at about this size.
BULK_BLOCK = 25_000


class CovarianceMatrix:
    """Symmetric positive-definite covariance over (post, pre) coordinates.

    The first coordinate is the post-period coefficient; the remaining K
    coordinates are the pre-period coefficients ordered (-1, -2, ..., -K).
    Block views follow that partition.

    Parameters
    ----------
    entries : array_like, shape (d, d)
        Symmetric matrix (checked to relative tolerance 1e-12).
    allow_singular : bool
        When False (default) the matrix must be positive definite; a failed
        Cholesky factorization raises :class:`CholeskyError` at construction.
        When True, positive definiteness is checked lazily, on first use of
        :meth:`cholesky`.  Estimated covariances from degenerate samples
        (zero within-cell variance) need this escape hatch.
    """

    __slots__ = ("entries", "_chol")

    def __init__(self, entries, *, allow_singular: bool = False):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"covariance must be a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("covariance entries must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        if np.abs(arr - arr.T).max() > _SYM_RTOL * scale:
            raise ValueError("covariance is not symmetric within 1e-12 relative tolerance")
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        self.entries = arr
        self._chol = None
        if not allow_singular:
            self._chol = self._factor()

    def _factor(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.entries)
        except np.linalg.LinAlgError as exc:
            raise CholeskyError("covariance is not positive definite") from exc

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        """Number of pre-period coordinates."""
        return self.dim - 1

    @property
    def sigma11(self) -> float:
        """Variance of the post coefficient."""
        return float(self.entries[0, 0])

    @property
    def sigma12(self) -> np.ndarray:
        """Covariances between the post and pre coefficients, shape (K,)."""
        return self.entries[0, 1:]

    @property
    def sigma22(self) -> np.ndarray:
        """Covariance block of the pre coefficients, shape (K, K)."""
        return self.entries[1:, 1:]

    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor; raises :class:`CholeskyError` if not PD."""
        if self._chol is None:
            self._chol = self._factor()
        return self._chol

    def __repr__(self) -> str:  # pragma: no cover
        return f"CovarianceMatrix(dim={self.dim})"


@dataclass(frozen=True)
class TruncatedNormalSpec:
    """Parameters of a univariate truncated normal law.

    ``mu`` and ``var`` are the *untruncated* mean and variance; ``lower`` and
    ``upper`` may be ``-inf`` / ``+inf``.  Equal bounds are rejected at
    construction.
    """

    mu: float
    var: float
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (self.var > 0) or not math.isfinite(self.var):
            raise ValueError("var must be positive and finite")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("truncation bounds must not be NaN")
        if not (self.lower < self.upper):
            raise ValueError(f"lower bound {self.lower} must be strictly below upper {self.upper}")

    @property
    def sd(self) -> float:
        return math.sqrt(self.var)


def _log1mexp(d: np.ndarray) -> np.ndarray:
    """log(1 - exp(d)) for d <= 0, elementwise, accurate near both ends."""
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = d < -math.log(2.0)
        out = np.where(small, np.log1p(-np.exp(d)), np.log(-np.expm1(d)))
    return out


def _window_log_mass(zlo, zhi) -> np.ndarray:
    """log(Phi(zhi) - Phi(zlo)) elementwise, stable in either tail.

    Both-in-left-tail windows use the CDF difference in log space; both-in-
    right-tail windows use the survival function via symmetry; windows that
    straddle zero carry O(1) mass and use the direct difference.  Empty or
    inverted windows map to -inf.
    """
    zlo = np.asarray(zlo, dtype=float)
    zhi = np.asarray(zhi, dtype=float)
    zlo, zhi = np.broadcast_arrays(zlo, zhi)
    out = np.full(zlo.shape, -math.inf)

    valid = zhi > zlo
    left = valid & (zhi <= 0)
    right = valid & (zlo >= 0)
    mid = valid & ~left & ~right

    if left.any():
        a = log_ndtr(zhi[left])
        b = log_ndtr(zlo[left])
        out[left] = a + _log1mexp(b - a)
    if right.any():
        a = log_ndtr(-zlo[right])
        b = log_ndtr(-zhi[right])
        out[right] = a + _log1mexp(b - a)
    if mid.any():
        with np.errstate(divide="ignore"):
            out[mid] = np.log(ndtr(zhi[mid]) - ndtr(zlo[mid]))
    return out


def _tn_cdf_core(x, mu, sd, lower, upper):
    """Vectorized truncated-normal CDF evaluated in log space.

    Returns ``(cdf, log_denominator)``; callers that care about representable
    window mass inspect the denominator.  ``x`` outside the window clamps to
    0/1.  All arguments broadcast.
    """
    x, mu, sd, lower, upper = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (x, mu, sd, lower, upper))
    )
    shape = x.shape
    x, mu, sd, lower, upper = (np.ravel(a) for a in (x, mu, sd, lower, upper))
    with np.errstate(invalid="ignore"):
        zx = (x - mu) / sd
        zlo = np.where(np.isinf(lower), lower, (lower - mu) / sd)
        zhi = np.where(np.isinf(upper), upper, (upper - mu) / sd)
    log_den = _window_log_mass(zlo, zhi)
    log_num = _window_log_mass(zlo, np.minimum(zx, zhi))
    with np.errstate(invalid="ignore"):
        cdf = np.exp(log_num - log_den)
    cdf = np.clip(cdf, 0.0, 1.0)
    cdf = np.where(x <= lower, 0.0, cdf)
    cdf = np.where(x >= upper, 1.0, cdf)
    return cdf.reshape(shape), log_den.reshape(shape)


def tn_cdf(spec: TruncatedNormalSpec, x: float) -> float:
    """CDF of the truncated normal law at ``x``.

    Values of ``x`` outside ``[lower, upper]`` clamp to 0 and 1.

    Raises
    ------
    DegenerateWindowError
        When the window mass is below exp(-740), i.e. zero even as a
        subnormal double.
    """
    cdf, log_den = _tn_cdf_core(x, spec.mu, spec.sd, spec.lower, spec.upper)
    if float(log_den) < LOG_MASS_FLOOR:
        raise DegenerateWindowError(
            f"truncation window [{spec.lower}, {spec.upper}] carries log-mass "
            f"{float(log_den):.1f} < {LOG_MASS_FLOOR} under mu={spec.mu}, var={spec.var}"
        )
    return float(cdf)


def _cdf_excess(u, zlo, zhi, target):
    """CDF at 0 of TN(u, 1, [zlo, zhi]) minus ``target``; decreasing in ``u``."""
    return _tn_cdf_core(0.0, u, 1.0, zlo, zhi)[0] - target


def solve_tn_mean_bulk(
    observed,
    sd,
    lower,
    upper,
    target,
    *,
    cdf_tol: float = 1e-8,
    max_radius: float = 40.0,
    max_iter: int = 200,
):
    """Vectorized monotone solve for the truncated-normal mean.

    For each element, finds ``mu`` such that the CDF of TN(mu, sd^2, [lower,
    upper]) evaluated at ``observed`` equals ``target``.  The solve runs on
    the standardized offset ``u = (mu - observed) / sd``: the CDF at
    ``observed`` under mean ``observed + u*sd`` is the CDF at 0 of
    TN(u, 1, [(lower - observed)/sd, (upper - observed)/sd]), which is
    strictly decreasing in ``u`` and does not depend on the location or the
    scale of the data.

    A bracket expands geometrically from ``u = -1, +1`` to at most
    ``-max_radius, +max_radius``.  Chandrupatla's (1997) hybrid of inverse
    quadratic interpolation and bisection then shrinks it, one CDF
    evaluation per unconverged element and iteration (about 10 in all,
    against about 30 for bisection).  An element converges once its bracket
    is at most 1e-8 wide in ``u`` (1e-8*sd in ``mu``) and the CDF at both
    its ends lies within ``cdf_tol`` of the target; it returns the secant
    root of that bracket.  Every step is elementwise, so an element's result
    does not depend on the batch it is solved in.

    Returns
    -------
    (mu, status) : tuple of ndarray
        ``status`` is 0 where the solve converged; -1 where the root lies
        below ``observed - max_radius*sd`` and +1 where it lies above
        ``observed + max_radius*sd`` (``mu`` is -inf / +inf there); 2 where
        ``max_iter`` iterations ended before convergence (``mu`` is NaN).
    """
    observed, sd, lower, upper, target = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (observed, sd, lower, upper, target))
    )
    shape = observed.shape
    observed, sd, lower, upper, target = (
        a.ravel() for a in (observed, sd, lower, upper, target)
    )
    n = observed.size
    u_tol = 1e-8

    # absorb float dust: the observed value is inside its window by
    # construction whenever the conditioning event held
    observed = np.minimum(np.maximum(observed, lower), upper)
    zlo = (lower - observed) / sd
    zhi = (upper - observed) / sd

    radius = np.ones(n)
    lo = -radius
    hi = radius.copy()
    f_lo = _cdf_excess(lo, zlo, zhi, target)
    f_hi = _cdf_excess(hi, zlo, zhi, target)
    # F is decreasing in u: the bracket straddles the root once f_lo >= 0 >= f_hi
    while True:
        need_lo = f_lo < 0
        need_hi = f_hi > 0
        need = (need_lo | need_hi) & (radius < max_radius)
        if not need.any():
            break
        radius = np.where(need, np.minimum(radius * 2.0, max_radius), radius)
        grow_lo = need & need_lo
        grow_hi = need & need_hi
        if grow_lo.any():
            lo[grow_lo] = -radius[grow_lo]
            f_lo[grow_lo] = _cdf_excess(
                lo[grow_lo], zlo[grow_lo], zhi[grow_lo], target[grow_lo]
            )
        if grow_hi.any():
            hi[grow_hi] = radius[grow_hi]
            f_hi[grow_hi] = _cdf_excess(
                hi[grow_hi], zlo[grow_hi], zhi[grow_hi], target[grow_hi]
            )

    status = np.zeros(n, dtype=np.int8)
    status[f_lo < 0] = -1
    status[f_hi > 0] = 1

    # Chandrupatla: x1 is the newest point, x2 the other end of the bracket
    # and x3 the end it replaced; the next point is x1 + t*(x2 - x1).  The
    # arrays hold the unconverged elements ``act`` only.
    u = np.full(n, math.nan)
    act = np.flatnonzero(status == 0)
    zlo, zhi, target = zlo[act], zhi[act], target[act]
    x1, f1, x2, f2 = lo[act], f_lo[act], hi[act], f_hi[act]
    t = np.full(act.size, 0.5)
    for _ in range(max_iter):
        if act.size == 0:
            break
        xt = x1 + t * (x2 - x1)
        ft = _cdf_excess(xt, zlo, zhi, target)
        same = np.sign(ft) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
        # converge both the bracket and the CDF value: where the CDF is very
        # flat in u, the CDF tolerance alone leaves the mean poorly pinned.
        # F is monotone, so once both ends are within cdf_tol so is every
        # point between them; the secant root of the last bracket pins u far
        # closer than u_tol, whichever bracket the iteration ended on
        dx = np.abs(x2 - x1)
        done = (dx <= u_tol) & (np.maximum(np.abs(f1), np.abs(f2)) <= cdf_tol)
        if done.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                w = f1[done] / (f1[done] - f2[done])
            w = np.where(np.isfinite(w), w, 0.5)
            u[act[done]] = x1[done] + w * (x2[done] - x1[done])
            left = ~done
            act, zlo, zhi, target, x1, f1, x2, f2, x3, f3, dx = (
                a[left] for a in (act, zlo, zhi, target, x1, f1, x2, f2, x3, f3, dx)
            )
        # inverse quadratic interpolation where it stays monotone on the
        # bracket, bisection elsewhere; the step keeps u_tol/2 clear of both
        # ends, so the bracket shrinks by at least that much
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = np.where(
                iqi,
                f1 / (f2 - f1) * f3 / (f2 - f3)
                + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2),
                0.5,
            )
            tl = np.minimum(0.5 * u_tol / dx, 0.5)
        t = np.clip(t, tl, 1.0 - tl)
    status[act] = 2

    mu = observed + u * sd
    mu[status == -1] = -math.inf
    mu[status == 1] = math.inf
    return mu.reshape(shape), status.reshape(shape)


def solve_tn_quantiles(observed, sd, lower, upper, targets) -> np.ndarray:
    """Means placing ``observed`` at each quantile in ``targets``, for a stack
    of truncated normals.

    ``observed``, ``sd``, ``lower`` and ``upper`` share one shape ``S``; the
    result has shape ``S + (len(targets),)``.  Every (element, target) pair
    goes through :func:`solve_tn_mean_bulk`, at most :data:`BULK_BLOCK` pairs
    per call; the solve is elementwise, so blocking does not change a bit.  A
    root beyond ``observed -/+ 40 sd`` is returned as ``-inf``/``+inf``.

    Raises
    ------
    NoConvergenceError
        Some solve used up its iteration budget; no NaN is ever returned.
    """
    targets = np.asarray(targets, dtype=float)
    shape = np.shape(observed) + targets.shape
    columns = [np.asarray(a, dtype=float).ravel() for a in (observed, sd, lower, upper)]
    mu = np.empty(shape).ravel()
    # gather each block's inputs on its own, so memory stays at one block's:
    # pair p is element p // n_targets at target p % n_targets
    for start in range(0, mu.size, BULK_BLOCK):
        pairs = np.arange(start, min(start + BULK_BLOCK, mu.size))
        element, target = np.divmod(pairs, targets.size)
        mu[pairs], status = solve_tn_mean_bulk(*(c[element] for c in columns), targets[target])
        unconverged = np.count_nonzero(status == 2)
        if unconverged:
            raise NoConvergenceError(
                f"{unconverged} truncated-normal mean solve(s) did not converge"
            )
    return mu.reshape(shape)
