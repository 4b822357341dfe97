"""Gaussian numerics: small dense covariance objects, a tail-stable
truncated-normal CDF, and the monotone mean solve that underlies
quantile-unbiased estimation.

The mean solve works on the offset of the mean from the observed value in
units of sd, where the CDF no longer depends on the location or scale of the
data.  It starts at the untruncated root -ndtri(target) and takes Halley
steps on the CDF's closed-form slope and curvature, each kept strictly
inside the bracket that the evaluated points span; a step that would leave
it falls back to a doubling step towards a search edge at +/-40, or to
bisection once both ends are known.  That takes about 3.4 CDF evaluations
per element on the simulator's windows, each three ``log_ndtr`` and three
``exp`` calls.  :func:`solve_tn_quantiles` is the one entry into the solve
for every estimate and interval: it returns unbounded roots as infinities
and raises :class:`~condid.errors.NoConvergenceError` for a solve that did
not converge.

All truncated-normal computations run in log space, on the side of zero
where the window's bulk lies, so windows many standard deviations out in a
tail keep their relative accuracy (:func:`tn_cdf` states the bound).
Truncation bounds are IEEE infinities used as explicit sentinels: an
infinite bound standardizes to the infinite z-value, which the CDF kernel
clamps to +/-1e150, where ``log_ndtr`` gives the same CDF as at infinity and
the normal density is exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri

from .errors import CholeskyError, InvalidArgumentError, NoConvergenceError

__all__ = [
    "CovarianceMatrix",
    "TruncatedNormalSpec",
    "tn_cdf",
    "solve_tn_mean_bulk",
    "solve_tn_quantiles",
]

_SYM_RTOL = 1e-12

# standardized truncation bounds beyond this are clamped to it in the CDF
# kernel: phi is exactly 0 there, and so is p*phi(p), with no inf*0
_Z_CAP = 1e150
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# the mean solve converges only where |F - target| is at most this
_CDF_TOL = 1e-8

# Most (element, target) pairs per solve_tn_mean_bulk call in
# solve_tn_quantiles: the bulk solve's temporaries grow with its batch, while
# its cost per pair stops falling at about this size.
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
        When True, positive definiteness is not checked.  Estimated
        covariances from degenerate samples (zero within-cell variance) need
        this escape hatch.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, *, allow_singular: bool = False):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidArgumentError(f"covariance must be a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("covariance entries must be finite")
        scale = max(1.0, float(np.abs(arr).max()))
        if np.abs(arr - arr.T).max() > _SYM_RTOL * scale:
            raise InvalidArgumentError("covariance is not symmetric within 1e-12 relative tolerance")
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        self.entries = arr
        if not allow_singular:
            try:
                np.linalg.cholesky(arr)
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
            raise InvalidArgumentError("mu must be finite")
        if not (self.var > 0) or not math.isfinite(self.var):
            raise InvalidArgumentError("var must be positive and finite")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise InvalidArgumentError("truncation bounds must not be NaN")
        if not (self.lower < self.upper):
            raise InvalidArgumentError(
                f"lower bound {self.lower} must be strictly below upper {self.upper}"
            )

    @property
    def sd(self) -> float:
        return math.sqrt(self.var)


def _cdf_excess(u, zlo, zhi, target):
    """CDF at 0 of TN(u, 1, [zlo, zhi]) minus ``target``, with its first and
    second derivatives in ``u``; the CDF decreases in ``u``.

    With ``a, x, b = zlo - u, -u, zhi - u`` the CDF is
    F = (Phi(x) - Phi(a)) / (Phi(b) - Phi(a)).  Where ``a + b > 0`` the
    window's bulk lies right of zero, where Phi is close to 1 and loses
    digits, so the points are reflected to ``a', x', b' = -b, -x, -a`` and
    F = (Phi(b') - Phi(x')) / (Phi(b') - Phi(a')).  Three ``log_ndtr`` calls
    give either form; both are exactly 0 (1) at the lower (upper) edge and
    keep full relative accuracy for small CDF values.

    With Z = Phi(b) - Phi(a), ``g_p = phi(p) / Z``, G = g_b - g_a and
    H = g_x - g_a, the derivatives are

        F'  = -H + F*G
        F'' = -(x*g_x - a*g_a) - H*G + F'*G + F*(b*g_b - a*g_a + G**2),

    three ``exp`` calls more.  Bounds are clamped at +/-1e150, where phi is
    exactly 0 and so is ``p*g_p``, as it is at an infinite bound.  Requires
    ``zlo <= 0 <= zhi``.
    """
    a = np.maximum(zlo, -_Z_CAP) - u
    b = np.minimum(zhi, _Z_CAP) - u
    x = -u
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flip = a + b > 0
        la = log_ndtr(np.where(flip, -b, a))
        lx = log_ndtr(np.where(flip, u, x))
        lb = log_ndtr(np.where(flip, -a, b))
        q = lx - lb
        mass = -np.expm1(la - lb)  # Z / Phi(b'), with b' = b or -a
        cdf = np.where(flip, -np.expm1(q), np.exp(q) * -np.expm1(la - lx)) / mass
        scale = _INV_SQRT_2PI / mass
        ga = np.exp(-0.5 * a * a - lb) * scale
        gx = np.exp(-0.5 * x * x - lb) * scale
        gb = np.exp(-0.5 * b * b - lb) * scale
        G, H, aga = gb - ga, gx - ga, a * ga
        slope = cdf * G - H
        curvature = cdf * (b * gb - aga + G * G) - (x * gx - aga) + (slope - H) * G
    return cdf - target, slope, curvature


def tn_cdf(spec: TruncatedNormalSpec, x: float) -> float:
    """CDF of the truncated normal law at ``x``: 0 and 1 outside ``[lower,
    upper]``, and for every other valid input a value in [0, 1] that does
    not decrease in ``x``.

    With ``d`` the window's distance from the mean (at least 1), ``w`` its
    width and ``s`` the distance of ``x`` from its nearer edge, all in sd:
    the mean solve's kernel, standardized about ``x`` with the mean's offset
    clamped at +/-1e150 like the bounds, has a relative error below
    ``eps * (d**2 + 100 * d * (1/s + 1/w))`` against an 80-digit mpmath CDF
    (``eps = 2**-52``).  Where the law's spread ``min(w, 1/d)`` is below
    1e-4 sd, its exponential limit about the edge nearer the mean is more
    accurate, with a relative error below ``min(w, 1/d)**2 + 1e3 * eps``, and
    is used instead.  On windows 1e-3 to 10 sd wide with ``x`` uniform
    inside, the worst relative error measured was 2e-9 at 38 sd out, 3e-7 at
    200 sd, 2e-8 at 1e3 sd, 6e-8 at 1e4 sd and 1e-10 at 1e5 sd.
    """
    mu, sd, lower, upper, x = map(float, (spec.mu, spec.sd, spec.lower, spec.upper, x))
    if x <= lower or x >= upper:
        return float(x >= upper)
    near = max(lower - mu, mu - upper, 0.0) / sd  # the window's distance from mu
    width = (upper - lower) / sd
    if width >= 1e-4 and near <= 1e4:
        u = min(max((mu - x) / sd, -_Z_CAP), _Z_CAP)
        return float(_cdf_excess(u, (lower - x) / sd, (upper - x) / sd, 0.0)[0])
    if near * width < 1e-16:  # flat across the window
        return (x - lower) / (upper - lower)
    # the density at t sd inside the near edge is exp(-near * t) up to the
    # dropped factor exp(-t**2 / 2); with the upper edge near, the mass below
    # x is the tail beyond t = h, taken as its own exponential law of rate
    # near + h (the ratio (near + h) / near is formed unscaled: no inf / inf)
    h = (upper - x) / sd if mu > upper else 0.0
    rates = 1.0 + (upper - x) / (mu - upper) if mu > upper else 1.0
    tail = math.exp(-h * (near + 0.5 * h)) / rates if h else 1.0
    return tail * math.expm1(-(near + h) * ((x - lower) / sd)) / math.expm1(-near * width)


def solve_tn_mean_bulk(
    observed,
    sd,
    lower,
    upper,
    target,
    *,
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

    The iteration starts at ``c = -ndtri(target)``, the root when nothing is
    truncated, clipped to ``-/+max_radius``.  Each CDF evaluation also
    gives the CDF's first two derivatives in ``u``, and every evaluated
    point becomes one end of the bracket on its side of the root.  The next
    point is the Halley step ``delta = -f / (F' - f*F''/(2F'))``, with
    ``f = F - target``, when it lands strictly inside the bracket (the
    ``rtsafe`` safeguard of *Numerical Recipes* section 9.4).  Otherwise,
    while the bracket's far end is still unevaluated, the point steps
    towards the root by a step that doubles each time (0.5, 1, 2, ...),
    clamped at ``-/+max_radius``; once both ends are evaluated, it bisects.
    That takes about 3.4 CDF evaluations per element on the simulator's
    windows, against 8.2 for Chandrupatla's (1997) method from a bracket
    about ``c``.  An element converges where ``F' < 0``, ``|f| <= 1e-8``
    and the Halley step is at most 1e-8 long and lands in the closed bracket
    (it returns the point plus the step, the point itself where ``f`` is
    exactly 0), or where the bracket is at most 1e-8 wide (it returns the
    next point).  Every step is elementwise, so an element's result does
    not depend on the batch it is solved in.

    Returns
    -------
    (mu, status) : tuple of ndarray
        ``status`` is 0 where the solve converged; -1 where the root lies
        below ``observed - max_radius*sd`` and +1 where it lies above
        ``observed + max_radius*sd`` (``mu`` is -inf / +inf there), i.e.
        where the CDF at that edge is still below / above the target; 2
        where the element was unfinished after ``max_iter`` loop passes, the
        CDF is NaN or an outward step cannot move (``mu`` is NaN).  Every
        pass counts: one CDF evaluation and one step of any kind.
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

    # the arrays hold the unfinished elements ``act`` only; lo and hi are
    # the bracket ends, -inf / +inf until a point on that side is evaluated
    root = np.full(n, math.nan)
    status = np.zeros(n, dtype=np.int8)
    act = np.arange(n)
    u = np.clip(-ndtri(target), -max_radius, max_radius)
    lo, hi = np.full(n, -math.inf), np.full(n, math.inf)
    step = np.full(n, 0.5)
    for _ in range(max_iter):
        if not act.size:
            break
        f, slope, curvature = _cdf_excess(u, zlo, zhi, target)
        up = f > 0  # F decreases in u: the root lies above u
        lo, hi = np.where(up, u, lo), np.where(up, hi, u)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            delta = -f / (slope - f * curvature / (2.0 * slope))
        halley = u + delta
        floor, ceiling = np.maximum(lo, -max_radius), np.minimum(hi, max_radius)
        inside = (floor < halley) & (halley < ceiling)
        outward = ~inside & np.isinf(np.where(up, hi, lo))
        nxt = np.where(
            inside,
            halley,
            np.where(outward, np.clip(u + np.where(up, step, -step), -max_radius, max_radius),
                     0.5 * (lo + hi)),
        )
        # a converging step may round to u itself, an end of the bracket, so
        # it need only land in the closed bracket (at an exact root it is 0);
        # where the CDF is flat in floating point (slope 0), the step is no
        # estimate at all
        settled = (
            (np.abs(delta) <= u_tol) & (np.abs(f) <= _CDF_TOL) & (slope < 0)
            & (floor <= halley) & (halley <= ceiling)
        )
        done = settled | (hi - lo <= u_tol)
        # status -1 (+1): the CDF at the lower (upper) search edge is still
        # below (above) the target, so the root lies beyond it
        below = (u == -max_radius) & (f < 0)
        above = (u == max_radius) & (f > 0)
        finished = done | below | above
        # these never finish: a NaN CDF (a window of zero width), and a point
        # whose outward step is clipped back onto it, as every later pass repeats it
        exhausted = np.isnan(f) | (outward & (nxt == u) & ~finished)
        root[act[done]] = np.where(settled, halley, nxt)[done]
        status[act[below]] = -1
        status[act[above]] = 1
        status[act[exhausted]] = 2
        step = np.where(outward, 2.0 * step, step)
        u = nxt
        left = ~(finished | exhausted)
        if not left.all():
            act, zlo, zhi, target, u, lo, hi, step = (
                a[left] for a in (act, zlo, zhi, target, u, lo, hi, step)
            )
    status[act] = 2  # still unfinished after the last pass

    mu = observed + root * sd
    mu[status == -1] = -math.inf
    mu[status == 1] = math.inf
    return mu.reshape(shape), status.reshape(shape)


def solve_tn_quantiles(observed, sd, lower, upper, targets) -> np.ndarray:
    """Means placing ``observed`` at each quantile in ``targets``, for a stack
    of truncated normals.

    ``observed``, ``sd``, ``lower`` and ``upper`` share one shape ``S``; the
    result has shape ``S + (len(targets),)``.  Every (element, target) pair
    goes through :func:`solve_tn_mean_bulk`; each call takes whole elements
    against every target, ``BULK_BLOCK // len(targets)`` of them (at least
    one).  The solve is elementwise, so blocking does not change a bit.  A
    root beyond ``observed -/+ 40 sd`` is returned as ``-inf``/``+inf``.

    Raises
    ------
    InvalidArgumentError
        ``observed``, ``sd``, ``lower`` and ``upper`` differ in shape, or a
        target lies outside (0, 1).
    NoConvergenceError
        Some solve used up its iteration budget; no NaN is ever returned.
    """
    targets = np.asarray(targets, dtype=float)
    if not np.all((targets > 0.0) & (targets < 1.0)):
        raise InvalidArgumentError(f"targets must lie strictly inside (0, 1), got {targets.tolist()}")
    columns = [np.asarray(a, dtype=float) for a in (observed, sd, lower, upper)]
    shapes = [c.shape for c in columns]
    if len(set(shapes)) > 1:
        raise InvalidArgumentError(f"observed, sd, lower and upper differ in shape: {shapes}")
    shape = shapes[0] + targets.shape
    # row i holds element i against every target: a call takes whole rows
    columns = np.broadcast_arrays(*(c.reshape(-1, 1) for c in columns), targets.ravel())
    mu = np.empty(columns[0].shape)
    step = max(1, BULK_BLOCK // max(targets.size, 1))
    for start in range(0, len(mu), step):
        rows = slice(start, start + step)
        mu[rows], status = solve_tn_mean_bulk(*(c[rows] for c in columns))
        unconverged = np.count_nonzero(status == 2)
        if unconverged:
            raise NoConvergenceError(
                f"{unconverged} truncated-normal mean solve(s) did not converge"
            )
    return mu.reshape(shape)
