"""Gaussian numerics: small dense covariance objects, a tail-stable
truncated-normal CDF, and the monotone mean solve that underlies
quantile-unbiased estimation.

The mean solve works on the offset of the mean from the observed value in
units of sd, where the CDF no longer depends on the location or scale of the
data.  It starts at the untruncated root -ndtri(target) and takes Halley
steps on the CDF's closed-form slope and curvature, each kept strictly
inside the bracket that the evaluated points span; a step that would leave
it falls back to a doubling step towards a search edge at +/-40, or to
bisection once both ends are known.  A solve stops at a Halley step at most
1e-8 long, or one evaluation sooner at a Halley point whose predicted error
after an earlier Halley step is at most 1e-10, on windows at least 0.05 sd
wide; below that width the first test alone applies.  That takes 2.7 CDF
evaluations per element on average and at most 10 on the 1.4 million solves
of ``simulate --table 3 --reps 25000``, each three ``log_ndtr`` and three
``exp`` values.  :func:`solve_tn_quantiles` is the one entry into the solve
for every estimate and interval, in one bulk call with no batch size of its
own: it returns unbounded roots as infinities and raises
:class:`~condid.errors.NoConvergenceError` for a solve that did not converge.

All truncated-normal computations run in log space, on the side of zero
where the window's bulk lies, so windows many standard deviations out in a
tail keep their relative accuracy (:func:`_cdf_excess` states the bound).
Truncation bounds are IEEE infinities used as explicit sentinels: an
infinite bound standardizes to the infinite z-value, which the CDF kernel
clamps to +/-1e150, where ``log_ndtr`` gives the same CDF as at infinity and
the normal density is exactly 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtri

from .errors import CholeskyError, InvalidArgumentError, NoConvergenceError

__all__ = [
    "CovarianceMatrix",
    "solve_tn_mean_bulk",
    "solve_tn_quantiles",
]

_SYM_RTOL = 1e-12

# standardized truncation bounds beyond this are clamped to it in the CDF
# kernel: phi is exactly 0 there, and so is p*phi(p), with no inf*0
_Z_CAP = 1e150
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# the mean solve's tolerance on a step or a bracket in sd, search radius in
# sd and pass budget
_STEP_TOL = 1e-8
_MAX_RADIUS = 40.0
_MAX_ITER = 200
# early acceptance of a Halley point: its largest predicted error, and the
# narrowest window in sd it applies to
_EARLY_ERROR = 1e-10
_EARLY_WIDTH = 0.05


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
        entries = np.asarray(entries)
        if entries.dtype.kind == "c":
            value = entries.flat[np.argmax(entries.imag != 0)]
            raise InvalidArgumentError(f"covariance entries must be real numbers, got {value}")
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


def _cdf_excess(u, zlo, zhi, target):
    """CDF at 0 of TN(u, 1, [zlo, zhi]) minus ``target``, with its first and
    second derivatives in ``u``; the CDF decreases in ``u``.

    With ``a, x, b = zlo - u, -u, zhi - u`` the CDF is
    F = (Phi(x) - Phi(a)) / (Phi(b) - Phi(a)).  Where ``a + b > 0`` the
    window's bulk lies right of zero, where Phi is close to 1 and loses
    digits, so the points are reflected to ``a', x', b' = -b, -x, -a`` and
    F = (Phi(b') - Phi(x')) / (Phi(b') - Phi(a')).  Three ``log_ndtr``
    values, from one call on the stacked points, give either form; both are
    exactly 0 (1) at the lower (upper) edge and keep full relative accuracy
    for small CDF values.

    With Z = Phi(b) - Phi(a), ``g_p = phi(p) / Z``, G = g_b - g_a and
    H = g_x - g_a, the derivatives are

        F'  = -H + F*G
        F'' = -(x*g_x - a*g_a) - H*G + F'*G + F*(b*g_b - a*g_a + G**2),

    three ``exp`` values more.  Bounds are clamped at +/-1e150, where phi is
    exactly 0 and so is ``p*g_p``, as it is at an infinite bound.  Requires
    ``zlo <= 0 <= zhi``; floating-point warnings are the caller's to set.

    With ``d`` the larger of 1 and the window's distance from the mean ``u``,
    ``w`` its width and ``s`` the distance of 0 from its nearer edge: on
    windows at least 1e-4 wide and at most 1e4 from the mean, F has a
    relative error below ``eps * (d**2 + 100 * d * (1/s + 1/w))`` against an
    80-digit mpmath CDF (``eps = 2**-52``).  On windows 1e-3 to 10 wide with
    0 uniform inside, the worst relative error measured was 2e-9 at 38 out,
    3e-7 at 200, 2e-8 at 1e3 and 6e-8 at 1e4.
    """
    # a, x and b as the rows of one array (views, also where u is 0-d)
    p = np.empty((3,) + u.shape)
    a, x, b = p[0, ...], p[1, ...], p[2, ...]
    np.maximum(zlo, -_Z_CAP, out=a)
    a -= u
    np.negative(u, out=x)
    np.minimum(zhi, _Z_CAP, out=b)
    b -= u
    flip = a + b > 0
    # log Phi at a, x and b, or at the reflected -b, -x and -a where flip holds
    la, lx, lb = logs = log_ndtr(np.where(flip, -p[::-1], p))
    q = lx - lb
    # -Z / Phi(b'), with b' = b or -a; the signs cancel in each quotient
    t, neg_mass = np.expm1(la - logs[1:])
    t *= np.exp(q)
    cdf = np.where(flip, np.expm1(q), t)
    cdf /= neg_mass
    # g_a, g_x and g_b as exp(-p*p/2 - lb) * scale
    g = -0.5 * p
    g *= p
    g -= lb
    np.exp(g, out=g)
    g *= -_INV_SQRT_2PI / neg_mass
    H, G = g[1:] - g[0]
    # x*g_x - a*g_a and b*g_b - a*g_a
    pg = p * g
    xga, bga = pg[1:] - pg[0]
    # the docstring's F' and F'', in the same order of operations
    slope = cdf * G
    slope -= H
    curvature = bga + G * G
    curvature *= cdf
    curvature -= xga
    H -= slope
    H *= G
    curvature -= H
    cdf -= target
    return cdf, slope, curvature


def solve_tn_mean_bulk(observed, sd, lower, upper, target):
    """Vectorized monotone solve for the truncated-normal mean.

    For each element, finds ``mu`` such that the CDF of TN(mu, sd^2, [lower,
    upper]) evaluated at ``observed`` equals ``target``.  The solve runs on
    the standardized offset ``u = (mu - observed) / sd``: the CDF at
    ``observed`` under mean ``observed + u*sd`` is the CDF at 0 of
    TN(u, 1, [(lower - observed)/sd, (upper - observed)/sd]), which is
    strictly decreasing in ``u`` and does not depend on the location or the
    scale of the data.

    The iteration starts at ``c = -ndtri(target)``, the root when nothing is
    truncated, clipped to the search edges ``-/+40`` (``_MAX_RADIUS``).  Each
    CDF evaluation also gives the CDF's first two derivatives in ``u``, and
    every evaluated point becomes one end of the bracket on its side of the
    root.  The next point is the Halley step
    ``delta = -f / (F' - f*F''/(2F'))``, with
    ``f = F - target``, when it lands strictly inside the bracket (the
    ``rtsafe`` safeguard of *Numerical Recipes* section 9.4).  Otherwise,
    while the bracket's far end is still unevaluated, the point steps
    towards the root by a step that doubles each time (0.5, 1, 2, ...),
    clamped at ``-/+40``; once both ends are evaluated, it bisects.
    An element stops on the first of two tests.

    * The step test: ``F' < 0`` and the Halley step is at most 1e-8
      (``_STEP_TOL``) long and lands in the closed bracket (it returns the
      point plus the step, the point itself where ``f`` is exactly 0), or
      the bracket is at most 1e-8 wide (it returns the next point).  Near a
      root, where the Halley step is close to the Newton step ``-f/F'``, it
      also bounds ``|f|`` by 0.5e-8, as ``|F'| <= 1/2`` (the slope is minus
      the covariance of an indicator with a variable of variance at most 1).
    * The early test, one CDF evaluation sooner, on windows at least 0.05 sd
      (``_EARLY_WIDTH``) wide: the Halley point ``u + delta`` lands strictly
      inside the bracket, the pass before also took a Halley step, of length
      ``d_prev``, cubic convergence predicts an error ``|delta|**4 /
      d_prev**3`` of at most 1e-10 (``_EARLY_ERROR``) at the point, and
      ``|f|`` fell in step with the step, ``|f|*d_prev <= 2*|f_prev|*|delta|``.
      It returns ``u + delta``.  On narrower windows the CDF is noisy in
      floating point, so neither guard is evidence, and the step test alone
      decides, as before 0.11.0.

    On the 1 435 134 solves of ``simulate --table 3 --reps 25000 --seed 1``
    that takes 2.69 CDF evaluations per element, and at most 10, against
    3.43 with the step test alone and 8.2 for Chandrupatla's (1997) method
    from a bracket about ``c``; the early test changed no status there and
    moved no mean by more than 3.7e-10 sd.  Every step is elementwise, so an
    element's result does not depend on the batch it is solved in.

    Returns
    -------
    (mu, status) : tuple of ndarray
        ``status`` is 0 where the solve converged; -1 where the root lies
        below ``observed - 40*sd`` and +1 where it lies above
        ``observed + 40*sd`` (``mu`` is -inf / +inf there), i.e. where the
        CDF at that edge is still below / above the target; 2 where the
        element was unfinished after 200 (``_MAX_ITER``) loop passes, the
        CDF is NaN or an outward step cannot move (``mu`` is NaN).  Every
        pass counts: one CDF evaluation and one step of any kind.
    """
    shape = np.broadcast(observed, sd, lower, upper, target).shape
    columns = np.empty((5,) + shape)
    for i, a in enumerate((observed, sd, lower, upper, target)):
        columns[i] = a
    observed, sd, lower, upper, target = columns.reshape(5, -1)
    n = observed.size

    # absorb float dust: the observed value is inside its window by
    # construction whenever the conditioning event held
    observed = np.minimum(np.maximum(observed, lower), upper)

    # one column per unfinished element ``act``: the rows of ``state`` are
    # its window, target, point, bracket ends (-inf / +inf until a point on
    # that side is evaluated), outward step, the |f| and Halley step of its
    # last pass (the step is 0 where that pass took no Halley step), and the
    # early test's error bound, -inf on windows where that test does not apply
    root = np.full(n, math.nan)
    status = np.zeros(n, dtype=np.int8)
    act = np.arange(n)
    state = np.empty((10, n))
    state[0] = (lower - observed) / sd
    state[1] = (upper - observed) / sd
    state[2] = target
    state[3] = np.minimum(np.maximum(-ndtri(target), -_MAX_RADIUS), _MAX_RADIUS)
    state[4], state[5], state[6], state[7], state[8] = -math.inf, math.inf, 0.5, 0.0, 0.0
    state[9] = np.where(state[1] - state[0] >= _EARLY_WIDTH, _EARLY_ERROR, -math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_ITER):
            if not act.size:
                break
            zlo, zhi, target, u, lo, hi, step, f_prev, d_prev, bound = state
            f, slope, curvature = _cdf_excess(u, zlo, zhi, target)
            up = f > 0  # F decreases in u: the root lies above u
            np.copyto(lo, u, where=up)
            np.copyto(hi, u, where=~up)
            delta = -f / (slope - f * curvature / (2.0 * slope))
            halley = u + delta
            floor, ceiling = np.maximum(lo, -_MAX_RADIUS), np.minimum(hi, _MAX_RADIUS)
            inside = (floor < halley) & (halley < ceiling)
            # a converging step may round to u itself, an end of the bracket, so
            # it need only land in the closed bracket (at an exact root it is 0);
            # where the CDF is flat in floating point (slope 0), the step is no
            # estimate at all
            abs_f, abs_delta = np.abs(f), np.abs(delta)
            settled = (abs_delta <= _STEP_TOL) & (slope < 0) & (floor <= halley) & (halley <= ceiling)
            # the early test; d_prev is 0 after a step of another kind,
            # which fails its error test
            early = (
                inside
                & (np.square(abs_delta * abs_delta) <= bound * d_prev * d_prev * d_prev)
                & (abs_f * d_prev <= 2.0 * f_prev * abs_delta)
            )
            done = settled | early | (hi - lo <= _STEP_TOL)
            # status -1 (+1): the CDF at the lower (upper) search edge is still
            # below (above) the target, so the root lies beyond it
            below = (u == -_MAX_RADIUS) & (f < 0)
            above = (u == _MAX_RADIUS) & up
            finished = done | below | above
            # a NaN CDF (a window of zero width) never finishes
            exhausted = np.isnan(f)
            nxt = halley
            off = (~inside).nonzero()[0]
            if off.size:
                # the other steps, for the few points whose Halley step lands
                # outside the bracket: a doubling step towards the root while the
                # bracket's far end is unevaluated, where the midpoint is
                # infinite on the root's side, and bisection once it is closed
                u_off, lo_off, hi_off, step_off = state[3:7].take(off, axis=1)
                mid = 0.5 * (lo_off + hi_off)
                outward = np.isinf(mid)
                toward = np.minimum(np.maximum(u_off + np.copysign(step_off, mid), -_MAX_RADIUS),
                                    _MAX_RADIUS)
                nxt = halley.copy()
                nxt[off] = np.where(outward, toward, mid)
                np.multiply(step_off, 2.0, out=step_off, where=outward)
                step[off] = step_off
                # nor does a point whose outward step is clipped back onto it,
                # as every later pass repeats it
                exhausted[off] |= outward & (toward == u_off) & ~finished[off]
            ended = finished | exhausted
            u[...] = nxt
            f_prev[...] = abs_f
            np.multiply(abs_delta, inside, out=d_prev)
            end = ended.nonzero()[0]
            if end.size:
                # status 2, +1 or -1 where exhausted, above or below (disjoint), else 0
                ended_at = act[end]
                root[ended_at] = np.where(settled[end], halley[end], nxt[end])
                status[ended_at] = 2 * exhausted[end] + above[end] - below[end]
                keep = (~ended).nonzero()[0]
                state, act = state.take(keep, axis=1), act[keep]
    status[act] = 2  # still unfinished after the last pass

    mu = observed + root * sd
    mu[status == -1] = -math.inf
    mu[status == 1] = math.inf
    mu[status == 2] = math.nan  # root holds the last point of every ended element
    return mu.reshape(shape), status.reshape(shape)


def solve_tn_quantiles(observed, sd, lower, upper, targets) -> np.ndarray:
    """Means placing ``observed`` at each quantile in ``targets``, for a stack
    of truncated normals.

    ``observed``, ``sd``, ``lower`` and ``upper`` share one shape ``S``; the
    result has shape ``S + (len(targets),)``.  Every (element, target) pair
    goes through one :func:`solve_tn_mean_bulk` call, whose temporaries grow
    with the stack: a caller with a large stack blocks it, as the simulator
    does.  A root beyond ``observed -/+ 40 sd`` is returned as
    ``-inf``/``+inf``.

    Raises
    ------
    InvalidArgumentError
        ``observed``, ``sd``, ``lower`` and ``upper`` differ in shape, or a
        target lies outside (0, 1).
    NoConvergenceError
        Some solve used up its iteration budget; no NaN is ever returned.
    """
    targets = np.asarray(targets, dtype=float)
    if not ((targets > 0.0) & (targets < 1.0)).all():
        raise InvalidArgumentError(f"targets must lie strictly inside (0, 1), got {targets.tolist()}")
    columns = [np.asarray(a, dtype=float) for a in (observed, sd, lower, upper)]
    shapes = [c.shape for c in columns]
    if len(set(shapes)) > 1:
        raise InvalidArgumentError(f"observed, sd, lower and upper differ in shape: {shapes}")
    # each element against every target, as the bulk solve broadcasts
    mu, status = solve_tn_mean_bulk(*(c[..., None] for c in columns), targets)
    unconverged = np.count_nonzero(status == 2)
    if unconverged:
        raise NoConvergenceError(f"{unconverged} truncated-normal mean solve(s) did not converge")
    return mu
