"""Reference implementations that only the tests use.

None of these is part of the ``condid`` package: each one is an independent
way of producing a value the package computes, or of building an input the
package reads.

* :func:`full_panel` simulates a whole long-format panel, which the
  estimator reduces to the sufficient statistics the simulator draws
  directly; :class:`CellDraws` turns one replication of those draws into an
  :class:`~condid.event_study.EstimateBundle`.
* :func:`balanced_panel` builds a panel that follows each unit through every
  period, with an optional effect per unit.
* :func:`efficient_known_sigma` gives the exact table columns of the
  pre-period-adjusted estimator under the simulator's known covariance.
* :class:`EquicorrelatedSpec` and :func:`equicorrelated_matrix` build the
  covariance structure of repeated cross-sections.
* :func:`conditional_moment_oracle` gives rejection-sampled conditional
  moments.
* :func:`contrast_decomposition` splits a coefficient vector into the part a
  contrast moves and the part it leaves fixed.
* :func:`tn_mean_root` solves the truncated-normal mean equation in 50-digit
  arithmetic.
* :func:`write_panel` writes a panel back to CSV.
* :func:`estimate_or_refusal` estimates a panel or gives the message that
  refuses it, so that a property can compare refusals as well.
* :class:`NoMatmul` is an array that fails any matrix product it enters.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import ndtr, ndtri

from condid.errors import NumericalError, PanelValidationError
from condid.event_study import PANEL_HEADER, EstimateBundle, PanelData, estimate_event_study
from condid.gaussian import CovarianceMatrix
from condid.pretest import PolyhedralConstraint
from condid.simulation import SimConfig

# --- simulation ----------------------------------------------------------------


def full_panel(
    config: SimConfig, k: int, slope: float, rng: np.random.Generator
) -> PanelData:
    """One simulated long-format panel (repeated cross-sections)."""
    t = np.arange(-k, 2)
    n_cell = config.n_per_cell
    periods = np.repeat(t, 2 * n_cell)
    treatment = np.tile(np.repeat([False, True], n_cell), k + 2)
    unit = np.array(
        [f"{'T' if d else 'C'}{i % n_cell}" for i, d in enumerate(treatment)],
        dtype=object,
    )
    mean = slope * periods * treatment
    outcome = mean + rng.standard_normal(periods.shape[0])  # unit noise
    return PanelData(unit=unit, period=periods, treatment=treatment, outcome=outcome)


def balanced_panel(k: int, units_per_group: int, seed: int, unit_sd: float = 0.0) -> PanelData:
    """A balanced two-group panel: ``units_per_group`` units in each group,
    each observed once in every period -K..1, with N(0, 1) noise plus, for
    each unit, an effect drawn from N(0, ``unit_sd``**2) and shared by all
    its periods.  The noise is drawn before the effects, so two panels of
    one seed differ by the unit effects alone."""
    rng = np.random.default_rng(seed)
    periods = np.arange(-k, 2)
    n_units = 2 * units_per_group
    noise = rng.standard_normal((periods.size, n_units))
    effects = unit_sd * rng.standard_normal(n_units)
    return PanelData(
        unit=np.tile(np.arange(n_units), periods.size),
        period=np.repeat(periods, n_units),
        treatment=np.tile(np.arange(n_units) >= units_per_group, periods.size),
        outcome=(noise + effects).ravel(),
    )


def efficient_known_sigma(k: int, n_per_cell: int, slope: float, alpha_ci: float) -> dict:
    """The pre-period-adjusted estimator's table columns, exactly, for the
    simulator's draws under its known covariance Sigma = v (11' + I),
    v = 2 / n_per_cell, with E beta_t = slope * t.

    There w = Sigma_22^-1 Sigma_21 = 1 / (K + 1) for every pre coefficient,
    so beta_tilde = beta_post - sum(beta_pre) / (K + 1) is uncorrelated with
    beta_pre and, being jointly normal with it, independent of it.  The
    pretest reads beta_pre only, so beta_tilde given a pass is still
    N(slope (1 + K/2), v (K + 2) / (K + 1)), whatever the pass rate.  The
    rejection rates are those of its Wald test at ``alpha_ci`` against the
    true post coefficient, ``slope``, and against zero.
    """
    sd = math.sqrt(2.0 / n_per_cell * (k + 2) / (k + 1))
    mean = slope * (1.0 + k / 2.0)
    z = -float(ndtri(alpha_ci / 2.0))

    def reject(value):
        d = (mean - value) / sd
        return float(ndtr(d - z) + ndtr(-d - z))

    return {
        "bias_efficient": mean - slope,
        "mean_se_efficient": sd,
        "actual_sd_efficient": sd,
        "size_efficient": reject(slope),
        "reject_zero_efficient": reject(0.0),
    }


@dataclass(frozen=True)
class CellDraws:
    """One replication of the simulator's draws: per-period
    difference-in-means and estimated variances of those differences.

    ``t_values`` orders periods as (1, 0, -1, ..., -K), matching the
    coefficient layout after differencing against the reference column.
    """

    k: int
    n_per_cell: int
    t_values: np.ndarray
    delta_mean: np.ndarray
    delta_var: np.ndarray

    def to_bundle(self) -> EstimateBundle:
        beta = self.delta_mean - self.delta_mean[1]
        v0 = self.delta_var[1]
        v_coef = np.concatenate(([self.delta_var[0]], self.delta_var[2:]))
        sigma = np.full((self.k + 1, self.k + 1), v0)
        sigma[np.diag_indices(self.k + 1)] += v_coef
        return EstimateBundle(
            beta_post=float(beta[0]),
            beta_pre=beta[2:],
            sigma=CovarianceMatrix(sigma, allow_singular=True),
        )


# --- covariance structure and sampling ----------------------------------------


@dataclass(frozen=True)
class EquicorrelatedSpec:
    """A dim x dim matrix with ``diag`` on the diagonal and ``offdiag`` off it."""

    dim: int
    diag: float
    offdiag: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (self.diag > 0):
            raise ValueError("diagonal (variance) must be positive")


def equicorrelated_matrix(spec: EquicorrelatedSpec) -> CovarianceMatrix:
    """Materialize the spec as a dense :class:`CovarianceMatrix`."""
    n = spec.dim
    m = np.full((n, n), spec.offdiag)
    np.fill_diagonal(m, spec.diag)
    return CovarianceMatrix(m)


class DegenerateAcceptanceError(NumericalError):
    """Too few Monte Carlo draws satisfied the conditioning event."""


def conditional_moment_oracle(
    true_beta,
    sigma: CovarianceMatrix,
    constraint: PolyhedralConstraint,
    reps: int,
    rng: np.random.Generator,
    *,
    batch_size: int = 65536,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Rejection-sampled conditional moments of beta_hat given the event.

    Draws ``reps`` proposals from N(true_beta, sigma), keeps those inside
    the polyhedron and returns their sample mean, sample covariance (ddof=1)
    and the acceptance fraction.  This is a test oracle: the multivariate
    truncated-normal mean has no closed form.

    Raises
    ------
    DegenerateAcceptanceError
        Fewer than 100 draws landed inside the event.
    """
    if reps < 10_000:
        raise ValueError("the oracle needs reps >= 10_000 to be meaningful")
    true_beta = np.asarray(true_beta, dtype=float)
    chol = np.linalg.cholesky(sigma.entries)
    a = constraint.a_matrix
    b = constraint.b_vector
    kept = []
    n_drawn = 0
    while n_drawn < reps:
        n = min(batch_size, reps - n_drawn)
        draws = true_beta + rng.standard_normal((n, sigma.dim)) @ chol.T
        inside = np.all(draws @ a.T <= b, axis=1)
        if inside.any():
            kept.append(draws[inside])
        n_drawn += n
    accepted = np.concatenate(kept) if kept else np.empty((0, sigma.dim))
    if accepted.shape[0] < 100:
        raise DegenerateAcceptanceError(
            f"only {accepted.shape[0]} of {reps} draws satisfied the event"
        )
    mean = accepted.mean(axis=0)
    cov = np.cov(accepted, rowvar=False, ddof=1)
    return mean, np.atleast_2d(cov), accepted.shape[0] / reps


def contrast_decomposition(bundle: EstimateBundle, eta) -> tuple[np.ndarray, np.ndarray]:
    """``(c, z)`` with ``c = Sigma eta / (eta' Sigma eta)`` and
    ``z = beta - c eta' beta``, so ``beta = z + c x`` at ``x = eta' beta``.

    Moving ``x`` along ``z + c x`` traces the line on which the conditional
    law of ``eta' beta_hat`` lives; the window is where that line meets the
    polyhedron.
    """
    eta = np.asarray(eta, dtype=float)
    sigma_eta = bundle.sigma.entries @ eta
    c = sigma_eta / (eta @ sigma_eta)
    return c, bundle.beta - c * (eta @ bundle.beta)


# --- truncated-normal mean ------------------------------------------------------


def tn_mean_root(observed, sd, lower, upper, target, radius=40):
    """The mean ``mu`` at which the CDF of TN(mu, sd^2, [lower, upper]) at
    ``observed`` equals ``target``, by bisection in 50-digit arithmetic on
    the offset ``u = (mu - observed) / sd``; ``-inf`` (``+inf``) where the root
    lies below ``observed - radius * sd`` (above ``observed + radius * sd``),
    as :func:`~condid.gaussian.solve_tn_mean_bulk` reports it.  The window is
    standardized from the floats exactly, and its CDF is formed on the side
    of zero where its bulk lies, so a window far out in a tail keeps its
    digits."""
    with mp.workdps(50):
        zlo, zhi = ((mp.mpf(edge) - mp.mpf(observed)) / mp.mpf(sd) for edge in (lower, upper))

        def cdf(u):
            a, x, b = zlo - u, -u, zhi - u
            if a + b > 0:
                return (mp.ncdf(-a) - mp.ncdf(-x)) / (mp.ncdf(-a) - mp.ncdf(-b))
            return (mp.ncdf(x) - mp.ncdf(a)) / (mp.ncdf(b) - mp.ncdf(a))

        # the CDF decreases in u
        lo, hi = mp.mpf(-radius), mp.mpf(radius)
        if cdf(lo) < target:
            return -math.inf
        if cdf(hi) > target:
            return math.inf
        for _ in range(mp.mp.prec):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if cdf(mid) > target else (lo, mid)
        return float(mp.mpf(observed) + (lo + hi) / 2 * mp.mpf(sd))


# --- panel files ----------------------------------------------------------------


def write_panel(path, data: PanelData) -> None:
    """Write a panel back to CSV in the canonical column order.

    :func:`~condid.event_study.load_panel` reads unit labels back as stripped
    ``str``; a label whose text has leading or trailing whitespace would come
    back changed, so it raises ``ValueError`` before anything is written.
    """
    for u in data.unit:
        if str(u) != str(u).strip():
            raise ValueError(f"unit label {str(u)!r} has leading or trailing whitespace")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PANEL_HEADER)
        for u, t, d, y in zip(data.unit, data.period, data.treatment, data.outcome):
            writer.writerow([u, int(t), int(d), repr(float(y))])


def estimate_or_refusal(data: PanelData) -> EstimateBundle | str:
    """``estimate_event_study(data)``, or the message of the
    :class:`PanelValidationError` that refuses it."""
    try:
        return estimate_event_study(data)
    except PanelValidationError as exc:
        return str(exc)


# --- call guards -----------------------------------------------------------------


class NoMatmul(np.ndarray):
    """An array that raises ``AssertionError`` when it enters ``np.matmul``
    (the ``@`` operator); every other ufunc sees a plain array."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("np.matmul reached")
        inputs = [x.view(np.ndarray) if isinstance(x, NoMatmul) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)
