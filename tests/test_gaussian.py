"""Tests for the Gaussian numerics core."""

import math
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm, truncnorm

from condid import gaussian
from condid.errors import (
    CholeskyError,
    InvalidArgumentError,
    NoConvergenceError,
    SingularMatrixError,
)
from condid.estimators import ConditionalLaw, efficient_estimator, quantile_unbiased_estimate
from condid.event_study import EstimateBundle
from condid.gaussian import (
    CovarianceMatrix,
    solve_tn_mean_bulk,
    solve_tn_quantiles,
)


INF = math.inf
NAN = math.nan
# a float of either sign with a log-uniform magnitude in [1e-300, 1e300]
LOG_UNIFORM = st.builds(
    lambda sign, power: sign * 10.0**power, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)
)


def truncnorm_cdf(x, mu, sd, lower, upper):
    """Independent oracle: scipy's truncated-normal CDF."""
    return truncnorm.cdf(x, (lower - mu) / sd, (upper - mu) / sd, loc=mu, scale=sd)


def scalar_law(observed, sd, lower, upper):
    """The conditional law of a one-coefficient contrast with this window."""
    return ConditionalLaw(observed, sd, lower, upper)


# --- CovarianceMatrix --------------------------------------------------------


class TestCovarianceMatrix:
    def test_block_views(self):
        m = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        cov = CovarianceMatrix(m)
        assert cov.dim == 3 and cov.k == 2
        assert cov.sigma11 == 4.0
        np.testing.assert_array_equal(cov.sigma12, [1.0, 0.5])
        np.testing.assert_array_equal(cov.sigma22, [[3.0, 0.2], [0.2, 2.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix([[1.0, 0.5], [0.4, 1.0]])

    def test_accepts_float_noise_asymmetry(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
        cov = CovarianceMatrix(m)
        assert cov.entries[0, 1] == cov.entries[1, 0]

    def test_rejects_non_positive_definite(self):
        with pytest.raises(CholeskyError):
            CovarianceMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_allow_singular_matrix_is_rejected_by_efficient_estimator(self):
        # a degenerate sample's covariance is accepted as data, and the
        # estimator that must solve against its pre block refuses it
        cov = CovarianceMatrix(np.zeros((2, 2)), allow_singular=True)
        bundle = EstimateBundle(beta_post=0.0, beta_pre=np.zeros(1), sigma=cov)
        with pytest.raises(SingularMatrixError):
            efficient_estimator(bundle)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.ones((2, 3)))


# --- truncated normal CDF -------------------------------------------------------


def kernel_cdf(x, mu, sd, lower, upper):
    """The solve's CDF kernel at ``x`` inside ``[lower, upper]``: the CDF at 0
    of the law standardized about ``x``, with the mean's offset clamped at
    +/-1e150 like the bounds."""
    u = min(max((mu - x) / sd, -gaussian._Z_CAP), gaussian._Z_CAP)
    zlo, zhi = np.array((lower - x) / sd), np.array((upper - x) / sd)
    return float(gaussian._cdf_excess(np.array(u), zlo, zhi, 0.0)[0])


def _mp_survival(z):
    return mp.erfc(mp.mpf(z) / mp.sqrt(2)) / 2


def mp_cdf(lower, upper, x):
    """80-digit CDF of N(0, 1) truncated to [lower, upper], at x."""
    mp.mp.dps = 80
    if lower + upper > 0:
        s_lo = _mp_survival(lower)
        return (s_lo - _mp_survival(x)) / (s_lo - _mp_survival(upper))
    s_lo = _mp_survival(-lower)
    return (_mp_survival(-x) - s_lo) / (_mp_survival(-upper) - s_lo)


class TestTnCdf:
    """The kernel on windows at least 1e-4 sd wide and at most 1e4 sd from
    the mean, where its docstring states its error bound."""

    def test_untruncated_median(self):
        assert kernel_cdf(0.0, 0.0, 1.0, -INF, INF) == pytest.approx(0.5, abs=1e-14)

    def test_symmetric_truncation_median(self):
        assert kernel_cdf(0.0, 0.0, 1.0, -1.96, 1.96) == pytest.approx(0.5, abs=1e-12)

    def test_half_normal_against_quadrature(self):
        # independent oracle: adaptive quadrature of the half-normal density
        num, _ = quad(norm.pdf, 0.0, 1.0)
        den, _ = quad(norm.pdf, 0.0, 10.0)  # mass above 10 is ~0 at quad precision
        expected = num / den
        assert expected == pytest.approx(0.6826894921370859, abs=1e-9)
        assert kernel_cdf(1.0, 0.0, 1.0, 0.0, INF) == pytest.approx(expected, abs=1e-10)
        assert kernel_cdf(1.0, 0.0, 1.0, 0.0, INF) == pytest.approx(0.6826894921370859, abs=1e-12)

    def test_deep_right_tail_matches_mpmath(self):
        mp.mp.dps = 60
        lo, hi, x = 20.0, 21.0, 20.5
        num = _mp_survival(lo) - _mp_survival(x)
        den = _mp_survival(lo) - _mp_survival(hi)
        expected = float(num / den)
        assert kernel_cdf(x, 0.0, 1.0, lo, hi) == pytest.approx(expected, rel=1e-9)

    def test_deep_left_tail_matches_mpmath(self):
        mp.mp.dps = 60
        lo, hi, x = -26.0, -24.0, -25.0
        expected = float((mp.ncdf(x) - mp.ncdf(lo)) / (mp.ncdf(hi) - mp.ncdf(lo)))
        assert kernel_cdf(x, 0.0, 1.0, lo, hi) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("distance", [38.0, 200.0, 1e3, 1e4])
    def test_far_windows_match_mpmath_within_documented_bound(self, distance):
        # windows 1e-4 to 10 sd wide, in both tails, with x drawn towards
        # either edge; the bound is the one _cdf_excess's docstring states
        eps = 2.0**-52
        rng = np.random.default_rng(int(distance))
        for _ in range(40):
            width = 10.0 ** rng.uniform(-4, 1)
            lower, upper = (distance, distance + width)
            if rng.uniform() < 0.5:
                lower, upper = -upper, -lower
            toward = rng.uniform() ** 3 * width
            x = lower + toward if rng.uniform() < 0.5 else upper - toward
            if not lower < x < upper:
                continue
            expected = mp_cdf(lower, upper, x)
            if expected < 1e-300:  # below the smallest normal double
                continue
            got = kernel_cdf(x, 0.0, 1.0, lower, upper)
            s = min(x - lower, upper - x)
            bound = eps * (distance**2 + 100.0 * distance * (1.0 / s + 1.0 / width))
            assert float(abs(got - expected) / expected) <= bound, (lower, upper, x)

    @settings(max_examples=300, deadline=None)
    @given(
        mu=LOG_UNIFORM, a=LOG_UNIFORM, b=LOG_UNIFORM, x1=LOG_UNIFORM, x2=LOG_UNIFORM,
        var=st.builds(lambda p: 10.0**p, st.floats(-300.0, 300.0)),
        inside=st.floats(0.0, 1.0),
    )
    @example(mu=1e300, a=-1e300, b=1e300, x1=-1e300, x2=1e300, var=1.0, inside=0.5)
    @example(mu=0.0, a=0.0, b=1.0, x1=0.0, x2=1.0, var=1e-310, inside=0.5)
    def test_any_valid_input_gives_a_monotone_probability(self, mu, a, b, x1, x2, var, inside):
        # magnitudes log-uniform up to 1e300, plus a point inside the window;
        # the points inside the window, on windows in the kernel's domain
        lower, upper = min(a, b), max(a, b)
        assume(lower < upper)
        sd = math.sqrt(var)
        assume((upper - lower) / sd >= 1e-4 and max(lower - mu, mu - upper, 0.0) / sd <= 1e4)
        points = sorted(x for x in (x1, x2, lower * (1.0 - inside) + upper * inside)
                        if lower <= x <= upper)
        values = [kernel_cdf(x, mu, sd, lower, upper) for x in points]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values == sorted(values)

    def test_nondecreasing_in_x(self):
        xs = [x for x in np.linspace(-1.5, 3.0, 201) if -1.0 < x < 2.5]
        vals = [kernel_cdf(float(x), 0.3, math.sqrt(2.0), -1.0, 2.5) for x in xs]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_strictly_decreasing_in_mu(self):
        mus = np.linspace(-3.0, 3.0, 61)
        vals = [kernel_cdf(0.7, float(m), math.sqrt(1.5), -1.0, 2.0) for m in mus]
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize(
        "zlo, zhi, zx",
        [
            (-INF, -30.0, -30.2),  # deep left tail, one-sided
            (-38.0, -37.0, -37.9),  # deep left tail, bounded
            (30.0, INF, 30.01),  # deep right tail, one-sided
            (35.0, 35.5, 35.1),  # deep right tail, bounded
            (-1.0, 1.0, 0.3),  # body
        ],
    )
    def test_matches_scipy_truncnorm_in_both_tails(self, zlo, zhi, zx):
        # window and evaluation point in standard units about the mean
        for mu, sd in ((0.0, 1.0), (-2.5, 0.7), (3.0, 2.0)):
            lower, upper, x = (mu + z * sd for z in (zlo, zhi, zx))
            expected = truncnorm_cdf(x, mu, sd, lower, upper)
            assert kernel_cdf(x, mu, sd, lower, upper) == pytest.approx(expected, rel=1e-8, abs=1e-12)


class TestCdfKernel:
    # (zlo, zhi, u): the CDF at 0 of TN(u, 1, [zlo, zhi]) far out in both
    # tails, on one-sided and two-sided-infinite windows, on narrow windows
    # and with 0 (the observed value) next to a window edge
    POINTS = [
        (-0.5, 0.5, 30.0), (-0.5, 0.5, -30.0), (-1.0, 2.0, 25.0), (-2.0, 1.0, -25.0),
        (-1.0, 2.0, -25.0), (-INF, 0.7, 3.0), (-INF, 0.7, 20.0), (-INF, 0.7, -20.0),
        (-1.2, INF, 2.0), (-1.2, INF, -5.0), (-1.2, INF, 30.0), (-1.2, INF, -30.0),
        (-1e-3, 2e-3, 0.5), (-4e-3, 6e-3, -5.0), (-4e-3, 6e-3, 20.0), (-0.02, 0.03, -3.0),
        (-1e-6, 2.0, 0.3), (-3.0, 1e-6, -0.3), (-INF, INF, 1.0), (-INF, INF, -7.0),
    ]

    @pytest.mark.parametrize("zlo, zhi, u", POINTS)
    def test_slope_and_curvature_match_central_differences(self, zlo, zhi, u):
        cdf, slope, curvature = (
            float(v) for v in gaussian._cdf_excess(np.array(u), np.array(zlo), np.array(zhi), 0.0)
        )
        # five-point central differences of whichever of truncnorm's CDF and
        # survival function is below 1/2, which it keeps to full relative
        # accuracy; the CDF varies on a scale of 1/|u| far out in a tail,
        # but on 1/(|u|*width) on a narrow window
        upper = cdf > 0.5
        tail = truncnorm.sf if upper else truncnorm.cdf
        h = 0.05 / (1.0 + abs(u) * min(zhi - zlo, 1.0))
        vals = np.array([tail(0.0, zlo - v, zhi - v, loc=v) for v in u + h * np.arange(-2, 3)])
        vals = -vals if upper else vals
        d1 = (vals[0] - 8.0 * vals[1] + 8.0 * vals[3] - vals[4]) / (12.0 * h)
        d2 = (-vals[0] + 16.0 * vals[1] - 30.0 * vals[2] + 16.0 * vals[3] - vals[4]) / (12.0 * h * h)
        # where the CDF is near 1 it is known to a few ulps of 1, and its
        # derivatives to that times the density scale, up to about |u|; the
        # differenced curvature carries truncnorm's rounding over h^2, which
        # on narrow windows is not small against the curvature itself
        floor = 1e-12 * cdf
        assert abs(slope - d1) <= 1e-6 * abs(d1) + floor
        assert abs(curvature - d2) <= 1e-4 * abs(d2) + 1e-6 * abs(d1) + floor

    def test_infinite_bounds_raise_no_warning(self):
        # an infinite bound has phi = 0 and p*phi(p) = 0; no inf*0 or
        # overflow may leak out of the solve as a RuntimeWarning
        obs = np.array([0.5, -0.2, 0.0, 0.0, 1e-9, 3.0])
        lower = np.array([0.0, -INF, -INF, 0.0, 0.0, -INF])
        upper = np.array([INF, 0.0, INF, INF, INF, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in (1e-300, 1e-16, 0.025, 0.5, 0.975, 1.0 - 1e-16):
                mu, status = solve_tn_mean_bulk(obs, 1.0, lower, upper, target)
                assert np.all(np.isfinite(mu) == (status == 0))


# --- mean solve -----------------------------------------------------------------


class TestSolveTnMean:
    def test_untruncated_median_is_observed(self):
        mu = solve_tn_quantiles(1.3, 1.0, -INF, INF, (0.5,))
        assert mu[0] == pytest.approx(1.3, abs=1e-7)

    def test_round_trip_at_half(self):
        mu = float(solve_tn_quantiles(0.5, 1.0, 0.0, 2.0, (0.5,))[0])
        assert float(mp_cdf(-mu, 2.0 - mu, 0.5 - mu)) == pytest.approx(0.5, abs=1e-8)

    def test_quantile_endpoints_are_ordered(self):
        hi_target, lo_target = solve_tn_quantiles(0.5, 1.0, 0.0, 2.0, (0.975, 0.025))
        assert hi_target < lo_target

    def test_no_bracket_near_window_edge(self):
        assert quantile_unbiased_estimate(scalar_law(1e-12, 1.0, 0.0, 1.0), 0.025) == -INF

    # (observed, sd, lower, upper): windows deep in either tail, narrow
    # windows, one-sided windows, observed on or next to a window edge
    WINDOWS = [
        (-30.5, 1.0, -INF, -30.0),
        (-37.2, 1.0, -38.0, -37.0),
        (30.2, 1.0, 30.0, INF),
        (35.3, 1.0, 35.0, 35.5),
        (2.0 + 3e-7, 1.0, 2.0, 2.0 + 1e-6),
        (0.4, 1e-3, 0.3999, 0.4002),
        (1.5, 1.0, 1.0, INF),
        (-0.2, 1.0, -INF, 0.0),
        (5.0, 1e4, 4.5, 7e4),
        (0.0, 1.0, 0.0, 3.0),
        (3.0, 1.0, 0.0, 3.0),
        (1e-9, 1.0, 0.0, 3.0),
        (3.0 - 1e-9, 1.0, 0.0, 3.0),
        (0.0, 1.0, -INF, INF),
    ]

    def test_solved_mean_meets_target_under_truncnorm(self):
        # converged roots hit the target to 1e-8 under an independent CDF;
        # an unbounded root leaves the CDF at the search edge in its
        # direction, observed -/+ 40 sd, still on the far side of the target
        obs, sd, lower, upper = (np.array(col) for col in zip(*self.WINDOWS))
        seen = set()
        for target in (0.5, 0.025, 0.975, 1e-4, 1.0 - 1e-4):
            mu, status = solve_tn_mean_bulk(obs, sd, lower, upper, target)
            seen.update(status.tolist())
            ok = status == 0
            cdf = truncnorm_cdf(obs[ok], mu[ok], sd[ok], lower[ok], upper[ok])
            assert np.all(np.abs(cdf - target) <= 1e-8)
            for side in (-1, 1):
                hit = status == side
                np.testing.assert_array_equal(mu[hit], side * INF)
                edge = obs[hit] + side * 40.0 * sd[hit]
                cdf = truncnorm_cdf(obs[hit], edge, sd[hit], lower[hit], upper[hit])
                assert np.all(cdf < target if side < 0 else cdf > target)
        assert seen == {-1, 0, 1}

    @pytest.mark.parametrize("max_radius", [40.0, 5.0])
    def test_warm_start_statuses_follow_the_search_edge(self, max_radius, monkeypatch):
        # the bracket opens at -ndtri(target), which lies beyond +-5 for the
        # extreme targets; statuses must still come from the CDF at the
        # search edge, and converged roots must meet their targets
        monkeypatch.setattr(gaussian, "_MAX_RADIUS", max_radius)
        windows = self.WINDOWS + [
            (0.0, 1.0, 0.0, INF), (0.0, 1.0, -INF, 0.0), (2.0, 0.5, 2.0, 2.0 + 1e-9)
        ]
        obs, sd, lower, upper = (np.array(col) for col in zip(*windows))
        seen = set()
        for target in (1e-300, 1e-16, 0.025, 0.5, 0.975, 1.0 - 1e-16):
            mu, status = solve_tn_mean_bulk(obs, sd, lower, upper, target)
            seen.update(status.tolist())
            ok = status == 0
            cdf = truncnorm_cdf(obs[ok], mu[ok], sd[ok], lower[ok], upper[ok])
            assert np.all(np.abs(cdf - target) <= 1e-8)
            edge_cdf = [
                truncnorm_cdf(obs, obs + side * max_radius * sd, sd, lower, upper)
                for side in (-1, 1)
            ]
            expected = np.where(edge_cdf[0] < target, -1, np.where(edge_cdf[1] > target, 1, 0))
            np.testing.assert_array_equal(status, expected)
            np.testing.assert_array_equal(mu[status != 0], status[status != 0] * INF)
        assert seen == {-1, 0, 1}

    def test_warm_start_needs_few_cdf_evaluations(self, monkeypatch):
        # every solve of 450 simulated replications in six cells, 10 386
        # (window, target) elements; a cold +-1 bracket needs 10.6 CDF
        # evaluations per element on these, Chandrupatla's method from a
        # warm bracket about 8.1, the Halley steps 3.39 when each solve
        # ends on an evaluation that confirms its last step, and 2.66 with
        # the early acceptance of a Halley point.  The count goes through
        # the kernel the solve calls, so at least one evaluation per element
        # shows that it counted anything at all
        from condid.simulation import SimConfig, simulate_cell

        counts = {"evaluations": 0, "elements": 0}
        cdf_excess, bulk = gaussian._cdf_excess, gaussian.solve_tn_mean_bulk

        def counting_cdf_excess(u, *args):
            counts["evaluations"] += np.size(u)
            return cdf_excess(u, *args)

        def counting_bulk(*args, **kwargs):
            mu, status = bulk(*args, **kwargs)
            counts["elements"] += status.size
            return mu, status

        monkeypatch.setattr(gaussian, "_cdf_excess", counting_cdf_excess)
        monkeypatch.setattr(gaussian, "solve_tn_mean_bulk", counting_bulk)
        for dgp in ("null", "trend"):
            for k in (1, 4, 8):
                simulate_cell(SimConfig(reps=450, seed=20), k, dgp)
        assert 9_000 <= counts["elements"] <= 11_000
        assert counts["elements"] <= counts["evaluations"] <= 2.75 * counts["elements"]

    def test_early_acceptance_moves_no_status_and_meets_the_target(self, monkeypatch):
        # 6 000 windows in three width bands, 1e-10 to 1e-4, 1e-4 to 1e-2
        # and 1e-2 to 10 sd wide, with the observed value uniform inside or
        # 1e-12 to 1e-2 widths from an edge; an infinite width floor turns
        # the early acceptance off on these finite windows
        rng = np.random.default_rng(19)
        width = np.concatenate(
            [10.0 ** rng.uniform(lo, hi, 2000) for lo, hi in ((-10, -4), (-4, -2), (-2, 1))]
        )
        m = width.size
        lower = rng.normal(0.0, 3.0, m)
        upper = lower + width
        gap = 10.0 ** rng.uniform(-12.0, -2.0, m)
        near_edge = np.where(rng.random(m) < 0.5, gap, 1.0 - gap)
        observed = np.clip(lower + np.where(rng.random(m) < 0.5, rng.random(m), near_edge) * width,
                           lower, upper)
        targets = (0.5, 0.975, 0.025)
        column = np.reshape(targets, (3, 1))
        mu, status = solve_tn_mean_bulk(observed, 1.0, lower, upper, column)
        monkeypatch.setattr(gaussian, "_EARLY_WIDTH", INF)
        mu_off, status_off = solve_tn_mean_bulk(observed, 1.0, lower, upper, column)
        np.testing.assert_array_equal(status, status_off)
        ok = status == 0
        assert np.any(mu[ok] != mu_off[ok])
        assert np.all(np.abs(mu[ok] - mu_off[ok]) <= 1e-9)
        # below the width floor the step test alone decides, bit for bit
        narrow = upper - lower < 0.05
        np.testing.assert_array_equal(mu[:, narrow].view(np.int64),
                                      mu_off[:, narrow].view(np.int64))
        # the 80-digit CDF at each converged mean on the wider windows, with
        # the window standardized about it exactly
        mp.mp.dps = 80
        for row, target in enumerate(targets):
            for j in np.flatnonzero(ok[row] & ~narrow):
                mean = mp.mpf(mu[row, j])
                cdf = mp_cdf(mp.mpf(lower[j]) - mean, mp.mpf(upper[j]) - mean,
                             mp.mpf(observed[j]) - mean)
                assert abs(float(cdf) - target) <= 0.5e-8

    @pytest.mark.parametrize("side", [-1, 1])
    def test_observed_on_window_edge_is_unbounded(self, side):
        # the CDF at the lower (upper) edge is 0 (1) under every mean
        observed = 0.0 if side < 0 else 2.0
        mu, status = solve_tn_mean_bulk(observed, 1.0, 0.0, 2.0, 0.5)
        assert int(status) == side and float(mu) == side * INF
        assert quantile_unbiased_estimate(scalar_law(observed, 1.0, 0.0, 2.0), 0.5) == side * INF

    def test_zero_width_window_is_reported_at_once(self):
        # the CDF of a zero-width window is NaN under every mean, so no step
        # settles it and none reaches an edge status
        mu, status = solve_tn_mean_bulk(np.array([0.0, 0.5]), 1.0, 0.0, np.array([0.0, 2.0]), 0.3)
        assert status.tolist() == [2, 0] and math.isnan(mu[0])

    def test_exhausted_budget_is_reported(self, monkeypatch):
        monkeypatch.setattr(gaussian, "_MAX_ITER", 1)
        mu, status = solve_tn_mean_bulk(0.5, 1.0, 0.0, 2.0, 0.3)
        assert int(status) == 2 and math.isnan(float(mu))
        with pytest.raises(NoConvergenceError):
            quantile_unbiased_estimate(scalar_law(0.5, 1.0, 0.0, 2.0), 0.3)
        # every pass counts, the outward steps towards the search edge too:
        # with one pass, the two elements on a window edge are unfinished
        # as well, and any unconverged solve fails the whole call
        with pytest.raises(NoConvergenceError, match="3 truncated-normal"):
            solve_tn_quantiles(
                np.array([0.5, 0.0, 2.0]), np.ones(3), np.zeros(3), np.full(3, 2.0), (0.3,)
            )
        # from the warm start 0.52, steps of 0.5, 1, ..., 32 reach the edge
        # -/+40 on the eighth pass, which finds the root beyond it
        edge = np.array([0.0, 2.0])
        monkeypatch.setattr(gaussian, "_MAX_ITER", 7)
        mu, status = solve_tn_mean_bulk(edge, 1.0, 0.0, 2.0, 0.3)
        assert status.tolist() == [2, 2] and np.isnan(mu).all()
        monkeypatch.setattr(gaussian, "_MAX_ITER", 8)
        mu, status = solve_tn_mean_bulk(edge, 1.0, 0.0, 2.0, 0.3)
        assert status.tolist() == [-1, 1] and mu.tolist() == [-INF, INF]

    @settings(max_examples=200, deadline=None)
    @given(
        observed=st.floats(min_value=-5.0, max_value=5.0),
        sd=st.floats(min_value=0.05, max_value=5.0),
        # each side of observed at least 0.05 sd wide: narrower windows
        # leave the mean ill-conditioned, as the CDF at observed barely
        # depends on it
        a=st.floats(min_value=0.05, max_value=6.0),
        b=st.floats(min_value=0.05, max_value=6.0),
        target=st.sampled_from([0.025, 0.5, 0.975]),
        open_lower=st.booleans(),
        open_upper=st.booleans(),
        exponent=st.sampled_from([-9, -6, 6, 9]),
        shift=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_scale_and_shift_equivariance(
        self, observed, sd, a, b, target, open_lower, open_upper, exponent, shift
    ):
        lower = -INF if open_lower else observed - a * sd
        upper = INF if open_upper else observed + b * sd
        mu, status = solve_tn_mean_bulk(observed, sd, lower, upper, target)
        scale = 10.0 ** exponent
        mu_s, status_s = solve_tn_mean_bulk(
            observed * scale, sd * scale, lower * scale, upper * scale, target
        )
        # a shift by a multiple of sd, so its rounding stays far below 1e-9 sd
        c = shift * sd
        mu_c, status_c = solve_tn_mean_bulk(observed + c, sd, lower + c, upper + c, target)
        assert int(status_s) == int(status_c) == int(status)
        if int(status) == 0:
            assert abs(float(mu_s) / scale - float(mu)) <= 1e-9 * sd
            assert abs(float(mu_c) - c - float(mu)) <= 1e-9 * sd

    def test_validation(self):
        # no truncated normal has these (observed, sd, lower, upper)
        for bad in ((3.0, 1.0, 0.0, 2.0), (INF, 1.0, 0.0, INF), (math.nan, 1.0, 0.0, 1.0),
                    (0.5, -1.0, 0.0, 2.0), (0.5, 0.0, 0.0, 1.0), (0.5, INF, 0.0, 1.0),
                    (0.5, math.nan, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 2.0, -2.0),
                    (0.5, 1.0, math.nan, 1.0), (0.5, 1.0, 0.0, math.nan)):
            with pytest.raises(InvalidArgumentError):
                scalar_law(*bad)
        for target in (0.0, 1.0):
            with pytest.raises(ValueError):
                quantile_unbiased_estimate(scalar_law(0.5, 1.0, 0.0, 2.0), target)

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(min_value=-3.0, max_value=3.0),
        sd=st.floats(min_value=0.5, max_value=2.0),
        a=st.floats(min_value=0.2, max_value=4.0),
        b=st.floats(min_value=0.2, max_value=4.0),
        t=st.floats(min_value=0.1, max_value=0.9),
        open_lower=st.booleans(),
        open_upper=st.booleans(),
    )
    def test_round_trip_recovers_mean(self, mu, sd, a, b, t, open_lower, open_upper):
        lower = -INF if open_lower else mu - a * sd
        upper = INF if open_upper else mu + b * sd
        if math.isinf(lower) and math.isinf(upper):
            x = mu + (t - 0.5) * 2.0 * sd
        else:
            lo_ref = mu - a * sd if math.isinf(lower) else lower
            hi_ref = mu + b * sd if math.isinf(upper) else upper
            x = lo_ref + t * (hi_ref - lo_ref)
        target = float(mp_cdf((lower - mu) / sd, (upper - mu) / sd, (x - mu) / sd))
        if not (1e-12 < target < 1.0 - 1e-12):
            return
        recovered = quantile_unbiased_estimate(scalar_law(x, sd, lower, upper), target)
        assert recovered == pytest.approx(mu, abs=1e-6 * max(1.0, abs(mu)) + 1e-6)


class TestTermination:
    """Every solve ends within its pass budget and reports how it ended."""

    # each call steps outward at a search edge, or bisects a window too
    # narrow to settle, until its budget ends; a subprocess turns a budget
    # that does not hold into a timeout instead of a hung suite
    @pytest.mark.parametrize(
        "call, statuses",
        [
            ("solve_tn_mean_bulk(9e-13, 1.0, 0.0, 1e-12, 0.9005681818199736)", "2"),
            ("solve_tn_mean_bulk(0.0, 1.0, -1.0, 1.0, [0.0, 1.0])", "[1, 2]"),
            ("solve_tn_mean_bulk(0, 1, -1, 1, [1.0])", "[2]"),
        ],
    )
    def test_call_returns_within_its_budget(self, call, statuses):
        code = f"from condid.gaussian import solve_tn_mean_bulk; print({call}[1].tolist())"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == statuses

    def test_a_step_that_cannot_move_ends_the_solve(self, monkeypatch):
        # by pass 12 the point stands on the lower search edge with f exactly
        # 0 and a noisy slope above 0: nothing settles, no edge status fires
        # and the outward step is clipped back to the edge, so every later
        # pass would repeat that pass until the budget of 200 ran out
        calls = []
        cdf_excess = gaussian._cdf_excess

        def counting_cdf_excess(*args):
            calls.append(1)
            return cdf_excess(*args)

        monkeypatch.setattr(gaussian, "_cdf_excess", counting_cdf_excess)
        mu, status = solve_tn_mean_bulk(9e-13, 1.0, 0.0, 1e-12, 0.9005681818199736)
        assert int(status) == 2 and math.isnan(float(mu))
        assert len(calls) <= 15

    def test_quantile_estimate_on_a_narrow_window_raises_within_its_budget(self):
        code = "\n".join([
            "from condid.errors import NoConvergenceError",
            "from condid.estimators import ConditionalLaw, quantile_unbiased_estimate",
            "law = ConditionalLaw(9e-13, 1.0, 0.0, 1e-12)",
            "try:",
            "    quantile_unbiased_estimate(law, 0.9005681818199736)",
            "except NoConvergenceError:",
            "    print('NoConvergenceError')",
        ])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "NoConvergenceError"

    @staticmethod
    def assert_status_matches_mean(mu, status):
        assert set(status.ravel().tolist()) <= {-1, 0, 1, 2}
        np.testing.assert_array_equal(np.isneginf(mu), status == -1)
        np.testing.assert_array_equal(np.isposinf(mu), status == 1)
        np.testing.assert_array_equal(np.isnan(mu), status == 2)

    TARGETS = np.array([0.0, 1e-300, 1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-6, 1.0 - 2.0**-53, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        center=st.floats(min_value=-50.0, max_value=50.0),
        sd=st.floats(min_value=-3.0, max_value=3.0).map(lambda p: 10.0**p),
        width=st.floats(min_value=-12.0, max_value=-2.0).map(lambda p: 10.0**p),
        gap=st.one_of(
            st.just(0.0), st.floats(min_value=-16.0, max_value=-2.0).map(lambda p: 10.0**p)
        ),
        sides=st.sampled_from(["both", "lower", "upper"]),
        near_lower=st.booleans(),
    )
    def test_narrow_windows_end_with_a_status(self, center, sd, width, gap, sides, near_lower):
        # windows 1e-12 to 1e-2 sd wide, or one-sided, with the observed
        # value 0 to 1e-2 sd inside an edge: the ill-conditioned class
        if sides == "both":
            lower, upper = center, center + width * sd
            gap = min(gap, width)
            observed = lower + gap * sd if near_lower else upper - gap * sd
        elif sides == "lower":
            lower, upper, observed = center, INF, center + gap * sd
        else:
            lower, upper, observed = -INF, center, center - gap * sd
        mu, status = solve_tn_mean_bulk(observed, sd, lower, upper, self.TARGETS)
        self.assert_status_matches_mean(mu, status)

    @pytest.mark.parametrize(
        "observed, sd, lower, upper",
        [
            (NAN, 1.0, 0.0, 1.0),
            (0.5, NAN, 0.0, 1.0),
            (0.5, 1.0, NAN, 1.0),
            (0.5, 1.0, 0.0, NAN),
            (0.0, 1.0, 0.0, 0.0),
            (3.0, 2.0, 3.0, 3.0),
        ],
    )
    def test_nan_inputs_and_zero_width_windows_end_with_a_status(
        self, observed, sd, lower, upper
    ):
        targets = np.append(self.TARGETS, NAN)
        mu, status = solve_tn_mean_bulk(observed, sd, lower, upper, targets)
        self.assert_status_matches_mean(mu, status)


class TestSolveTnQuantiles:
    def test_blocked_stacked_solve_matches_per_element_bulk(self, monkeypatch):
        import condid.gaussian as gaussian

        rng = np.random.default_rng(11)
        n = 9
        observed = rng.uniform(-1.0, 1.0, n)
        sd = rng.uniform(0.5, 2.0, n)
        lower = observed - rng.uniform(0.1, 3.0, n)
        upper = observed + rng.uniform(0.1, 3.0, n)
        lower[0], upper[1] = -INF, INF
        # an observed value on a window edge has no bracket: at the lower edge
        # the CDF is 0 under every mean (status -1), at the upper edge 1 (+1)
        observed[2], observed[3] = lower[2], upper[3]
        targets = (0.5, 1.0 - 0.5e-6, 0.5e-6)

        bulk = gaussian.solve_tn_mean_bulk
        sizes = []

        def counting_bulk(*args, **kwargs):
            # the (element, target) pairs of the call: it broadcasts its arguments
            sizes.append(np.broadcast(*args).size)
            return bulk(*args, **kwargs)

        monkeypatch.setattr(gaussian, "BULK_BLOCK", 7)
        monkeypatch.setattr(gaussian, "solve_tn_mean_bulk", counting_bulk)
        mu = gaussian.solve_tn_quantiles(observed, sd, lower, upper, targets)
        assert mu.shape == (n, len(targets))
        assert sizes == [6, 6, 6, 6, 3]

        expected = np.empty_like(mu)
        statuses = set()
        for i in range(n):
            for j, target in enumerate(targets):
                root, status = bulk(
                    observed[i:i + 1], sd[i:i + 1], lower[i:i + 1], upper[i:i + 1],
                    np.array([target]),
                )
                statuses.add(int(status[0]))
                expected[i, j] = root[0] if status[0] == 0 else math.copysign(INF, status[0])
        assert statuses == {-1, 0, 1}
        np.testing.assert_array_equal(mu, expected)
        assert mu[2].tolist() == [-INF] * 3 and mu[3].tolist() == [INF] * 3

    @pytest.mark.parametrize("block, n_targets", [(2, 3), (5, 3), (8, 3), (10, 4), (4, 4)])
    def test_blocks_hold_whole_elements(self, monkeypatch, block, n_targets):
        # a block that is not a multiple of the target count, or is smaller
        # than it, still gives each call whole elements against every target
        rng = np.random.default_rng(12)
        n = 7
        observed = rng.uniform(-1.0, 1.0, n)
        sd = rng.uniform(0.5, 2.0, n)
        lower = observed - rng.uniform(0.1, 3.0, n)
        upper = observed + rng.uniform(0.1, 3.0, n)
        targets = np.linspace(0.02, 0.98, n_targets)
        unblocked = solve_tn_quantiles(observed, sd, lower, upper, targets)

        bulk = gaussian.solve_tn_mean_bulk
        calls = []

        def recording_bulk(*args, **kwargs):
            # the targets of each (element, target) pair the call solves
            calls.append(np.broadcast_to(args[4], np.broadcast(*args).shape).tolist())
            return bulk(*args, **kwargs)

        monkeypatch.setattr(gaussian, "BULK_BLOCK", block)
        monkeypatch.setattr(gaussian, "solve_tn_mean_bulk", recording_bulk)
        mu = solve_tn_quantiles(observed, sd, lower, upper, targets)
        per_call = max(1, block // n_targets)
        sizes = [min(per_call, n - start) for start in range(0, n, per_call)]
        assert calls == [[targets.tolist()] * m for m in sizes]
        np.testing.assert_array_equal(mu, unblocked)

    def test_scalar_bound_beside_arrays_rejected(self):
        with pytest.raises(ValueError, match=r"differ in shape: \[\(2,\), \(2,\), \(2,\), \(\)\]"):
            solve_tn_quantiles(np.array([0.0, 2.0]), np.ones(2), np.zeros(2), 2.0, (0.3,))

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_target_outside_unit_interval_rejected(self, target):
        # a target of 0 or 1 has its root at -/+ infinity: no solve may start
        with pytest.raises(ValueError, match="targets must lie strictly inside"):
            solve_tn_quantiles(0.5, 1.0, 0.0, 2.0, (0.5, target))

    def test_longer_bound_array_rejected(self):
        with pytest.raises(ValueError, match=r"\[\(2,\), \(2,\), \(3,\), \(2,\)\]"):
            solve_tn_quantiles(
                np.array([0.5, 1.0]), np.ones(2), np.zeros(3), np.full(2, 2.0), (0.5,)
            )
