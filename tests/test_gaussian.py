"""Tests for the Gaussian numerics core."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm, truncnorm

from condid import gaussian
from condid.errors import (
    CholeskyError,
    DegenerateWindowError,
    NoConvergenceError,
    SingularMatrixError,
    UnboundedEstimateError,
)
from condid.estimators import ConditionalLaw, quantile_unbiased_estimate
from condid.gaussian import (
    CovarianceMatrix,
    TruncatedNormalSpec,
    solve_tn_mean_bulk,
    solve_tn_quantiles,
    tn_cdf,
)

from _oracles import (
    EquicorrelatedSpec,
    equicorrelated_inverse,
    equicorrelated_matrix,
    mvn_sample,
)

INF = math.inf


def truncnorm_cdf(x, mu, sd, lower, upper):
    """Independent oracle: scipy's truncated-normal CDF."""
    return truncnorm.cdf(x, (lower - mu) / sd, (upper - mu) / sd, loc=mu, scale=sd)


def scalar_law(observed, var, lower, upper):
    """The conditional law of a one-coefficient contrast with this window."""
    spec = TruncatedNormalSpec(mu=observed, var=var, lower=lower, upper=upper)
    return ConditionalLaw(
        spec=spec, observed=observed, z_vector=np.zeros(1), c_vector=np.ones(1), eta=np.ones(1)
    )


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

    def test_allow_singular_defers_factorization(self):
        cov = CovarianceMatrix(np.zeros((2, 2)), allow_singular=True)
        with pytest.raises(CholeskyError):
            cov.cholesky()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.ones((2, 3)))


# --- equicorrelated inverse ----------------------------------------------------


class TestEquicorrelatedInverse:
    def test_scalar_case_ignores_offdiag(self):
        inv = equicorrelated_inverse(EquicorrelatedSpec(dim=1, diag=2.0, offdiag=99.0))
        np.testing.assert_allclose(inv.entries, [[0.5]])

    def test_dim2_closed_form(self):
        # direct 2x2 inversion of [[2,1],[1,2]]
        inv = equicorrelated_inverse(EquicorrelatedSpec(dim=2, diag=2.0, offdiag=1.0))
        np.testing.assert_allclose(
            inv.entries, [[2.0 / 3.0, -1.0 / 3.0], [-1.0 / 3.0, 2.0 / 3.0]], atol=1e-14
        )

    def test_dim3_row_sums_are_constant(self):
        # ones-vector is an eigenvector: row sums of the inverse are all 0.25
        spec = EquicorrelatedSpec(dim=3, diag=2.0, offdiag=1.0)
        inv = equicorrelated_inverse(spec)
        brute = np.linalg.inv(equicorrelated_matrix(spec).entries)
        np.testing.assert_allclose(inv.entries, brute, atol=1e-12)
        row_sums = inv.entries.sum(axis=1)
        np.testing.assert_allclose(row_sums, 0.25, atol=1e-12)

    def test_rejects_offdiag_at_or_above_diag(self):
        with pytest.raises(SingularMatrixError):
            equicorrelated_inverse(EquicorrelatedSpec(dim=3, diag=1.0, offdiag=1.0))
        with pytest.raises(SingularMatrixError):
            equicorrelated_inverse(EquicorrelatedSpec(dim=3, diag=1.0, offdiag=2.0))

    def test_rejects_singular_negative_offdiag(self):
        # diag + (n-1) offdiag = 0 makes the ones direction null
        with pytest.raises(SingularMatrixError):
            equicorrelated_inverse(EquicorrelatedSpec(dim=3, diag=1.0, offdiag=-0.5))

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=12),
        diag=st.floats(min_value=0.5, max_value=5.0),
        u=st.floats(min_value=-0.85, max_value=0.85),
    )
    def test_inverse_times_matrix_is_identity(self, dim, diag, u):
        lo = -0.9 / max(dim - 1, 1)
        offdiag = diag * max(u, lo)
        spec = EquicorrelatedSpec(dim=dim, diag=diag, offdiag=offdiag)
        inv = equicorrelated_inverse(spec)
        sigma = equicorrelated_matrix(spec)
        np.testing.assert_allclose(
            inv.entries @ sigma.entries, np.eye(dim), atol=1e-10
        )

    def test_positive_equicorrelation_predicate(self):
        assert EquicorrelatedSpec(3, 2.0, 1.0).has_positive_equicorrelation()
        assert not EquicorrelatedSpec(3, 2.0, -0.1).has_positive_equicorrelation()
        assert not EquicorrelatedSpec(3, 2.0, 2.5).has_positive_equicorrelation()


# --- truncated normal CDF -------------------------------------------------------


class TestTnCdf:
    def test_untruncated_median(self):
        spec = TruncatedNormalSpec(mu=0.0, var=1.0)
        assert tn_cdf(spec, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_symmetric_truncation_median(self):
        spec = TruncatedNormalSpec(mu=0.0, var=1.0, lower=-1.96, upper=1.96)
        assert tn_cdf(spec, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_half_normal_against_quadrature(self):
        # independent oracle: adaptive quadrature of the half-normal density
        spec = TruncatedNormalSpec(mu=0.0, var=1.0, lower=0.0, upper=INF)
        num, _ = quad(norm.pdf, 0.0, 1.0)
        den, _ = quad(norm.pdf, 0.0, 10.0)  # mass above 10 is ~0 at quad precision
        expected = num / den
        assert expected == pytest.approx(0.6826894921370859, abs=1e-9)
        assert tn_cdf(spec, 1.0) == pytest.approx(expected, abs=1e-10)
        assert tn_cdf(spec, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)

    def test_clamps_outside_window(self):
        spec = TruncatedNormalSpec(mu=0.0, var=1.0, lower=-1.0, upper=1.0)
        assert tn_cdf(spec, -2.0) == 0.0
        assert tn_cdf(spec, -1.0) == 0.0
        assert tn_cdf(spec, 1.0) == 1.0
        assert tn_cdf(spec, 5.0) == 1.0

    @staticmethod
    def _mp_survival(z):
        import mpmath as mp

        return mp.erfc(mp.mpf(z) / mp.sqrt(2)) / 2

    def test_deep_right_tail_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        lo, hi, x = 20.0, 21.0, 20.5
        spec = TruncatedNormalSpec(mu=0.0, var=1.0, lower=lo, upper=hi)
        num = self._mp_survival(lo) - self._mp_survival(x)
        den = self._mp_survival(lo) - self._mp_survival(hi)
        expected = float(num / den)
        assert tn_cdf(spec, x) == pytest.approx(expected, rel=1e-9)

    def test_deep_left_tail_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        lo, hi, x = -26.0, -24.0, -25.0
        spec = TruncatedNormalSpec(mu=0.0, var=1.0, lower=lo, upper=hi)
        expected = float((mp.ncdf(x) - mp.ncdf(lo)) / (mp.ncdf(hi) - mp.ncdf(lo)))
        assert tn_cdf(spec, x) == pytest.approx(expected, rel=1e-9)

    def test_degenerate_window_raises(self):
        # window mass ~ exp(-765), below the exp(-740) representability floor
        spec = TruncatedNormalSpec(mu=0.0, var=1.0, lower=39.0, upper=40.0)
        with pytest.raises(DegenerateWindowError):
            tn_cdf(spec, 39.5)

    def test_nondecreasing_in_x(self):
        spec = TruncatedNormalSpec(mu=0.3, var=2.0, lower=-1.0, upper=2.5)
        xs = np.linspace(-1.5, 3.0, 201)
        vals = [tn_cdf(spec, float(x)) for x in xs]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_strictly_decreasing_in_mu(self):
        mus = np.linspace(-3.0, 3.0, 61)
        vals = [
            tn_cdf(TruncatedNormalSpec(mu=float(m), var=1.5, lower=-1.0, upper=2.0), 0.7)
            for m in mus
        ]
        assert np.all(np.diff(vals) < 0)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=-6.0, max_value=6.0),
        width=st.floats(min_value=1e-3, max_value=8.0),
    )
    def test_window_mass_matches_direct_difference(self, a, width):
        # the naive CDF difference is a valid oracle only where it does not
        # itself cancel: require the mass to dominate float noise in the CDFs
        from hypothesis import assume

        from condid.gaussian import _window_log_mass

        b = a + width
        direct = norm.cdf(b) - norm.cdf(a)
        assume(direct > 1e-6)
        assert math.exp(float(_window_log_mass(a, b))) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize(
        "zlo, zhi, zx",
        [
            (-INF, -30.0, -30.2),  # deep left tail, one-sided
            (-38.0, -37.0, -37.9),  # deep left tail, bounded
            (30.0, INF, 30.01),  # deep right tail, one-sided
            (35.0, 35.5, 35.1),  # deep right tail, bounded
            (-1.0, 1.0, 0.3),  # body
            (2.0, 2.0 + 1e-6, 2.0 + 3e-7),  # narrow window
        ],
    )
    def test_matches_scipy_truncnorm_in_both_tails(self, zlo, zhi, zx):
        # window and evaluation point in standard units about the mean
        for mu, sd in ((0.0, 1.0), (-2.5, 0.7), (3.0, 2.0)):
            lower, upper, x = (mu + z * sd for z in (zlo, zhi, zx))
            spec = TruncatedNormalSpec(mu=mu, var=sd * sd, lower=lower, upper=upper)
            expected = truncnorm_cdf(x, mu, sd, lower, upper)
            assert tn_cdf(spec, x) == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TruncatedNormalSpec(mu=0.0, var=0.0)
        with pytest.raises(ValueError):
            TruncatedNormalSpec(mu=0.0, var=1.0, lower=1.0, upper=1.0)
        with pytest.raises(ValueError):
            TruncatedNormalSpec(mu=0.0, var=1.0, lower=2.0, upper=-2.0)
        with pytest.raises(ValueError):
            TruncatedNormalSpec(mu=math.nan, var=1.0)


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
        spec = TruncatedNormalSpec(mu=mu, var=1.0, lower=0.0, upper=2.0)
        assert tn_cdf(spec, 0.5) == pytest.approx(0.5, abs=1e-8)

    def test_quantile_endpoints_are_ordered(self):
        hi_target, lo_target = solve_tn_quantiles(0.5, 1.0, 0.0, 2.0, (0.975, 0.025))
        assert hi_target < lo_target

    def test_no_bracket_near_window_edge(self):
        with pytest.raises(UnboundedEstimateError) as err:
            quantile_unbiased_estimate(scalar_law(1e-12, 1.0, 0.0, 1.0), 0.025)
        assert err.value.side == -1

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
    def test_warm_start_statuses_follow_the_search_edge(self, max_radius):
        # the bracket opens at -ndtri(target), which lies beyond +-5 for the
        # extreme targets; statuses must still come from the CDF at the
        # search edge, and converged roots must meet their targets
        windows = self.WINDOWS + [
            (0.0, 1.0, 0.0, INF), (0.0, 1.0, -INF, 0.0), (2.0, 0.5, 2.0, 2.0 + 1e-9)
        ]
        obs, sd, lower, upper = (np.array(col) for col in zip(*windows))
        seen = set()
        for target in (1e-300, 1e-16, 0.025, 0.5, 0.975, 1.0 - 1e-16):
            mu, status = solve_tn_mean_bulk(obs, sd, lower, upper, target, max_radius=max_radius)
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
        # every solve of 450 simulated replications in six cells, about
        # 10 000 (window, target) elements; a cold +-1 bracket needs 10.6
        # CDF evaluations per element on these, Chandrupatla's method from
        # a warm bracket about 8.1, the Halley steps about 3.4.  The count
        # goes through the kernel the solve calls, so at least one
        # evaluation per element shows that it counted anything at all
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
        assert counts["elements"] <= counts["evaluations"] <= 5 * counts["elements"]

    @pytest.mark.parametrize("side", [-1, 1])
    def test_observed_on_window_edge_is_unbounded(self, side):
        # the CDF at the lower (upper) edge is 0 (1) under every mean
        observed = 0.0 if side < 0 else 2.0
        mu, status = solve_tn_mean_bulk(observed, 1.0, 0.0, 2.0, 0.5)
        assert int(status) == side and float(mu) == side * INF
        with pytest.raises(UnboundedEstimateError) as err:
            quantile_unbiased_estimate(scalar_law(observed, 1.0, 0.0, 2.0), 0.5)
        assert err.value.side == side

    def test_zero_width_window_is_reported_at_once(self):
        # the CDF of a zero-width window is NaN under every mean, so no step
        # settles it and none reaches an edge status
        mu, status = solve_tn_mean_bulk(np.array([0.0, 0.5]), 1.0, 0.0, np.array([0.0, 2.0]), 0.3)
        assert status.tolist() == [2, 0] and math.isnan(mu[0])

    def test_exhausted_budget_is_reported(self, monkeypatch):
        mu, status = solve_tn_mean_bulk(0.5, 1.0, 0.0, 2.0, 0.3, max_iter=1)
        assert int(status) == 2 and math.isnan(float(mu))
        monkeypatch.setattr(
            gaussian, "solve_tn_mean_bulk", functools.partial(solve_tn_mean_bulk, max_iter=1)
        )
        with pytest.raises(NoConvergenceError):
            quantile_unbiased_estimate(scalar_law(0.5, 1.0, 0.0, 2.0), 0.3)
        # one unconverged solve fails the whole call; unbounded ones, which
        # never iterate, still come back as -inf / +inf
        with pytest.raises(NoConvergenceError, match="1 truncated-normal"):
            solve_tn_quantiles(
                np.array([0.5, 0.0, 2.0]), np.ones(3), np.zeros(3), np.full(3, 2.0), (0.3,)
            )
        mu = solve_tn_quantiles(
            np.array([0.0, 2.0]), np.ones(2), np.zeros(2), np.full(2, 2.0), (0.3,)
        )
        assert mu[:, 0].tolist() == [-INF, INF]

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
        with pytest.raises(ValueError):
            scalar_law(3.0, 1.0, 0.0, 2.0)  # observed outside window
        for target in (0.0, 1.0):
            with pytest.raises(ValueError):
                quantile_unbiased_estimate(scalar_law(0.5, 1.0, 0.0, 2.0), target)
        with pytest.raises(ValueError):
            scalar_law(0.5, -1.0, 0.0, 2.0)

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
        spec = TruncatedNormalSpec(mu=mu, var=sd * sd, lower=lower, upper=upper)
        target = tn_cdf(spec, x)
        if not (1e-12 < target < 1.0 - 1e-12):
            return
        recovered = quantile_unbiased_estimate(scalar_law(x, sd * sd, lower, upper), target)
        assert recovered == pytest.approx(mu, abs=1e-6 * max(1.0, abs(mu)) + 1e-6)


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
            sizes.append(np.size(args[0]))
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
            calls.append(args[4].tolist())
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

    def test_longer_bound_array_rejected(self):
        with pytest.raises(ValueError, match=r"\[\(2,\), \(2,\), \(3,\), \(2,\)\]"):
            solve_tn_quantiles(
                np.array([0.5, 1.0]), np.ones(2), np.zeros(3), np.full(2, 2.0), (0.5,)
            )


# --- multivariate normal sampling -------------------------------------------------


class TestMvnSample:
    def test_deterministic_for_fixed_seed(self):
        cov = CovarianceMatrix(np.eye(3))
        a = mvn_sample(np.zeros(3), cov, np.random.default_rng(42))
        b = mvn_sample(np.zeros(3), cov, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_within_clt_bound(self):
        rng = np.random.default_rng(5)
        mean = np.array([1.0, -2.0, 0.5])
        cov = CovarianceMatrix(
            [[2.0, 0.6, 0.3], [0.6, 1.5, 0.4], [0.3, 0.4, 1.0]]
        )
        n = 100_000
        chol = cov.cholesky()
        draws = mean + rng.standard_normal((n, 3)) @ chol.T
        # identical construction to mvn_sample, vectorized for speed; spot
        # check a few single draws agree with the one-at-a-time API
        rng2 = np.random.default_rng(5)
        for i in range(3):
            np.testing.assert_allclose(mvn_sample(mean, cov, rng2), draws[i], atol=1e-12)
        bound = 4.0 * np.sqrt(np.diag(cov.entries) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < bound)
        sample_cov = np.cov(draws, rowvar=False)
        rel = np.linalg.norm(sample_cov - cov.entries) / np.linalg.norm(cov.entries)
        assert rel < 0.05

    def test_dimension_mismatch(self):
        cov = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            mvn_sample(np.zeros(3), cov, np.random.default_rng(0))

    def test_cholesky_failure_on_raw_non_pd(self):
        with pytest.raises(CholeskyError):
            mvn_sample(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.random.default_rng(0))
