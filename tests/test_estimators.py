"""Tests for the conditional inference core."""

import math

import numpy as np
import pytest

from condid.errors import (
    ConstraintViolatedError,
    InvalidArgumentError,
    RankDeficientError,
    ZeroContrastError,
)
from condid.estimators import (
    analyze,
    adjustment_weights,
    condition_contrast,
    conditional_ci,
    conditional_quantiles,
    efficient_estimator,
    eta_gamma,
    quantile_unbiased_estimate,
)
from condid.event_study import EstimateBundle, coefficients
from condid.gaussian import CovarianceMatrix
from condid.pretest import ALPHA, PolyhedralConstraint, build_ns_polyhedron, critical_value, ns_event
from condid.simulation import SimConfig, _fast_cell_draws

from _oracles import (
    DegenerateAcceptanceError,
    EquicorrelatedSpec,
    conditional_moment_oracle,
    contrast_decomposition,
    equicorrelated_matrix,
)

INF = math.inf


def make_bundle(beta_post, beta_pre, sigma):
    return EstimateBundle(
        beta_post=float(beta_post),
        beta_pre=np.asarray(beta_pre, dtype=float),
        sigma=sigma,
    )


def repeated_cross_section_sigma(k, v=0.008):
    """The (K+1)-dim covariance with diagonal 2v and off-diagonal v."""
    return equicorrelated_matrix(EquicorrelatedSpec(dim=k + 1, diag=2 * v, offdiag=v))


def random_pd_sigma(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return CovarianceMatrix(scale * (a @ a.T + dim * np.eye(dim)))


def rectangle_constraint(lo, hi):
    """l_j <= beta_pre_j <= u_j as a polyhedron over (post, pre)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k = lo.shape[0]
    eye = np.eye(k)
    zeros = np.zeros((k, 1))
    a = np.block([[zeros, eye], [zeros, -eye]])
    b = np.concatenate([hi, -lo])
    return PolyhedralConstraint(a_matrix=a, b_vector=b)


class TestEfficientEstimator:
    def test_uncorrelated_blocks_reduce_to_traditional(self):
        sigma = CovarianceMatrix(np.diag([2.0, 1.0, 1.5]))
        bundle = make_bundle(0.7, [0.3, -0.2], sigma)
        est, var = efficient_estimator(bundle)
        assert est == pytest.approx(0.7, abs=1e-14)
        assert var == pytest.approx(2.0, abs=1e-14)

    def test_k1_weights_and_published_se(self):
        # diag 2v, offdiag v: weight 1/2, variance 1.5 v; sqrt(2v)=0.127 -> SE 0.110
        v = 0.127**2 / 2.0
        sigma = repeated_cross_section_sigma(1, v)
        bundle = make_bundle(0.2, [0.1], sigma)
        est, var = efficient_estimator(bundle)
        assert est == pytest.approx(0.2 - 0.5 * 0.1, abs=1e-12)
        assert var == pytest.approx(1.5 * v, rel=1e-12)
        assert math.sqrt(var) == pytest.approx(0.110, abs=5e-4)

    def test_k8_equal_weights_and_published_se(self):
        v = 0.127**2 / 2.0
        sigma = repeated_cross_section_sigma(8, v)
        w = adjustment_weights(sigma)
        np.testing.assert_allclose(w, np.full(8, 1.0 / 9.0), atol=1e-12)
        bundle = make_bundle(0.0, np.zeros(8), sigma)
        _, var = efficient_estimator(bundle)
        assert var == pytest.approx(v * 10.0 / 9.0, rel=1e-12)
        assert math.sqrt(var) == pytest.approx(0.094, abs=8e-4)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            sigma = random_pd_sigma(rng, k + 1)
            bundle = make_bundle(rng.standard_normal(), rng.standard_normal(k), sigma)
            est, _ = efficient_estimator(bundle)
            w = adjustment_weights(sigma)
            recomposed = est + float(w @ bundle.beta_pre)
            assert abs(recomposed - bundle.beta_post) <= 1e-12 * max(
                1.0, abs(bundle.beta_post)
            )

    def test_adjustment_is_constant_positive_under_equicorrelation(self):
        # positively equicorrelated covariance: all weights equal and > 0
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            diag = float(rng.uniform(0.5, 3.0))
            off = float(rng.uniform(0.05, 0.95)) * diag
            sigma = equicorrelated_matrix(EquicorrelatedSpec(k + 1, diag, off))
            w = adjustment_weights(sigma)
            assert np.all(w > 0)
            np.testing.assert_allclose(w, w[0], rtol=1e-10)

    @pytest.mark.xfail(strict=True, reason="Sigma11 - Sigma12 w cancels when the pre block "
                       "is nearly rank one: 1.75 for 1.923 at v0 = 1e15")
    def test_a_dominant_reference_period_keeps_the_variance(self):
        # Sigma = v0 11' + diag(v), as estimate_event_study builds it, where
        # one outlying outcome in period 0 makes v0 dwarf every other v: the
        # adjusted variance is v_post + v0 / (1 + v0 sum(1 / v_pre)), near
        # v_post + 1 / sum(1 / v_pre), whatever v0.  Near 1e15 the variance
        # can also come out negative, or the pre block be refused as singular
        v = np.array([1.0, 2.0, 3.0, 4.0])  # (post, -1, -2, -3)
        for v0 in (1e9, 1e12, 1e15):
            bundle = make_bundle(0.0, np.zeros(3), CovarianceMatrix(v0 + np.diag(v)))
            _, var = efficient_estimator(bundle)
            exact = v[0] + v0 / (1.0 + v0 * np.sum(1.0 / v[1:]))
            assert var == pytest.approx(exact, rel=1e-10), v0


class TestConditionContrast:
    def test_efficient_contrast_is_untruncated(self):
        # eta = (1, -w): Sigma @ eta is proportional to e1, so the pretest
        # rows are orthogonal to c and no truncation occurs
        sigma = repeated_cross_section_sigma(2)
        w = adjustment_weights(sigma)
        eta = np.concatenate(([1.0], -w))
        bundle = make_bundle(0.05, [0.01, -0.02], sigma)
        constraint = build_ns_polyhedron(sigma, 0.05)
        law = condition_contrast(bundle, eta, constraint)
        assert law.lower == -INF
        assert law.upper == INF

    def test_k1_hand_algebra(self):
        v = 0.008
        sigma = CovarianceMatrix(np.array([[2 * v, v], [v, 2 * v]]))
        bundle = make_bundle(0.03, [0.05], sigma)
        constraint = build_ns_polyhedron(sigma, 0.05)
        eta = np.array([1.0, 0.0])
        law = condition_contrast(bundle, eta, constraint)
        c, _ = contrast_decomposition(bundle, eta)
        # c = (1, 1/2); Z_pre = beta_pre - beta_post / 2; the two rows
        # rearrange to (-b - Z)/0.5 <= x <= (b - Z)/0.5
        b = critical_value(0.05) * math.sqrt(2 * v)
        z1 = 0.05 - 0.5 * 0.03
        assert c[1] == pytest.approx(0.5, abs=1e-14)
        assert law.lower == pytest.approx((-b - z1) / 0.5, rel=1e-12)
        assert law.upper == pytest.approx((b - z1) / 0.5, rel=1e-12)

    def test_grid_scan_oracle(self):
        rng = np.random.default_rng(11)
        step = 0.02
        n_instances = 0
        while n_instances < 100:
            k = int(rng.integers(1, 4))
            sigma = random_pd_sigma(rng, k + 1, scale=1.0)
            constraint = build_ns_polyhedron(sigma, 0.05)
            bundle = _accepted_bundle(rng, np.zeros(k + 1), sigma, constraint)
            eta = rng.standard_normal(k + 1)
            if np.linalg.norm(eta) < 0.1:
                continue
            law = condition_contrast(bundle, eta, constraint)
            sd = law.sd
            grid = law.observed + np.arange(-12.0, 12.0 + step, step) * sd
            a, b = constraint.a_matrix, constraint.b_vector
            c, z = contrast_decomposition(bundle, eta)
            vals = z[None, :] + grid[:, None] * c[None, :]
            feasible = np.all(vals @ a.T <= b + 1e-12, axis=1)
            assert feasible.any()
            lo_grid = grid[feasible][0]
            hi_grid = grid[feasible][-1]
            tol = step * sd + 1e-9
            assert lo_grid >= law.lower - tol
            assert lo_grid <= max(law.lower, grid[0]) + tol
            assert hi_grid <= law.upper + tol
            assert hi_grid >= min(law.upper, grid[-1]) - tol
            n_instances += 1

    def test_grid_scan_oracle_general_polyhedra(self):
        # random constraints with weight on every coordinate, including post
        rng = np.random.default_rng(118)
        step = 0.02
        for _ in range(60):
            k = int(rng.integers(1, 4))
            sigma = random_pd_sigma(rng, k + 1, scale=0.5)
            beta = np.linalg.cholesky(sigma.entries) @ rng.standard_normal(k + 1)
            m = int(rng.integers(2, 7))
            a = rng.standard_normal((m, k + 1))
            slack = rng.uniform(0.05, 2.0, size=m)
            constraint = PolyhedralConstraint(a_matrix=a, b_vector=a @ beta + slack)
            bundle = EstimateBundle(beta_post=float(beta[0]), beta_pre=beta[1:], sigma=sigma)
            eta = rng.standard_normal(k + 1)
            if np.linalg.norm(eta) < 0.1:
                continue
            law = condition_contrast(bundle, eta, constraint)
            assert law.lower <= law.observed <= law.upper
            sd = law.sd
            grid = law.observed + np.arange(-15.0, 15.0 + step, step) * sd
            c, z = contrast_decomposition(bundle, eta)
            vals = z[None, :] + grid[:, None] * c[None, :]
            feasible = np.all(vals @ a.T <= constraint.b_vector + 1e-10, axis=1)
            assert feasible.any()
            lo_grid, hi_grid = grid[feasible][0], grid[feasible][-1]
            tol = step * sd + 1e-9
            assert lo_grid >= law.lower - tol
            assert lo_grid <= max(law.lower, grid[0]) + tol
            assert hi_grid <= law.upper + tol
            assert hi_grid >= min(law.upper, grid[-1]) - tol
            # feasibility is contiguous along the slice (the set is an interval)
            idx = np.flatnonzero(feasible)
            assert np.all(np.diff(idx) == 1)

    def test_accepted_draws_sit_inside_their_window(self):
        # consistency of the truncation with the conditioning event
        rng = np.random.default_rng(92)
        for _ in range(200):
            k = int(rng.integers(1, 4))
            sigma = random_pd_sigma(rng, k + 1, scale=0.5)
            constraint = build_ns_polyhedron(sigma, 0.05)
            bundle = _accepted_bundle(rng, np.zeros(k + 1), sigma, constraint)
            eta = rng.standard_normal(k + 1)
            if np.linalg.norm(eta) < 1e-6:
                continue
            raw_observed = float(eta @ bundle.beta)
            law = condition_contrast(bundle, eta, constraint)
            assert law.lower <= law.observed <= law.upper
            slack = 1e-9 * max(1.0, abs(raw_observed))
            assert law.lower - slack <= raw_observed <= law.upper + slack

    def test_rejects_violating_bundle(self):
        sigma = repeated_cross_section_sigma(1)
        bundle = make_bundle(0.0, [5.0], sigma)  # wildly significant pre-trend
        constraint = build_ns_polyhedron(sigma, 0.05)
        with pytest.raises(ConstraintViolatedError):
            condition_contrast(bundle, np.array([1.0, 0.0]), constraint)

    def test_rejects_zero_contrast(self):
        sigma = repeated_cross_section_sigma(1)
        bundle = make_bundle(0.0, [0.0], sigma)
        constraint = build_ns_polyhedron(sigma, 0.05)
        with pytest.raises(ZeroContrastError):
            condition_contrast(bundle, np.zeros(2), constraint)


def _accepted_bundle(rng, mean, sigma, constraint, max_tries=10_000):
    """Rejection-sample one coefficient vector satisfying the constraint."""
    chol = np.linalg.cholesky(sigma.entries)
    for _ in range(max_tries):
        beta = np.asarray(mean) + chol @ rng.standard_normal(sigma.dim)
        if constraint.holds_at(beta):
            return EstimateBundle(beta_post=float(beta[0]), beta_pre=beta[1:], sigma=sigma)
    raise AssertionError("could not sample an accepted draw")


class TestQuantileSolves:
    def _law(self, observed=0.4, k=1):
        sigma = repeated_cross_section_sigma(k)
        constraint = build_ns_polyhedron(sigma, 0.05)
        bundle = make_bundle(observed, np.zeros(k), sigma)
        return condition_contrast(bundle, np.eye(k + 1)[0], constraint)

    def test_untruncated_median_equals_observed(self):
        sigma = repeated_cross_section_sigma(2)
        w = adjustment_weights(sigma)
        eta = np.concatenate(([1.0], -w))
        bundle = make_bundle(0.07, [0.01, 0.0], sigma)
        law = condition_contrast(bundle, eta, build_ns_polyhedron(sigma, 0.05))
        est = quantile_unbiased_estimate(law, 0.5)
        assert est == pytest.approx(law.observed, abs=1e-7)

    def test_untruncated_ci_reduces_to_wald(self):
        sigma = repeated_cross_section_sigma(2)
        w = adjustment_weights(sigma)
        eta = np.concatenate(([1.0], -w))
        bundle = make_bundle(0.07, [0.01, 0.0], sigma)
        law = condition_contrast(bundle, eta, build_ns_polyhedron(sigma, 0.05))
        lo, hi = conditional_ci(law, 0.05)
        half = critical_value(0.05) * law.sd
        assert lo == pytest.approx(law.observed - half, abs=1e-6)
        assert hi == pytest.approx(law.observed + half, abs=1e-6)

    def test_median_estimate_inside_its_ci(self):
        law = self._law(observed=0.1)
        est = quantile_unbiased_estimate(law, 0.5)
        lo, hi = conditional_ci(law, 0.05)
        assert lo <= est <= hi

    def test_unbounded_estimate_is_an_infinity(self):
        # observed essentially on the lower window edge: the solve diverges
        from condid.estimators import ConditionalLaw

        law = ConditionalLaw(
            observed=1e-13,
            sd=math.sqrt(0.012),
            lower=0.0,
            upper=0.4,
        )
        assert quantile_unbiased_estimate(law, 0.025) == -INF
        # the interval reports the same root as an infinite endpoint
        lo, hi = conditional_ci(law, 0.05)
        assert lo == -INF or math.isfinite(lo)
        assert hi == -INF

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1e-17, math.nan])
    def test_ci_refuses_alpha_by_the_critical_value_rule(self, alpha):
        # 1 - 1e-17/2 rounds to 1.0: the interval's lower target would be 1
        with pytest.raises(InvalidArgumentError, match=f"^alpha must lie strictly inside .* {alpha}$"):
            conditional_ci(self._law(), alpha)

    def test_ci_endpoint_monotone_in_alpha(self):
        law = self._law(observed=0.15)
        lo90, hi90 = conditional_ci(law, 0.10)
        lo95, hi95 = conditional_ci(law, 0.05)
        assert lo95 <= lo90 <= hi90 <= hi95


class TestEtaGamma:
    def test_k1_p1_is_one_one(self):
        np.testing.assert_allclose(eta_gamma(1, 1), [1.0, 1.0], atol=1e-12)

    def test_linear_trend_cancels(self):
        eta = eta_gamma(1, 1)
        delta = 0.065
        beta = np.array([delta, -delta])  # (post, -1) under a pure linear trend
        assert eta @ beta == pytest.approx(0.0, abs=1e-14)

    def test_zero_pre_coefficients_leave_post_alone(self):
        for k, p in [(1, 1), (3, 2), (5, 3)]:
            eta = eta_gamma(k, p)
            beta = np.concatenate(([0.42], np.zeros(k)))
            assert eta @ beta == pytest.approx(0.42, abs=1e-14)

    def test_matches_polyfit_extrapolation_oracle(self):
        # independent oracle: least-squares polynomial through (0, 0) and
        # (-j, beta_-j), evaluated at t = 1
        rng = np.random.default_rng(17)
        for k, p in [(4, 1), (4, 2), (5, 3), (3, 1)]:
            beta_pre = rng.standard_normal(k)
            t_points = np.concatenate(([0.0], -np.arange(1.0, k + 1)))
            y_points = np.concatenate(([0.0], beta_pre))
            coeffs = np.polynomial.polynomial.polyfit(t_points, y_points, p)
            prediction = np.polynomial.polynomial.polyval(1.0, coeffs)
            eta = eta_gamma(k, p)
            beta = np.concatenate(([0.0], beta_pre))
            assert eta @ beta == pytest.approx(-prediction, abs=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_polynomial_trend_reproduced_to_zero(self, p):
        # beta_t = t^p for all t: the adjusted contrast vanishes up to the
        # least-squares rounding that test_polynomial_trends_vanish_to_the_bound states
        k = max(p, 3)
        beta = np.concatenate(([1.0], (-np.arange(1.0, k + 1)) ** p))
        eta = eta_gamma(k, p)
        assert abs(eta @ beta) < 1e-10

    @pytest.mark.parametrize("k, p", [(k, p) for k in range(1, 12) for p in range(1, k + 1)])
    def test_polynomial_trends_vanish_to_the_bound(self, k, p):
        # the docstring's bound: |eta' b| <= 1e-7 * sum_i |eta_i b_i| for every
        # trend b_t = t^q, 1 <= q <= p (measured worst 9.5e-8, at K = p = 11, q = 1)
        eta = eta_gamma(k, p)
        for q in range(1, p + 1):
            b = np.concatenate(([1.0], (-np.arange(1.0, k + 1)) ** q))
            assert abs(eta @ b) <= 1e-7 * (np.abs(eta) @ np.abs(b)), q

    def test_quadratic_example(self):
        beta = np.array([1.0, 1.0, 4.0, 9.0])  # t^2 at t = 1, -1, -2, -3
        eta = eta_gamma(3, 2)
        assert abs(eta @ beta) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            eta_gamma(2, 3)  # p > k
        with pytest.raises(ValueError):
            eta_gamma(2, 0)
        with pytest.raises(ValueError):
            eta_gamma(0, 1)

    @pytest.mark.parametrize("k, p, name, value", [
        (3, 1.5, "p", 1.5), (3.5, 1, "k", 3.5), (3, 1.0, "p", 1.0),
        (True, 1, "k", True), (3, True, "p", True),
    ])
    def test_non_integer_k_or_p_is_refused(self, k, p, name, value):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer, got {value}$"):
            eta_gamma(k, p)

    def test_high_order_basis_loses_rank(self):
        # full rank in exact arithmetic, not in floating point: the check is live
        assert eta_gamma(11, 11).shape == (12,)
        with pytest.raises(RankDeficientError, match="rank 12 < 13"):
            eta_gamma(12, 12)


class TestAnalyze:
    def test_passing_bundle_fills_all_blocks(self):
        sigma = repeated_cross_section_sigma(2)
        bundle = make_bundle(0.1, [0.0, 0.0], sigma)
        report = analyze(bundle)
        assert report.pretest.passed
        assert report.median_unbiased_beta is not None
        assert report.median_unbiased_gamma is not None
        blk = report.median_unbiased_beta
        assert blk.ci_lower <= blk.estimate <= blk.ci_upper
        gb = report.median_unbiased_gamma
        assert gb.ci_lower <= gb.estimate <= gb.ci_upper
        assert gb.trend_order == 1

    def test_one_bulk_solve_per_passing_dataset(self, monkeypatch):
        import condid.gaussian as gaussian

        bulk = gaussian.solve_tn_mean_bulk
        sizes = []

        def counting_bulk(*args, **kwargs):
            # the (element, target) pairs of the call: it broadcasts its arguments
            sizes.append(np.broadcast(*args).size)
            return bulk(*args, **kwargs)

        monkeypatch.setattr(gaussian, "solve_tn_mean_bulk", counting_bulk)
        sigma = repeated_cross_section_sigma(3)
        assert analyze(make_bundle(0.1, [0.01, -0.02, 0.0], sigma)).pretest.passed
        assert sizes == [6]
        sd = math.sqrt(sigma.entries[1, 1])
        assert not analyze(make_bundle(0.1, [3.0 * sd, 0.0, 0.0], sigma)).pretest.passed
        assert sizes == [6]

    def test_one_polyhedron_per_call(self, monkeypatch):
        # the verdict and the windows read one no-significance polyhedron
        built = []
        post_init = PolyhedralConstraint.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PolyhedralConstraint, "__post_init__", counting_post_init)
        sigma = repeated_cross_section_sigma(3)
        sd = math.sqrt(sigma.entries[1, 1])
        for beta_pre, passed in (([0.01, -0.02, 0.0], True), ([3.0 * sd, 0.0, 0.0], False)):
            built.clear()
            assert analyze(make_bundle(0.1, beta_pre, sigma)).pretest.passed is passed
            assert len(built) == 1

    def test_failing_bundle_reports_traditional_only(self):
        sigma = repeated_cross_section_sigma(2)
        sd = math.sqrt(sigma.entries[1, 1])
        bundle = make_bundle(0.1, [3.0 * sd, 0.0], sigma)
        report = analyze(bundle)
        assert not report.pretest.passed
        assert report.median_unbiased_beta is None
        assert report.median_unbiased_gamma is None
        assert report.traditional.se == pytest.approx(math.sqrt(sigma.sigma11))
        assert report.efficient.se < report.traditional.se

    @pytest.mark.parametrize("beta_pre_0", [0.0, 3.0], ids=["passing", "failing"])
    @pytest.mark.parametrize("trend_order", [0, 3, 9])
    def test_trend_order_checked_whatever_the_verdict(self, beta_pre_0, trend_order):
        sigma = repeated_cross_section_sigma(2)
        sd = math.sqrt(sigma.entries[1, 1])
        bundle = make_bundle(0.1, [beta_pre_0 * sd, 0.0], sigma)
        with pytest.raises(InvalidArgumentError, match=f"K=2, got {trend_order}"):
            analyze(bundle, trend_order=trend_order)

    @pytest.mark.parametrize("trend_order", [1.5, 1.0, True])
    def test_non_integer_trend_order_is_refused(self, trend_order):
        # a passing bundle; True once reached the report as "trend_order": true
        bundle = make_bundle(0.1, [0.0, 0.0], repeated_cross_section_sigma(2))
        with pytest.raises(InvalidArgumentError,
                           match=f"^trend_order must be an integer, got {trend_order}$"):
            analyze(bundle, trend_order=trend_order)

    def test_numpy_trend_order_reaches_the_report_as_an_int(self):
        bundle = make_bundle(0.1, [0.0, 0.0], repeated_cross_section_sigma(2))
        report = analyze(bundle, trend_order=np.int64(2))
        assert type(report.median_unbiased_gamma.trend_order) is int
        assert report == analyze(bundle, trend_order=2)

    def test_wald_blocks(self):
        sigma = repeated_cross_section_sigma(1)
        bundle = make_bundle(0.2, [0.0], sigma)
        report = analyze(bundle, alpha_ci=0.05)
        half = critical_value(0.05) * report.traditional.se
        assert report.traditional.ci_lower == pytest.approx(0.2 - half)
        assert report.traditional.ci_upper == pytest.approx(0.2 + half)


class TestConditionalQuantiles:
    """The conditional step that ``analyze`` and the simulator share."""

    @pytest.mark.parametrize("k", [1, 8])
    def test_a_stack_equals_its_stacks_of_one(self, k):
        config = SimConfig(reps=1, k_max=k)
        delta, v = _fast_cell_draws(config, k, 0.065, np.random.default_rng(k), 400)
        beta, v0, v_coef = coefficients(delta[:, ::-1], v[:, ::-1])
        a, b = ns_event(v0[:, None] + v_coef[:, 1:], ALPHA)
        keep = np.all(beta @ a.T <= b, axis=1)
        beta, v0, v_coef, b = beta[keep], v0[keep], v_coef[keep], b[keep]
        etas = np.stack([np.eye(k + 1)[0], eta_gamma(k, 1)])
        sigma_etas = v0[:, None] * etas.sum(axis=1)[:, None, None] + v_coef * etas[:, None, :]
        stacked = conditional_quantiles(beta, sigma_etas, etas, a, b, ALPHA)
        assert [x.shape for x in stacked] == [(len(beta), 2)] * 2 + [(len(beta), 2, 3)]
        for i in range(len(beta)):
            rows = slice(i, i + 1)
            one = conditional_quantiles(beta[rows], sigma_etas[:, rows], etas, a, b[rows], ALPHA)
            for whole, part in zip(stacked, one):
                assert whole[rows].tobytes() == part.tobytes()


class TestConditionalMomentOracle:
    def setup_method(self):
        self.rng = np.random.default_rng(2024)

    def test_symmetric_event_keeps_pre_means_at_zero(self):
        k = 3
        sigma = repeated_cross_section_sigma(k)
        constraint = build_ns_polyhedron(sigma, 0.05)
        mean, _, accept = conditional_moment_oracle(
            np.zeros(k + 1), sigma, constraint, 200_000, self.rng
        )
        se = 4.0 * np.sqrt(np.diag(sigma.entries)[1:] / (accept * 200_000))
        assert np.all(np.abs(mean[1:]) < se)

    def test_post_mean_unbiased_under_parallel_trends(self):
        k = 2
        sigma = repeated_cross_section_sigma(k)
        constraint = build_ns_polyhedron(sigma, 0.05)
        beta = np.array([0.065, 0.0, 0.0])
        mean, _, accept = conditional_moment_oracle(
            beta, sigma, constraint, 200_000, self.rng
        )
        se = 4.0 * math.sqrt(sigma.sigma11 / (accept * 200_000))
        assert mean[0] == pytest.approx(0.065, abs=se)

    def test_upward_trend_biases_post_upward(self):
        # all population pre coefficients negative: conditional mean of the
        # post coefficient exceeds the population value by >= 4 MC SEs
        k = 3
        sigma = repeated_cross_section_sigma(k)
        constraint = build_ns_polyhedron(sigma, 0.05)
        slope = 0.065
        beta = np.concatenate(([slope], -slope * np.arange(1.0, k + 1)))
        mean, cov, accept = conditional_moment_oracle(
            beta, sigma, constraint, 300_000, self.rng
        )
        n_acc = accept * 300_000
        se = math.sqrt(cov[0, 0] / n_acc)
        assert mean[0] - slope > 4.0 * se

    def test_rejects_small_reps(self):
        sigma = repeated_cross_section_sigma(1)
        constraint = build_ns_polyhedron(sigma, 0.05)
        with pytest.raises(ValueError):
            conditional_moment_oracle(np.zeros(2), sigma, constraint, 100, self.rng)

    def test_degenerate_acceptance(self):
        sigma = repeated_cross_section_sigma(1)
        con = PolyhedralConstraint(
            a_matrix=np.array([[0.0, 1.0], [0.0, -1.0]]),
            b_vector=np.array([-50.0, 60.0]),  # beta_pre <= -50: essentially never
        )
        with pytest.raises(DegenerateAcceptanceError):
            conditional_moment_oracle(np.zeros(2), sigma, con, 10_000, self.rng)


class TestDistributionalProperties:
    """Monte Carlo checks of the independence / variance statements."""

    def setup_method(self):
        self.rng = np.random.default_rng(515)

    def _draws(self, beta, sigma, n):
        chol = np.linalg.cholesky(sigma.entries)
        return np.asarray(beta) + self.rng.standard_normal((n, sigma.dim)) @ chol.T

    def test_adjusted_estimator_uncorrelated_with_pre(self):
        n = 100_000
        k = 3
        sigma = repeated_cross_section_sigma(k)
        draws = self._draws(np.zeros(k + 1), sigma, n)
        w = adjustment_weights(sigma)
        beta_tilde = draws[:, 0] - draws[:, 1:] @ w
        for j in range(k):
            r = np.corrcoef(beta_tilde, draws[:, 1 + j])[0, 1]
            assert abs(r) < 4.0 / math.sqrt(n)

    def test_conditional_post_variance_shrinks(self):
        n = 100_000
        for k in range(1, 6):
            sigma = repeated_cross_section_sigma(k)
            constraint = build_ns_polyhedron(sigma, 0.05)
            _, cov, _ = conditional_moment_oracle(
                np.zeros(k + 1), sigma, constraint, n, self.rng
            )
            assert cov[0, 0] < sigma.sigma11

    def test_conditional_adjusted_variance_matches_formula(self):
        n = 400_000
        k = 3
        sigma = repeated_cross_section_sigma(k)
        constraint = build_ns_polyhedron(sigma, 0.05)
        _, cov, _ = conditional_moment_oracle(
            np.zeros(k + 1), sigma, constraint, n, self.rng
        )
        w = adjustment_weights(sigma)
        contrast = np.concatenate(([1.0], -w))
        var_tilde = float(contrast @ cov @ contrast)
        _, var_formula = efficient_estimator(
            make_bundle(0.0, np.zeros(k), sigma)
        )
        assert var_tilde == pytest.approx(var_formula, rel=0.03)

    def test_conditional_mean_identity_independent_streams(self):
        # LHS and RHS evaluated on independent draw streams
        k = 2
        sigma = repeated_cross_section_sigma(k)
        beta_pre = np.array([-0.05, 0.08])
        beta = np.concatenate(([0.03], beta_pre))
        lo = beta_pre - np.array([0.15, 0.25])
        hi = beta_pre + np.array([0.3, 0.1])
        constraint = rectangle_constraint(lo, hi)
        n = 300_000
        mean_a, cov_a, acc_a = conditional_moment_oracle(
            beta, sigma, constraint, n, np.random.default_rng(1)
        )
        mean_b, cov_b, acc_b = conditional_moment_oracle(
            beta, sigma, constraint, n, np.random.default_rng(2)
        )
        w = adjustment_weights(sigma)
        lhs = mean_a[0]
        rhs = beta[0] + float(w @ (mean_b[1:] - beta_pre))
        se_lhs = math.sqrt(cov_a[0, 0] / (acc_a * n))
        pre_var = np.array([cov_b[1 + j, 1 + j] for j in range(k)])
        se_rhs = math.sqrt(float(w**2 @ pre_var) / (acc_b * n))
        assert abs(lhs - rhs) < 4.0 * math.hypot(se_lhs, se_rhs)

    def test_adjusted_mean_formula_any_rectangle(self):
        k = 2
        sigma = repeated_cross_section_sigma(k)
        beta_pre = np.array([0.1, -0.07])
        beta = np.concatenate(([0.02], beta_pre))
        constraint = rectangle_constraint(beta_pre - 0.2, beta_pre + 0.05)
        n = 300_000
        mean, cov, acc = conditional_moment_oracle(
            beta, sigma, constraint, n, self.rng
        )
        w = adjustment_weights(sigma)
        tilde_mean = mean[0] - float(w @ mean[1:])
        expected = beta[0] - float(w @ beta_pre)
        contrast = np.concatenate(([1.0], -w))
        se = math.sqrt(float(contrast @ cov @ contrast) / (acc * n))
        assert tilde_mean == pytest.approx(expected, abs=4.0 * se)
