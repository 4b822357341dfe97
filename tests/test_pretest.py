"""Tests for pre-trends acceptance and its polyhedral form."""

import numpy as np
import pytest
from scipy.stats import norm

from condid.event_study import EstimateBundle
from condid.gaussian import CovarianceMatrix
from condid.pretest import build_ns_polyhedron, critical_value, passes_pretest

from _oracles import EquicorrelatedSpec, equicorrelated_matrix


def bundle_with(beta_post, beta_pre, sigma):
    return EstimateBundle(
        beta_post=beta_post, beta_pre=np.asarray(beta_pre, dtype=float), sigma=sigma
    )


def random_bundle(rng, k):
    a = rng.standard_normal((k + 1, k + 1))
    sigma = CovarianceMatrix(a @ a.T + (k + 1) * np.eye(k + 1))
    return bundle_with(rng.standard_normal(), rng.standard_normal(k) * 2.0, sigma)


class TestBuildPolyhedron:
    def test_k1_hand_computed(self):
        sigma = CovarianceMatrix([[0.016, 0.008], [0.008, 0.016]])
        con = build_ns_polyhedron(sigma, alpha=0.05)
        assert con.a_matrix.shape == (2, 2)
        np.testing.assert_array_equal(con.a_matrix[:, 0], [0.0, 0.0])
        np.testing.assert_array_equal(con.a_matrix[:, 1], [1.0, -1.0])
        # 1.959964 * sqrt(0.016) = 0.24792...
        np.testing.assert_allclose(con.b_vector, 0.24792, atol=2e-4)

    def test_k2_structure(self):
        sigma = equicorrelated_matrix(EquicorrelatedSpec(dim=3, diag=2.0, offdiag=1.0))
        con = build_ns_polyhedron(sigma, alpha=0.05)
        assert con.a_matrix.shape == (4, 3)
        np.testing.assert_array_equal(con.a_matrix[:, 0], np.zeros(4))
        np.testing.assert_array_equal(con.a_matrix[:2, 1:], np.eye(2))
        np.testing.assert_array_equal(con.a_matrix[2:, 1:], -np.eye(2))

    def test_critical_value_tracks_alpha(self):
        assert critical_value(0.05) == pytest.approx(1.959964, abs=1e-5)
        # inverse-normal oracle at alpha = 0.32
        assert critical_value(0.32) == pytest.approx(norm.ppf(0.84), abs=1e-12)
        assert critical_value(0.32) == pytest.approx(0.99446, abs=1e-4)

    def test_alpha_validation(self):
        sigma = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            build_ns_polyhedron(sigma, alpha=0.0)
        with pytest.raises(ValueError):
            build_ns_polyhedron(sigma, alpha=1.0)

    @pytest.mark.parametrize("alpha", [1e-17, 5e-324, 1.1e-16])
    def test_alpha_whose_quantile_rounds_to_one_is_rejected(self, alpha):
        # 1 - alpha/2 rounds to 1.0, whose normal quantile is infinite
        assert 1.0 - alpha / 2.0 == 1.0
        with pytest.raises(ValueError, match="level must lie strictly inside"):
            critical_value(alpha, "level")

    def test_smallest_usable_alpha_is_accepted(self):
        assert 1.0 - 1.2e-16 / 2.0 < 1.0
        assert 8.0 < critical_value(1.2e-16) < np.inf


class TestPassesPretest:
    def setup_method(self):
        self.sigma = equicorrelated_matrix(EquicorrelatedSpec(dim=3, diag=0.016, offdiag=0.008))
        self.sd = np.sqrt(0.016)

    def test_zero_pre_coefficients_pass(self):
        assert passes_pretest(bundle_with(1.0, [0.0, 0.0], self.sigma))

    def test_boundary_counts_as_pass(self):
        c = critical_value(0.05)
        b = bundle_with(0.0, [c * self.sd, 0.0], self.sigma)
        assert passes_pretest(b)

    def test_exceeding_coefficient_fails(self):
        b = bundle_with(0.0, [2.5 * self.sd, 0.0], self.sigma)
        assert not passes_pretest(b)

    def test_one_ulp_beyond_the_boundary_fails(self):
        # the verdict has no slack, unlike holds_at's default
        bound = build_ns_polyhedron(self.sigma, 0.05).b_vector[0]
        for sign in (1.0, -1.0):
            b = bundle_with(0.0, [sign * np.nextafter(bound, np.inf), 0.0], self.sigma)
            assert not passes_pretest(b)
            assert passes_pretest(bundle_with(0.0, [sign * bound, 0.0], self.sigma))

    def test_agrees_with_polyhedron_on_random_bundles(self):
        rng = np.random.default_rng(1234)
        n_checked = 0
        for _ in range(10_000):
            k = int(rng.integers(1, 5))
            bundle = random_bundle(rng, k)
            con = build_ns_polyhedron(bundle.sigma, alpha=0.05)
            assert passes_pretest(bundle, 0.05) == con.holds_at(bundle.beta)
            # the rule as stated: every |beta_j| within c times its own se
            pre_sd = np.sqrt(np.diag(bundle.sigma.entries)[1:])
            direct = np.all(np.abs(bundle.beta_pre) <= critical_value(0.05) * pre_sd)
            assert passes_pretest(bundle, 0.05) == direct
            n_checked += 1
        assert n_checked == 10_000


class TestAcceptanceProbability:
    """Acceptance rates under the trend DGP match the published column."""

    @pytest.mark.parametrize("k,published", [(1, 0.920), (4, 0.352)])
    def test_trend_dgp_acceptance(self, k, published):
        rng = np.random.default_rng(777)
        n = 100_000
        v = 2.0 / 250.0  # per-period difference-in-means variance at sigma=1, N=250
        slope = 0.065
        # draw difference-in-means directly and difference against period 0
        t_vals = np.concatenate(([1, 0], -np.arange(1, k + 1)))
        delta = rng.standard_normal((n, k + 2)) * np.sqrt(v) + slope * t_vals
        beta_pre = delta[:, 2:] - delta[:, [1]]
        sd = np.sqrt(2.0 * v)
        c = critical_value(0.05)
        accept = np.all(np.abs(beta_pre) <= c * sd, axis=1)
        assert accept.mean() == pytest.approx(published, abs=0.01)
