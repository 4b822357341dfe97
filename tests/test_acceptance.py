"""Acceptance suite: every criterion at its stated tolerance, desk scale.

Desk scale is 100,000 replications with the default calibration (250
observations per cell, unit noise).  Each test prints one PASS/FAIL line.
Published values quoted in the expectations are reproduced within
tolerances that combine Monte Carlo error at this scale with the slack from
the unknown calibration of the original experiments.
"""

import math

import numpy as np
import pytest

from condid.estimators import (
    adjustment_weights,
    condition_contrast,
    efficient_estimator,
    eta_gamma,
)
from condid.event_study import EstimateBundle
from condid.gaussian import CovarianceMatrix
from condid import simulation
from condid.pretest import build_ns_polyhedron
from condid.simulation import SimConfig, run_table, simulate_cell

from _oracles import (
    EquicorrelatedSpec, conditional_moment_oracle, contrast_decomposition, equicorrelated_matrix,
)

DESK_REPS = 100_000
SEED = 20_250_809

# published table values (columns quoted in the criteria)
TABLE1_SIZE_TRAD = {1: 0.043, 2: 0.039, 3: 0.035, 4: 0.032,
                    5: 0.030, 6: 0.028, 7: 0.027, 8: 0.026}
TABLE1_MEAN_SE_EFF = {1: 0.110, 2: 0.103, 3: 0.100, 4: 0.098,
                      5: 0.097, 6: 0.096, 7: 0.095, 8: 0.094}
TABLE2_ACCEPT = {1: 0.920, 2: 0.780, 3: 0.578, 4: 0.352, 5: 0.168}
TABLE2_MEAN_TRAD = {1: 0.073, 2: 0.088, 3: 0.109, 4: 0.136, 5: 0.167}
TABLE2_MEAN_EFF = {1: 0.097, 2: 0.130, 3: 0.162, 4: 0.195, 5: 0.227}
TABLE4_WIDTH_TN_BETA = {
    "null": {1: 0.517, 2: 0.549, 3: 0.582, 4: 0.613, 5: 0.642},
    "trend": {1: 0.521, 2: 0.580, 3: 0.678, 4: 0.820, 5: 1.018},
}
TABLE4_WIDTH_TN_GAMMA = {
    "null": {1: 1.062, 2: 0.773, 3: 0.651, 4: 0.581, 5: 0.536},
    "trend": {1: 1.081, 2: 0.839, 3: 0.784, 4: 0.796, 5: 0.843},
}


def _report(name):
    """Print one PASS/FAIL line per criterion, even when the assert trips."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {name}: {verdict}")
            return False

    return _Ctx()


@pytest.fixture(scope="module")
def desk_cells():
    """All (DGP, K) cells at desk scale, keyed by (dgp, k)."""
    cfg = SimConfig(reps=DESK_REPS, seed=SEED, workers=2)
    return {(r.dgp, r.k): r for t in (1, 2) for r in run_table(cfg, t)}


class TestCriterion1Table1:
    def test_bias_both_estimators(self, desk_cells):
        with _report("1a table-1 bias |b| < 0.005 for both estimators, K=1..8"):
            for k in range(1, 9):
                row = desk_cells[("null", k)]
                assert abs(row.bias_traditional) < 0.005, (k, row.bias_traditional)
                assert abs(row.bias_efficient) < 0.005, (k, row.bias_efficient)

    def test_traditional_size_matches_published(self, desk_cells):
        with _report("1b table-1 traditional size within 0.006 of published"):
            for k, published in TABLE1_SIZE_TRAD.items():
                row = desk_cells[("null", k)]
                assert row.size_traditional == pytest.approx(published, abs=0.006), k

    def test_efficient_size_nominal(self, desk_cells):
        with _report("1c table-1 adjusted-estimator size 0.050 +/- 0.006"):
            for k in range(1, 9):
                row = desk_cells[("null", k)]
                assert row.size_efficient == pytest.approx(0.050, abs=0.006), k

    def test_efficient_mean_se_matches_published(self, desk_cells):
        with _report("1d table-1 adjusted-estimator mean SE within 0.004 of published"):
            for k, published in TABLE1_MEAN_SE_EFF.items():
                row = desk_cells[("null", k)]
                assert row.mean_se_efficient == pytest.approx(published, abs=0.004), k


class TestCriterion1Table1Unconditional:
    def test_k0_row(self, desk_cells):
        with _report("1e table-1 K=0 row: bias 0 +/- 0.002, size 0.050 +/- 0.005"):
            row = desk_cells[("null", 0)]
            assert abs(row.bias_traditional) < 0.002
            assert row.size_traditional == pytest.approx(0.050, abs=0.005)
            assert math.isnan(row.bias_efficient)


class TestCriterion2Table2:
    def test_acceptance_probabilities(self, desk_cells):
        with _report("2a table-2 acceptance within 0.01 of published, K=1..5"):
            for k, published in TABLE2_ACCEPT.items():
                row = desk_cells[("trend", k)]
                assert row.accept_prob == pytest.approx(published, abs=0.01), k

    def test_conditional_mean_traditional(self, desk_cells):
        with _report("2b table-2 conditional mean of the post estimate within 0.006"):
            for k, published in TABLE2_MEAN_TRAD.items():
                row = desk_cells[("trend", k)]
                mean = row.bias_traditional + 0.065
                assert mean == pytest.approx(published, abs=0.006), k

    def test_conditional_mean_efficient(self, desk_cells):
        with _report("2c table-2 conditional mean of the adjusted estimate within 0.008"):
            for k, published in TABLE2_MEAN_EFF.items():
                row = desk_cells[("trend", k)]
                mean = row.bias_efficient + 0.065
                assert mean == pytest.approx(published, abs=0.008), k

    def test_deep_k_rows_computed_and_flagged(self, desk_cells):
        with _report("2d table-2 K>=6 rows computed; K=8 degenerate at desk scale"):
            for k in (6, 7, 8):
                row = desk_cells[("trend", k)]
                assert row.n_accepted >= 0
            assert desk_cells[("trend", 8)].degenerate

    def test_k4_reject_zero(self, desk_cells):
        with _report("2e table-2 K=4: reject-zero 0.154 +/- 0.01"):
            row = desk_cells[("trend", 4)]
            assert row.reject_zero_traditional == pytest.approx(0.154, abs=0.01)


class TestCriterion3Table3:
    def test_trend_dgp_medians(self, desk_cells):
        with _report("3a table-3 trend-DGP medians: post 0.065 +/- 0.01, adjusted 0 +/- 0.01"):
            for k in range(1, 6):
                row = desk_cells[("trend", k)]
                assert row.median_tn_beta == pytest.approx(0.065, abs=0.010), k
                assert row.median_tn_gamma == pytest.approx(0.0, abs=0.010), k

    def test_null_dgp_medians(self, desk_cells):
        with _report("3b table-3 null-DGP medians both 0.000 +/- 0.005"):
            for k in range(1, 6):
                row = desk_cells[("null", k)]
                assert row.median_tn_beta == pytest.approx(0.0, abs=0.005), k
                assert row.median_tn_gamma == pytest.approx(0.0, abs=0.005), k

    def test_k2_trend_median_triple(self, desk_cells):
        with _report("3c table-3 trend K=2 medians (0.087, 0.065, 0.000) +/- 0.01"):
            row = desk_cells[("trend", 2)]
            assert row.median_traditional == pytest.approx(0.087, abs=0.01)
            assert row.median_tn_beta == pytest.approx(0.065, abs=0.01)
            assert row.median_tn_gamma == pytest.approx(0.0, abs=0.01)


class TestCriterion4Table4:
    def test_tn_rejection_nominal_all_blocks(self, desk_cells):
        with _report("4a table-4 TN rejection of the truth 0.050 +/- 0.010, all blocks"):
            for dgp in ("null", "trend"):
                for k in range(1, 6):
                    row = desk_cells[(dgp, k)]
                    assert row.tn_reject_beta_post == pytest.approx(0.050, abs=0.010), (dgp, k)
                    assert row.tn_reject_zero_gamma == pytest.approx(0.050, abs=0.010), (dgp, k)

    def test_traditional_median_width(self, desk_cells):
        with _report("4b table-4 traditional median width 0.496 +/- 0.01"):
            for dgp in ("null", "trend"):
                for k in range(1, 6):
                    row = desk_cells[(dgp, k)]
                    assert row.median_width_traditional == pytest.approx(0.496, abs=0.01), (dgp, k)

    def test_tn_median_widths_within_8_percent(self, desk_cells):
        with _report("4c table-4 TN median widths within 8% of published"):
            for dgp in ("null", "trend"):
                for k in range(1, 6):
                    row = desk_cells[(dgp, k)]
                    assert row.median_width_tn_beta == pytest.approx(
                        TABLE4_WIDTH_TN_BETA[dgp][k], rel=0.08
                    ), (dgp, k, "beta")
                    assert row.median_width_tn_gamma == pytest.approx(
                        TABLE4_WIDTH_TN_GAMMA[dgp][k], rel=0.08
                    ), (dgp, k, "gamma")


def _rcs_sigma(k, v=0.008):
    return equicorrelated_matrix(EquicorrelatedSpec(dim=k + 1, diag=2 * v, offdiag=v))


class TestCriterion5Properties:
    def test_decomposition_identity(self):
        with _report("5a decomposition: post = adjusted + weights @ pre, to 1e-12"):
            rng = np.random.default_rng(1)
            for _ in range(200):
                k = int(rng.integers(1, 9))
                a = rng.standard_normal((k + 1, k + 1))
                sigma = CovarianceMatrix(a @ a.T + (k + 1) * np.eye(k + 1))
                bundle = EstimateBundle(
                    beta_post=float(rng.standard_normal()),
                    beta_pre=rng.standard_normal(k),
                    sigma=sigma,
                )
                est, _ = efficient_estimator(bundle)
                w = adjustment_weights(sigma)
                recomposed = est + float(w @ bundle.beta_pre)
                assert abs(recomposed - bundle.beta_post) <= 1e-12 * max(
                    1.0, abs(bundle.beta_post)
                )

    def test_adjusted_estimator_orthogonal_to_pre(self):
        with _report("5b adjusted estimator uncorrelated with pre coefficients"):
            rng = np.random.default_rng(2)
            n = 100_000
            for k in (1, 4):
                sigma = _rcs_sigma(k)
                chol = np.linalg.cholesky(sigma.entries)
                draws = rng.standard_normal((n, k + 1)) @ chol.T
                w = adjustment_weights(sigma)
                tilde = draws[:, 0] - draws[:, 1:] @ w
                for j in range(k):
                    r = np.corrcoef(tilde, draws[:, 1 + j])[0, 1]
                    assert abs(r) < 4.0 / math.sqrt(n), (k, j, r)

    def test_conditional_mean_identity_independent_streams(self):
        with _report("5c conditional-mean identity on random rectangles"):
            rng = np.random.default_rng(3)
            n = 200_000
            for trial in range(3):
                k = int(rng.integers(1, 4))
                sigma = _rcs_sigma(k)
                beta_pre = rng.uniform(-0.1, 0.1, size=k)
                beta = np.concatenate(([rng.uniform(-0.1, 0.1)], beta_pre))
                lo = beta_pre - rng.uniform(0.1, 0.3, size=k)
                hi = beta_pre + rng.uniform(0.1, 0.3, size=k)
                eye = np.eye(k)
                zeros = np.zeros((k, 1))
                from condid.pretest import PolyhedralConstraint

                constraint = PolyhedralConstraint(
                    a_matrix=np.block([[zeros, eye], [zeros, -eye]]),
                    b_vector=np.concatenate([hi, -lo]),
                )
                mean_a, cov_a, acc_a = conditional_moment_oracle(
                    beta, sigma, constraint, n, np.random.default_rng(100 + trial)
                )
                mean_b, cov_b, acc_b = conditional_moment_oracle(
                    beta, sigma, constraint, n, np.random.default_rng(200 + trial)
                )
                w = adjustment_weights(sigma)
                lhs = mean_a[0]
                rhs = beta[0] + float(w @ (mean_b[1:] - beta_pre))
                se_lhs = math.sqrt(cov_a[0, 0] / (acc_a * n))
                pre_var = np.diag(cov_b)[1:]
                se_rhs = math.sqrt(float(w**2 @ pre_var) / (acc_b * n))
                assert abs(lhs - rhs) < 4.0 * math.hypot(se_lhs, se_rhs), trial

    def test_upward_trend_bias_sign(self):
        with _report("5d conditional bias strictly positive under upward trend (>= 4 SE)"):
            rng = np.random.default_rng(4)
            n = 300_000
            k = 3
            sigma = _rcs_sigma(k)
            constraint = build_ns_polyhedron(sigma, 0.05)
            slope = 0.065
            beta = np.concatenate(([slope], -slope * np.arange(1.0, k + 1)))
            mean, cov, accept = conditional_moment_oracle(beta, sigma, constraint, n, rng)
            n_acc = accept * n
            se_post = math.sqrt(cov[0, 0] / n_acc)
            assert mean[0] - slope > 4.0 * se_post
            w = adjustment_weights(sigma)
            tilde_mean = mean[0] - float(w @ mean[1:])
            contrast = np.concatenate(([1.0], -w))
            se_tilde = math.sqrt(float(contrast @ cov @ contrast) / n_acc)
            assert tilde_mean - slope > 4.0 * se_tilde

    def test_truncation_window_grid_oracle(self):
        with _report("5e truncation window equals grid-scan oracle, 100 instances"):
            rng = np.random.default_rng(5)
            step = 0.02
            n_instances = 0
            while n_instances < 100:
                k = int(rng.integers(1, 4))
                a = rng.standard_normal((k + 1, k + 1))
                sigma = CovarianceMatrix(a @ a.T + (k + 1) * np.eye(k + 1))
                constraint = build_ns_polyhedron(sigma, 0.05)
                chol = np.linalg.cholesky(sigma.entries)
                bundle = None
                for _ in range(1000):
                    draw = chol @ rng.standard_normal(k + 1)
                    if constraint.holds_at(draw):
                        bundle = EstimateBundle(
                            beta_post=float(draw[0]), beta_pre=draw[1:], sigma=sigma
                        )
                        break
                assert bundle is not None
                eta = rng.standard_normal(k + 1)
                if np.linalg.norm(eta) < 0.1:
                    continue
                law = condition_contrast(bundle, eta, constraint)
                sd = law.sd
                grid = law.observed + np.arange(-12.0, 12.0 + step, step) * sd
                c, z = contrast_decomposition(bundle, eta)
                vals = z[None, :] + grid[:, None] * c[None, :]
                feasible = np.all(
                    vals @ constraint.a_matrix.T <= constraint.b_vector + 1e-12, axis=1
                )
                assert feasible.any()
                lo_grid, hi_grid = grid[feasible][0], grid[feasible][-1]
                tol = step * sd + 1e-9
                assert lo_grid >= law.lower - tol
                assert lo_grid <= max(law.lower, grid[0]) + tol
                assert hi_grid <= law.upper + tol
                assert hi_grid >= min(law.upper, grid[-1]) - tol
                n_instances += 1

    def test_conditional_coverage_known_sigma(self):
        with _report("5f conditional coverage 0.95 +/- 0.01 for both contrasts (known sigma)"):
            cfg = SimConfig(
                reps=DESK_REPS, seed=SEED + 1, use_estimated_sigma=False, workers=2
            )
            for dgp in ("null", "trend"):
                truth_beta = 0.0 if dgp == "null" else cfg.trend_slope
                acc = simulate_cell(cfg, 3, dgp)  # records of accepted replications
                cover_beta = np.mean(
                    (acc.tn_beta_lo <= truth_beta) & (truth_beta <= acc.tn_beta_hi)
                )
                cover_gamma = np.mean((acc.tn_gamma_lo <= 0.0) & (0.0 <= acc.tn_gamma_hi))
                assert cover_beta == pytest.approx(0.95, abs=0.01), dgp
                assert cover_gamma == pytest.approx(0.95, abs=0.01), dgp

    def test_lower_quantile_bound_coverage(self):
        with _report("5g quantile bound: P(b_0.05 <= truth | pass) = 0.05 +/- 0.01"):
            # alpha_ci = 0.1 makes the upper interval endpoint the 0.05-quantile bound
            cfg = SimConfig(
                reps=DESK_REPS, seed=SEED + 2, alpha_ci=0.10,
                use_estimated_sigma=False, workers=2,
            )
            acc = simulate_cell(cfg, 3, "trend")  # records of accepted replications
            p = np.mean(acc.tn_beta_hi <= 0.065)
            assert p == pytest.approx(0.05, abs=0.01)

    def test_eta_gamma_polynomial_reproduction(self):
        with _report("5h trend contrast reproduces degree-<=P polynomials to 1e-10"):
            for p in (1, 2, 3):
                for k in range(p, 7):
                    t_pre = -np.arange(1.0, k + 1)
                    eta = eta_gamma(k, p)
                    for q in range(1, p + 1):
                        # beta_t = t^q (so the post value at t=1 is 1)
                        beta = np.concatenate(([1.0], t_pre**q))
                        assert abs(eta @ beta) < 1e-10, (k, p, q)

    def test_event_study_matches_dummy_ols(self):
        with _report("5i event-study estimator equals dummy-OLS oracle to 1e-8"):
            from test_event_study import dummy_ols_oracle, make_panel
            from condid.event_study import estimate_event_study

            rng = np.random.default_rng(6)
            for _ in range(20):
                k = int(rng.integers(1, 5))
                n = int(rng.integers(2, 21))
                slope = float(rng.normal()) * 0.3
                panel = make_panel(k, n, lambda t, d, i: slope * t * d, jitter=1.0, rng=rng)
                np.testing.assert_allclose(
                    estimate_event_study(panel).beta, dummy_ols_oracle(panel), atol=1e-8
                )


class TestCriterion6Determinism:
    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        # 20 chunks of 150 replications per cell, so that 4 and 16 workers
        # both run the cell on a process pool; a one-chunk cell runs serially
        # whatever the worker count
        monkeypatch.setattr(simulation, "CHUNK_REPS", 150)
        with _report("6 simulate output byte-identical under 1, 4, 16 workers"):
            from condid.cli import main

            outputs = []
            for workers in (1, 4, 16):
                for attempt in ("a", "b"):
                    out = tmp_path / f"w{workers}{attempt}.csv"
                    rc = main([
                        "simulate", "--table", "2", "--reps", "3000", "--seed", "99",
                        "--k-max", "2", "--workers", str(workers),
                        "--output", str(out),
                    ])
                    assert rc == 0
                    outputs.append(out.read_bytes())
            assert all(blob == outputs[0] for blob in outputs[1:])
