"""Tests for the Monte Carlo engine."""

import functools
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from condid import gaussian
from condid.errors import NoConvergenceError, UnboundedEstimateError
from condid.estimators import (
    analyze,
    condition_contrast,
    conditional_ci,
    eta_gamma,
    quantile_unbiased_estimate,
)
from condid.event_study import EstimateBundle, estimate_event_study
from condid.pretest import build_ns_polyhedron, critical_value
from condid.simulation import (
    ReplicationRecords,
    SimConfig,
    _fast_cell_draws,
    _records_from_draws,
    rows_to_csv,
    rows_to_json,
    run_table,
    simulate_cell,
    summarize_row,
)

from _oracles import CellDraws, full_panel

INF = math.inf


class TestGenerateDgp:
    def test_null_dgp_centers_at_zero(self):
        cfg = SimConfig(trend_slope=0.0, reps=1, seed=1)
        rng = np.random.default_rng(0)
        draws = np.array(
            [_fast_cell_draws(cfg, 2, cfg.trend_slope, rng, 1)[0][0] for _ in range(4000)]
        )
        se = 4.0 * math.sqrt(2.0 / 250.0 / 4000)
        assert np.all(np.abs(draws.mean(axis=0)) < se)

    def test_trend_dgp_population_means(self):
        cfg = SimConfig(trend_slope=0.065, reps=1, seed=1)
        rng = np.random.default_rng(0)
        draws = np.array(
            [_fast_cell_draws(cfg, 2, cfg.trend_slope, rng, 1)[0][0] for _ in range(4000)]
        )
        se = 4.0 * math.sqrt(2.0 / 250.0 / 4000)
        # column order (1, 0, -1, -2): population means slope * t
        expected = 0.065 * np.array([1.0, 0.0, -1.0, -2.0])
        assert np.all(np.abs(draws.mean(axis=0) - expected) < se)

    def test_fast_and_full_paths_agree_in_distribution(self):
        # Kolmogorov-Smirnov on the post coefficient across the two paths
        n = 10_000
        cfg = SimConfig(n_per_cell=50, trend_slope=0.065, reps=1, seed=1)
        t_values = np.array([1, 0, -1])
        rng = np.random.default_rng(123)
        fast_post = np.empty(n)
        fast_se = np.empty(n)
        for i in range(n):
            delta, v = _fast_cell_draws(cfg, 1, cfg.trend_slope, rng, 1)
            bundle = CellDraws(1, cfg.n_per_cell, t_values, delta[0], v[0]).to_bundle()
            fast_post[i] = bundle.beta_post
            fast_se[i] = math.sqrt(bundle.sigma.sigma11)
        full_post = np.empty(n)
        full_se = np.empty(n)
        for i in range(n):
            bundle = estimate_event_study(full_panel(cfg, 1, cfg.trend_slope, rng))
            full_post[i] = bundle.beta_post
            full_se[i] = math.sqrt(bundle.sigma.sigma11)
        crit_1pct = 1.628 * math.sqrt(2.0 / n)
        assert ks_2samp(fast_post, full_post).statistic < crit_1pct
        assert ks_2samp(fast_se, full_se).statistic < crit_1pct


class TestEngineMatchesScalarPipeline:
    """The vectorized kernel and the public one-bundle API must agree."""

    def test_two_path_equivalence(self):
        cfg = SimConfig(reps=1, seed=0, trend_slope=0.065)
        k = 2
        rng = np.random.default_rng(88)
        delta, v = _fast_cell_draws(cfg, k, 0.065, rng, 250)
        records = _records_from_draws(cfg, k, "trend", delta, v, eta_gamma(k, 1))
        checked_accepted = 0
        for i in range(250):
            draws = CellDraws(
                k=k, n_per_cell=cfg.n_per_cell,
                t_values=np.concatenate(([1, 0], -np.arange(1, k + 1))),
                delta_mean=delta[i], delta_var=v[i],
            )
            report = analyze(draws.to_bundle(), 0.05, 0.05, 1)
            assert report.pretest.passed == bool(records.accepted[i])
            assert records.beta_post[i] == pytest.approx(
                report.traditional.estimate, abs=1e-12
            )
            assert records.se_trad[i] == pytest.approx(report.traditional.se, rel=1e-12)
            assert records.beta_tilde[i] == pytest.approx(
                report.efficient.estimate, rel=1e-10, abs=1e-12
            )
            assert records.se_eff[i] == pytest.approx(report.efficient.se, rel=1e-10)
            if report.pretest.passed:
                checked_accepted += 1
                blk = report.median_unbiased_beta
                assert records.tn_beta_est[i] == pytest.approx(blk.estimate, abs=2e-6)
                assert records.tn_beta_lo[i] == pytest.approx(blk.ci_lower, abs=2e-6)
                assert records.tn_beta_hi[i] == pytest.approx(blk.ci_upper, abs=2e-6)
                gb = report.median_unbiased_gamma
                assert records.tn_gamma_est[i] == pytest.approx(gb.estimate, abs=2e-6)
                assert records.tn_gamma_lo[i] == pytest.approx(gb.ci_lower, abs=2e-6)
                assert records.tn_gamma_hi[i] == pytest.approx(gb.ci_upper, abs=2e-6)
        assert checked_accepted > 50

        # edge inputs: K = 1, alpha_ci near 0 and 1, and a pre coefficient
        # pinned to its pretest bound, which puts the observed contrast on a
        # window edge; analyze must give exactly the one-contrast public API
        crit = critical_value(0.05)
        edge_checked = 0
        infinite = 0
        for k_edge in (1, 3):
            delta, v = _fast_cell_draws(cfg, k_edge, 0.065, rng, 20)
            bundles = [
                CellDraws(
                    k=k_edge, n_per_cell=cfg.n_per_cell,
                    t_values=np.concatenate(([1, 0], -np.arange(1, k_edge + 1))),
                    delta_mean=delta[i], delta_var=v[i],
                ).to_bundle()
                for i in range(20)
            ]
            for b in bundles[:3]:
                pinned = np.zeros(k_edge)
                pinned[0] = crit * math.sqrt(b.sigma.entries[1, 1])
                bundles.append(EstimateBundle(beta_post=b.beta_post, beta_pre=pinned,
                                              sigma=b.sigma))
            for bundle in bundles:
                constraint = build_ns_polyhedron(bundle.sigma, 0.05)
                for alpha_ci in (1e-6, 0.05, 0.999):
                    report = analyze(bundle, 0.05, alpha_ci, 1)
                    if not report.pretest.passed:
                        continue
                    for blk, eta in ((report.median_unbiased_beta, np.eye(k_edge + 1)[0]),
                                     (report.median_unbiased_gamma, eta_gamma(k_edge, 1))):
                        law = condition_contrast(bundle, eta, constraint)
                        try:
                            est = quantile_unbiased_estimate(law, 0.5)
                        except UnboundedEstimateError as exc:
                            est = math.copysign(INF, exc.side)
                        got = (blk.estimate, blk.ci_lower, blk.ci_upper,
                               blk.window_lower, blk.window_upper)
                        assert got == (est, *conditional_ci(law, alpha_ci), *law.window)
                        edge_checked += 1
                        infinite += sum(math.isinf(x) for x in got[:3])
        assert edge_checked > 100
        assert infinite > 0

    def test_accepted_draws_lie_inside_their_window(self):
        cfg = SimConfig(reps=20_000, seed=3)
        rec = simulate_cell(cfg, 3, "trend")
        acc = rec.accepted
        # estimates exist exactly on the acceptance event
        assert np.all(np.isnan(rec.tn_beta_est[~acc]))
        assert not np.any(np.isnan(rec.tn_beta_est[acc]) & np.isnan(rec.tn_beta_lo[acc]))


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        cfg = SimConfig(reps=5_000, seed=11, chunk_size=1_024)
        a = simulate_cell(cfg, 2, "trend")
        b = simulate_cell(cfg, 2, "trend")
        for name in ReplicationRecords._ARRAYS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_worker_count_does_not_change_results(self):
        base = SimConfig(reps=4_000, seed=11, chunk_size=512, workers=1)
        multi = SimConfig(reps=4_000, seed=11, chunk_size=512, workers=3)
        a = simulate_cell(base, 2, "trend")
        b = simulate_cell(multi, 2, "trend")
        for name in ReplicationRecords._ARRAYS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a = simulate_cell(SimConfig(reps=1_000, seed=1), 1, "null")
        b = simulate_cell(SimConfig(reps=1_000, seed=2), 1, "null")
        assert not np.array_equal(a.beta_post, b.beta_post)


class TestSummarizeRow:
    def _records(self, **overrides):
        n = overrides.pop("n", 3)
        base = dict(
            dgp="null",
            k=1,
            alpha_ci=0.05,
            beta_post=np.zeros(n),
            se_trad=np.full(n, 0.1),
            beta_tilde=np.zeros(n),
            se_eff=np.full(n, 0.09),
            accepted=np.ones(n, dtype=bool),
            tn_beta_est=np.zeros(n),
            tn_beta_lo=np.full(n, -0.2),
            tn_beta_hi=np.full(n, 0.2),
            tn_gamma_est=np.zeros(n),
            tn_gamma_lo=np.full(n, -0.3),
            tn_gamma_hi=np.full(n, 0.3),
        )
        base.update(overrides)
        return ReplicationRecords(**base)

    def test_single_record_yields_nan_sd_without_crash(self):
        rec = self._records(n=1)
        row = summarize_row(rec, rec, (0.0, 0.0))
        assert math.isnan(row.actual_sd_traditional)
        assert row.n_accepted == 1
        assert row.degenerate  # 1 < MIN_ACCEPTED

    def test_median_width_with_infinite_interval(self):
        rec = self._records(
            n=600,
            tn_beta_lo=np.concatenate((np.full(599, -0.2), [-INF])),
            tn_beta_hi=np.concatenate((np.full(299, 0.2), np.full(300, 0.3), [INF])),
        )
        row = summarize_row(rec, rec, (0.0, 0.0))
        assert math.isfinite(row.median_width_tn_beta)

    def test_median_width_small_example(self):
        # widths {0.4, 0.5, inf}: the median is 0.5
        widths = np.concatenate([np.full(200, 0.4), np.full(200, 0.5), np.full(200, INF)])
        rec = self._records(
            n=600,
            tn_beta_lo=np.zeros(600),
            tn_beta_hi=widths,
        )
        row = summarize_row(rec, rec, (0.0, 0.0))
        assert row.median_width_tn_beta == pytest.approx(0.5)

    def test_bias_exactly_zero_when_records_equal_truth(self):
        rec = self._records(n=640, beta_post=np.full(640, 0.5), beta_tilde=np.full(640, 0.5))
        row = summarize_row(rec, rec, (0.5, 0.0))
        assert row.bias_traditional == 0.0
        assert row.bias_efficient == 0.0

    def test_k0_row_has_nan_conditional_stats(self):
        n = 600
        nan = np.full(n, math.nan)
        rec = ReplicationRecords(
            dgp="null", k=0, alpha_ci=0.05,
            beta_post=np.random.default_rng(0).standard_normal(n) * 0.1,
            se_trad=np.full(n, 0.1),
            beta_tilde=nan.copy(), se_eff=nan.copy(),
            accepted=np.ones(n, dtype=bool),
            tn_beta_est=nan.copy(), tn_beta_lo=nan.copy(), tn_beta_hi=nan.copy(),
            tn_gamma_est=nan.copy(), tn_gamma_lo=nan.copy(), tn_gamma_hi=nan.copy(),
        )
        row = summarize_row(rec, rec, (0.0, 0.0))
        assert row.accept_prob == 1.0
        assert math.isnan(row.bias_efficient)
        assert math.isnan(row.median_tn_beta)
        assert not row.degenerate


class TestRunTable:
    def test_table1_structure_and_probability_ranges(self):
        cfg = SimConfig(reps=2_000, seed=5, k_max=3)
        rows = run_table(cfg, 1)
        assert [r.k for r in rows] == [0, 1, 2, 3]
        assert all(r.dgp == "null" for r in rows)
        for r in rows:
            assert 0.0 <= r.accept_prob <= 1.0
            assert r.n_accepted <= cfg.reps
            if not r.degenerate and r.k >= 1:
                assert 0.0 <= r.size_traditional <= 1.0

    def test_tables_3_and_4_cover_both_dgps(self):
        cfg = SimConfig(reps=1_500, seed=5, k_max=2)
        rows = run_table(cfg, 3)
        assert {r.dgp for r in rows} == {"null", "trend"}
        assert [r.k for r in rows if r.dgp == "null"] == [1, 2]

    def test_tiny_reps_flag_degenerate_not_fatal(self):
        cfg = SimConfig(reps=10, seed=5, k_max=1)
        rows = run_table(cfg, 2)
        assert any(r.degenerate for r in rows if r.k >= 1) or all(
            r.n_accepted >= 0 for r in rows
        )
        for r in rows:
            if r.degenerate:
                assert math.isnan(r.bias_traditional)
                assert r.n_accepted >= 0

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(
            gaussian, "solve_tn_mean_bulk",
            functools.partial(gaussian.solve_tn_mean_bulk, max_iter=1),
        )
        with pytest.raises(NoConvergenceError, match=r"\(null DGP, K=1\)"):
            run_table(SimConfig(reps=2_000, seed=5, k_max=2), 4)

    def test_invalid_table_id(self):
        with pytest.raises(ValueError):
            run_table(SimConfig(reps=10, seed=0), 5)

    def test_dgp_outside_table_rejected(self):
        with pytest.raises(ValueError, match="table 1 has only null rows"):
            run_table(SimConfig(reps=10, seed=0), 1, "trend")

    @pytest.mark.parametrize("field, value", [
        ("trend_slope", math.nan), ("trend_slope", INF), ("trend_slope", -INF),
        ("sigma_noise", math.nan), ("sigma_noise", INF), ("sigma_noise", 0.0),
        ("alpha_ci", 0.0), ("alpha_ci", 1.0), ("alpha_pretest", 0.0), ("alpha_pretest", 1.5),
    ])
    def test_invalid_setting_rejected_before_simulating(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_acceptance_monotone_in_k_for_trend(self):
        cfg = SimConfig(reps=30_000, seed=9, k_max=6)
        probs = []
        for k in range(1, 7):
            rec = simulate_cell(cfg, k, "trend")
            probs.append(rec.accepted.mean())
        assert all(b <= a + 0.01 for a, b in zip(probs, probs[1:]))

    def test_unconditional_se_calibration(self):
        # defaults sigma=1, N=250: mean SE of the post coefficient ~ 0.1265
        cfg = SimConfig(reps=20_000, seed=12)
        rec = simulate_cell(cfg, 1, "null")
        assert rec.se_trad.mean() == pytest.approx(0.1265, abs=0.002)


class TestSerialization:
    def test_csv_and_json_round_trip_values(self):
        import csv as _csv
        import io
        import json

        cfg = SimConfig(reps=800, seed=4, k_max=1)
        rows = run_table(cfg, 2)
        text = rows_to_csv(rows)
        parsed = list(_csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        assert float(parsed[1]["accept_prob"]) == rows[1].accept_prob
        payload = json.loads(rows_to_json(rows))
        assert payload[0]["k"] == 0
        assert payload[0]["bias_efficient"] is None  # NaN serializes as null

    def test_mc_standard_errors(self):
        cfg = SimConfig(reps=2_000, seed=6, k_max=1)
        rows = run_table(cfg, 1)
        se = rows[1].mc_standard_errors()
        assert 0.0 < se["accept_prob"] < 0.1
        assert 0.0 < se["size_traditional"] < 0.1
