"""Tests for the Monte Carlo engine."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, kstest, norm

from condid import gaussian, pretest, simulation
from condid.cli import rows_to_csv, rows_to_json
from condid.errors import InvalidArgumentError, NoConvergenceError
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
    SimTableRow,
    _fast_cell_draws,
    run_table,
    simulate_cell,
    summarize_row,
)

from _oracles import CellDraws, NoMatmul, efficient_known_sigma, full_panel

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

    def test_estimated_variances_follow_their_chi_square(self):
        # v = (s2_t + s2_c) / n with each s2 ~ chi2(n - 1) / (n - 1), so
        # v n (n - 1) ~ chi2(2 (n - 1)); at n = 3 a chi-square on n degrees
        # of freedom in place of n - 1 is far out of law
        n = 3
        cfg = SimConfig(n_per_cell=n, reps=1, seed=1)
        _, v = _fast_cell_draws(cfg, 2, 0.0, np.random.default_rng(5), 5000)
        assert kstest((v * n * (n - 1)).ravel(), chi2(2 * (n - 1)).cdf).pvalue > 1e-3


class TestChunkPath:
    def test_contrasts_formed_once_per_cell(self, monkeypatch):
        # three chunks share the cell's contrasts: one eta_gamma solve per cell
        calls = []

        def counting_eta_gamma(*args):
            calls.append(args)
            return eta_gamma(*args)

        monkeypatch.setattr(simulation, "CHUNK_REPS", 500)
        monkeypatch.setattr(simulation, "eta_gamma", counting_eta_gamma)
        records = simulate_cell(SimConfig(reps=1500, k_max=2), 2, "trend")
        assert records.accepted.size == 1500
        assert calls == [(2, 1)]

    def test_chunk_path_never_reaches_matmul(self, monkeypatch):
        # the pretest verdict and both products of each window gather the
        # columns the +/-e_j event rows pick: no BLAS call wakes a BLAS thread
        config = SimConfig(reps=500, k_max=3)
        expected = simulate_cell(config, 3, "trend")

        def guarded_event(pre_var, alpha):
            a, b = pretest.ns_event(pre_var, alpha)
            return a.view(NoMatmul), b

        monkeypatch.setattr(simulation, "ns_event", guarded_event)
        records = simulate_cell(config, 3, "trend")
        assert records.tn_gamma_hi.size > 100
        for f in dataclasses.fields(records):
            got, want = getattr(records, f.name), getattr(expected, f.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name

    @pytest.mark.parametrize("dgp", ["null", "trend"])
    @pytest.mark.parametrize("k", [0, 1, 8])
    def test_blocks_of_any_size_give_the_same_bits(self, dgp, k, monkeypatch):
        # chunks of 250, 250 and 100 replications, which blocks of 3, 4, 6
        # and 7 do not divide; the trend DGP at K = 8 accepts so few that
        # most blocks hold no accepted replication; K = 0 has no contrast
        monkeypatch.setattr(simulation, "CHUNK_REPS", 250)
        config = SimConfig(reps=600, k_max=max(k, 1), seed=5)
        expected = simulate_cell(config, k, dgp)
        assert np.count_nonzero(expected.accepted) > 0
        for rows in range(1, 8):
            monkeypatch.setattr(simulation, "BLOCK_REPS", rows)
            records = simulate_cell(config, k, dgp)
            for f in dataclasses.fields(records):
                got, want = getattr(records, f.name), getattr(expected, f.name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (rows, f.name)

    def test_a_cell_where_nothing_passes_has_empty_records(self):
        # the trend DGP at K = 8 and slope 1 rejects every replication: every
        # block's arrays are empty, and so are the cell's, still float64
        config = SimConfig(reps=600, k_max=8, seed=5, trend_slope=1.0)
        records = simulate_cell(config, 8, "trend")
        assert records.accepted.shape == (600,) and not records.accepted.any()
        for f in dataclasses.fields(records):
            values = getattr(records, f.name)
            if f.name != "accepted" and isinstance(values, np.ndarray):
                assert values.shape == (0,) and values.dtype == np.float64, f.name

    def test_a_cell_holds_one_block_not_one_chunk(self):
        # a full K = 8 chunk traces about 10 MB in blocks, 4 MB of it the
        # draws; with the steps after the draws spanning the chunk, 21.3 MB
        config = SimConfig(k_max=8, reps=25_000, seed=1)
        simulate_cell(config, 8, "null")  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            simulate_cell(config, 8, "null")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14e6


class TestEngineMatchesScalarPipeline:
    """The vectorized kernel and the public one-bundle API must agree."""

    def test_two_path_equivalence(self, monkeypatch):
        cfg = SimConfig(reps=250, seed=0, trend_slope=0.065)
        k = 2
        rng = np.random.default_rng(88)
        delta, v = _fast_cell_draws(cfg, k, 0.065, rng, 250)
        # the cell's one chunk draws from a stream seeded alike, which hands
        # it these same draws
        monkeypatch.setattr(simulation, "_chunk_seed", lambda *_: np.random.SeedSequence(88))
        records = simulate_cell(cfg, k, "trend")
        # records hold the accepted replications only: the j-th stored entry
        # is the j-th accepted replication
        j = 0
        for i in range(250):
            draws = CellDraws(
                k=k, n_per_cell=cfg.n_per_cell,
                t_values=np.concatenate(([1, 0], -np.arange(1, k + 1))),
                delta_mean=delta[i], delta_var=v[i],
            )
            bundle = draws.to_bundle()
            report = analyze(bundle, 0.05, 0.05, 1)
            assert report.pretest.passed == bool(records.accepted[i])
            if not report.pretest.passed:
                continue
            assert records.beta_post[j] == pytest.approx(
                report.traditional.estimate, abs=1e-12
            )
            assert records.se_trad[j] == pytest.approx(report.traditional.se, rel=1e-12)
            assert records.beta_tilde[j] == pytest.approx(
                report.efficient.estimate, rel=1e-10, abs=1e-12
            )
            assert records.se_eff[j] == pytest.approx(report.efficient.se, rel=1e-10)
            # both paths solve the same windows: they may differ only in
            # rounding, within 1e-10 of the contrast's sd
            for name, blk, eta in (
                ("tn_beta", report.median_unbiased_beta, np.eye(k + 1)[0]),
                ("tn_gamma", report.median_unbiased_gamma, eta_gamma(k, 1)),
            ):
                sd = math.sqrt(eta @ bundle.sigma.entries @ eta)
                got = [getattr(records, f"{name}_{part}")[j] for part in ("est", "lo", "hi")]
                expected = [blk.estimate, blk.ci_lower, blk.ci_upper]
                assert got == pytest.approx(expected, abs=1e-10 * sd)
            j += 1
        # every stored number was checked, and there are plenty of them
        for f in dataclasses.fields(records):
            if f.name != "accepted" and isinstance(getattr(records, f.name), np.ndarray):
                assert getattr(records, f.name).shape == (j,), f.name
        assert j > 50

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
                        est = quantile_unbiased_estimate(law, 0.5)
                        got = (blk.estimate, blk.ci_lower, blk.ci_upper,
                               blk.window_lower, blk.window_upper)
                        assert got == (est, *conditional_ci(law, alpha_ci), law.lower, law.upper)
                        edge_checked += 1
                        infinite += sum(math.isinf(x) for x in got[:3])
        assert edge_checked > 100
        assert infinite > 0

    def test_accepted_draws_lie_inside_their_window(self):
        cfg = SimConfig(reps=20_000, seed=3)
        rec = simulate_cell(cfg, 3, "trend")
        # every array but the mask holds exactly the accepted replications,
        # and every one of them has its estimates: no NaN reaches a record
        n_accepted = np.count_nonzero(rec.accepted)
        assert rec.accepted.shape == (cfg.reps,) and 0 < n_accepted < cfg.reps
        for f in dataclasses.fields(rec):
            values = getattr(rec, f.name)
            if f.name != "accepted" and isinstance(values, np.ndarray):
                assert values.shape == (n_accepted,), f.name
                assert not np.any(np.isnan(values)), f.name


def assert_records_identical(a, b):
    for f in dataclasses.fields(ReplicationRecords):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=f.name, strict=True)
        else:
            assert x == y, f.name


class TestDeterminism:
    # small chunks, so that a few thousand replications span many chunks
    def test_same_seed_bitwise_identical(self, monkeypatch):
        monkeypatch.setattr(simulation, "CHUNK_REPS", 1_024)
        cfg = SimConfig(reps=5_000, seed=11)
        assert_records_identical(simulate_cell(cfg, 2, "trend"), simulate_cell(cfg, 2, "trend"))

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # four cells of eight chunks each, on a pool of three workers
        monkeypatch.setattr(simulation, "CHUNK_REPS", 512)
        base = SimConfig(reps=4_000, seed=11, k_max=2, workers=1)
        multi = SimConfig(reps=4_000, seed=11, k_max=2, workers=3)
        assert rows_to_csv(run_table(base, 3)) == rows_to_csv(run_table(multi, 3))

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The size of every pool built; the stub maps in this process, so no
        worker starts.  Cells of 1 200 replications span three chunks."""
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(simulation, "CHUNK_REPS", 500)
        return sizes

    def test_pool_has_no_more_workers_than_cells(self, pool_sizes):
        # one pool per table; a fork pool starts all its workers at its
        # first submit, so table 2's three cells need no more than three
        serial = rows_to_csv(run_table(SimConfig(reps=1_200, seed=3, k_max=2), 2))
        for workers in (2, 100_000):
            pooled = run_table(SimConfig(reps=1_200, seed=3, k_max=2, workers=workers), 2)
            assert rows_to_csv(pooled) == serial
        assert pool_sizes == [2, 3]

    def test_cell_runs_its_chunks_without_a_pool(self, pool_sizes):
        serial = simulate_cell(SimConfig(reps=1_200, seed=3), 1, "null")
        pooled = simulate_cell(SimConfig(reps=1_200, seed=3, workers=2), 1, "null")
        assert_records_identical(serial, pooled)
        assert pool_sizes == []

    def test_different_seeds_differ(self):
        a = simulate_cell(SimConfig(reps=1_000, seed=1), 1, "null")
        b = simulate_cell(SimConfig(reps=1_000, seed=2), 1, "null")
        assert not np.array_equal(a.beta_post, b.beta_post)


class TestSummarizeRow:
    def _records(self, **overrides):
        # n accepted replications, then ``rejected`` ones that only the mask
        # records
        n = overrides.pop("n", 3)
        rejected = overrides.pop("rejected", 0)
        base = dict(
            dgp="null",
            k=1,
            alpha_ci=0.05,
            accepted=np.arange(n + rejected) < n,
            beta_post=np.zeros(n),
            se_trad=np.full(n, 0.1),
            beta_tilde=np.zeros(n),
            se_eff=np.full(n, 0.09),
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
        row = summarize_row(rec, 0.0)
        assert math.isnan(row.actual_sd_traditional)
        assert row.n_accepted == 1
        assert row.degenerate  # 1 < MIN_ACCEPTED

    def test_statistics_run_over_the_accepted_records(self):
        rec = self._records(n=600, rejected=400, beta_post=np.full(600, 0.25))
        row = summarize_row(rec, 0.0)
        assert row.n_accepted == 600
        assert row.accept_prob == 0.6
        assert not row.degenerate
        assert row.bias_traditional == 0.25
        assert row.median_width_tn_beta == pytest.approx(0.4)

    def test_median_width_with_infinite_interval(self):
        rec = self._records(
            n=600,
            tn_beta_lo=np.concatenate((np.full(599, -0.2), [-INF])),
            tn_beta_hi=np.concatenate((np.full(299, 0.2), np.full(300, 0.3), [INF])),
        )
        row = summarize_row(rec, 0.0)
        assert math.isfinite(row.median_width_tn_beta)

    def test_median_width_small_example(self):
        # widths {0.4, 0.5, inf}: the median is 0.5
        widths = np.concatenate([np.full(200, 0.4), np.full(200, 0.5), np.full(200, INF)])
        rec = self._records(
            n=600,
            tn_beta_lo=np.zeros(600),
            tn_beta_hi=widths,
        )
        row = summarize_row(rec, 0.0)
        assert row.median_width_tn_beta == pytest.approx(0.5)

    def test_bias_exactly_zero_when_records_equal_truth(self):
        rec = self._records(n=640, beta_post=np.full(640, 0.5), beta_tilde=np.full(640, 0.5))
        row = summarize_row(rec, 0.5)
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
        row = summarize_row(rec, 0.0)
        assert row.accept_prob == 1.0
        assert math.isnan(row.bias_efficient)
        assert math.isnan(row.median_tn_beta)
        assert not row.degenerate

    def test_k0_row_with_nothing_accepted_is_degenerate(self):
        rec = self._records(k=0, n=0, rejected=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = summarize_row(rec, 0.0)
        assert row.degenerate
        assert (row.n_accepted, row.accept_prob) == (0, 0.0)
        stats = dataclasses.astuple(row)[5:]  # everything after the counts
        assert len(stats) == 20 and all(math.isnan(x) for x in stats)


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
        # one rejection rate under the two labels of the published tables
        for r in rows:
            assert r.size_traditional == r.reject_beta_post_traditional
            assert r.size_efficient == r.reject_beta_post_efficient
        # tables 3 and 4 publish different columns of the same cells
        assert run_table(cfg, 4) == rows

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
        monkeypatch.setattr(gaussian, "_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError, match=r"\(null DGP, K=1\)"):
            run_table(SimConfig(reps=2_000, seed=5, k_max=2), 4)

    def test_invalid_table_id(self):
        with pytest.raises(ValueError):
            run_table(SimConfig(reps=10, seed=0), 5)

    def test_simulate_cell_rejects_unknown_dgp_and_negative_k(self):
        cfg = SimConfig(reps=1_000)
        with pytest.raises(InvalidArgumentError, match="dgp must be 'null' or 'trend', got 'nul'"):
            simulate_cell(cfg, 1, "nul")
        with pytest.raises(InvalidArgumentError, match="k must be >= 0, got -1"):
            simulate_cell(cfg, -1, "null")

    def test_dgp_outside_table_rejected(self):
        with pytest.raises(ValueError, match="table 1 has only null rows"):
            run_table(SimConfig(reps=10, seed=0), 1, "trend")

    @pytest.mark.parametrize("field, value", [
        ("trend_slope", math.nan), ("trend_slope", INF), ("trend_slope", -INF),
        ("alpha_ci", 0.0), ("alpha_ci", 1.0), ("alpha_pretest", 0.0), ("alpha_pretest", 1.5),
        ("alpha_ci", 1e-17), ("alpha_pretest", 1e-17), ("seed", -1),
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
        # defaults sigma=1, N=250: mean SE of the post coefficient ~ 0.1265;
        # the K = 0 cell accepts every replication, so records cover them all
        cfg = SimConfig(reps=20_000, seed=12)
        rec = simulate_cell(cfg, 0, "null")
        assert rec.se_trad.mean() == pytest.approx(0.1265, abs=0.002)


class TestAdjustedEstimatorExact:
    def test_known_sigma_columns_match_their_closed_forms(self):
        # every non-degenerate K >= 1 row of both DGPs, against the exact law
        # of beta_tilde, which the pretest does not move; the four Monte Carlo
        # columns within a Bonferroni bound at familywise level 1e-3 over the
        # table's 64 comparisons, |z| <= 4.32; 20 000 reps at seed 3 gave a
        # worst |z| of 2.1 over the 56 of its 14 non-degenerate rows
        config = SimConfig(reps=20_000, seed=3, use_estimated_sigma=False)
        rows = [row for row in run_table(config, 3) if not row.degenerate]
        assert len(rows) == 14  # the trend DGP passes under 500 times at K = 7, 8
        tests = ("bias_efficient", "size_efficient", "reject_zero_efficient",
                 "actual_sd_efficient")
        bound = norm.isf(1e-3 / (2 * len(tests) * 2 * config.k_max))
        worst = 0.0
        for row in rows:
            slope = config.trend_slope if row.dgp == "trend" else 0.0
            exact = efficient_known_sigma(row.k, config.n_per_cell, slope, config.alpha_ci)
            n, sd = row.n_accepted, exact["actual_sd_efficient"]
            mc_se = {
                "bias_efficient": sd / math.sqrt(n),
                "actual_sd_efficient": sd / math.sqrt(2.0 * (n - 1)),
                **{name: math.sqrt(exact[name] * (1.0 - exact[name]) / n)
                   for name in ("size_efficient", "reject_zero_efficient")},
            }
            for name in tests:
                z = (getattr(row, name) - exact[name]) / mc_se[name]
                assert abs(z) <= bound, (row.dgp, row.k, name, z)
                worst = max(worst, abs(z))
            # every replication has the same se, so its mean is exact
            assert row.mean_se_efficient == pytest.approx(exact["mean_se_efficient"], rel=1e-12)
        assert worst > 0.0


class TestCountRange:
    """``SimConfig`` refuses a count numpy could not index, 2**63 or more,
    before any arithmetic on it.  Without the bound, ``10**400`` died in a
    float conversion with an ``OverflowError``.  An admitted huge count is
    never run here: it would draw that many chunks or columns."""

    FIELDS = ["reps", "n_per_cell", "k_max"]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [2**63, 10**400, math.nan], ids=["2**63", "10**400", "nan"])
    def test_count_at_or_above_2_63_is_refused(self, field, value):
        with pytest.raises(InvalidArgumentError, match=rf"^{field} must be >= \d and below 2\*\*63$"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field", FIELDS)
    def test_count_just_below_2_63_is_admitted(self, field):
        # slope 0: the slope rule's edge shrinks with n_per_cell and k_max
        config = SimConfig(trend_slope=0.0, **{field: 2**63 - 1})
        assert getattr(config, field) == 2**63 - 1


class TestIntegerRule:
    """Counts, the seed and K take integers, numpy's included, and nothing
    else: a bool or a float, integral or not, is refused by name.  Without
    the rule, ``n_per_cell=2.5`` wrote a table, ``seed=1.9`` gave seed 1's,
    and ``reps=1.5`` died in a ``TypeError``."""

    @pytest.mark.parametrize("field, value", [
        ("reps", 1.5), ("reps", True), ("n_per_cell", 2.5), ("n_per_cell", 250.0),
        ("k_max", 1.5), ("k_max", True), ("seed", 1.9), ("seed", False),
        ("workers", 1.5), ("workers", True),
    ])
    def test_sim_config_refuses_non_integers(self, field, value):
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be an integer, got {value}$"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("k", [1.5, 1.0, True])
    def test_simulate_cell_refuses_a_non_integer_k(self, k):
        with pytest.raises(InvalidArgumentError, match=f"^k must be an integer, got {k}$"):
            simulate_cell(SimConfig(reps=100), k, "null")

    def test_numpy_integers_are_admitted(self):
        config = SimConfig(reps=np.int64(300), k_max=np.int32(1), seed=np.uint8(3))
        records = simulate_cell(config, np.int64(1), "null")
        assert type(records.k) is int
        assert_records_identical(records, simulate_cell(SimConfig(reps=300, seed=3), 1, "null"))


class TestTrendSlopeRange:
    """``SimConfig`` admits ``|trend_slope|`` up to 2**26 noise sd over
    ``k_max + 1``, the point where rounding ``slope * t`` would take more than
    2**-27 noise sd from a draw, and nothing beyond it.

    Without the rule, the K = 0 row of table 2 at 300 replications and
    ``k_max = 1`` came out wrong with exit 0: a bias quantized to
    0.00867462158203125 at slope 1e10, 0.0 at 1e14, an ``actual_sd`` of 0.0
    at 1e16 and of inf at 1e200.
    """

    SETTINGS = [(250, 1), (2, 8)]  # (n_per_cell, k_max)

    @staticmethod
    def edge(n, k_max):
        return 2.0**26 * math.sqrt(2.0 / n) / (k_max + 1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n, k_max", SETTINGS)
    def test_slope_at_the_edge_leaves_the_unconditional_row_intact(
        self, n, k_max, sign, monkeypatch
    ):
        # key chunk streams by seed, K and chunk alone: every slope draws the
        # same normals, so the K = 0 row can only move by rounding
        monkeypatch.setattr(simulation, "_chunk_seed", lambda config, slope, k, chunk:
                            np.random.SeedSequence([config.seed, k, chunk]))
        rows = [
            run_table(SimConfig(reps=3_000, k_max=k_max, seed=3, n_per_cell=n,
                                trend_slope=slope), 2)[0]
            for slope in (0.0, sign * self.edge(n, k_max))
        ]
        noise_sd = math.sqrt(2.0 / n)
        for name in ("bias_traditional", "actual_sd_traditional", "mean_se_traditional"):
            assert abs(getattr(rows[1], name) - getattr(rows[0], name)) <= 1e-7 * noise_sd, name
        assert rows[1].size_traditional == rows[0].size_traditional

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n, k_max", SETTINGS)
    def test_slope_beyond_the_edge_is_refused(self, n, k_max, sign):
        slope = math.nextafter(sign * self.edge(n, k_max), sign * INF)
        with pytest.raises(InvalidArgumentError, match="trend_slope must be finite, with"):
            SimConfig(k_max=k_max, n_per_cell=n, trend_slope=slope)


class TestSerialization:
    def test_csv_and_json_round_trip_values(self):
        import csv as _csv
        import io

        cfg = SimConfig(reps=800, seed=4, k_max=1)
        rows = run_table(cfg, 2)
        text = rows_to_csv(rows)
        parsed = list(_csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        assert float(parsed[1]["accept_prob"]) == rows[1].accept_prob
        payload = json.loads(rows_to_json(rows))
        assert payload[0]["k"] == 0
        assert payload[0]["bias_efficient"] is None  # NaN serializes as null

    def test_writers_keep_special_values(self):
        # NaN, +-inf, -0.0 and both booleans, against the text the writers
        # have always produced
        fields = dict.fromkeys((f.name for f in dataclasses.fields(SimTableRow)), math.nan)
        fields.update(dgp="trend", k=2, n_accepted=3, accept_prob=0.1, degenerate=True,
                      bias_traditional=-0.0, mean_se_traditional=1e-05,
                      median_width_tn_beta=INF, median_width_tn_gamma=-INF)
        first = SimTableRow(**fields)
        rows = [first, dataclasses.replace(first, k=0, n_accepted=7, accept_prob=1.0,
                                           degenerate=False, bias_traditional=0.12345678901234568)]
        assert rows_to_csv(rows) == (
            "dgp,k,n_accepted,accept_prob,degenerate,bias_traditional,mean_se_traditional,"
            "actual_sd_traditional,size_traditional,reject_beta_post_traditional,"
            "reject_zero_traditional,bias_efficient,mean_se_efficient,actual_sd_efficient,"
            "size_efficient,reject_beta_post_efficient,reject_zero_efficient,"
            "median_traditional,median_tn_beta,median_tn_gamma,tn_reject_beta_post,"
            "tn_reject_zero_gamma,median_width_traditional,median_width_tn_beta,"
            "median_width_tn_gamma\n"
            "trend,2,3,0.1,true,-0.0,1e-05,"
            "nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,inf,-inf\n"
            "trend,0,7,1.0,false,0.12345678901234568,1e-05,"
            "nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,nan,inf,-inf\n"
        )
        text = rows_to_json(rows)
        assert text.startswith('[\n  {\n    "dgp": "trend",\n    "k": 2,\n') and text.endswith("]\n")
        payload = json.loads(text)
        assert [p["degenerate"] for p in payload] == [True, False]
        assert math.copysign(1.0, payload[0]["bias_traditional"]) == -1.0
        assert payload[0]["actual_sd_traditional"] is None
        assert (payload[0]["median_width_tn_beta"], payload[0]["median_width_tn_gamma"]) == (
            "inf", "-inf"
        )

    def test_mc_standard_errors(self):
        cfg = SimConfig(reps=2_000, seed=6, k_max=1)
        rows = run_table(cfg, 1)
        se = rows[1].mc_standard_errors()
        assert 0.0 < se["accept_prob"] < 0.1
        assert 0.0 < se["size_traditional"] < 0.1
