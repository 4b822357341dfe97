"""The paper's law, checked directly: given acceptance and a known
covariance, the pivot F(observed; true mean) of each contrast is
Uniform(0, 1), the polyhedral lemma of Lee, Sun, Sun and Taylor (2016).

Every estimate and interval the package reports rests on this law, and
coverage checks test it only through the root solve.  Here the observed
values, sds and windows are the ones the simulator and ``analyze`` hand to
``solve_tn_quantiles`` through ``estimators.conditional_quantiles``, recorded
at that call; the solve itself is replaced,
since the pivot needs no root.  Each pivot is the CDF at 0 of
TN(u, 1, window) at u = (true mean - observed) / sd, from
``gaussian._cdf_excess``; a subsample is checked against scipy.

The last test runs the solve: replication by replication, each interval of
``conditional_quantiles`` must exclude the truth exactly where the pivot,
from ``scipy.stats.truncnorm``, lies outside [alpha/2, 1 - alpha/2].
"""

import numpy as np
import pytest
from scipy.stats import kstest, truncnorm

from condid import estimators, simulation
from condid.estimators import analyze, conditional_quantiles, eta_gamma
from condid.event_study import coefficients
from condid.gaussian import _cdf_excess
from condid.pretest import ALPHA, ns_event
from condid.simulation import SimConfig, _fast_cell_draws, simulate_cell

from _oracles import CellDraws

SLOPE = 0.065
CONTRASTS = ("beta_post", "gamma")
SIM_CELLS = [(dgp, k) for dgp in ("null", "trend") for k in (1, 3, 8)]
SIM_REPS = 100_000
ANALYZE_CELLS = [(dgp, 3) for dgp in ("null", "trend")]
ANALYZE_DRAWS = 2_000
# every KS test in this file shares a family level of 1 % (Bonferroni)
LEVEL = 0.01 / (len(CONTRASTS) * (len(SIM_CELLS) + len(ANALYZE_CELLS)))


def record_laws(monkeypatch) -> list:
    """Replace ``estimators.solve_tn_quantiles``, which the conditional step
    of the simulator and of ``analyze`` calls, by a recorder of the (n, m)
    laws it is asked to solve; every call returns NaN means."""
    laws = []

    def record(observed, sd, lower, upper, targets):
        laws.append(np.stack((observed, sd, lower, upper)))
        return np.full(np.shape(observed) + (len(targets),), np.nan)

    monkeypatch.setattr(estimators, "solve_tn_quantiles", record)
    return laws


def pivots(laws: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """F(observed; truth) for stacked laws (4, ...) of observed, sd, lower
    and upper; the observed value may sit float dust outside its window."""
    observed, sd, lower, upper = laws
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zlo = np.minimum((lower - observed) / sd, 0.0)
        zhi = np.maximum((upper - observed) / sd, 0.0)
        cdf, _, _ = _cdf_excess((truth - observed) / sd, zlo, zhi, 0.0)
    return cdf


def assert_uniform(pivot: np.ndarray, laws: np.ndarray, truth: np.ndarray, label: str):
    """KS against Uniform(0, 1) per contrast, and 50 pivots against scipy."""
    undefined = np.isnan(pivot).sum(axis=0).tolist()
    assert undefined == [0, 0], f"{label}: {undefined} windows empty at the observed value"
    for j, name in enumerate(CONTRASTS):
        ks = kstest(pivot[:, j], "uniform")
        assert ks.pvalue > LEVEL, (
            f"{label} {name}: KS {ks.statistic:.4f} over {pivot.shape[0]} pivots, "
            f"p = {ks.pvalue:.2e}"
        )
    rows = np.random.default_rng(0).choice(pivot.shape[0], 50, replace=False)
    observed, sd, lower, upper = laws[:, rows]
    mean = np.broadcast_to(truth, observed.shape)
    expected = truncnorm.cdf(
        observed, (lower - mean) / sd, (upper - mean) / sd, loc=mean, scale=sd
    )
    np.testing.assert_allclose(pivot[rows], expected, rtol=1e-7, atol=1e-12)


@pytest.mark.parametrize("dgp, k", SIM_CELLS)
def test_simulator_windows_give_uniform_pivots(dgp, k, monkeypatch):
    laws = record_laws(monkeypatch)
    config = SimConfig(reps=SIM_REPS, k_max=k, seed=2024, trend_slope=SLOPE,
                       use_estimated_sigma=False)
    simulate_cell(config, k, dgp)
    laws = np.concatenate(laws, axis=1)  # (4, accepted, contrast)
    # the true post coefficient is the DGP's slope; the trend-adjusted
    # contrast is zero under both DGPs
    truth = np.array([SLOPE if dgp == "trend" else 0.0, 0.0])
    assert_uniform(pivots(laws, truth), laws, truth, f"simulator {dgp} K={k}")


@pytest.mark.parametrize("dgp, k", ANALYZE_CELLS)
def test_analyze_windows_give_uniform_pivots(dgp, k, monkeypatch):
    laws = record_laws(monkeypatch)
    slope = SLOPE if dgp == "trend" else 0.0
    config = SimConfig(reps=1, k_max=k, use_estimated_sigma=False)
    rng = np.random.default_rng(2025 + k)
    delta, v = _fast_cell_draws(config, k, slope, rng, ANALYZE_DRAWS)
    t_values = np.concatenate(([1, 0], -np.arange(1, k + 1)))
    for i in range(ANALYZE_DRAWS):
        analyze(CellDraws(k, config.n_per_cell, t_values, delta[i], v[i]).to_bundle())
    laws = np.concatenate(laws, axis=1)  # (4, accepted, contrast)
    truth = np.array([slope, 0.0])
    assert_uniform(pivots(laws, truth), laws, truth, f"analyze {dgp} K={k}")


IDENTITY_REPS = 3_000
IDENTITY_ALPHA = 0.05
# the solve stops within 1e-8 sd of its root, which moves the CDF by less
# than 1e-8: nearer a threshold than this, its tolerance decides
IDENTITY_MARGIN = 1e-6


@pytest.mark.parametrize("dgp", ["null", "trend"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_intervals_exclude_the_truth_exactly_where_its_pivot_is_outside(dgp, k, monkeypatch):
    # F(observed; mean) falls in the mean, so the 1-alpha interval holds the
    # truth exactly when alpha/2 <= F(observed; truth) <= 1 - alpha/2; here
    # that is checked replication by replication on drawn coefficients under
    # estimated covariances, with F from scipy's truncnorm on each window
    slope = SLOPE if dgp == "trend" else 0.0
    config = SimConfig(reps=IDENTITY_REPS, k_max=k, seed=7)
    delta, v = _fast_cell_draws(config, k, slope, np.random.default_rng(100 + k), IDENTITY_REPS)
    beta, v0, v_coef = coefficients(delta[:, ::-1], v[:, ::-1])
    a, b = ns_event(v0[:, None] + v_coef[:, 1:], ALPHA)
    accepted = np.all(np.abs(beta[:, 1:]) <= b[:, :k], axis=1)
    beta, v0, v_coef, b = beta[accepted], v0[accepted], v_coef[accepted], b[accepted]
    etas = np.stack([np.eye(k + 1)[0], eta_gamma(k, 1)])
    sigma_etas = [v0[:, None] * eta.sum() + v_coef * eta for eta in etas]
    lower, upper, mu = conditional_quantiles(beta, sigma_etas, etas, a, b, IDENTITY_ALPHA)

    checked = excluded = 0
    for j, (eta, truth) in enumerate(zip(etas, (slope, 0.0))):
        sigma = v0[:, None, None] + v_coef[:, :, None] * np.eye(k + 1)  # v0 11' + diag
        sd = np.sqrt(np.einsum("i,nij,j->n", eta, sigma, eta))
        observed = np.clip(beta @ eta, lower[:, j], upper[:, j])
        pivot = truncnorm.cdf(observed, (lower[:, j] - truth) / sd, (upper[:, j] - truth) / sd,
                              loc=truth, scale=sd)
        outside = (pivot < IDENTITY_ALPHA / 2) | (pivot > 1 - IDENTITY_ALPHA / 2)
        excludes = (mu[:, j, 1] > truth) | (mu[:, j, 2] < truth)
        decided = ((np.abs(pivot - IDENTITY_ALPHA / 2) > IDENTITY_MARGIN)
                   & (np.abs(pivot - (1 - IDENTITY_ALPHA / 2)) > IDENTITY_MARGIN))
        disagree = np.flatnonzero(decided & (outside != excludes))
        assert disagree.size == 0, (j, pivot[disagree[:5]], mu[disagree[:5], j])
        checked += np.count_nonzero(decided)
        excluded += np.count_nonzero(excludes)
    assert checked >= 2 * 0.1 * IDENTITY_REPS and excluded > 0

    # the simulator, in blocks of seven replications, gives these same bits:
    # a stream seeded alike hands its one chunk the same draws
    monkeypatch.setattr(simulation, "BLOCK_REPS", 7)
    monkeypatch.setattr(simulation, "_chunk_seed", lambda *_: np.random.SeedSequence(100 + k))
    records = simulate_cell(config, k, dgp)
    assert records.accepted.tobytes() == accepted.tobytes()
    for j, name in enumerate(("tn_beta", "tn_gamma")):
        for i, part in enumerate(("est", "lo", "hi")):
            assert getattr(records, f"{name}_{part}").tobytes() == mu[:, j, i].tobytes()
