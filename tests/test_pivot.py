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
"""

import numpy as np
import pytest
from scipy.stats import kstest, truncnorm

from condid import estimators
from condid.estimators import analyze
from condid.gaussian import _cdf_excess
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
