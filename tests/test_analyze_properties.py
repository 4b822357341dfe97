"""Equivariance and invariance of the full ``analyze`` report.

Each report property runs the whole pipeline, from a panel through
``estimate_event_study`` and ``analyze`` to the CLI's ``report_payload``, on
random panels with K = 1..5 pre-periods.  The properties of balanced panels,
which follow each unit through every period, check the coefficients and
their covariance under unit effects, period effects and trends.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condid.cli import report_payload
from condid.estimators import analyze, eta_gamma
from condid.event_study import PanelData, estimate_event_study

from _oracles import balanced_panel

BLOCKS = ("traditional", "efficient", "median_unbiased_beta", "median_unbiased_gamma")
CONDITIONAL = ("median_unbiased_beta", "median_unbiased_gamma")


@st.composite
def panels(draw):
    """A balanced two-group panel over periods -K..1 with N(0, 1) outcomes."""
    k = draw(st.integers(1, 5))
    n_per_cell = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    periods = np.arange(-k, 2)
    treated = np.repeat([False, True], n_per_cell)
    units = [f"{'T' if d else 'C'}{i}" for d in (False, True) for i in range(n_per_cell)]
    return PanelData(
        unit=np.array(units * periods.size, dtype=object),
        period=np.repeat(periods, treated.size),
        treatment=np.tile(treated, periods.size),
        outcome=np.random.default_rng(seed).standard_normal(treated.size * periods.size),
    )


def with_outcome(panel, outcome):
    return PanelData(unit=panel.unit, period=panel.period, treatment=panel.treatment,
                     outcome=outcome)


def report(panel):
    """What ``condid analyze`` writes, and the covariance it came from."""
    bundle = estimate_event_study(panel)
    return report_payload(analyze(bundle), bundle.sigma), bundle.sigma


def assert_moved_within(other, base, sigma, k, tol, factor=1.0, solve_tol=None,
                        magnitude=False):
    """Every number of ``other`` lies within ``tol`` of its own scale of
    ``factor`` times the same number of ``base``; the solved estimates and
    endpoints lie within ``solve_tol`` (default ``tol``), and infinities
    match exactly.  The scale is the se for the Wald blocks, the contrast's
    sd for the conditional blocks and sqrt(sigma_ii * sigma_jj) for the
    covariance, each times ``factor`` (squared for the covariance); under
    ``magnitude``, a block's number is scaled by its own magnitude where
    that is larger, as rounding moves a window edge millions of sd away."""
    assert other["pretest"] == base["pretest"]
    scale = np.sqrt(np.outer(np.diag(sigma.entries), np.diag(sigma.entries)))
    moved = np.array(other["sigma"]) - factor**2 * np.array(base["sigma"])
    assert np.all(np.abs(moved) <= tol * factor**2 * scale)
    scales = {name: base[name]["se"] for name in ("traditional", "efficient")}
    if base["pretest"]["passed"]:
        for name, eta in zip(CONDITIONAL, (np.eye(k + 1)[0], eta_gamma(k, 1))):
            scales[name] = math.sqrt(eta @ sigma.entries @ eta)
    for name in BLOCKS:
        if name not in scales:
            assert other[name] is None and base[name] is None
            continue
        assert other[name].keys() == base[name].keys()
        for key, value in base[name].items():
            if key == "trend_order":
                assert other[name][key] == value
                continue
            got, want = float(other[name][key]), factor * float(value)
            solved = name in CONDITIONAL and key in ("estimate", "ci_lower", "ci_upper")
            bound = solve_tol if solved and solve_tol is not None else tol
            if math.isinf(want):
                assert got == want, (name, key)
            else:
                own = max(factor * scales[name], abs(want) if magnitude else 0.0)
                assert abs(got - want) <= bound * own, (name, key)


@settings(max_examples=100, deadline=None)
@given(panel=panels(), power=st.integers(-30, 30))
def test_scaling_outcomes_scales_every_number_exactly(panel, power):
    # scaling by a power of two is exact in float64, and every step of the
    # pipeline is homogeneous in the outcome, so not one bit may move
    scale = 2.0**power
    base, _ = report(panel)
    scaled, _ = report(with_outcome(panel, panel.outcome * scale))
    assert scaled["pretest"] == base["pretest"]
    for name in BLOCKS:
        if base[name] is None:
            assert scaled[name] is None
            continue
        for key, value in base[name].items():
            expected = value if key == "trend_order" else float(value) * scale
            assert float(scaled[name][key]) == expected, (name, key)
    assert scaled["sigma"] == [[x * scale * scale for x in row] for row in base["sigma"]]


@settings(max_examples=100, deadline=None)
@given(panel=panels())
def test_negating_outcomes_negates_estimates_and_swaps_endpoints(panel):
    base, sigma = report(panel)
    flipped, sigma_flipped = report(with_outcome(panel, -panel.outcome))
    assert flipped["pretest"] == base["pretest"]
    np.testing.assert_array_equal(sigma_flipped.entries, sigma.entries)
    # the Wald blocks and the windows are negated exactly
    for name in ("traditional", "efficient"):
        a, b = base[name], flipped[name]
        assert (b["estimate"], b["se"]) == (-a["estimate"], a["se"])
        assert (b["ci_lower"], b["ci_upper"]) == (-a["ci_upper"], -a["ci_lower"])
    if not base["pretest"]["passed"]:
        return
    k = panel.k
    for name, eta in zip(CONDITIONAL, (np.eye(k + 1)[0], eta_gamma(k, 1))):
        a = {key: float(v) for key, v in base[name].items()}
        b = {key: float(v) for key, v in flipped[name].items()}
        assert (b["window_lower"], b["window_upper"]) == (-a["window_upper"], -a["window_lower"])
        # the solver's tolerance is 1e-8 sd of the contrast, in either direction
        tol = 1e-8 * math.sqrt(eta @ sigma.entries @ eta)
        for got, want in ((b["estimate"], -a["estimate"]), (b["ci_lower"], -a["ci_upper"]),
                          (b["ci_upper"], -a["ci_lower"])):
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= tol


@settings(max_examples=100, deadline=None)
@given(panel=panels(), data=st.data())
def test_relabelling_units_leaves_report_bytes_unchanged(panel, data):
    labels = sorted(set(panel.unit))
    new = data.draw(st.lists(st.text(min_size=1).map(str.strip).filter(bool),
                             min_size=len(labels), max_size=len(labels), unique=True))
    rename = dict(zip(labels, new))
    relabelled = PanelData(unit=np.array([rename[u] for u in panel.unit], dtype=object),
                           period=panel.period, treatment=panel.treatment,
                           outcome=panel.outcome)
    base, _ = report(panel)
    other, _ = report(relabelled)
    assert json.dumps(other, indent=2) == json.dumps(base, indent=2)


@settings(max_examples=100, deadline=None)
@given(panel=panels(), seed=st.integers(0, 2**32 - 1), data=st.data(),
       outlier=st.none() | st.floats(0.0, 17.0).map(lambda e: 10.0**e),
       sign=st.sampled_from((-1.0, 1.0)))
def test_shuffling_rows_moves_no_number_beyond_rounding(panel, seed, data, outlier, sign):
    # the cell sums run in row order, so a shuffle may move the low bits of
    # every number; each cell is centred on its own midrange, which no order
    # moves, so one outlying outcome, up to 1e17 in magnitude, costs bits in
    # its own cell only.  No number may move by more than 1e-10 of its own
    # scale: the se for the Wald blocks, the contrast's sd for the
    # conditional blocks, and sqrt(sigma_ii * sigma_jj) for the covariance.
    # The outlier stays out of period 0: a reference-period variance 1e15
    # times the others' breaks the adjusted estimator's variance in any row
    # order (test_estimators.py pins it)
    if outlier is not None:
        outcome = panel.outcome.copy()
        outcome[data.draw(st.sampled_from(np.flatnonzero(panel.period != 0)))] = sign * outlier
        panel = with_outcome(panel, outcome)
    order = np.random.default_rng(seed).permutation(panel.n_rows)
    shuffled = PanelData(unit=panel.unit[order], period=panel.period[order],
                         treatment=panel.treatment[order], outcome=panel.outcome[order])
    base, sigma = report(panel)
    other, _ = report(shuffled)
    assert_moved_within(other, base, sigma, panel.k, 1e-10, magnitude=outlier is not None)


@settings(max_examples=100, deadline=None)
@given(panel=panels(), shift=st.integers(-(2**52), 2**52))
def test_shifting_outcomes_moves_no_number_beyond_rounding(panel, shift):
    # outcomes and shift on the grid of multiples of 2**-12, the shifted
    # outcomes below 2**41, so within float64's 53 bits: the shift itself is
    # exact, and a common shift cancels from every difference in differences.
    # Sums of outcomes near 2**40 would lose the low bits, so no number may
    # move by more than 1e-10 of its own scale
    outcome = np.round(panel.outcome * 2.0**12) / 2.0**12
    base, sigma = report(with_outcome(panel, outcome))
    shifted, _ = report(with_outcome(panel, outcome + shift / 2.0**12))
    assert_moved_within(shifted, base, sigma, panel.k, 1e-10)


@settings(max_examples=100, deadline=None)
@given(panel=panels(), log_scale=st.floats(min_value=-20.0, max_value=20.0))
def test_scaling_outcomes_by_any_factor_scales_every_number(panel, log_scale):
    # a factor off the powers of two rounds every outcome, so each number may
    # move by rounding: within 1e-10 of its scale for the Wald blocks, the
    # windows and the covariance (2.3e-12 was the worst of 6000 random
    # panels), and within the solver's 1e-8 sd for the solved estimates and
    # endpoints (2.3e-10 was the worst)
    scale = math.exp(log_scale)
    assume(math.frexp(scale)[0] != 0.5)
    base, sigma = report(panel)
    scaled, _ = report(with_outcome(panel, panel.outcome * scale))
    assert_moved_within(scaled, base, sigma, panel.k, 1e-10, factor=scale, solve_tol=1e-8)


# --- balanced panels -------------------------------------------------------------

balanced = dict(k=st.integers(1, 5), units=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))


def assert_estimates_within(other, base, tol, beta_shift=0.0):
    """``other``'s coefficients lie within ``tol`` se of ``base``'s plus
    ``beta_shift``, and each covariance entry within ``tol`` of its
    sqrt(sigma_ii * sigma_jj)."""
    variances = np.diag(base.sigma.entries)
    assert np.all(np.abs(other.beta - (base.beta + beta_shift)) <= tol * np.sqrt(variances))
    moved = np.abs(other.sigma.entries - base.sigma.entries)
    assert np.all(moved <= tol * np.sqrt(np.outer(variances, variances)))


@settings(max_examples=50, deadline=None)
@given(**balanced, unit_sd=st.floats(0.5, 3.0))
def test_unit_effects_move_no_coefficient_beyond_rounding(k, units, seed, unit_sd):
    # each unit's effect is in every period of its group's cells, so it
    # cancels from every difference in differences
    base = estimate_event_study(balanced_panel(k, units, seed))
    other = estimate_event_study(balanced_panel(k, units, seed, unit_sd))
    se = np.sqrt(np.diag(base.sigma.entries))
    assert np.all(np.abs(other.beta - base.beta) <= 1e-12 * se)


@pytest.mark.xfail(strict=True, reason="the covariance treats periods as independent "
                   "samples, so unit effects inflate it (ROADMAP item 14)")
@settings(max_examples=20, deadline=None)
@given(**balanced, unit_sd=st.floats(0.5, 3.0))
def test_unit_effects_move_no_covariance_entry_beyond_rounding(k, units, seed, unit_sd):
    # the coefficients difference each unit's effect away, so a covariance
    # that holds on a balanced panel cannot move either
    base = estimate_event_study(balanced_panel(k, units, seed))
    other = estimate_event_study(balanced_panel(k, units, seed, unit_sd))
    assert_estimates_within(other, base, 1e-12)


@settings(max_examples=50, deadline=None)
@given(**balanced, effects=st.lists(st.floats(-5.0, 5.0), min_size=7, max_size=7))
def test_period_effects_move_nothing_beyond_rounding(k, units, seed, effects):
    panel = balanced_panel(k, units, seed)
    shifted = with_outcome(panel, panel.outcome + np.array(effects)[panel.period + k])
    assert_estimates_within(estimate_event_study(shifted), estimate_event_study(panel), 1e-10)


@settings(max_examples=50, deadline=None)
@given(**balanced, c=st.floats(-2.0, 2.0), data=st.data())
def test_a_treated_trend_moves_each_coefficient_by_its_value(k, units, seed, c, data):
    # the trend c * t**q, q <= p, moves beta_t by c * t**q (and beta_0 by
    # nothing), leaves the covariance alone and is annihilated by the
    # degree-p trend contrast, whose own rounding is 1.5e-14 of the sum of
    # |eta_i c t_i**q| at K <= 5
    p = data.draw(st.integers(1, k))
    q = data.draw(st.integers(1, p))
    panel = balanced_panel(k, units, seed)
    trended = with_outcome(panel, panel.outcome + c * panel.treatment * panel.period**q)
    base, other = estimate_event_study(panel), estimate_event_study(trended)
    trend = c * np.concatenate(([1.0], -np.arange(1.0, k + 1))) ** q  # (post, -1, ..., -K)
    assert_estimates_within(other, base, 1e-10, beta_shift=trend)
    eta = eta_gamma(k, p)
    scale = math.sqrt(eta @ base.sigma.entries @ eta) + np.abs(eta * trend).sum()
    assert abs(eta @ other.beta - eta @ base.beta) <= 1e-10 * scale


AR_XFAIL = pytest.mark.xfail(strict=True, reason="the covariance treats periods as independent "
                             "samples, so serially correlated errors bias it (ROADMAP item 14)")


@pytest.mark.parametrize("ar", [0.0, pytest.param(0.5, marks=AR_XFAIL),
                                pytest.param(-0.5, marks=AR_XFAIL)])
def test_reported_variances_match_the_monte_carlo_variance(ar):
    # K = 3, 100 units per group, AR(1) errors: over 2000 panels each
    # coefficient's mean reported variance lies within 15 % of the variance
    # of its estimates (the ratio's Monte Carlo sd is about 3 %)
    bundles = [estimate_event_study(balanced_panel(3, 100, seed, ar=ar)) for seed in range(2000)]
    reported = np.mean([np.diag(bundle.sigma.entries) for bundle in bundles], axis=0)
    actual = np.var([bundle.beta for bundle in bundles], axis=0, ddof=1)
    assert np.all(np.abs(reported / actual - 1.0) <= 0.15), reported / actual
