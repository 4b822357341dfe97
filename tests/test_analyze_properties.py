"""Equivariance and invariance of the full ``analyze`` report.

Each property runs the whole pipeline, from a panel through
``estimate_event_study`` and ``analyze`` to the CLI's ``report_payload``, on
random panels with K = 1..5 pre-periods.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from condid.cli import report_payload
from condid.estimators import analyze, eta_gamma
from condid.event_study import PanelData, estimate_event_study

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
@given(panel=panels(), seed=st.integers(0, 2**32 - 1))
def test_shuffling_rows_moves_no_number_beyond_rounding(panel, seed):
    # the cell sums run in row order, and cell_statistics centres on the
    # first row's outcome, so a shuffle may move the low bits of every
    # number; none may move by more than 1e-10 of its own scale: the se for
    # the Wald blocks, the contrast's sd for the conditional blocks, and
    # sqrt(sigma_ii * sigma_jj) for the covariance
    order = np.random.default_rng(seed).permutation(panel.n_rows)
    shuffled = PanelData(unit=panel.unit[order], period=panel.period[order],
                         treatment=panel.treatment[order], outcome=panel.outcome[order])
    base, sigma = report(panel)
    other, _ = report(shuffled)
    assert other["pretest"] == base["pretest"]
    scale = np.sqrt(np.outer(np.diag(sigma.entries), np.diag(sigma.entries)))
    assert np.all(np.abs(np.array(other["sigma"]) - np.array(base["sigma"])) <= 1e-10 * scale)
    k = panel.k
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
            got, want = float(other[name][key]), float(value)
            if math.isinf(want):
                assert got == want, (name, key)
            else:
                assert abs(got - want) <= 1e-10 * scales[name], (name, key)
