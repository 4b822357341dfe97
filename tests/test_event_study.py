"""Tests for panel ingestion and event-study estimation."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condid import event_study
from condid.errors import (
    InsufficientDataError,
    InvalidArgumentError,
    NonContiguousPeriodsError,
    PanelParseError,
    PanelValidationError,
)
from condid.event_study import (
    EstimateBundle,
    PanelData,
    coefficients,
    estimate_event_study,
    load_panel,
)
from condid.gaussian import CovarianceMatrix

from _oracles import CellDraws, estimate_or_refusal, write_panel


def make_panel(k, n_per_cell, outcome_fn, jitter=None, rng=None):
    """Balanced panel over periods -k..1 with outcome_fn(period, treated, i)."""
    units, periods, treats, ys = [], [], [], []
    for t in range(-k, 2):
        for treated in (False, True):
            for i in range(n_per_cell):
                units.append(f"{'T' if treated else 'C'}{i}")
                periods.append(t)
                treats.append(treated)
                y = outcome_fn(t, treated, i)
                if jitter is not None:
                    y += jitter * rng.standard_normal()
                ys.append(y)
    return PanelData(
        unit=np.array(units, dtype=object),
        period=np.array(periods),
        treatment=np.array(treats),
        outcome=np.array(ys, dtype=float),
    )


def dummy_ols_oracle(panel):
    """Brute-force OLS on the saturated dummy design.

    Columns: one intercept per period, a main treatment dummy, and one
    treatment-x-period interaction per period except the reference period 0.
    Returns the interaction coefficients ordered (post, -1, ..., -K).
    """
    k = panel.k
    periods = np.arange(-k, 2)
    n = panel.n_rows
    cols = []
    for t in periods:
        cols.append((panel.period == t).astype(float))
    cols.append(panel.treatment.astype(float))
    interaction_order = [1] + [-j for j in range(1, k + 1)]
    for t in interaction_order:
        cols.append(((panel.period == t) & panel.treatment).astype(float))
    x = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(x, panel.outcome, rcond=None)
    return coef[-(k + 1):]


class TestPanelValidation:
    def test_missing_period_zero(self):
        with pytest.raises(NonContiguousPeriodsError):
            PanelData(
                unit=np.array(["a", "b", "c", "d"] * 2, dtype=object),
                period=np.array([-1, -1, -1, -1, 1, 1, 1, 1]),
                treatment=np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=bool),
                outcome=np.zeros(8),
            )

    def test_requires_at_least_one_pre_period(self):
        with pytest.raises(NonContiguousPeriodsError):
            make_panel(0, 3, lambda t, d, i: 0.0)

    @pytest.mark.parametrize("n_periods", [20, 21])
    def test_the_refusal_lists_at_most_20_periods(self, n_periods):
        # n_periods distinct periods up to 1, with -1 missing
        listed = [p for p in range(1 - n_periods, 2) if p != -1]
        with pytest.raises(NonContiguousPeriodsError) as info:
            PanelData(unit=np.arange(n_periods), period=np.array(listed),
                      treatment=np.arange(n_periods) % 2, outcome=np.zeros(n_periods))
        if n_periods > 20:
            shown = ", ".join(map(str, listed[:20]))
            listed = f"[{shown}, ...] ({n_periods} distinct periods, {1 - n_periods} to 1)"
        assert str(info.value) == (
            f"periods must form a contiguous set {{-K,...,0,1}} with K >= 1, got {listed}"
        )

    def test_a_period_range_wider_than_the_panel_is_refused_before_counting(self):
        # four rows cannot fill 2**40 + 2 periods, so no count of 2**41 cells is allocated
        with pytest.raises(NonContiguousPeriodsError) as info:
            PanelData(unit=np.arange(4), period=np.array([-2**40, -1, 0, 1]),
                      treatment=np.arange(4) % 2, outcome=np.zeros(4))
        assert str(info.value).endswith("got [-1099511627776, -1, 0, 1]")

    def test_row_numbers_as_periods_get_a_short_refusal(self):
        # a period column that holds row numbers, as when columns are swapped
        n = 200_000
        with pytest.raises(NonContiguousPeriodsError) as info:
            PanelData(unit=np.arange(n), period=np.arange(n), treatment=np.arange(n) % 2,
                      outcome=np.zeros(n))
        message = str(info.value)
        assert len(message.encode()) < 1000
        assert message.endswith("got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, "
                                "18, 19, ...] (200000 distinct periods, 0 to 199999)")

    def test_thin_cell_rejected(self):
        units = np.array(["a", "b", "c", "a", "b", "c", "a", "b", "c"], dtype=object)
        periods = np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1])
        treats = np.array([1, 0, 0, 1, 0, 0, 1, 0, 0], dtype=bool)
        with pytest.raises(InsufficientDataError, match="period"):
            PanelData(unit=units, period=periods, treatment=treats, outcome=np.zeros(9))

    def test_duplicate_unit_period_rejected(self):
        with pytest.raises(PanelValidationError, match="duplicate"):
            PanelData(
                unit=np.array(["a", "a", "b", "c"] * 3, dtype=object),
                period=np.repeat([-1, 0, 1], 4),
                treatment=np.array([1, 1, 0, 0] * 3, dtype=bool),
                outcome=np.zeros(12),
            )

    @pytest.mark.parametrize(
        "codes", [[0, 0, 2, 2], [0.0, 0.0, 0.5, 0.5], [0, 0, np.nan, 1], ["0", "0", "1", "1"]]
    )
    def test_treatment_codes_other_than_zero_one_rejected(self, codes):
        with pytest.raises(PanelValidationError, match="treatment"):
            PanelData(
                unit=np.array(["a", "b", "c", "d"] * 3, dtype=object),
                period=np.repeat([-1, 0, 1], 4),
                treatment=np.array(codes * 3),
                outcome=np.zeros(12),
            )

    @pytest.mark.parametrize(
        "codes", [[0, 0, 1, 1], [0.0, 0.0, 1.0, 1.0], [False, False, True, True]]
    )
    def test_zero_one_treatment_codes_accepted(self, codes):
        panel = PanelData(
            unit=np.array(["a", "b", "c", "d"] * 3, dtype=object),
            period=np.repeat([-1, 0, 1], 4),
            treatment=np.array(codes * 3),
            outcome=np.zeros(12),
        )
        assert panel.treatment.dtype == bool
        assert panel.treatment.tolist() == [False, False, True, True] * 3

    @pytest.mark.parametrize(
        "periods",
        [
            np.array([-1.7, 0.0, 1.0]),
            np.array([-1.0, 0.0, 1.0]),
            np.array([True, False, True]),
            np.array([-1.0, 0, 1], dtype=object),
            np.array([True, 0, 1], dtype=object),
            np.array(["-1", "0", "1"], dtype=object),
        ],
        ids=["fraction", "integral-float", "bool", "object-float", "object-bool", "object-str"],
    )
    def test_periods_that_are_not_integers_are_refused(self, periods):
        # int conversion would truncate -1.7 to -1 and build a valid panel
        with pytest.raises(PanelValidationError, match="period must hold integers"):
            PanelData(
                unit=np.array(["a", "b", "c", "d"] * 3, dtype=object),
                period=np.repeat(periods, 4),
                treatment=np.array([0, 0, 1, 1] * 3),
                outcome=np.zeros(12),
            )

    @pytest.mark.parametrize(
        "periods",
        [
            np.array([-1, 0, 1], dtype=np.int8),
            np.array([-1, 0, 1], dtype=np.int32),
            np.array([-1, 0, 1], dtype=np.int64),
            np.array([-1, 0, 1], dtype=object),
            np.array([np.int16(-1), 0, 1], dtype=object),
        ],
        ids=["int8", "int32", "int64", "object-int", "object-numpy-int"],
    )
    def test_integer_periods_of_any_kind_are_accepted(self, periods):
        panel = PanelData(
            unit=np.array(["a", "b", "c", "d"] * 3, dtype=object),
            period=np.repeat(periods, 4),
            treatment=np.array([0, 0, 1, 1] * 3),
            outcome=np.zeros(12),
        )
        assert panel.period.dtype == int
        assert panel.period.tolist() == np.repeat([-1, 0, 1], 4).tolist()

    def test_a_period_beyond_int64_is_refused_not_wrapped(self):
        # astype(int) would read 2**64 - 1 as -1 and build a K = 1 panel
        for dtype in (np.uint64, object):
            periods = np.array([2**64 - 1, 0, 1], dtype)
            with pytest.raises(PanelValidationError) as info:
                PanelData(
                    unit=np.array(["a", "b", "c", "d"] * 3, dtype=object),
                    period=np.repeat(periods, 4),
                    treatment=np.array([0, 0, 1, 1] * 3),
                    outcome=np.zeros(12),
                )
            assert str(info.value) == (
                "period must fit in a signed 64-bit integer, got 18446744073709551615"
            )

    def test_a_complex_outcome_is_refused(self):
        outcome = np.zeros(12, dtype=complex)
        outcome[5] = 0.5 + 2j
        with pytest.raises(PanelValidationError) as info:
            PanelData(
                unit=np.array(["a", "b", "c", "d"] * 3, dtype=object),
                period=np.repeat([-1, 0, 1], 4),
                treatment=np.array([0, 0, 1, 1] * 3),
                outcome=outcome,
            )
        assert str(info.value) == "outcome must hold real numbers, got (0.5+2j)"

    def test_empty_lists_are_an_empty_panel(self):
        # [] reads as float64; emptiness is reported before the period dtype
        with pytest.raises(InsufficientDataError, match="no observations"):
            PanelData(unit=[], period=[], treatment=[], outcome=[])

    def test_empty_panel(self):
        with pytest.raises(InsufficientDataError):
            PanelData(
                unit=np.array([], dtype=object),
                period=np.array([], dtype=int),
                treatment=np.array([], dtype=bool),
                outcome=np.array([], dtype=float),
            )


# Python hashes an int modulo this prime: u and u + HASH_MODULUS share a hash,
# and so do -1 and -2
HASH_MODULUS = sys.hash_info.modulus
COLLIDING_LABELS = [u + j * HASH_MODULUS for u in range(3) for j in range(3)] + [-1, -2]
# a unit keeps its group: the first six labels are control units, the rest treated
GROUP_LABELS = (COLLIDING_LABELS[:6], COLLIDING_LABELS[6:])


def first_repeated_pair(unit, period):
    """The first (unit, period) pair, in row order, seen twice."""
    seen = set()
    for pair in zip(unit.tolist(), period.tolist()):
        if pair in seen:
            return pair
        seen.add(pair)
    return None


@st.composite
def colliding_panels(draw):
    """A K = 1 panel of integer labels that share few hash values, some
    (group, period) cells with a repeated label and some without."""
    n = draw(st.integers(2, 4))
    units, periods, treats = [], [], []
    for t in (-1, 0, 1):
        for treated, pool in enumerate(GROUP_LABELS):
            if draw(st.booleans()):
                labels = draw(st.permutations(pool))[:n]
            else:
                labels = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            units += labels
            periods += [t] * n
            treats += [bool(treated)] * n
    order = draw(st.permutations(range(len(units))))
    return (
        np.array([units[i] for i in order], dtype=object),
        np.array([periods[i] for i in order]),
        np.array([treats[i] for i in order]),
    )


class TestDuplicateCheck:
    """Labels are coded as ``dict`` keys are told apart, so labels that share
    a hash are distinct units; the key of a (unit, period) pair is exact."""

    def test_labels_of_one_hash_in_one_period_validate(self):
        units = [0, HASH_MODULUS, 2 * HASH_MODULUS, -1]
        assert len({hash(u) for u in units[:3]}) == 1 and hash(-1) == hash(-2)
        panel = PanelData(
            unit=np.array(units * 3, dtype=object),
            period=np.repeat([-1, 0, 1], 4),
            treatment=np.array([0, 0, 1, 1] * 3, dtype=bool),
            outcome=np.zeros(12),
        )
        assert panel.n_rows == 12

    def test_a_repeat_names_the_first_repeating_pair(self):
        # (-2, 0) repeats before (HASH_MODULUS, 0) does, and both collide
        # with a distinct label of their period
        units = [0, HASH_MODULUS, -1, -2] * 3 + [-2, HASH_MODULUS]
        with pytest.raises(PanelValidationError) as info:
            PanelData(
                unit=np.array(units, dtype=object),
                period=np.array(list(np.repeat([-1, 0, 1], 4)) + [0, 0]),
                treatment=np.array([0, 0, 1, 1] * 3 + [1, 0], dtype=bool),
                outcome=np.zeros(14),
            )
        assert str(info.value) == "duplicate (unit, period) row: (-2, 0)"

    @settings(max_examples=200, deadline=None)
    @given(panel=colliding_panels(), block=st.integers(1, 7) | st.just(event_study._ROW_BLOCK))
    def test_verdict_matches_the_first_pair_seen_twice(self, panel, block):
        unit, period, treatment = panel
        expected = first_repeated_pair(unit, period)
        # small blocks put repeated keys across block edges
        with mock.patch.object(event_study, "_ROW_BLOCK", block):
            if expected is None:
                PanelData(unit=unit, period=period, treatment=treatment, outcome=np.zeros(unit.size))
            else:
                with pytest.raises(PanelValidationError) as info:
                    PanelData(unit=unit, period=period, treatment=treatment, outcome=np.zeros(unit.size))
                assert str(info.value) == f"duplicate (unit, period) row: {expected}"

    @pytest.mark.parametrize(
        "n_labels, dtype",
        [(2**29 - 1, np.uint32), (2**29, np.uint64), (2**29 + 1, np.uint64), (2**37 + 3, np.uint64)],
    )
    def test_keys_are_exact_at_any_label_count(self, n_labels, dtype):
        # eight cells over periods -2..1: the key type widens where labels x
        # cells reaches 2**32, and the largest code keeps its own keys, apart
        # from those of the code a 32-bit key would wrap it onto
        top = n_labels - 1
        wrapped = top * 8 % 2**32 // 8
        control = [top, wrapped if wrapped != top else 0]
        treated = [c for c in range(4) if c not in control][:2]
        rows = [(c, t, d) for t in range(-2, 2) for d, group in enumerate((control, treated))
                for c in group]
        labels = np.broadcast_to(np.array("x", dtype=object), (n_labels,))

        def panel(rows):
            codes, period, treatment = (np.array(column) for column in zip(*rows))
            units = event_study._Units(codes.astype(np.uint64), labels)
            return PanelData(unit=units, period=period, treatment=treatment.astype(bool),
                             outcome=np.zeros(len(rows)))

        with mock.patch.object(event_study.np, "empty", wraps=np.empty) as empty:
            assert panel(rows).n_rows == 16
        assert empty.call_args.args[1] == dtype
        with pytest.raises(PanelValidationError) as info:
            panel(rows + [(top, 0, 0)])
        assert str(info.value) == "duplicate (unit, period) row: ('x', 0)"
        with pytest.raises(PanelValidationError) as info:
            panel([(c, t, d or (c, t) == (top, 1)) for c, t, d in rows])
        assert str(info.value) == "unit 'x' is a control in its first row but treated at period 1"

    def test_equal_labels_are_one_unit_named_by_the_first_spelling(self):
        # 1.0, 1 and True are equal dict keys
        with pytest.raises(PanelValidationError) as info:
            PanelData(
                unit=np.array([1.0, 2, 3, 4, 5, 6, 7, 8, 1, True, 9, 10], dtype=object),
                period=np.repeat([-1, 0, 1], 4),
                treatment=np.array([0, 0, 1, 1] * 3, dtype=bool),
                outcome=np.zeros(12),
            )
        assert str(info.value) == "duplicate (unit, period) row: (1.0, 1)"

    def test_a_numpy_label_is_named_as_a_python_value(self):
        for unit in (np.array(list("abcd") * 3 + ["a"]), np.array([5, 6, 7, 8] * 3 + [5])):
            with pytest.raises(PanelValidationError) as info:
                PanelData(unit=unit, period=np.append(np.repeat([-1, 0, 1], 4), 0),
                          treatment=np.array([0, 0, 1, 1] * 3 + [1], dtype=bool),
                          outcome=np.zeros(13))
            assert str(info.value) == f"duplicate (unit, period) row: ({unit[0].item()!r}, 0)"

    def test_a_long_run_of_one_pair_names_the_first_repeat(self):
        # ("a", 0) is seen first, but ("b", 0) repeats first: the run of
        # 3 000 equal keys must stay in row order for the verdict to hold
        units = ["a", "b", "b"] + ["a"] * 3000 + ["c", "d"]
        period = np.array([0] * 3003 + [-1, 1])
        unit = np.array(units, dtype=object)
        assert first_repeated_pair(unit, period) == ("b", 0)
        for block in (7, event_study._ROW_BLOCK):
            with mock.patch.object(event_study, "_ROW_BLOCK", block):
                with pytest.raises(PanelValidationError) as info:
                    PanelData(unit=unit, period=period, treatment=np.arange(3005) % 2 == 0,
                              outcome=np.zeros(3005))
            assert str(info.value) == "duplicate (unit, period) row: ('b', 0)"


def first_switching_unit(unit, treatment, period):
    """The first row, in row order, whose treatment differs from its unit's
    first row, as (unit, treated, period), or None."""
    first = {}
    for u, d, t in zip(unit.tolist(), treatment.tolist(), period.tolist()):
        if first.setdefault(u, d) != d:
            return u, d, t
    return None


@st.composite
def switching_panels(draw):
    """A valid panel of 5-7 units per group over periods -K..1, with 1-3
    units made to switch group in one of their rows, in any row order."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(5, 7))
    labels = [f"u{i}" for i in range(2 * n)]
    rows = [(u, t, i >= n) for t in range(-k, 2) for i, u in enumerate(labels)]
    switched = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True))
    for u in switched:
        j = draw(st.sampled_from([r for r, row in enumerate(rows) if row[0] == u]))
        rows[j] = (u, rows[j][1], not rows[j][2])
    rows = draw(st.permutations(rows))
    unit, period, treatment = (np.array(column) for column in zip(*rows))
    return unit.astype(object), period, treatment


class TestUnitKeepsItsGroup:
    def test_a_unit_treated_after_its_first_period_is_refused(self):
        # 8 units over periods -1..1; u0 is a control at -1, treated at 0 and 1
        treatment = np.array([0, 0, 0, 0, 1, 1, 1, 1] * 3, dtype=bool)
        treatment[[8, 16]] = True
        with pytest.raises(PanelValidationError) as info:
            PanelData(unit=np.array([f"u{i}" for i in range(8)] * 3, dtype=object),
                      period=np.repeat([-1, 0, 1], 8), treatment=treatment, outcome=np.zeros(24))
        assert str(info.value) == "unit 'u0' is a control in its first row but treated at period 0"

    @settings(max_examples=200, deadline=None)
    @given(panel=switching_panels(), block=st.integers(1, 7) | st.just(event_study._ROW_BLOCK))
    def test_the_first_unit_to_switch_is_named(self, panel, block):
        unit, period, treatment = panel
        label, treated, t = first_switching_unit(unit, treatment, period)
        groups = ("a control", "treated")
        # small blocks put a unit's first row and its switch in different blocks
        with mock.patch.object(event_study, "_ROW_BLOCK", block):
            with pytest.raises(PanelValidationError) as info:
                PanelData(unit=unit, period=period, treatment=treatment,
                          outcome=np.zeros(unit.size))
        assert str(info.value) == (
            f"unit {label!r} is {groups[not treated]} in its first row but {groups[treated]} "
            f"at period {t}"
        )


def rows_panel(rows):
    """A panel from (unit, period, treated) rows."""
    unit, period, treatment = (np.array(column) for column in zip(*rows))
    return dict(unit=unit.astype(object), period=period, treatment=treatment,
                outcome=np.zeros(len(rows)))


# u0, u1 are controls and u2, u3 treated over periods -1..1; row 8 is (u0, 1)
VALID_ROWS = [(f"u{i}", t, i >= 2) for t in (-1, 0, 1) for i in range(4)]
SWITCH = ("u0", 1, True)  # u0 treated at period 1: the control cell of period 1 thins to u1
DUPLICATE = ("u1", -1, False)


class TestRefusalOrder:
    """A panel that breaks two rules is refused for the first of: periods
    not contiguous, a repeated (unit, period) pair, a unit that changes
    group, a thin cell."""

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            # period -1 missing (0 and 1 only, so K = 0), and (u1, 0) repeated
            ([r for r in VALID_ROWS if r[1] != -1] + [("u1", 0, False)], NonContiguousPeriodsError,
             "periods must form a contiguous set {-K,...,0,1} with K >= 1, got [0, 1]"),
            # a gap at -1 under -2..1, and (u1, 0) repeated
            ([(u, -2 if t == -1 else t, d) for u, t, d in VALID_ROWS] + [("u1", 0, False)],
             NonContiguousPeriodsError,
             "periods must form a contiguous set {-K,...,0,1} with K >= 1, got [-2, 0, 1]"),
            # the switch (row 8) before the repeat (row 12)
            (VALID_ROWS[:8] + [SWITCH] + VALID_ROWS[9:] + [DUPLICATE], PanelValidationError,
             "duplicate (unit, period) row: ('u1', -1)"),
            # the repeat (row 2) before the switch (row 9)
            (VALID_ROWS[:2] + [DUPLICATE] + VALID_ROWS[2:8] + [SWITCH] + VALID_ROWS[9:],
             PanelValidationError, "duplicate (unit, period) row: ('u1', -1)"),
            # the repeated row is itself the switch
            (VALID_ROWS + [("u1", -1, True)], PanelValidationError,
             "duplicate (unit, period) row: ('u1', -1)"),
            # the switch leaves period 1 one control row
            (VALID_ROWS[:8] + [SWITCH] + VALID_ROWS[9:], PanelValidationError,
             "unit 'u0' is a control in its first row but treated at period 1"),
        ],
        ids=["no-pre-period-and-repeat", "gap-and-repeat", "switch-then-repeat",
             "repeat-then-switch", "repeat-that-switches", "switch-and-thin-cell"],
    )
    def test_the_first_rule_broken_names_the_refusal(self, rows, error, message):
        with pytest.raises(error) as info:
            PanelData(**rows_panel(rows))
        assert type(info.value) is error
        assert str(info.value) == message


class TestEstimation:
    def test_all_zero_outcomes(self):
        # constant within each group in every period: the covariance is zero
        panel = make_panel(2, 3, lambda t, d, i: 0.0)
        with pytest.raises(PanelValidationError, match=r"at periods \[-2, -1, 0, 1\], so"):
            estimate_event_study(panel)

    def test_hand_computed_cell_means(self):
        # cells of +-0.5 around exact means: delta means (-1: 1, 0: 3, 1: 7)
        deltas = {-1: 1.0, 0: 3.0, 1: 7.0}
        panel = make_panel(1, 4, lambda t, d, i: (deltas[t] if d else 0.0) + i % 2 - 0.5)
        bundle = estimate_event_study(panel)
        assert bundle.beta_post == pytest.approx(4.0, abs=1e-12)
        assert bundle.beta_pre[0] == pytest.approx(-2.0, abs=1e-12)
        oracle = dummy_ols_oracle(panel)
        assert oracle[0] == pytest.approx(4.0, abs=1e-8)
        assert oracle[1] == pytest.approx(-2.0, abs=1e-8)

    def test_matches_dummy_ols_on_random_panels(self):
        rng = np.random.default_rng(314)
        for trial in range(20):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(2, 21))
            slope = rng.normal() * 0.5
            panel = make_panel(
                k, n, lambda t, d, i: slope * t * d, jitter=1.0, rng=rng
            )
            bundle = estimate_event_study(panel)
            oracle = dummy_ols_oracle(panel)
            np.testing.assert_allclose(bundle.beta, oracle, atol=1e-8)

    def test_unbalanced_cells_still_match_ols(self):
        # saturated design: cell-mean differencing equals OLS for any cell sizes
        rng = np.random.default_rng(99)
        units, periods, treats, ys = [], [], [], []
        sizes = {(-2, 0): 4, (-2, 1): 7, (-1, 0): 3, (-1, 1): 2,
                 (0, 0): 5, (0, 1): 6, (1, 0): 8, (1, 1): 2}
        for (t, d), size in sizes.items():
            for i in range(size):
                units.append(f"{d}{t}u{i}")
                periods.append(t)
                treats.append(bool(d))
                ys.append(rng.normal())
        panel = PanelData(
            unit=np.array(units, dtype=object),
            period=np.array(periods),
            treatment=np.array(treats),
            outcome=np.array(ys),
        )
        np.testing.assert_allclose(
            estimate_event_study(panel).beta, dummy_ols_oracle(panel), atol=1e-8
        )

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        block=st.integers(1, 7),
        offset=st.sampled_from([0.0, 1e6, -3e9]),
    )
    def test_blocks_give_the_bits_of_one_bincount(self, seed, k, block, offset):
        # the sums over the whole panel at once, as a reference
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 6, size=2 * (k + 2))
        code = np.repeat(np.arange(sizes.size), sizes)
        rng.shuffle(code)
        panel = PanelData(
            unit=np.arange(code.size),
            period=code // 2 - k,
            treatment=(code % 2).astype(bool),
            outcome=offset + rng.standard_normal(code.size),
        )
        counts = np.bincount(code).astype(float)
        # each cell centred on its own midrange
        cells = [panel.outcome[code == cell] for cell in range(sizes.size)]
        middle = np.array([c.min() / 2 + c.max() / 2 for c in cells])
        resid = panel.outcome - middle[code]
        offsets = np.bincount(code, weights=resid) / counts
        resid = (resid - offsets[code]) ** 2
        variances = np.bincount(code, weights=resid) / (counts - 1.0)
        delta = (middle[1::2] - middle[0::2]) + (offsets[1::2] - offsets[0::2])
        v = variances[1::2] / counts[1::2] + variances[0::2] / counts[0::2]
        beta, v0, v_coef = coefficients(delta, v)
        with mock.patch.object(event_study, "_ROW_BLOCK", block):
            bundle = estimate_event_study(panel)
        np.testing.assert_array_equal(bundle.beta, beta)
        sigma = CovarianceMatrix(np.diag(v_coef) + v0, allow_singular=True)
        np.testing.assert_array_equal(bundle.sigma.entries, sigma.entries)

    def test_period_shift_absorbed_by_period_effects(self):
        rng = np.random.default_rng(7)
        panel = make_panel(2, 5, lambda t, d, i: 0.0, jitter=1.0, rng=rng)
        shifted_outcome = panel.outcome + 10.0 * (panel.period == -1)
        shifted = PanelData(
            unit=panel.unit, period=panel.period,
            treatment=panel.treatment, outcome=shifted_outcome,
        )
        np.testing.assert_allclose(
            estimate_event_study(shifted).beta, estimate_event_study(panel).beta,
            atol=1e-12,
        )

    def test_treated_level_shift_absorbed_by_main_effect(self):
        rng = np.random.default_rng(8)
        panel = make_panel(2, 5, lambda t, d, i: 0.0, jitter=1.0, rng=rng)
        shifted = PanelData(
            unit=panel.unit, period=panel.period, treatment=panel.treatment,
            outcome=panel.outcome + 3.5 * panel.treatment,
        )
        np.testing.assert_allclose(
            estimate_event_study(shifted).beta, estimate_event_study(panel).beta,
            atol=1e-12,
        )

    @settings(deadline=None)
    @given(
        k=st.integers(1, 4),
        n_per_cell=st.integers(2, 5),
        exponent=st.integers(0, 40),
        sign=st.sampled_from((-1.0, 1.0)),
        data=st.data(),
    )
    def test_exact_outcome_shift_leaves_estimates_unchanged(
        self, k, n_per_cell, exponent, sign, data
    ):
        # outcomes on a 1/256 grid below 8 in magnitude, shifted by at most
        # 2^40, stay exact in float64: only the estimator's own rounding can
        # move the estimates
        base = make_panel(k, n_per_cell, lambda t, d, i: 0.0)
        grid = data.draw(st.lists(
            st.integers(-2048, 2048), min_size=base.n_rows, max_size=base.n_rows
        ))
        y = np.array(grid) / 256.0
        a, b = (
            estimate_or_refusal(PanelData(
                unit=base.unit, period=base.period, treatment=base.treatment, outcome=outcome,
            ))
            for outcome in (y, y + sign * 2.0**exponent)
        )
        if isinstance(a, str):
            assert b == a
            return
        se = np.sqrt(np.diag(a.sigma.entries))
        assert np.all(np.abs(b.beta - a.beta) <= 1e-10 * se)
        assert np.all(np.abs(b.sigma.entries - a.sigma.entries) <= 1e-10 * np.outer(se, se))

    def test_trend_dgp_population_convergence(self):
        # slope 0.065: population coefficients are slope * t
        rng = np.random.default_rng(21)
        n = 100_000
        panel = make_panel(2, n, lambda t, d, i: 0.065 * t * d, jitter=1.0, rng=rng)
        bundle = estimate_event_study(panel)
        mc_se = 3.0 * np.sqrt(4.0 / n)
        assert bundle.beta_post == pytest.approx(0.065, abs=mc_se)
        assert bundle.beta_pre[0] == pytest.approx(-0.065, abs=mc_se)
        assert bundle.beta_pre[1] == pytest.approx(-0.13, abs=mc_se)


class TestCovariance:
    def test_equal_cells_give_equicorrelated_structure(self):
        rng = np.random.default_rng(11)
        n = 100_000
        panel = make_panel(1, n, lambda t, d, i: 0.0, jitter=1.0, rng=rng)
        sigma = estimate_event_study(panel).sigma
        # diagonal 4 sigma^2 / N, off-diagonal 2 sigma^2 / N
        np.testing.assert_allclose(np.diag(sigma.entries), 4.0 / n, rtol=0.05)
        np.testing.assert_allclose(sigma.entries[0, 1], 2.0 / n, rtol=0.05)

    def test_off_diagonal_equals_reference_period_variance(self):
        # different per-period noise: off-diagonal must still be v_0 exactly
        rng = np.random.default_rng(12)
        scale = {-2: 0.5, -1: 2.0, 0: 1.0, 1: 3.0}
        panel = make_panel(2, 50, lambda t, d, i: 0.0)
        outcome = np.array(
            [rng.normal() * scale[int(t)] for t in panel.period]
        )
        panel = PanelData(
            unit=panel.unit, period=panel.period,
            treatment=panel.treatment, outcome=outcome,
        )
        sigma = estimate_event_study(panel).sigma
        cells_v0 = sigma.entries[0, 1]
        offdiag = sigma.entries[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(offdiag, cells_v0, atol=1e-15)

    def test_paper_scale_standard_error(self):
        # sigma=1, N=250 per cell: SE(beta_post) = sqrt(4/250) = 0.1265 ~ 0.127
        rng = np.random.default_rng(13)
        panel = make_panel(1, 250, lambda t, d, i: 0.0, jitter=1.0, rng=rng)
        sigma = estimate_event_study(panel).sigma
        se = np.sqrt(sigma.sigma11)
        assert se == pytest.approx(0.1265, abs=0.015)
        assert np.sqrt(4.0 / 250.0) == pytest.approx(0.12649, abs=1e-4)

    def test_symmetric_pd_for_positive_variances(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            panel = make_panel(k, 10, lambda t, d, i: 0.0, jitter=1.0, rng=rng)
            sigma = estimate_event_study(panel).sigma
            np.testing.assert_allclose(sigma.entries, sigma.entries.T)
            assert np.all(np.linalg.eigvalsh(sigma.entries) > 0)

    @pytest.mark.parametrize("constant, refused", [
        ({(0, 0)}, None),
        ({(0, 0), (0, 1)}, None),
        ({(1, 0), (1, 1)}, None),
        ({(-2, 0), (-1, 1), (0, 0), (1, 1)}, None),
        ({(0, 0), (0, 1), (-1, 0), (-1, 1)}, [-1, 0]),
        ({(-2, 0), (-2, 1), (1, 0), (1, 1)}, [-2, 1]),
    ], ids=["one-cell", "reference-period", "post-period", "a-cell-in-each-period",
            "reference-and-one-period", "two-periods"])
    def test_constant_cells_have_variance_zero(self, constant, refused):
        # 0.1 in the (period, treated) cells of ``constant``, whose deviations
        # from a rounded mean are dust; Sigma is singular, and the panel
        # refused, once two periods are constant within each group
        rng = np.random.default_rng(15)
        panel = make_panel(2, 7, lambda t, d, i: 0.1 if (t, d) in constant else rng.normal())
        if refused:
            with pytest.raises(PanelValidationError, match=rf"at periods \{refused}, so"):
                estimate_event_study(panel)
            return
        # make_panel's rows run cell by cell: periods -2..1, control first
        flat = [(t, d) in constant for t in range(-2, 2) for d in (0, 1)]
        v = np.where(flat, 0.0, panel.outcome.reshape(8, 7).var(axis=1, ddof=1)) / 7
        _, v0, v_coef = coefficients(np.zeros(4), v[0::2] + v[1::2])
        sigma = estimate_event_study(panel).sigma.entries
        np.testing.assert_allclose(sigma, np.diag(v_coef) + v0, rtol=1e-12, atol=0)
        assert np.all(np.linalg.eigvalsh(sigma) > 0)

    def test_an_all_zero_binary_cell_is_analyzed(self):
        rng = np.random.default_rng(16)
        panel = make_panel(2, 7, lambda t, d, i: 0.0 if (t, d) == (0, 0) else rng.integers(2))
        assert np.all(np.linalg.eigvalsh(estimate_event_study(panel).sigma.entries) > 0)


class TestCoefficients:
    """``coefficients`` is the one place that differences per-period means
    against period 0, for the estimator and the simulator alike."""

    @pytest.mark.parametrize("k", [1, 8])
    def test_stack_matches_rows_and_the_draws_oracle(self, k):
        rng = np.random.default_rng(30 + k)
        n = 40
        delta = rng.standard_normal((n, k + 2))  # periods -K, ..., 0, 1
        v = rng.chisquare(5, (n, k + 2)) / 125.0
        beta, v0, v_coef = coefficients(delta, v)
        assert (beta.shape, v0.shape, v_coef.shape) == ((n, k + 1), (n,), (n, k + 1))
        # CellDraws orders periods (1, 0, -1, ..., -K) and differences by hand
        t_values = np.concatenate(([1, 0], -np.arange(1, k + 1)))
        for i in range(n):
            row = coefficients(delta[i], v[i])
            for got, stacked in zip(row, (beta[i], v0[i], v_coef[i])):
                assert np.asarray(got).tobytes() == np.asarray(stacked).tobytes()
            bundle = CellDraws(k, 250, t_values, delta[i, ::-1], v[i, ::-1]).to_bundle()
            assert beta[i].tobytes() == bundle.beta.tobytes()
            assert (np.diag(v_coef[i]) + v0[i]).tobytes() == bundle.sigma.entries.tobytes()


class TestEstimateBundle:
    SIGMA = CovarianceMatrix(0.004 * (np.ones((3, 3)) + np.eye(3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["beta_post", "beta_pre"])
    def test_non_finite_coefficients_are_refused(self, field, bad):
        # a NaN or an infinity would reach the pretest and the estimates
        # without an error; the bundle names the field instead
        fields = {"beta_post": 0.01, "beta_pre": np.array([0.01, -0.02])}
        if field == "beta_post":
            fields[field] = bad
        else:
            fields[field][1] = bad
        with pytest.raises(InvalidArgumentError, match=f"{field} must be finite"):
            EstimateBundle(**fields, sigma=self.SIGMA)

    @pytest.mark.parametrize(
        "bad", [[0.5, 0.1], np.array([0.5]), "0.5", None, 1 + 2j, True],
        ids=["list", "1-d", "str", "None", "complex", "bool"],
    )
    def test_beta_post_must_be_one_real_number(self, bad):
        with pytest.raises(InvalidArgumentError, match="beta_post must be one real number"):
            EstimateBundle(bad, np.array([0.01, -0.02]), self.SIGMA)

    @pytest.mark.parametrize(
        "beta_pre, value",
        [(np.array([0.2 + 3j]), "(0.2+3j)"), ([0.1, 0.2 - 1j], "(0.2-1j)"),
         (np.array([0.1, 0.2], dtype=complex), "(0.1+0j)")],
        ids=["complex", "list", "zero-imaginary"],
    )
    def test_complex_beta_pre_is_refused(self, beta_pre, value):
        # a float conversion would keep the real part, with only a ComplexWarning
        sigma = CovarianceMatrix(np.eye(len(beta_pre) + 1))
        with pytest.raises(InvalidArgumentError) as info:
            EstimateBundle(beta_post=0.1, beta_pre=beta_pre, sigma=sigma)
        assert str(info.value) == f"beta_pre must hold real numbers, got {value}"

    @pytest.mark.parametrize("value", [1, np.float32(0.5), np.array(0.25), np.int64(-3)])
    def test_beta_post_is_stored_as_a_float(self, value):
        bundle = EstimateBundle(value, np.array([0.01, -0.02]), self.SIGMA)
        assert type(bundle.beta_post) is float
        assert bundle.beta_post == float(value)


class TestLoadPanel:
    def _write(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_well_formed_csv(self, tmp_path):
        rows = ["unit,period,treatment,outcome"]
        for t in (-1, 0, 1):
            for d in (0, 1):
                for i in range(2):
                    rows.append(f"{'t' if d else 'c'}{i},{t},{d},{0.5 * t}")
        panel = load_panel(self._write(tmp_path, "\n".join(rows) + "\n"))
        assert panel.k == 1
        assert panel.n_rows == 12

    def test_missing_period_zero(self, tmp_path):
        rows = ["unit,period,treatment,outcome"]
        for t in (-1, 1):
            for d in (0, 1):
                for i in range(2):
                    rows.append(f"{'t' if d else 'c'}{i},{t},{d},1.0")
        with pytest.raises(NonContiguousPeriodsError):
            load_panel(self._write(tmp_path, "\n".join(rows) + "\n"))

    def test_header_only(self, tmp_path):
        with pytest.raises(InsufficientDataError):
            load_panel(self._write(tmp_path, "unit,period,treatment,outcome\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(PanelParseError, match="line 1"):
            load_panel(self._write(tmp_path, "id,time,treated,y\n"))

    def test_parse_error_carries_line_number(self, tmp_path):
        text = "unit,period,treatment,outcome\na,-1,0,1.0\nb,zero,0,1.0\n"
        with pytest.raises(PanelParseError, match="line 3") as err:
            load_panel(self._write(tmp_path, text))
        assert err.value.line == 3

    def test_bad_treatment_value(self, tmp_path):
        text = "unit,period,treatment,outcome\na,-1,yes,1.0\n"
        with pytest.raises(PanelParseError, match="treatment"):
            load_panel(self._write(tmp_path, text))

    def test_duplicate_rows_rejected(self, tmp_path):
        rows = ["unit,period,treatment,outcome"]
        for t in (-1, 0, 1):
            for d in (0, 1):
                for i in range(2):
                    rows.append(f"x{i},{t},{d},1.0")  # same unit ids across groups
        with pytest.raises(PanelValidationError, match="duplicate"):
            load_panel(self._write(tmp_path, "\n".join(rows) + "\n"))

    def test_round_trip(self, tmp_path):
        panel = make_panel(2, 3, lambda t, d, i: 0.1 * t * d + 0.01 * i)
        path = tmp_path / "out.csv"
        write_panel(path, panel)
        loaded = load_panel(path)
        np.testing.assert_array_equal(loaded.period, panel.period)
        np.testing.assert_array_equal(loaded.treatment, panel.treatment)
        np.testing.assert_allclose(loaded.outcome, panel.outcome, rtol=0, atol=0)
