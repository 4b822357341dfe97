"""Event-study estimation from long-format two-group data.

The design is saturated (period effects, a main treatment effect, and one
treatment interaction per non-reference period), so the interaction
coefficients reduce exactly to differences of cell means:

    beta_t = (mean_T[t] - mean_C[t]) - (mean_T[0] - mean_C[0]),  t != 0.

Estimation therefore runs on cell means in O(rows); the dummy-regression
normal equations exist only as a test oracle.  Coefficients are ordered
(post, -1, -2, ..., -K) everywhere.
"""

from __future__ import annotations

import csv
import re
import sys
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    NonContiguousPeriodsError,
    PanelParseError,
    PanelValidationError,
)
from .gaussian import CovarianceMatrix

__all__ = [
    "PanelData",
    "EstimateBundle",
    "estimate_event_study",
    "load_panel",
    "PANEL_HEADER",
]

PANEL_HEADER = ("unit", "period", "treatment", "outcome")

_BODY_DTYPE = np.dtype(
    [("unit", object), ("period", np.int64), ("treatment", object), ("outcome", np.float64)]
)
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
# bytes that are not UTF-8 decode to these code points under "surrogateescape"
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True, eq=False)
class PanelData:
    """Long-format observations for one treated and one control group.

    Validated at construction: ``treatment`` must be boolean or coded 0/1,
    periods must form a contiguous set {-K, ..., 0, 1} with K >= 1, every
    (group, period) cell needs at least two observations, and (unit, period)
    pairs must be unique.
    """

    unit: np.ndarray
    period: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        unit = np.asarray(self.unit)
        period = np.asarray(self.period, dtype=int)
        treatment = np.asarray(self.treatment)
        if treatment.dtype != bool:
            if not np.isin(treatment, (0, 1)).all():
                raise PanelValidationError("treatment must be coded 0 or 1")
            treatment = treatment.astype(bool)
        outcome = np.asarray(self.outcome, dtype=float)
        n = unit.shape[0]
        if not (period.shape[0] == treatment.shape[0] == outcome.shape[0] == n):
            raise PanelValidationError("panel columns have unequal lengths")
        if n == 0:
            raise InsufficientDataError("panel contains no observations")
        if not np.all(np.isfinite(outcome)):
            raise PanelValidationError("outcome contains non-finite values")
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "treatment", treatment)
        object.__setattr__(self, "outcome", outcome)

        lo, hi = int(period.min()), int(period.max())
        n_periods = hi - lo + 1
        # a contiguous range has a row in every period, so it spans at most n
        # periods and the bincount stays O(rows)
        per_period = (
            np.bincount(period - lo) if hi == 1 and lo <= -1 and n_periods <= n else None
        )
        if per_period is None or not per_period.all():
            raise NonContiguousPeriodsError(
                f"periods must form a contiguous set {{-K,...,0,1}} with K >= 1, "
                f"got {np.unique(period).tolist()}"
            )

        # rows grouped by period: a duplicate pair shows as a repeated unit
        units_by_period = unit[np.argsort(period)].tolist()
        stops = np.cumsum(per_period).tolist()
        starts = [0] + stops[:-1]
        if any(len(set(units_by_period[a:b])) < b - a for a, b in zip(starts, stops)):
            raise PanelValidationError(
                f"duplicate (unit, period) row: {_first_duplicate(unit, period)}"
            )

        cells = np.bincount((period - lo) * 2 + treatment, minlength=2 * n_periods)
        n_ctrl, n_treat = cells.reshape(n_periods, 2).T
        thin = np.flatnonzero((n_treat < 2) | (n_ctrl < 2))
        if thin.size:
            j = int(thin[0])
            raise InsufficientDataError(
                f"period {lo + j} needs >= 2 observations per group, "
                f"got treatment={n_treat[j]}, control={n_ctrl[j]}"
            )

    @property
    def k(self) -> int:
        """Number of pre-periods strictly before the reference period 0."""
        return -int(self.period.min())

    @property
    def n_rows(self) -> int:
        return self.outcome.shape[0]


@dataclass(frozen=True, eq=False)
class EstimateBundle:
    """Estimated coefficients (post first, then pre in -1..-K order) with
    their covariance; ``k`` is the number of pre coefficients."""

    beta_post: float
    beta_pre: np.ndarray
    sigma: CovarianceMatrix

    def __post_init__(self):
        beta_pre = np.asarray(self.beta_pre, dtype=float)
        object.__setattr__(self, "beta_pre", beta_pre)
        if beta_pre.ndim != 1:
            raise InvalidArgumentError(f"beta_pre must be one-dimensional, got shape {beta_pre.shape}")
        if self.sigma.dim != self.k + 1:
            raise InvalidArgumentError(
                f"sigma dimension {self.sigma.dim} does not match k + 1 = {self.k + 1}"
            )

    @property
    def k(self) -> int:
        return self.beta_pre.shape[0]

    @property
    def beta(self) -> np.ndarray:
        """Full coefficient vector (beta_post, beta_-1, ..., beta_-K)."""
        return np.concatenate(([self.beta_post], self.beta_pre))


def estimate_event_study(data: PanelData) -> EstimateBundle:
    """Event-study coefficients and their covariance, in one pass over the
    (group, period) cells' means, variances (ddof=1) and counts.

    The coefficients are the treated-minus-control cell means against
    period 0: exactly the saturated-regression OLS coefficients.  The
    covariance assumes cross-period independence: each period contributes
    ``v_t = s2_T/n_T + s2_C/n_C``, and every coefficient shares the
    reference-period term, so the off-diagonal entries all equal ``v_0`` and
    the diagonal is ``v_0 + v_t``.  Serially correlated errors are out of
    scope.
    """
    k = data.k
    # cell (period + K) * 2 + treated, periods ascending -K, ..., 0, 1
    code = (data.period + k) * 2 + data.treatment.astype(int)
    n_cells = 2 * (k + 2)
    counts = np.bincount(code, minlength=n_cells).astype(float)
    # sums of outcomes far from zero lose the low bits that differences of
    # means keep; centring on one data value makes the estimates invariant
    # to an exact shift of every outcome
    resid = data.outcome - data.outcome[0]
    means = np.bincount(code, weights=resid, minlength=n_cells) / counts
    resid -= means[code]
    variances = np.bincount(code, weights=resid * resid, minlength=n_cells) / (counts - 1.0)
    # per period: the treated-minus-control mean and its variance
    delta = means[1::2] - means[0::2]
    v = variances[1::2] / counts[1::2] + variances[0::2] / counts[0::2]
    # periods in coefficient order (1, -1, ..., -K); period 0 sits at index k
    order = np.concatenate(([k + 1], np.arange(k - 1, -1, -1)))
    beta = delta[order] - delta[k]
    cov = np.full((k + 1, k + 1), v[k])
    cov[np.diag_indices(k + 1)] += v[order]
    sigma = CovarianceMatrix(cov, allow_singular=True)
    return EstimateBundle(beta_post=float(beta[0]), beta_pre=beta[1:], sigma=sigma)


def _first_duplicate(unit: np.ndarray, period: np.ndarray) -> tuple:
    """The first (unit, period) pair, in row order, that repeats an earlier row."""
    seen = set()
    for key in zip(unit.tolist(), period.tolist()):
        if key in seen:
            return key
        seen.add(key)


def load_panel(path) -> PanelData:
    r"""Read and validate a panel CSV.

    The file is UTF-8 text with the header ``unit,period,treatment,outcome``.
    Its grammar:

    * fields are separated by commas; a field that starts with ``"`` is
      quoted and may hold commas, line breaks and doubled quotes ``""``
      (the ``csv`` module's default dialect);
    * blank lines are skipped, though they still count in line numbers;
    * whitespace around a field (``str.strip``) is ignored;
    * ``#`` is an ordinary character;
    * ``unit`` is any text;
    * ``period`` is an optional sign and ASCII digits, ``[+-]?[0-9]+``,
      within the signed 64-bit range;
    * ``treatment`` is exactly ``0`` or ``1``;
    * ``outcome`` is an ASCII number as ``float`` reads it, without
      underscores: ``[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?``,
      or ``inf``, ``infinity`` or ``nan`` with optional sign in any case
      (these three then fail validation as non-finite).

    Raises
    ------
    PanelParseError
        Malformed CSV content or bytes that are not UTF-8; the message
        carries the 1-based line number of the first offending line, counted
        as CSV records.
    PanelValidationError
        Structural violations (duplicates, missing periods, thin cells).
    """
    columns = _parse_columns(path)
    if columns is None:
        _raise_first_bad_line(path)
    unit, period, treatment, outcome = columns
    return PanelData(unit=unit, period=period, treatment=treatment, outcome=outcome)


def _read_header(reader) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise PanelParseError("empty file", line=1) from None
    except csv.Error as exc:
        raise PanelParseError(str(exc), line=1) from None
    _check_decoded(header, 1)
    if tuple(h.strip() for h in header) != PANEL_HEADER:
        raise PanelParseError(
            f"expected header {','.join(PANEL_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )


def _check_decoded(row: list[str], lineno: int) -> None:
    if any(_UNDECODABLE.search(field) for field in row):
        raise PanelParseError("not valid UTF-8", line=lineno)


def _strip(column: np.ndarray) -> np.ndarray:
    return np.fromiter(map(str.strip, column), dtype=object, count=column.shape[0])


def _parse_columns(path):
    """The body's columns (unit, period, treatment, outcome), parsed in one
    C-level pass with ``np.loadtxt``; None when any line is malformed."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            _read_header(csv.reader(fh))
            with warnings.catch_warnings():
                # an empty body is reported by the caller; older numpy reads
                # "1.0" as an integer with only a DeprecationWarning
                warnings.simplefilter("ignore", UserWarning)
                warnings.simplefilter("error", DeprecationWarning)
                body = np.loadtxt(
                    fh, dtype=_BODY_DTYPE, delimiter=",", quotechar='"',
                    comments=None, ndmin=1,
                )
    except ValueError:  # also UnicodeDecodeError
        return None
    treatment = body["treatment"]
    if not ((treatment == "0") | (treatment == "1")).all():
        treatment = _strip(treatment)
        if not ((treatment == "0") | (treatment == "1")).all():
            return None
    return (
        _strip(body["unit"]),
        np.ascontiguousarray(body["period"]),
        treatment == "1",
        np.ascontiguousarray(body["outcome"]),
    )


def _raise_first_bad_line(path) -> NoReturn:
    """Re-read a file the column-wise parse rejected, one record at a time,
    and raise for its first malformed line.

    The checks accept exactly the grammar of :func:`_parse_columns`, so a
    rejected file always gets a line number.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader)
        lineno = 1
        limit = csv.field_size_limit(sys.maxsize)  # loadtxt has no field size limit
        try:
            for lineno, row in enumerate(reader, start=2):
                if row:
                    _check_row(row, lineno)
        except csv.Error as exc:  # a NUL character, before Python 3.11
            raise PanelParseError(str(exc), line=lineno + 1) from None
        finally:
            csv.field_size_limit(limit)
    raise AssertionError(f"{path}: the column-wise parse rejected a well-formed file")


def _check_row(row: list[str], lineno: int) -> None:
    _check_decoded(row, lineno)
    if len(row) != 4:
        raise PanelParseError(f"expected 4 fields, got {len(row)}", line=lineno)
    _, period_s, treat_s, outcome_s = (f.strip() for f in row)
    if not (_INTEGER.fullmatch(period_s) and _INT64.min <= int(period_s) <= _INT64.max):
        raise PanelParseError(f"period {period_s!r} is not an integer", line=lineno)
    if treat_s not in ("0", "1"):
        raise PanelParseError(f"treatment {treat_s!r} must be 0 or 1", line=lineno)
    try:
        float(outcome_s)
        is_number = outcome_s.isascii() and "_" not in outcome_s
    except ValueError:
        is_number = False
    if not is_number:
        raise PanelParseError(f"outcome {outcome_s!r} is not a number", line=lineno)
