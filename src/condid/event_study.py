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
import io
import operator
import os
import re
import stat
import sys
import warnings
from dataclasses import InitVar, dataclass
from typing import NamedTuple, NoReturn

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
    "coefficients",
    "load_panel",
    "PANEL_HEADER",
]

PANEL_HEADER = ("unit", "period", "treatment", "outcome")

_INTEGER = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
# bytes that are not UTF-8 decode to these code points under "surrogateescape"
_UNDECODABLE = re.compile("[\udc80-\udcff]")
# np.loadtxt opens a file name with one of these endings as compressed
_DECOMPRESSED = (".bz2", ".gz", ".lzma", ".xz")
# bytes per step when counting a file's lines
_COUNT_BLOCK = 1 << 20
# rows per step of validation and estimation
_ROW_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class PanelData:
    """Long-format observations for one treated and one control group.

    Validated at construction: ``treatment`` must be boolean or coded 0/1,
    ``period`` must hold integers that fit in a signed 64-bit integer (an
    integer dtype, or objects that are integers and not bools; ``-1.7`` is
    refused, not truncated) and form a contiguous set {-K, ..., 0, 1} with
    K >= 1, ``outcome`` must hold finite real numbers (a complex column is
    refused), every (group, period) cell needs at least two observations,
    (unit, period) pairs must be unique, and every row of a unit must have
    the treatment of its first row: a unit keeps its group.  A panel that
    breaks several rules is refused for the first in that order: periods,
    pairs, groups, cells.

    ``unit`` is held as codes into a table of its distinct labels, coded in
    one ``dict`` pass or at the parse of :func:`load_panel`, and reads back as
    ``labels[codes]``; labels equal as ``dict`` keys, such as ``1`` and
    ``1.0``, are one unit, named by its first spelling.  Every per-row rule is
    checked from one exact key a row, ``code * n_cells + cell`` over the
    (group, period) cells estimation reads (``uint32`` while labels times
    cells stay below 2**32, ``uint64`` beyond), built in the pass that counts
    the cells and sorted once: a repeated pair or a unit in two groups has
    adjacent keys.  Only a refused panel sorts again, to name its first
    offender in row order.  Validation adds 5.0 traced bytes a row on a
    loaded 200 000-row K = 8 panel (10.5 with the ``dict`` pass),
    :func:`estimate_event_study` a fixed 0.6 MB.
    """

    unit: InitVar[np.ndarray]
    period: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray

    def __post_init__(self, unit):
        if not isinstance(unit, _Units):
            unit, labels = np.asarray(unit), _Labels()
            codes = np.fromiter(map(labels.__getitem__, unit), np.min_scalar_type(unit.size), unit.size)
            labels = np.fromiter(labels.table, unit.dtype, len(labels.table))  # frees the dict
            unit = _Units(codes, labels)
        period = np.asarray(self.period)
        treatment = np.asarray(self.treatment)
        if treatment.dtype != bool:
            if not np.isin(treatment, (0, 1)).all():
                raise PanelValidationError("treatment must be coded 0 or 1")
            treatment = treatment.astype(bool)
        outcome = np.asarray(self.outcome)
        if outcome.dtype.kind == "c":
            value = outcome.flat[np.argmax(outcome.imag != 0)]
            raise PanelValidationError(f"outcome must hold real numbers, got {value}")
        outcome = np.asarray(outcome, dtype=float)
        n = unit.codes.shape[0]
        if not (period.shape[0] == treatment.shape[0] == outcome.shape[0] == n):
            raise PanelValidationError("panel columns have unequal lengths")
        if n == 0:
            raise InsufficientDataError("panel contains no observations")
        period = _integer_periods(period)
        if not np.all(np.isfinite(outcome)):
            raise PanelValidationError("outcome contains non-finite values")
        object.__setattr__(self, "_units", unit)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "treatment", treatment)
        object.__setattr__(self, "outcome", outcome)

        lo, hi = int(period.min()), int(period.max())
        n_cells = 2 * (hi - lo + 1)
        # a contiguous range has a row in every period, so it spans at most n
        # periods and the counts stay O(rows)
        contiguous = hi == 1 and lo <= -1 and n_cells <= 2 * n
        if contiguous:
            # one exact key a row, code * n_cells + cell: key >> 1 is the
            # (unit, period) pair, key // n_cells the unit and the low bit
            # its treatment
            cells = np.zeros(n_cells, dtype=np.int64)
            keys = np.empty(n, np.uint32 if unit.labels.size * n_cells < 2**32 else np.uint64)
            for rows in _row_blocks(n):
                cell = _cell_codes(period[rows], treatment[rows], lo)
                cells += np.bincount(cell, minlength=n_cells)
                np.multiply(unit.codes[rows], n_cells, out=keys[rows], dtype=keys.dtype)
                keys[rows] += cell.astype(keys.dtype)  # uint64 + int64 is float64
                del cell  # one block of cells at a time
            object.__setattr__(self, "_cells", cells)
            n_ctrl, n_treat = cells.reshape(-1, 2).T
            contiguous = (n_ctrl + n_treat).all()
        if not contiguous:
            raise NonContiguousPeriodsError(
                f"periods must form a contiguous set {{-K,...,0,1}} with K >= 1, "
                f"got {_listing(np.unique(period))}"
            )

        # sorted, a repeated pair or a unit in two groups has adjacent keys
        keys.sort()
        repeated = switched = False
        for rows in _row_blocks(n - 1):
            key, after = keys[:-1][rows], keys[1:][rows]
            repeated |= (key >> 1 == after >> 1).any()
            switched |= ((key // n_cells == after // n_cells) & (key & 1 != after & 1)).any()
        del keys  # one array of the panel's length at a time
        if repeated:
            # a stable argsort keeps each run of equal pairs in row order, so
            # the least second row of a run is the first repeat
            pairs = unit.codes.astype(np.int64) * (n_cells // 2) + (period - lo)
            order = np.argsort(pairs, kind="stable")
            pairs = pairs[order]
            row = order[1:][pairs[1:] == pairs[:-1]].min()
            pair = unit.labels.item(unit.codes[row]), period.item(row)
            raise PanelValidationError(f"duplicate (unit, period) row: {pair}")
        if switched:
            # each row against its unit's first row
            _, first, code = np.unique(unit.codes, return_index=True, return_inverse=True)
            row = np.argmax(treatment != treatment[first][code])
            treated = bool(treatment[row])
            group = ("a control", "treated")
            raise PanelValidationError(
                f"unit {unit.labels.item(unit.codes[row])!r} is {group[not treated]} "
                f"in its first row but {group[treated]} at period {period[row]}"
            )

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


# set after the class body, where it would be the InitVar's default
PanelData.unit = property(lambda self: self._units.labels[self._units.codes], doc="The unit column.")


class _Units(NamedTuple):
    """A unit column as ``labels[codes]``."""

    codes: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True, eq=False)
class EstimateBundle:
    """Estimated coefficients (post first, then pre in -1..-K order) with
    their covariance, all finite; ``beta_post`` is one real number, stored
    as a ``float``, and ``k`` is the number of pre coefficients."""

    beta_post: float
    beta_pre: np.ndarray
    sigma: CovarianceMatrix

    def __post_init__(self):
        beta_post = np.asarray(self.beta_post)
        if beta_post.ndim != 0 or beta_post.dtype.kind not in "iuf":
            raise InvalidArgumentError(f"beta_post must be one real number, got {self.beta_post!r}")
        beta_post = float(beta_post)
        beta_pre = np.asarray(self.beta_pre)
        if beta_pre.dtype.kind == "c":
            value = beta_pre.flat[np.argmax(beta_pre.imag != 0)]
            raise InvalidArgumentError(f"beta_pre must hold real numbers, got {value}")
        beta_pre = np.asarray(beta_pre, dtype=float)
        object.__setattr__(self, "beta_post", beta_post)
        object.__setattr__(self, "beta_pre", beta_pre)
        if beta_pre.ndim != 1:
            raise InvalidArgumentError(f"beta_pre must be one-dimensional, got shape {beta_pre.shape}")
        for name, value in (("beta_post", beta_post), ("beta_pre", beta_pre)):
            if not np.isfinite(value).all():
                raise InvalidArgumentError(f"{name} must be finite, got {value}")
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
    scope.  A cell whose outcomes are all equal has ``s2`` exactly 0.
    Outcomes so large that a cell's sum or squared deviations, or a
    coefficient, overflow raise :class:`PanelValidationError`, and so does
    an outcome constant within each group in two or more periods, which
    makes the covariance singular.
    """
    k = data.k
    n_cells = 2 * (k + 2)
    # sums of outcomes far from zero lose the low bits that differences of
    # means keep; centring on one data value makes the estimates invariant
    # to an exact shift of every outcome
    origin = data.outcome[0]

    def residuals(rows):
        code = _cell_codes(data.period[rows], data.treatment[rows], -k)
        return code, data.outcome[rows] - origin

    # np.add.at adds in row order, as one bincount over the whole panel
    # would, so the sums hold the same bits a block of rows at a time; an
    # overflow here or below is refused, naming the input, not warned about
    sums = np.zeros(n_cells)
    # a cell whose least and greatest outcomes are equal has variance 0, not
    # the dust of its deviations from a rounded mean
    least, most = np.full(n_cells, np.inf), np.full(n_cells, -np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(data.n_rows):
            code, resid = residuals(rows)
            np.add.at(sums, code, resid)
            # a loaded panel's outcome is a strided view of its rows, on
            # which ufunc.at runs about ten times slower
            outcome = np.ascontiguousarray(data.outcome[rows])
            np.minimum.at(least, code, outcome)
            np.maximum.at(most, code, outcome)
    _refuse_overflow(data.outcome, sums, "cell sums")
    counts = data._cells.astype(float)  # counted in validation
    means = sums / counts
    squares = np.zeros(n_cells)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(data.n_rows):
            code, resid = residuals(rows)
            resid -= means[code]
            resid *= resid
            np.add.at(squares, code, resid)
    _refuse_overflow(data.outcome, squares, "cell squared deviations")
    constant = least == most
    variances = np.where(constant, 0.0, squares) / (counts - 1.0)
    # per period: the treated-minus-control mean and its variance
    with np.errstate(over="ignore", invalid="ignore"):
        delta = means[1::2] - means[0::2]
        v = variances[1::2] / counts[1::2] + variances[0::2] / counts[0::2]
        beta, v0, v_coef = coefficients(delta, v)
    _refuse_overflow(data.outcome, beta, "coefficients")
    # Cov(beta) = v0 + diag(v_coef) is singular once two of the per-period
    # v are zero: once two periods are constant within each group
    flat = np.flatnonzero(constant[1::2] & constant[0::2])
    if flat.size >= 2:
        raise PanelValidationError(
            f"outcome is constant within each group at periods {_listing(flat - k)}, "
            f"so the covariance of the coefficients is singular"
        )
    sigma = CovarianceMatrix(np.diag(v_coef) + v0, allow_singular=True)
    return EstimateBundle(beta_post=float(beta[0]), beta_pre=beta[1:], sigma=sigma)


def _refuse_overflow(outcome: np.ndarray, values: np.ndarray, what: str) -> None:
    """Refuse a panel whose ``values`` overflowed, naming the outcome's
    largest magnitude."""
    if not np.isfinite(values).all():
        raise PanelValidationError(
            f"outcome values up to {float(np.abs(outcome).max())!r} in magnitude overflow "
            f"the {what}"
        )


def coefficients(delta: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients in (post, -1, ..., -K) order from per-period
    treated-minus-control means ``delta`` and their variances ``v``, with the
    periods -K, ..., 0, 1 on the last axis of any stack.  Returns ``(beta,
    v0, v_coef)``: ``beta_t = delta_t - delta_0`` and, for independent
    periods, Cov(beta) = ``v0`` + diag(``v_coef``).  The estimator and the
    simulator both build their coefficients here.
    """
    k = delta.shape[-1] - 2
    order = np.concatenate(([k + 1], np.arange(k - 1, -1, -1)))
    return delta[..., order] - delta[..., k, None], v[..., k], v[..., order]


def _integer_periods(period: np.ndarray) -> np.ndarray:
    """``period`` as ``int``.  An integer dtype passes, and so does an object
    column of integers that are not bools (``errors.as_integer``'s rule);
    anything else, such as ``-1.7``, is refused rather than truncated."""
    if np.issubdtype(period.dtype, np.integer):
        # astype(int) would wrap 2**64 - 1 to -1
        top = np.uint64(_INT64.max)
        if period.dtype == np.uint64 and period.max() > top:
            _refuse_period(period[np.argmax(period > top)])
        return period.astype(int, copy=False)
    if period.dtype == object and not any(isinstance(p, (bool, np.bool_)) for p in period.flat):
        try:
            values = [operator.index(p) for p in period.flat]
            return np.array(values, dtype=int).reshape(period.shape)
        except TypeError:
            pass
        except OverflowError:
            _refuse_period(next(p for p in values if not _INT64.min <= p <= _INT64.max))
    raise PanelValidationError(f"period must hold integers, got dtype {period.dtype}")


def _refuse_period(value) -> NoReturn:
    raise PanelValidationError(f"period must fit in a signed 64-bit integer, got {value}")


def _row_blocks(n: int):
    """Slices of at most ``_ROW_BLOCK`` rows that cover ``range(n)`` in order."""
    return (slice(start, start + _ROW_BLOCK) for start in range(0, n, _ROW_BLOCK))


def _cell_codes(period: np.ndarray, treatment: np.ndarray, lo: int) -> np.ndarray:
    """Cell ``(period - lo) * 2 + treated``: periods ascending, control first."""
    code = period - lo
    code *= 2
    code += treatment
    return code


def _listing(periods: np.ndarray) -> str:
    """The sorted distinct ``periods`` as a list, cut after the first 20."""
    if periods.size <= 20:
        return str(periods.tolist())
    shown = ", ".join(map(str, periods[:20].tolist()))
    return f"[{shown}, ...] ({periods.size} distinct periods, {periods[0]} to {periods[-1]})"


def load_panel(path) -> PanelData:
    r"""Read and validate a panel CSV.

    The file is UTF-8 text with the header ``unit,period,treatment,outcome``,
    optionally preceded by a byte-order mark (U+FEFF).  Its grammar:

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

    Each unit label is stripped once and parsed to its code, its index among
    the distinct labels in order of first sight (the label table holds one
    ``str`` a label), in the narrowest unsigned type that holds the row bound
    below, and treatment straight to ``bool``:
    the body takes 21 bytes a row below 2**32 rows, and the columns are views
    of it.  numpy reads a regular file itself, in blocks, from the line after
    the header, under its absolute name, and allocates the body once: every
    record starts a line that is not empty, so the file's non-empty lines,
    less the header's, bound the rows.  Three kinds of file are read through
    the handle that read the header, one line per call, under the same bound:
    a pipe or other special file, a file with a line break inside a unit
    label (numpy's own open would read a quoted CR or CRLF as LF) and a name
    numpy would decompress.  Loading and validating a 200 000-row K = 8 panel
    of 20 000 labels peak at about 33 traced bytes per row.

    ``path`` may be a descriptor, which stays open.  A source that cannot
    seek, such as a pipe, is read into memory first, so that a malformed
    file's error is found in the same bytes.

    Raises
    ------
    PanelParseError
        Malformed CSV content or bytes that are not UTF-8; the message
        carries the 1-based line number of the first offending line, counted
        as CSV records.
    PanelValidationError
        Structural violations (duplicates, missing periods, thin cells, a
        unit that changes group).
    """
    with _open_text(path) as fh:
        start = fh.tell()
        columns = _parse_columns(fh, path)
        if columns is None:
            fh.seek(start)
            fh.reconfigure(errors="surrogateescape")
            _raise_first_bad_line(fh)
    unit, period, treatment, outcome = columns
    return PanelData(unit=unit, period=period, treatment=treatment, outcome=outcome)


def _open_text(path) -> io.TextIOWrapper:
    """``path`` as seekable UTF-8 text; a source that cannot seek is read
    into memory, and a descriptor is left open when the handle closes."""
    raw = open(path, "rb", closefd=not isinstance(path, int))
    if not raw.seekable():
        with raw:
            raw = io.BytesIO(raw.read())
    return io.TextIOWrapper(raw, encoding="utf-8", newline="")


def _read_header(reader) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise PanelParseError("empty file", line=1) from None
    except csv.Error as exc:
        raise PanelParseError(str(exc), line=1) from None
    if header:  # a byte-order mark, as spreadsheets write one
        header[0] = header[0].removeprefix("\ufeff")
    _check_decoded(header, 1)
    if tuple(h.strip() for h in header) != PANEL_HEADER:
        raise PanelParseError(
            f"expected header {','.join(PANEL_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )


def _check_decoded(row: list[str], lineno: int) -> None:
    if any(_UNDECODABLE.search(field) for field in row):
        raise PanelParseError("not valid UTF-8", line=lineno)


class _Labels(dict):
    """Label -> its code, its index in ``table``, the distinct labels in
    order of first sight; labels are equal as ``dict`` keys are.  Under
    ``strip`` a label is a CSV field, coded as its stripped text."""

    def __init__(self, strip: bool = False):
        super().__init__()
        self.strip = strip
        self.table = []

    def __missing__(self, label) -> int:
        text = label.strip() if self.strip else label
        code = self[label] = self.setdefault(text, len(self.table))
        if code == len(self.table):
            self.table.append(text)
        return code


class _Treatment(dict):
    """Treatment field -> ``bool``; the stripped field must be ``0`` or ``1``."""

    def __missing__(self, field: str) -> bool:
        value = field.strip()
        if value not in ("0", "1"):
            raise ValueError(f"treatment {value!r} must be 0 or 1")
        return value == "1"


_TREATMENT = _Treatment({"0": False, "1": True})


def _name_for_numpy(path, fh) -> str | None:
    """The name under which ``np.loadtxt`` reads the bytes ``fh`` read, or
    None: a source read into memory, a file that is not regular, a
    descriptor, or a name numpy decompresses.  The name is absolute, so
    numpy never takes it for a URL."""
    if (
        isinstance(path, int)
        or isinstance(fh.buffer, io.BytesIO)
        or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    ):
        return None
    name = os.path.abspath(os.fsdecode(path))
    return None if name.endswith(_DECOMPRESSED) else name


def _nonempty_lines(raw) -> int:
    """The lines of the binary source ``raw``, from its start, that hold a
    byte other than CR or LF, where LF, a lone CR and CRLF each end a line,
    as in numpy's universal-newline read.  Counted over ``_COUNT_BLOCK``
    blocks: slices of a buffer read into memory, or ``os.pread`` blocks of
    a file, which leave its offset where it was."""
    count, open_line = 0, False
    for block in _byte_blocks(raw):
        byte = np.frombuffer(block, dtype=np.uint8)
        ends = (byte == 10) | (byte == 13)
        # a line's content ends where a line break follows a byte that is not one
        count += np.count_nonzero(ends[1:] > ends[:-1]) + bool(open_line and ends[0])
        open_line = not ends[-1]
    return count + open_line


def _byte_blocks(raw):
    if isinstance(raw, io.BytesIO):
        data = memoryview(raw.getvalue())  # the buffer itself, not a copy
        for start in range(0, len(data), _COUNT_BLOCK):
            yield data[start : start + _COUNT_BLOCK]
    else:
        offset = 0
        while block := os.pread(raw.fileno(), _COUNT_BLOCK, offset):
            offset += len(block)
            yield block


def _load_body(source, fields: _Labels, skiprows: int, max_rows: int) -> np.ndarray:
    dtype = np.dtype([("unit", np.min_scalar_type(max_rows)), ("period", np.int64),
                      ("treatment", bool), ("outcome", np.float64)])
    with warnings.catch_warnings():
        # an empty body is reported by the caller; older numpy reads
        # "1.0" as an integer with only a DeprecationWarning
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        # an explicit encoding also keeps numpy 1.x's default, "bytes", from
        # handing the converters latin-1 bytes
        return np.loadtxt(
            source, dtype=dtype, delimiter=",", quotechar='"', comments=None,
            ndmin=1, skiprows=skiprows, max_rows=max_rows, encoding="utf-8",
            converters={0: fields.__getitem__, 2: _TREATMENT.__getitem__},
        )


def _parse_columns(fh, path):
    """The body's columns (unit, period, treatment, outcome) from the UTF-8
    text handle ``fh`` on ``path``, parsed in one C-level pass with
    ``np.loadtxt``; None when any line is malformed.  The unit codes and the
    other columns are views of one structured array."""
    try:
        reader = csv.reader(fh)
        _read_header(reader)
        # every record starts a line that is not empty, and so does the header
        max_rows = _nonempty_lines(fh.buffer) - 1
        name = _name_for_numpy(path, fh)
        fields = _Labels(strip=True)
        if name is None:
            body = _load_body(fh, fields, 0, max_rows)
        else:
            # numpy reads a named file in blocks, a handle line by line
            body = _load_body(name, fields, reader.line_num, max_rows)
            # numpy's own open reads a quoted CR or CRLF as LF
            if any("\n" in field for field in fields):
                del body  # one body at a time
                fh.seek(0)
                _read_header(csv.reader(fh))
                fields = _Labels(strip=True)
                body = _load_body(fh, fields, 0, max_rows)
    except ValueError:  # also UnicodeDecodeError
        return None
    labels = np.fromiter(fields.table, object, len(fields.table))
    return _Units(body["unit"], labels), body["period"], body["treatment"], body["outcome"]


def _raise_first_bad_line(fh) -> NoReturn:
    """Re-read, one record at a time, the text the column-wise parse
    rejected, from ``fh`` at its start, and raise for its first malformed
    line.

    The checks accept exactly the grammar of :func:`_parse_columns`, so a
    rejected file always gets a line number.
    """
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
    raise AssertionError("the column-wise parse rejected a well-formed file")


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
