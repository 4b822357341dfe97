"""Exception hierarchy for condid.

Numerical failures, data validation failures and CSV parse failures are kept
in separate branches so that callers (notably the CLI) can map them to
distinct exit codes.
"""

from __future__ import annotations


class CondidError(Exception):
    """Base class for all condid-specific errors."""


# --- numerical -------------------------------------------------------------


class NumericalError(CondidError):
    """Base class for numerical failures (exit code 4 in the CLI)."""


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted (or solved against) is singular."""


class CholeskyError(NumericalError):
    """A matrix required to be positive definite is not."""


class DegenerateWindowError(NumericalError):
    """A truncation window carries less probability mass than exp(-740)."""


class NoConvergenceError(NumericalError):
    """A bracketed root solve used up its iteration budget unconverged."""


class UnboundedEstimateError(NumericalError):
    """A quantile-unbiased solve diverged; the estimate is +/-infinity.

    ``side`` is -1 when the root lies below ``observed - 40*sd`` and +1 when
    it lies above ``observed + 40*sd``.
    """

    def __init__(self, message: str, side: int):
        super().__init__(message)
        self.side = side


class ZeroContrastError(NumericalError):
    """The contrast vector is zero (or has zero variance under sigma)."""


class ConstraintViolatedError(NumericalError):
    """The observed coefficient vector does not satisfy A beta <= b."""


class RankDeficientError(NumericalError):
    """The polynomial trend basis lost rank (defensive; distinct periods
    with trend order <= K cannot trigger this)."""


# --- arguments -------------------------------------------------------------


class InvalidArgumentError(CondidError):
    """A command-line argument is out of range (exit code 3 in the CLI)."""


# --- data ------------------------------------------------------------------


class PanelValidationError(CondidError):
    """Panel data violates a structural invariant (exit code 3 in the CLI)."""


class InsufficientDataError(PanelValidationError):
    """A (group, period) cell is empty or has a single observation."""


class NonContiguousPeriodsError(PanelValidationError):
    """Observed periods do not form a contiguous set {-K, ..., 0, 1}."""


class PanelParseError(CondidError):
    """A CSV input could not be parsed (exit code 2 in the CLI)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
