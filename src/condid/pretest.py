"""Pre-trends acceptance: the no-individually-significant-coefficient rule
and its polyhedral representation in (post, pre) coefficient space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidArgumentError
from .event_study import EstimateBundle
from .gaussian import CovarianceMatrix

__all__ = [
    "ALPHA",
    "PolyhedralConstraint",
    "build_ns_polyhedron",
    "event_product",
    "ns_event",
    "passes_pretest",
    "critical_value",
]

ALPHA = 0.05  # the default of every significance level in the package


@dataclass(frozen=True, eq=False)
class PolyhedralConstraint:
    """A conditioning event {beta : A beta <= b}.

    Columns of ``a_matrix`` follow the (post, -1, ..., -K) coefficient order.
    """

    a_matrix: np.ndarray
    b_vector: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        b = np.asarray(self.b_vector, dtype=float).ravel()
        if a.shape[0] != b.shape[0]:
            raise InvalidArgumentError(
                f"constraint rows ({a.shape[0]}) and offsets ({b.shape[0]}) disagree"
            )
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_vector", b)

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[1]

    def holds_at(self, beta: np.ndarray, rtol: float = 1e-12) -> bool:
        """Weak elementwise check of A beta <= b (tiny slack for float noise),
        with A beta from :func:`event_product`."""
        slack = rtol * max(1.0, float(np.abs(self.b_vector).max(initial=0.0)))
        return bool(np.all(event_product(self.a_matrix, beta) <= self.b_vector + slack))


def critical_value(alpha: float, name: str = "alpha") -> float:
    """Two-sided standard-normal critical value (1.959964... at alpha=0.05);
    ``alpha``, named ``name`` in the error, must lie in (0, 1) with
    ``1 - alpha/2`` below 1.0 in floating point (above about 1.1e-16)."""
    if not (0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
        raise InvalidArgumentError(
            f"{name} must lie strictly inside (0, 1), with 1 - alpha/2 below 1.0, got {alpha}"
        )
    return float(ndtri(1.0 - alpha / 2.0))


def build_ns_polyhedron(sigma: CovarianceMatrix, alpha: float = ALPHA) -> PolyhedralConstraint:
    """The no-significant-pre-coefficient event of one covariance as a
    polyhedron: :func:`ns_event` at the pre coefficients' variances."""
    return PolyhedralConstraint(*ns_event(np.diag(sigma.entries)[1:], alpha))


def ns_event(pre_var: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The no-significant-pre-coefficient event ``a beta <= b``.

    ``pre_var`` holds the K pre coefficients' variances, shape (..., K).
    ``a`` is 2K x (K+1): for each pre coefficient j, a row ``+e_j`` (the
    event ``+beta_pre_j <= c * sd_j``), then the block of rows ``-e_j``; the
    post coordinate gets zero weight.  ``b`` has shape (..., 2K), each
    variance's bound ``c * sd_j`` once per sign, with ``c`` the two-sided
    critical value.  Its rows are +/-e_j, so :func:`event_product` forms
    ``a beta`` by gathering columns, exactly and with no BLAS call.
    """
    k = np.shape(pre_var)[-1]
    a = np.zeros((2 * k, k + 1))
    a[:k, 1:] = np.eye(k)
    a[k:, 1:] = -np.eye(k)
    return a, np.tile(critical_value(alpha) * np.sqrt(pre_var), 2)


def event_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x @ a.T``: every row of an event matrix ``a`` (r, d) against every
    vector of a stack ``x`` (..., d), shape (..., r).

    Where each row of ``a`` has a single nonzero entry, +1 or -1, as each row
    of :func:`ns_event` has, and ``x`` is finite, it gathers the columns of
    ``x`` and negates the ones under -1, calling no BLAS routine.
    Multiplying by +/-1 and adding zeros are exact, so this equals the
    product elementwise, the sign of a zero aside.  Any other matrix, and any
    stack holding an infinity or a NaN (which the product spreads to every
    row, as ``inf * 0`` is NaN), takes ``x @ a.T``.
    """
    # every row sums to +/-1 and there are as many nonzeros as rows: each row
    # has one nonzero entry, its sum
    sign = a.sum(axis=1)
    if not (np.count_nonzero(a) == len(a) == np.count_nonzero(np.abs(sign) == 1.0)
            and np.isfinite(x).all()):
        return x @ a.T
    out = np.asarray(x, dtype=float)[..., a.nonzero()[1]]
    out *= sign
    return out


def passes_pretest(bundle: EstimateBundle, alpha: float = ALPHA) -> bool:
    """True when every pre coefficient is individually insignificant: the
    event of :func:`build_ns_polyhedron` without slack, whose +/-1 and 0 rows
    make ``A beta`` exact, so a coefficient exactly on the boundary passes."""
    return build_ns_polyhedron(bundle.sigma, alpha).holds_at(bundle.beta, rtol=0.0)
