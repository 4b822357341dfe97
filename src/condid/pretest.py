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
    "PolyhedralConstraint",
    "build_ns_polyhedron",
    "ns_rows",
    "passes_pretest",
    "critical_value",
]


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
        """Weak elementwise check of A beta <= b (tiny slack for float noise)."""
        slack = rtol * max(1.0, float(np.abs(self.b_vector).max(initial=0.0)))
        return bool(np.all(self.a_matrix @ beta <= self.b_vector + slack))


def critical_value(alpha: float, name: str = "alpha") -> float:
    """Two-sided standard-normal critical value (1.959964... at alpha=0.05);
    ``alpha``, named ``name`` in the error, must lie in (0, 1) with
    ``1 - alpha/2`` below 1.0 in floating point (above about 1.1e-16)."""
    if not (0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
        raise InvalidArgumentError(
            f"{name} must lie strictly inside (0, 1), with 1 - alpha/2 below 1.0, got {alpha}"
        )
    return float(ndtri(1.0 - alpha / 2.0))


def build_ns_polyhedron(sigma: CovarianceMatrix, alpha: float = 0.05) -> PolyhedralConstraint:
    """The no-significant-pre-coefficient event as a polyhedron.

    2K rows: for each pre coefficient j, ``+beta_pre_j <= c * sd_j`` followed
    by the block of ``-beta_pre_j <= c * sd_j``, where ``sd_j`` is the
    coefficient's own standard error and ``c`` the two-sided critical value.
    The post coordinate gets zero weight in every row.
    """
    c = critical_value(alpha)
    pre_sd = np.sqrt(np.diag(sigma.entries)[1:])
    b = np.concatenate([c * pre_sd, c * pre_sd])
    return PolyhedralConstraint(a_matrix=ns_rows(sigma.k), b_vector=b)


def ns_rows(k: int) -> np.ndarray:
    """The 2K x (K+1) matrix of :func:`build_ns_polyhedron`: rows ``+e_j``
    for the pre coefficients -1..-K, then rows ``-e_j``."""
    a = np.zeros((2 * k, k + 1))
    a[:k, 1:] = np.eye(k)
    a[k:, 1:] = -np.eye(k)
    return a


def passes_pretest(bundle: EstimateBundle, alpha: float = 0.05) -> bool:
    """True when every pre coefficient is individually insignificant: the
    event of :func:`build_ns_polyhedron` without slack, whose +/-1 and 0 rows
    make ``A beta`` exact, so a coefficient exactly on the boundary passes."""
    return build_ns_polyhedron(bundle.sigma, alpha).holds_at(bundle.beta, rtol=0.0)
