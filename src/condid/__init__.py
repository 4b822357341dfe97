"""Difference-in-differences estimation and inference conditional on having
passed the pre-trends test.

The package exposes, on top of the usual event-study estimator:

* a pre-period-adjusted point estimator that is unbiased and strictly more
  efficient than the raw post coefficient whenever pre-trends are truly
  parallel,
* the exact truncated-normal law of any linear contrast of the estimated
  coefficients conditional on the pre-trends test having been passed,
* optimal median-unbiased (more generally quantile-unbiased) estimates and
  equal-tailed confidence intervals built on that law, for the post
  coefficient itself and for trend-adjusted contrasts, and
* a reproducible Monte Carlo harness that measures all of the above across
  replicated experiments.
"""

__version__ = "0.30.0"

from . import errors
from .errors import CondidError
from .estimators import (
    ConditionalLaw,
    InferenceReport,
    analyze,
    condition_contrast,
    conditional_ci,
    efficient_estimator,
    eta_gamma,
    quantile_unbiased_estimate,
)
from .event_study import (
    EstimateBundle,
    PanelData,
    estimate_event_study,
    load_panel,
)
from .gaussian import CovarianceMatrix
from .pretest import PolyhedralConstraint, build_ns_polyhedron, passes_pretest
from .simulation import SimConfig, SimTableRow, run_table, simulate_cell

__all__ = [
    "CondidError",
    "errors",
    "analyze",
    "condition_contrast",
    "conditional_ci",
    "efficient_estimator",
    "eta_gamma",
    "quantile_unbiased_estimate",
    "ConditionalLaw",
    "InferenceReport",
    "EstimateBundle",
    "PanelData",
    "estimate_event_study",
    "load_panel",
    "CovarianceMatrix",
    "PolyhedralConstraint",
    "build_ns_polyhedron",
    "passes_pretest",
    "SimConfig",
    "SimTableRow",
    "run_table",
    "simulate_cell",
]
