"""The package's public names."""

import importlib
import pkgutil

import pytest

import condid

MODULES = ["condid"] + [
    f"condid.{info.name}" for info in pkgutil.iter_modules(condid.__path__)
]

PUBLIC = [
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
    "TruncatedNormalSpec",
    "tn_cdf",
    "PolyhedralConstraint",
    "build_ns_polyhedron",
    "passes_pretest",
    "SimConfig",
    "SimTableRow",
    "run_table",
    "simulate_cell",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_exactly_the_public_names():
    # a new export is a new public promise: add it here on purpose
    assert condid.__all__ == PUBLIC
