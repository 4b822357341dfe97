"""The README's examples run, it keeps no per-version notes, and what the
package removed is gone and recorded in CHANGES.md."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import condid
from condid import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
CHANGES = (REPO_ROOT / "CHANGES.md").read_text(encoding="utf-8")

# the removal ledger: what the package removed since 0.2.0, named from
# ``condid`` or, unqualified, from any of its modules
REMOVED_NAMES = (
    "estimators.BULK_BLOCK", "gaussian.BULK_BLOCK", "simulation.SimConfig.sigma_noise",
    "estimators.ConditionalLaw.z_vector", "estimators.ConditionalLaw.c_vector",
    "estimators.ConditionalLaw.eta", "gaussian.tn_cdf", "gaussian.TruncatedNormalSpec",
    "estimators.ConditionalLaw.spec", "estimators.ConditionalLaw.window", "pretest.ns_rows",
    "simulation.rows_to_csv", "simulation.rows_to_json", "simulation.json_number",
    "SimConfig.chunk_size", "simulation.ReplicationRecords.subset",
    "simulation.ReplicationRecords.n", "simulation.ReplicationRecords._ARRAYS",
    "errors.UnboundedEstimateError", "CovarianceMatrix.cholesky",
    "errors.DegenerateWindowError", "event_study.estimate_covariance", "event_study.CellStats",
    "gaussian.solve_tn_mean", "errors.NoBracketError", "SimConfig.fast_path",
    "simulation.generate_dgp", "simulation.CellDraws", "EquicorrelatedSpec",
    "equicorrelated_matrix", "equicorrelated_inverse", "mvn_sample",
    "conditional_moment_oracle", "errors.DegenerateAcceptanceError", "event_study.write_panel",
    "simulation.ReplicationRecords.concatenate", "simulation.BULK_BLOCK",
)
# (keyword, owner)
REMOVED_KEYWORDS = (
    ("m", "estimators.eta_gamma"), ("max_radius", "gaussian.solve_tn_mean_bulk"),
    ("max_iter", "gaussian.solve_tn_mean_bulk"), ("cdf_tol", "gaussian.solve_tn_mean_bulk"),
    ("k", "EstimateBundle"),
)
# (choice, command, option)
REMOVED_CHOICES = (("default", "simulate", "--dgp"),)
# (command, option, its arguments): with the command's required options,
# argparse refuses each as unrecognized
REMOVED_OPTIONS = (
    ("simulate", "--sigma", ["1"]), ("simulate", "--full-panel", []), ("eta", "--m", ["1"]),
)
REQUIRED = {"simulate": ["--table", "1", "--reps", "200", "--k-max", "1", "--output", "out.csv"],
            "eta": ["--k", "4", "--p", "1"]}


def owner_of(path):
    owner = condid
    for part in path:
        owner = getattr(owner, part)
    return owner


def test_python_blocks_run_from_repo_root(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    monkeypatch.chdir(REPO_ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_per_version_notes_live_in_the_changelog():
    # README states the present contract; CHANGES.md records each version
    assert not re.search(r"^## Changed in ", README, re.M)


def test_removals_live_in_the_changelog():
    # and each removal, with what replaces it
    assert not re.search(r"^## Removed in ", README, re.M)


def test_every_removal_is_recorded_with_its_replacement():
    # one line of CHANGES.md's removal entry for each, under its version
    lines = re.findall(r"^ +- (.*)$", CHANGES, re.M)
    recorded = (
        [f"`{name}`" for name in REMOVED_NAMES]
        + [f"The `{keyword}` keyword of `{owner}`" for keyword, owner in REMOVED_KEYWORDS]
        + [f"The `{choice}` choice of `{command} {option}`"
           for choice, command, option in REMOVED_CHOICES]
        + [f"The `{command} {option}` option" for command, option, _ in REMOVED_OPTIONS]
    )
    for text in recorded:
        assert sum(line.startswith(text) for line in lines) == 1, text


def test_removed_names_are_gone():
    assert len(set(REMOVED_NAMES)) == 37
    modules = [condid] + [
        importlib.import_module(f"condid.{info.name}")
        for info in pkgutil.iter_modules(condid.__path__)
    ]
    for name in REMOVED_NAMES:
        assert re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name), name
        *path, attr = name.split(".")
        if path:
            # a qualified name: its owner is still there, the name is not
            owner = owner_of(path)
            assert not hasattr(owner, attr), name
            # a dataclass field without a default is no class attribute
            if dataclasses.is_dataclass(owner):
                assert attr not in {f.name for f in dataclasses.fields(owner)}, name
        else:
            assert not any(hasattr(module, attr) for module in modules), name


def test_removed_keywords_are_gone():
    for keyword, owner in REMOVED_KEYWORDS:
        signature = inspect.signature(owner_of(owner.split(".")))
        assert keyword not in signature.parameters, (keyword, owner)
        # binds as a call does: one that passes the keyword is a TypeError
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            signature.bind_partial(**{keyword: 1})


def test_removed_choices_are_refused(capsys):
    for choice, command, flag in REMOVED_CHOICES:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, choice])
        assert exc.value.code == cli.EXIT_PARSE
        assert f"invalid choice: {choice!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, values", REMOVED_OPTIONS,
                         ids=["simulate-sigma", "simulate-full-panel", "eta-m"])
def test_removed_options_are_refused(command, option, values, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a run that took the option would write
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *REQUIRED[command], option, *values])
    assert exc.value.code == cli.EXIT_PARSE
    assert f"unrecognized arguments: {' '.join([option, *values])}" in capsys.readouterr().err
