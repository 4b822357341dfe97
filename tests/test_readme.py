"""The README's examples run, it keeps no per-version notes, and what it
lists as removed is gone."""

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


def removed_sections():
    """The text under each "## Removed in" heading."""
    return re.findall(r"^## Removed in [^\n]*\n(.*?)(?=^## |\Z)", README, re.M | re.S)


def removed_bullets(pattern):
    """The matches of ``pattern`` at the start of a bullet under a "## Removed in" heading."""
    return [m for text in removed_sections() for m in re.findall(r"^- " + pattern, text, re.M)]


def removed_names():
    """The first code span of each bullet under a "## Removed in" heading."""
    return removed_bullets(r"`([^`]+)`")


def test_python_blocks_run_from_repo_root(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    monkeypatch.chdir(REPO_ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_per_version_notes_live_in_the_changelog():
    # README states the present contract; CHANGES.md records each version
    assert not re.search(r"^## Changed in ", README, re.M)


def test_removed_names_are_gone():
    names = removed_names()
    assert {"gaussian.solve_tn_mean", "errors.NoBracketError", "simulation.rows_to_csv",
            "simulation.rows_to_json", "simulation.json_number", "pretest.ns_rows",
            "estimators.ConditionalLaw.spec", "estimators.ConditionalLaw.window",
            "gaussian.tn_cdf", "gaussian.TruncatedNormalSpec",
            "estimators.ConditionalLaw.z_vector", "estimators.ConditionalLaw.c_vector",
            "estimators.ConditionalLaw.eta", "simulation.SimConfig.sigma_noise"} <= set(names)
    modules = [condid] + [
        importlib.import_module(f"condid.{info.name}")
        for info in pkgutil.iter_modules(condid.__path__)
    ]
    for name in names:
        assert re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name), name
        *path, attr = name.split(".")
        if path:
            # a qualified name: its owner is still there, the name is not
            owner = condid
            for part in path:
                owner = getattr(owner, part)
            assert not hasattr(owner, attr), name
            # a dataclass field without a default is no class attribute
            if dataclasses.is_dataclass(owner):
                assert attr not in {f.name for f in dataclasses.fields(owner)}, name
        else:
            assert not any(hasattr(module, attr) for module in modules), name


def test_removed_keywords_are_gone():
    bullets = removed_bullets(r"The ((?:`\w+`(?:,? and |, )?)+) keywords? of `([\w.]+)`")
    removed = {(kw, owner) for kws, owner in bullets for kw in re.findall(r"`(\w+)`", kws)}
    assert {("max_radius", "gaussian.solve_tn_mean_bulk"),
            ("max_iter", "gaussian.solve_tn_mean_bulk"),
            ("cdf_tol", "gaussian.solve_tn_mean_bulk"), ("m", "estimators.eta_gamma")} <= removed
    for keyword, owner in removed:
        function = condid
        for part in owner.split("."):
            function = getattr(function, part)
        assert keyword not in inspect.signature(function).parameters, (keyword, owner)


def test_removed_choices_are_refused(capsys):
    removed = removed_bullets(r"The `([\w-]+)` choice of `(\w+) (--[\w-]+)`")
    assert ("default", "simulate", "--dgp") in removed
    for choice, command, flag in removed:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, choice])
        assert exc.value.code == cli.EXIT_PARSE
        assert f"invalid choice: {choice!r}" in capsys.readouterr().err
