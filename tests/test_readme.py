"""The README's examples run, and what it lists as removed is gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import condid

REPO_ROOT = Path(__file__).resolve().parent.parent
README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def removed_names():
    """The first code span of each bullet under a "## Removed in" heading."""
    sections = re.findall(r"^## Removed in [^\n]*\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    return [name for text in sections for name in re.findall(r"^- `([^`]+)`", text, re.M)]


def test_python_blocks_run_from_repo_root(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert blocks
    monkeypatch.chdir(REPO_ROOT)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_removed_names_are_gone():
    names = removed_names()
    assert {"gaussian.solve_tn_mean", "errors.NoBracketError", "simulation.rows_to_csv",
            "simulation.rows_to_json", "simulation.json_number"} <= set(names)
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
        else:
            assert not any(hasattr(module, attr) for module in modules), name
