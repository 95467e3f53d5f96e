"""Every name a module lists in ``__all__`` resolves, so a stale export fails; the CLI
imports no private name from a sibling module."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import shiftmodels
import shiftmodels.cli

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(shiftmodels.__path__)
    if hasattr(importlib.import_module(f"shiftmodels.{info.name}"), "__all__")
)


def test_exporting_modules_are_found():
    assert {"hardy", "semigroup", "series", "shimorin"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"shiftmodels.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"shiftmodels.{name}.__all__ names missing attributes: {missing}"


def test_cli_imports_no_private_name_from_a_sibling_module():
    # the CLI parses, calls and serializes: verdicts and thresholds stay behind public names
    tree = ast.parse(Path(shiftmodels.cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("shiftmodels"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"cli.py imports private names: {private}"
