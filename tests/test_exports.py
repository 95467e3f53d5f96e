"""Every name a module lists in ``__all__`` resolves, so a stale export fails, and every
exported function is reached outside the tests; the CLI imports no private name from a
sibling module."""

import ast
import importlib
import inspect
import pkgutil
import re
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


def _loads_outside_own_body(tree: ast.Module, own: set[str]) -> set[str]:
    """Names and attributes the module loads; a load inside ``def f`` does not count for f in own."""
    used = set()
    for stmt in tree.body:
        skip = stmt.name if isinstance(stmt, ast.FunctionDef) and stmt.name in own else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != skip:
                used.add(name)
    return used


def test_every_exported_function_is_reached():
    # an exported function that no module of the package, other than the root's re-export,
    # calls and no benchmark job names is reached by tests alone: delete it, with its tests
    package = Path(shiftmodels.__file__).parent
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"shiftmodels.{name}")
        exported.update(
            (attr, getattr(module, attr))
            for attr in module.__all__
            if inspect.isfunction(getattr(module, attr))
        )
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            own = {n for n, fn in exported.items() if fn.__module__ == f"shiftmodels.{path.stem}"}
            used |= _loads_outside_own_body(ast.parse(path.read_text(encoding="utf-8")), own)
    perfbench = "\n".join(
        p.read_text(encoding="utf-8") for p in (Path(__file__).parents[1] / "perfbench").glob("*.py")
    )
    unreached = sorted(
        f"{fn.__module__}.{name}"
        for name, fn in exported.items()
        if name not in used and not re.search(rf"\b{name}\b", perfbench)
    )
    assert not unreached, f"exported functions that only tests reach: {unreached}"


def test_one_function_reads_the_pade_coefficients():
    # one Pade core serves single matrices and stacks alike: a second reader of the
    # coefficient table would be a second scaling-and-squaring implementation
    readers = []
    for path in sorted(Path(shiftmodels.__file__).parent.glob("*.py")):
        scopes = [f"{path.stem} (module level)"]

        def visit(node):
            is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if is_function:
                scopes.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
            loaded = (isinstance(node, ast.Name) and node.id == "_PADE13_B") or (
                isinstance(node, ast.Attribute) and node.attr == "_PADE13_B"
            )
            if loaded and isinstance(node.ctx, ast.Load):
                readers.append(scopes[-1])
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_function:
                scopes.pop()

        visit(ast.parse(path.read_text(encoding="utf-8")))
    assert len(set(readers)) == 1 and not readers[0].endswith("(module level)"), readers
