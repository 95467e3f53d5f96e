"""Every name a module lists in ``__all__`` resolves, so a stale export fails."""

import importlib
import pkgutil

import pytest

import shiftmodels

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
