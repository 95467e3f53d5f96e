"""Every name a module lists in ``__all__`` resolves, so a stale export fails, and every
exported function and public method is reached outside the tests; the CLI imports no private
name from a sibling module."""

import ast
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path
from types import FunctionType

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


# a name bound to a module outside the package, and a value whose type is not resolved
_EXTERNAL, _UNKNOWN = object(), object()


def _qualified(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"


def _public_members() -> dict[str, str]:
    """Kind ("function", "method" or "classmethod") of every exported function and every public
    method or property of an exported class, by qualified name.

    A method is named by the class that defines it, so one that a private mixin lends to
    several classes (``operators._Acting.apply``) is one entry.
    """
    members = {}
    for name in MODULES:
        module = importlib.import_module(f"shiftmodels.{name}")
        for obj in (getattr(module, attr) for attr in module.__all__):
            if inspect.isfunction(obj):
                members[_qualified(obj)] = "function"
            elif inspect.isclass(obj):
                for owner in obj.__mro__:
                    if not owner.__module__.startswith("shiftmodels."):
                        continue
                    for attr, value in vars(owner).items():
                        if attr.startswith("_"):
                            continue
                        if isinstance(value, (classmethod, staticmethod)):
                            members[f"{_qualified(owner)}.{attr}"] = "classmethod"
                        elif isinstance(value, (FunctionType, property, cached_property)):
                            members[f"{_qualified(owner)}.{attr}"] = "method"
    return members


def _bindings(tree: ast.Module, home: str | None) -> dict:
    """What each global name of a file refers to: the module's own namespace for a package
    module ``home``, and the file's imports, with anything outside the package external."""

    def module(dotted: str):
        inside = dotted.split(".")[0] == "shiftmodels"
        return importlib.import_module(dotted) if inside else _EXTERNAL

    bound = dict(vars(importlib.import_module(f"shiftmodels.{home}"))) if home else {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:  # import a.b as c binds c to a.b
                    bound[alias.asname] = module(alias.name)
                else:  # import a.b binds a
                    top = alias.name.split(".")[0]
                    bound[top] = module(top)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("shiftmodels" if node.level else None, node.module)))
            source = module(base)
            for alias in node.names:
                if source is not _EXTERNAL and not hasattr(source, alias.name):
                    value = module(f"{base}.{alias.name}")  # a submodule not imported yet
                else:
                    value = getattr(source, alias.name, _EXTERNAL)
                bound[alias.asname or alias.name] = value
    return bound


def _references(source: str, home: str | None) -> set[str]:
    """What the loads in ``source`` refer to, resolved through its imports and globals.

    A function or a class attribute is named as ``module.qualname``; an attribute of a
    value whose type is not resolved (``x.inner``) is ``*.inner``, and counts only inside
    the package (``home``, the module the source is).  A load inside a function's own body
    refers neither to that function nor, as an attribute, to a method of its name.  Local
    names are not told apart from globals.  An attribute of an external module
    (``np.linalg.solve``) refers to nothing, and neither does a string.
    """
    tree = ast.parse(source)
    bound = _bindings(tree, home)
    refs = set()

    def resolve(node):
        if isinstance(node, ast.Name):
            value = bound.get(node.id, _UNKNOWN)
        elif isinstance(node, ast.Attribute):
            base = resolve(node.value)
            if base is _EXTERNAL:
                return _EXTERNAL
            value = getattr(base, node.attr, _UNKNOWN) if inspect.ismodule(base) else _UNKNOWN
        else:
            return _UNKNOWN
        if inspect.ismodule(value) and not value.__name__.startswith("shiftmodels"):
            return _EXTERNAL
        return value

    def visit(node, scope, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            if not isinstance(node, ast.ClassDef):
                own = own | {f"{home}.{'.'.join(scope)}"}
        ref = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            value = resolve(node)
            if inspect.isfunction(value):
                ref = _qualified(value)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = resolve(node.value)
            if inspect.ismodule(base):
                value = getattr(base, node.attr, None)
                ref = _qualified(value) if inspect.isfunction(value) else None
            elif inspect.isclass(base):
                owner = next((c for c in base.__mro__ if node.attr in vars(c)), None)
                ref = None if owner is None else f"{_qualified(owner)}.{node.attr}"
            elif base is not _EXTERNAL and home is not None:
                ref = f"*.{node.attr}"
                if any(name.rsplit(".", 1)[-1] == node.attr for name in own):
                    ref = None
        if ref is not None and ref not in own:
            refs.add(ref)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, own)

    visit(tree, (), frozenset())
    return refs


def _is_reached(member: str, kind: str, refs: set[str]) -> bool:
    """A classmethod is reached only as ``ClassName.method``; an instance method also as an
    attribute of any value whose type is not resolved."""
    return member in refs or (kind == "method" and f"*.{member.rsplit('.', 1)[-1]}" in refs)


# public members no production path reaches, each with the reason it stays
_ORACLE = (
    "the closed form of test_shimorin.py::test_weighted_parseval_identity, and the oracle of "
    "the vectorized weight prefix products planned for the model coefficients"
)
_KEPT = {
    "operators.EventuallyConstantWeights.beta_sq": _ORACLE,
    "operators.DirichletWeights.beta_sq": _ORACLE,
    "operators.FiniteSupportVector.entries": (
        "the (index, amplitude) pairs of a vector: the benchmark's reproduce-job oracle and its "
        "entries_rebuilt count read them as an attribute of a vector, a load the guard resolves "
        "only inside the package"
    ),
}


_PROBE = """
import numpy as np
from .numkit import ComplexMatrix, rank

def to_dense_matrix(T):
    return to_dense_matrix(T.parts[0])

def probe(a, b, spec, x):
    np.linalg.solve(a, b)
    label = "numkit.expm"
    return rank(x), spec.zeros, ComplexMatrix.from_json(label), vector_from_json(x)
"""


def test_the_guard_resolves_what_a_load_refers_to():
    # the guard is only as good as its resolver: pin what a load counts for
    refs = _references(_PROBE, "operators")
    # a global the source does not import is the module's own function; a call inside its
    # own body, np.linalg.solve, the string and the parameters name nothing
    assert refs == {
        "numkit.rank",
        "numkit.ComplexMatrix.from_json",
        "*.parts",
        "*.zeros",
        "operators.vector_from_json",
    }
    # spec.zeros could be an instance method, but never the classmethod ComplexMatrix.zeros
    assert _is_reached("numkit.ComplexMatrix.zeros", "method", refs)
    assert not _is_reached("numkit.ComplexMatrix.zeros", "classmethod", refs)
    assert not _is_reached("numkit.solve", "function", refs)
    # outside the package only loads resolved through an import of the package count
    imports = "import shiftmodels as sm\nfrom shiftmodels import cli\n"
    calls = 'sm.spectral_radius(x.inner(y))\ncli.main(["numkit.expm"])\n'
    outside = _references(imports + calls, None)
    assert outside == {"numkit.spectral_radius", "cli.main"}


def test_every_public_function_and_method_is_reached():
    # a public function or method that no module of the package, other than the root's
    # re-export, loads and no benchmark job loads through the package is reached by tests
    # alone: delete it, with its tests
    refs = set()
    for path in Path(shiftmodels.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            refs |= _references(path.read_text(encoding="utf-8"), path.stem)
    for path in (Path(__file__).parents[1] / "perfbench").glob("*.py"):
        refs |= _references(path.read_text(encoding="utf-8"), None)
    members = _public_members()
    unreached = sorted(m for m, kind in members.items() if not _is_reached(m, kind, refs))
    assert unreached == sorted(_KEPT), f"public members that only tests reach: {unreached}"


def test_every_private_function_is_loaded_by_the_package():
    # a private module-level function that no other code of the package loads outlived its
    # callers: tests and benchmark jobs do not keep it
    refs, private = set(), []
    for path in sorted(Path(shiftmodels.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # the root only re-exports
            continue
        source = path.read_text(encoding="utf-8")
        refs |= _references(source, path.stem)
        private += [
            f"{path.stem}.{node.name}"
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_")
        ]
    assert private, "no private functions found"
    unloaded = sorted(set(private) - refs)
    assert not unloaded, f"private functions no code of the package loads: {unloaded}"


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
