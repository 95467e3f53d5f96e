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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)


def _containers(function: ast.FunctionDef | ast.AsyncFunctionDef, bound: dict) -> frozenset:
    """Local names of ``function`` that each of its bindings binds to a new list, dict or set:
    a display, a comprehension, or a call of the builtin ``list``, ``dict`` or ``set``."""

    def new_container(value) -> bool:
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in ("list", "dict", "set") and value.func.id not in bound
        return isinstance(value, _DISPLAYS)

    def pairs(target, value):  # (name node, value) for a name or a tuple unpacked from a tuple
        if isinstance(target, ast.Name):
            yield target, value
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            if len(target.elts) == len(value.elts):
                for t, v in zip(target.elts, value.elts):
                    yield from pairs(t, v)

    def own(node):  # the nodes of this scope, without those of a nested one
        for child in ast.iter_child_nodes(node):
            yield child
            if not isinstance(child, _SCOPES):
                yield from own(child)

    made, stores = set(), []
    for node in own(function):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else (node.target,)
            for target in targets:
                made |= {id(n) for n, v in pairs(target, node.value) if new_container(v)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.append(node)
    containers = {n.id for n in stores if id(n) in made}
    others = {n.id for n in stores if id(n) not in made}
    others |= {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
    return frozenset(containers - others)


def _references(source: str, home: str | None) -> set[str]:
    """What the loads in ``source`` refer to, resolved through its imports and globals.

    A function or a class attribute is named as ``module.qualname``; an attribute of a
    value whose type is not resolved (``x.inner``) is ``*.inner``, and counts only inside
    the package (``home``, the module the source is).  A load inside a function's own body
    refers neither to that function nor, as an attribute, to a method of its name.  A local
    name that its function binds only to a new list, dict or set is external, so
    ``seen.add(k)`` on ``seen = set()`` names nothing; other local names are not told apart
    from globals.  An attribute of an external module (``np.linalg.solve``) refers to
    nothing, and neither does a string.
    """
    tree = ast.parse(source)
    bound = _bindings(tree, home)
    refs = set()

    def resolve(node, local):
        if isinstance(node, ast.Name):
            if node.id in local:
                return _EXTERNAL
            value = bound.get(node.id, _UNKNOWN)
        elif isinstance(node, ast.Attribute):
            base = resolve(node.value, local)
            if base is _EXTERNAL:
                return _EXTERNAL
            value = getattr(base, node.attr, _UNKNOWN) if inspect.ismodule(base) else _UNKNOWN
        else:
            return _UNKNOWN
        if inspect.ismodule(value) and not value.__name__.startswith("shiftmodels"):
            return _EXTERNAL
        return value

    def visit(node, scope, own, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            if not isinstance(node, ast.ClassDef):
                own = own | {f"{home}.{'.'.join(scope)}"}
                local = _containers(node, bound)
        ref = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            value = resolve(node, local)
            if inspect.isfunction(value):
                ref = _qualified(value)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = resolve(node.value, local)
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
            visit(child, scope, own, local)

    visit(tree, (), frozenset(), frozenset())
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
from .numkit import rank
from .series import PowerSeries

def to_dense_matrix(T):
    return to_dense_matrix(T.parts[0])

def probe(a, b, spec, x):
    np.linalg.solve(a, b)
    label = "numkit.expm"
    return rank(x), spec.zeros, PowerSeries.constant(label), isometric_shift(x)

def collect(ks, spec):
    seen, pairs = set(), []
    names = {k: k for k in ks}
    for k in ks:
        seen.add(k)
        pairs.append(k)
        names.update(k)
    other = []
    other = spec.copy()
    return other.extend(seen)
"""


def test_the_guard_resolves_what_a_load_refers_to():
    # the guard is only as good as its resolver: pin what a load counts for
    refs = _references(_PROBE, "operators")
    # a global the source does not import is the module's own function; a call inside its
    # own body, np.linalg.solve, the string and the parameters name nothing; nor do the
    # methods of a local bound only to a new set, list or dict (seen, pairs, names), but
    # those of one also bound to something else (other) do
    assert refs == {
        "numkit.rank",
        "series.PowerSeries.constant",
        "*.parts",
        "*.zeros",
        "operators.isometric_shift",
        "*.copy",
        "*.extend",
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


def _scopes_where(found) -> list[str]:
    """The enclosing function (``module.name``, or ``module (module level)``) of each node
    of the package source for which ``found(node)`` holds."""
    scopes_found = []
    for path in sorted(Path(shiftmodels.__file__).parent.glob("*.py")):
        scopes = [f"{path.stem} (module level)"]

        def visit(node):
            is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if is_function:
                scopes.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
            if found(node):
                scopes_found.append(scopes[-1])
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_function:
                scopes.pop()

        visit(ast.parse(path.read_text(encoding="utf-8")))
    return scopes_found


def _names(node, name: str) -> bool:
    """Whether ``node`` is the name or attribute ``name``."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_one_function_reads_the_pade_coefficients():
    # one Pade core serves single matrices and stacks alike: a second reader of the
    # coefficient table would be a second scaling-and-squaring implementation
    readers = _scopes_where(
        lambda node: _names(node, "_PADE13_B") and isinstance(node.ctx, ast.Load)
    )
    assert len(set(readers)) == 1 and not readers[0].endswith("(module level)"), readers


def test_relative_rank_cutoffs_are_formed_in_two_places():
    # numkit._rank_of is the one relative cutoff rank_tol s_max for a matrix or a stack;
    # classify._core keeps its absolute cutoff rank_tol ||T||_2 for the range iteration.
    # A product with rank_tol, or a comparison against it, anywhere else is a second rule.
    def cutoff(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            return _names(node.left, "rank_tol") or _names(node.right, "rank_tol")
        if isinstance(node, ast.Compare):
            return any(_names(side, "rank_tol") for side in (node.left, *node.comparators))
        return False

    assert set(_scopes_where(cutoff)) == {"numkit._rank_of", "classify._core"}
