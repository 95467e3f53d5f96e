"""In-memory spans around the public functions of every shiftmodels module.

``Tracer.install`` wraps each public function of the nine working modules
(and a few public methods: vector arithmetic, Toeplitz materialisation and
``ComplexMatrix`` construction) and rebinds every reference to the original
in the package's module namespaces, so calls between modules pass through
the wrappers too.  ``uninstall`` puts the originals back.  Nothing under
``src/`` is modified; the wrappers call straight through, so traced outputs
are bit-identical to untraced ones.

Self time of a module is the time inside its spans minus the part covered
by nested spans of other modules.  Counts are exact; the ``macs``,
``entries_rebuilt`` and ``toeplitz_entries`` counts are computed from
argument and result sizes, not measured inside the kernels.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "numkit",
    "operators",
    "classify",
    "semigroup",
    "shimorin",
    "series",
    "hardy",
    "acceptance",
    "cli",
)

SUITE = "semigroup.concavity_equivalence_suite"
_CRITERION = re.compile(r"criterion_(\d+)_")


def _tri(n: int) -> int:
    return n * (n + 1) // 2


# Computed work counts, keyed by span name: hook(tracer, args, kwargs, result).
def _count_add(tr, args, kwargs, result):
    tr.counts["operators.vector_ops"] += 1
    tr.counts["operators.entries_rebuilt"] += len(result.entries)


def _count_vector_op(tr, args, kwargs, result):
    tr.counts["operators.vector_ops"] += 1


def _count_classify(tr, args, kwargs, result):
    if tr.active[SUITE]:
        tr.counts["classify.in_suite"] += 1


def _count_multiplier(tr, args, kwargs, result):
    N = args[1] if len(args) > 1 else kwargs["N"]
    tr.counts["shimorin.multiplier.macs_computed"] += _tri(N)


def _count_series_tri(tr, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    N = args[1] if len(args) > 1 else kwargs.get("N")
    tr.counts["series.macs_computed"] += _tri(f.order if N is None else N)


def _count_series_mul(tr, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    g = args[1] if len(args) > 1 else kwargs["g"]
    tr.counts["series.macs_computed"] += f.coeffs.size * g.coeffs.size


def _count_series_eval(tr, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    tr.counts["series.macs_computed"] += f.coeffs.size


def _count_toeplitz(tr, args, kwargs, result):
    tr.counts["hardy.toeplitz_entries"] += args[0].dimension ** 2


def _count_matrix(tr, args, kwargs, result):
    tr.counts["numkit.matrix_constructions"] += 1


def _count_cli_main(tr, args, kwargs, result):
    # the CLI turns a typed refusal into exit code 3 instead of raising it
    if result == 3:
        tr.refusals["cli"] += 1


HOOKS = {
    "operators.FiniteSupportVector.add": _count_add,
    "operators.FiniteSupportVector.sub": _count_vector_op,
    "operators.FiniteSupportVector.scale": _count_vector_op,
    "operators.apply": _count_vector_op,
    "operators.adjoint_apply": _count_vector_op,
    "classify.classify_operator": _count_classify,
    "shimorin.semigroup_multiplier": _count_multiplier,
    "series.series_exp": _count_series_tri,
    "series.series_inv": _count_series_tri,
    "series.series_mul": _count_series_mul,
    "series.series_eval": _count_series_eval,
    "hardy.ToeplitzTrunc.matrix": _count_toeplitz,
    "numkit.ComplexMatrix.__post_init__": _count_matrix,
    "cli.main": _count_cli_main,
}


class Tracer:
    """Installs spans, aggregates them in memory, and removes them again."""

    def __init__(self, package) -> None:
        self.package = package
        self.errors = importlib.import_module(package.__name__ + ".errors")
        self.modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES
        }
        self._undo: list[tuple[object, str, object]] = []
        self.stack: list[list] = []
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.refusals: Counter = Counter()
        self.span_calls: Counter = Counter()
        self.span_self_s: defaultdict = defaultdict(float)
        self.span_wall_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("spans are already installed")
        # id -> (original, wrapper); the originals stay referenced, so ids are stable
        wrappers: dict[int, tuple[object, object]] = {}
        for name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(name, f"{name}.{attr}", obj))
        for namespace in (self.package, *self.modules.values()):
            for attr, obj in list(vars(namespace).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._set(namespace, attr, wrapper)
        acceptance = self.modules["acceptance"]
        self._set(
            acceptance,
            "ALL_CRITERIA",
            tuple(wrappers[id(fn)][1] for fn in acceptance.ALL_CRITERIA),
        )
        numkit, operators, hardy = (self.modules[m] for m in ("numkit", "operators", "hardy"))
        for module, cls, method in (
            ("numkit", numkit.ComplexMatrix, "__post_init__"),
            ("operators", operators.FiniteSupportVector, "add"),
            ("operators", operators.FiniteSupportVector, "sub"),
            ("operators", operators.FiniteSupportVector, "scale"),
            ("hardy", hardy.ToeplitzTrunc, "matrix"),
        ):
            key = f"{module}.{cls.__name__}.{method}"
            self._set(cls, method, self._wrap(module, key, cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- spans ------------------------------------------------------------

    def _wrap(self, module: str, key: str, fn):
        tracer = self
        refusal = self.errors.ToolkitError
        hook = HOOKS.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer.stack
            frame = [module, 0.0]  # module, time covered by other modules' spans
            stack.append(frame)
            tracer.active[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except refusal:
                if len(stack) < 2 or stack[-2][0] != module:
                    tracer.refusals[module] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tracer.active[key] -= 1
                tracer._close(module, key, frame[1], elapsed)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return span

    def _close(self, module: str, key: str, other: float, elapsed: float) -> None:
        self.calls[module] += 1
        self.span_calls[key] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent[0] == module:
            parent[1] += other
        else:
            self.self_s[module] += elapsed - other
            if parent is not None:
                parent[1] += elapsed
        if self.active[key] == 0:
            self.span_self_s[key] += elapsed - other
            self.span_wall_s[key] += elapsed

    # -- report -----------------------------------------------------------

    def per_layer(self, passes: int, traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics as ``name -> (value, unit)``.

        ``traced_wall_s`` is the summed job time of the traced passes.  A
        ratio whose base is zero (no work of that kind ran) reports 0.
        """

        def per_pass(total):
            return total // passes if isinstance(total, int) else total / passes

        out: dict[str, tuple[float, str]] = {}
        for name in MODULES:
            self_s = self.self_s[name]
            out[f"{name}.calls"] = (per_pass(self.calls[name]), "count")
            out[f"{name}.self_s"] = (self_s / passes, "s")
            out[f"{name}.share"] = (self_s / traced_wall_s if traced_wall_s else 0.0, "ratio")
            out[f"{name}.refusals"] = (per_pass(self.refusals[name]), "count")

        out["numkit.expm.calls"] = (per_pass(self.span_calls["numkit.expm"]), "count")
        out["numkit.expm.self_s"] = (self.span_self_s["numkit.expm"] / passes, "s")
        out["numkit.matrix_constructions"] = (
            per_pass(self.counts["numkit.matrix_constructions"]),
            "count",
        )
        suites = self.span_calls[SUITE]
        out["classify.classify_per_suite"] = (
            self.counts["classify.in_suite"] / suites if suites else 0.0,
            "calls/suite",
        )
        out["semigroup.suite.self_s"] = (self.span_self_s[SUITE] / passes, "s")
        for name in ("operators.vector_ops", "operators.entries_rebuilt"):
            out[name] = (per_pass(self.counts[name]), "count")
        out["shimorin.kernel_eval.calls"] = (
            per_pass(self.span_calls["shimorin.kernel_eval"]),
            "count",
        )
        out["shimorin.kernel_eval.self_s"] = (
            self.span_self_s["shimorin.kernel_eval"] / passes,
            "s",
        )
        out["shimorin.multiplier.macs_computed"] = (
            per_pass(self.counts["shimorin.multiplier.macs_computed"]),
            "count",
        )
        macs = self.counts["series.macs_computed"]
        series_s = self.self_s["series"]
        out["series.macs_computed"] = (per_pass(macs), "count")
        out["series.macs_per_s"] = (macs / series_s if series_s else 0.0, "1/s")
        out["hardy.toeplitz_entries"] = (per_pass(self.counts["hardy.toeplitz_entries"]), "count")

        criteria = {}
        for key, calls in self.span_calls.items():
            match = _CRITERION.search(key)
            if key.startswith("acceptance.") and match:
                criteria[int(match.group(1))] = self.span_wall_s[key] / calls
        for number in range(1, 13):
            out[f"acceptance.criterion_{number:02d}.wall_s"] = (criteria.get(number, 0.0), "s")
        return out

    def exact_per_pass(self, passes: int) -> bool:
        """Every count divides evenly by the pass count (passes did equal work)."""
        totals = [*self.calls.values(), *self.refusals.values(), *self.counts.values()]
        totals += list(self.span_calls.values())
        return all(total % passes == 0 for total in totals)
