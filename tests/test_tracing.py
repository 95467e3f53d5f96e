"""The benchmark's span tracer wraps the package without changing results."""

import importlib.util
from pathlib import Path

import numpy as np

import shiftmodels as sm

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(model, x):
    # looked up on the package at call time, where the tracer rebinds them
    return sm.kernel_eval(model, 0.3 + 0.2j, 0.5), sm.verify_intertwining(model, x, N=12)


def test_traced_results_equal_untraced():
    model = sm.build_model(sm.dirichlet_shift())
    x = sm.FiniteSupportVector(tuple({0: 0.5 - 1.0j, 3: 2.0, 7: 0.25j}.items()))
    plain_kernel, plain_report = _run(model, x)

    tracer = _load_spans().Tracer(sm)
    tracer.install()
    try:
        traced_kernel, traced_report = _run(model, x)
        assert tracer.span_calls["shimorin.kernel_eval"] == 1
        assert tracer.span_calls["shimorin.verify_intertwining"] == 1
    finally:
        tracer.uninstall()

    assert np.array_equal(traced_kernel, plain_kernel)
    assert traced_report == plain_report


def test_toeplitz_materialisation_is_counted():
    phi = sm.blaschke_series(sm.BlaschkeSpec((0.5,)), 20)
    plain = sm.analytic_toeplitz_trunc(phi, 16)

    tracer = _load_spans().Tracer(sm)
    tracer.install()
    try:
        traced = sm.analytic_toeplitz_trunc(phi, 16)
        assert tracer.span_calls["hardy.ToeplitzTrunc.matrix"] == 1
        assert tracer.counts["hardy.toeplitz_entries"] == 256
    finally:
        tracer.uninstall()

    assert np.array_equal(traced, plain)


def test_stacked_exponentials_are_a_numkit_span():
    # the suite's exponentials are one call of the public stacked core, booked to numkit
    rng = np.random.default_rng(14)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) - 4.0 * np.eye(6)
    spec = sm.SemigroupSpec(sm.ComplexMatrix(A))
    plain = sm.concavity_equivalence_suite(spec)

    tracer = _load_spans().Tracer(sm)
    tracer.install()
    try:
        traced = sm.concavity_equivalence_suite(spec)
        assert tracer.span_calls["semigroup.concavity_equivalence_suite"] == 1
        assert tracer.span_calls["numkit.expm_stack"] == 1
    finally:
        tracer.uninstall()

    assert traced == plain
