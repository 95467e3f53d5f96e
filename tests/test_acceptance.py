"""Acceptance gate: one test per top-level criterion.

Each test runs the corresponding end-to-end criterion and prints its
detail line, so `pytest -v -s tests/test_acceptance.py` doubles
as the human-readable acceptance report.  Tolerances are pinned inside
the criterion implementations; the tests only assert the verdicts.
"""

import re
import tracemalloc

import numpy as np
import pytest

from shiftmodels import acceptance, hardy, semigroup
from shiftmodels.acceptance import ALL_CRITERIA
from shiftmodels.classify import GeneratorConcavity
from shiftmodels.series import PowerSeries


def _check(result):
    print(result.detail)
    assert result.passed, result.detail


def test_criterion_registry_is_complete():
    assert len(ALL_CRITERIA) == 12
    numbers = [int(fn.__name__.split("_")[1]) for fn in ALL_CRITERIA]
    assert numbers == list(range(1, 13))


def test_criterion_01_cayley_round_trip():
    _check(acceptance.criterion_1_cayley_round_trip())


def test_criterion_02_concavity_equivalence():
    _check(acceptance.criterion_2_concavity_equivalence())


def _raise_the_grid_defect(monkeypatch):
    # the grid of leg (i) is the one 4-D stack whose defect form the suite takes
    original = semigroup._defect_range

    def raised(stack):
        low, high = original(stack)
        return low, high + (1.0 if stack.ndim == 4 else 0.0)

    monkeypatch.setattr(semigroup, "_defect_range", raised)


def _stretch_the_step(monkeypatch):
    # e^{hA} only feeds the outer points of the norm path
    original = semigroup._grid_exponentials

    def stretched(stack):
        evolved, half = original(stack)
        return evolved, 1.1 * half

    monkeypatch.setattr(semigroup, "_grid_exponentials", stretched)


def _flip_the_generator_form(monkeypatch):
    original = semigroup.generator_concavity_criterion

    def flipped(A, tol):
        form = original(A, tol)
        return GeneratorConcavity(not form.satisfied, form.margin)

    monkeypatch.setattr(semigroup, "generator_concavity_criterion", flipped)


def _stretch_the_cogenerator(monkeypatch):
    # 1.5 V has defect (1.5^2 - 1)^2 > 0 where V is unitary
    original = semigroup._cayley
    monkeypatch.setattr(semigroup, "_cayley", lambda *args: 1.5 * original(*args))


@pytest.mark.parametrize(
    "perturb",
    [_raise_the_grid_defect, _stretch_the_step, _flip_the_generator_form, _stretch_the_cogenerator],
    ids=["semigroup-grid", "norm-path", "generator-form", "cogenerator"],
)
def test_criterion_2_fails_when_one_leg_is_perturbed(monkeypatch, perturb):
    perturb(monkeypatch)
    result = acceptance.criterion_2_concavity_equivalence()
    assert result.passed is False
    disagreements = re.search(r"(\d+) disagreements", result.detail).group(1)
    assert int(disagreements) > 0


def test_criterion_2_traces_at_most_2_5_mb():
    # one stack per family, not one of all 100 generators, keeps the verify-all peak small
    acceptance.criterion_2_concavity_equivalence()
    tracemalloc.start()
    try:
        acceptance.criterion_2_concavity_equivalence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6, peak


def test_criterion_03_model_projection():
    _check(acceptance.criterion_3_model_projection())


def test_criterion_04_model_intertwining():
    _check(acceptance.criterion_4_model_intertwining())


def test_criterion_05_reproducing_property():
    _check(acceptance.criterion_5_reproducing_property())


def test_criterion_06_kernel_closed_forms():
    _check(acceptance.criterion_6_kernel_closed_forms())


def test_criterion_07_multiplier_semigroup():
    _check(acceptance.criterion_7_multiplier_semigroup())


def test_criterion_08_wold_split():
    _check(acceptance.criterion_8_wold_split())


def test_criterion_09_ladder_decomposition():
    _check(acceptance.criterion_9_ladder_decomposition())


def test_criterion_9_fails_when_the_tmw_builder_gets_a_wrong_zero(monkeypatch):
    # the closed-form basis is checked against the SVD complement of the same coefficients
    original = hardy._tmw_basis
    monkeypatch.setattr(hardy, "_tmw_basis", lambda zeros, n: original((0.2,) + zeros[1:], n))
    result = acceptance.criterion_9_ladder_decomposition()
    assert not result.passed
    gap = re.search(r"TMW vs SVD span gap (\S+)", result.detail).group(1)
    assert float(gap) > 1e-3


def test_criterion_10_growth_bound():
    _check(acceptance.criterion_10_growth_bound())


def test_criterion_11_caradus_certificates():
    _check(acceptance.criterion_11_caradus_certificates())


def test_criterion_11_fails_when_the_blocks_are_swapped(monkeypatch):
    # the verdict is measured, so a forward shift passed as the backward one fails
    backward = acceptance.block_backward_shift_trunc
    forward = acceptance.block_forward_shift_trunc
    monkeypatch.setattr(acceptance, "block_backward_shift_trunc", forward)
    monkeypatch.setattr(acceptance, "block_forward_shift_trunc", backward)
    result = acceptance.criterion_11_caradus_certificates()
    assert not result.passed
    assert "backward d=1" in result.detail and "forward d=1" in result.detail


@pytest.mark.parametrize(
    "module, route, measured",
    [
        pytest.param(acceptance, "semigroup_multiplier", "route agreement", id="semigroup_multiplier"),
        pytest.param(acceptance, "inner_semigroup_symbol", "route agreement", id="inner_semigroup_symbol"),
        pytest.param(acceptance, "series_exp", "route agreement", id="series_exp"),
        # the two Blaschke routes: the recurrence from the zeros, and the series algebra
        # (whose last step also feeds the coordinate symbol)
        pytest.param(hardy, "_symbol_from_zeros", "Blaschke route agreement", id="blaschke-zeros"),
        pytest.param(hardy, "series_exp", "Blaschke route agreement", id="blaschke-series-algebra"),
    ],
)
def test_criterion_7_fails_when_one_route_is_perturbed(monkeypatch, module, route, measured):
    # each name feeds exactly one of the routes to e_t
    original = getattr(module, route)

    def perturbed(*args, **kwargs):
        coeffs = np.array(original(*args, **kwargs).coeffs)
        coeffs[5] += 1e-9
        return PowerSeries(coeffs)

    monkeypatch.setattr(module, route, perturbed)
    result = acceptance.criterion_7_multiplier_semigroup()
    assert not result.passed
    agreement = re.search(rf"{measured} (\S+)", result.detail).group(1)
    assert float(agreement) >= 0.9e-9


def test_criterion_12_concave_power_growth():
    _check(acceptance.criterion_12_concave_power_growth())
