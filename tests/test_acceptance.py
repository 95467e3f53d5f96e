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
from shiftmodels.config import DEFAULT_TOL
from shiftmodels.numkit import ComplexMatrix
from shiftmodels.semigroup import SemigroupSpec, cogenerator, inverse_cayley
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


def test_criterion_1_round_trip_is_bit_identical_to_the_public_pair(monkeypatch):
    # one stack per size each way; every member comes back with the bits of
    # inverse_cayley(cogenerator(S)) on its own
    calls = []
    original = acceptance._cayley

    def recording(stack, tol, what):
        calls.append((what, stack, original(stack, tol, what)))
        return calls[-1][2]

    monkeypatch.setattr(acceptance, "_cayley", recording)
    assert acceptance.criterion_1_cayley_round_trip().passed
    forward, back = calls[0::2], calls[1::2]
    assert [what for what, _, _ in forward] == ["generator"] * 7
    assert [what for what, _, _ in back] == ["cogenerator"] * 7
    assert sorted(stack.shape[-1] for _, stack, _ in forward) == list(range(2, 9))
    assert sum(len(stack) for _, stack, _ in forward) == 50
    for (_, generators, cogenerators), (_, stacked, recovered) in zip(forward, back):
        assert stacked is cogenerators
        for A, R in zip(generators, recovered):
            one = inverse_cayley(cogenerator(SemigroupSpec(ComplexMatrix(A)))).array
            assert one.tobytes() == np.ascontiguousarray(R).tobytes()


def test_criterion_1_fails_when_the_inverse_transform_is_stretched(monkeypatch):
    original = acceptance._cayley

    def stretched(stack, tol, what):
        out = original(stack, tol, what)
        return out * (1.0 + 1e-8) if what == "cogenerator" else out

    monkeypatch.setattr(acceptance, "_cayley", stretched)
    result = acceptance.criterion_1_cayley_round_trip()
    assert not result.passed
    assert float(re.search(r"max entry residual (\S+)", result.detail).group(1)) > 1e-9


def _move_omega(monkeypatch):
    original = acceptance._growth_consistencies

    def moved(stack):
        omegas, consistencies = original(stack)
        return omegas + 1e-6, consistencies

    monkeypatch.setattr(acceptance, "_growth_consistencies", moved)


def _move_one_radius(monkeypatch):
    # e^{tA} of one member and one time, scaled by 1 + 1e-6, has its radius moved as much
    original = semigroup.expm_stack

    def moved(stack):
        evolved, refusal = original(stack)
        evolved[4] *= 1.0 + 1e-6
        return evolved, refusal

    monkeypatch.setattr(semigroup, "expm_stack", moved)


@pytest.mark.parametrize(
    "perturb, measured, at_least",
    [
        (_move_omega, "max oracle deviation", 0.9e-6),
        (_move_one_radius, "max radius consistency", 0.9e-6 / 2.0),
    ],
    ids=["omega", "evolved-radius"],
)
def test_criterion_10_fails_when_omega_or_a_radius_moves(monkeypatch, perturb, measured, at_least):
    perturb(monkeypatch)
    result = acceptance.criterion_10_growth_bound()
    assert not result.passed
    assert float(re.search(rf"{measured} (\S+)", result.detail).group(1)) >= at_least


def test_random_unitaries_are_bit_identical_to_one_qr_per_matrix():
    rng = np.random.default_rng(8)
    gaussians = [acceptance._random_complex(rng, (n, n)) for n in (3, 1, 3, 5, 1, 10, 3)]
    for G, U in zip(gaussians, acceptance._unitaries(gaussians)):
        assert U.tobytes() == np.linalg.qr(G)[0].tobytes()


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
    # a margin on the other side of psd_tol flips each member's generator verdict; the
    # generator forms are the one stack whose largest eigenvalues the suite takes
    original = semigroup.hermitian_max_eig

    def flipped(forms):
        return np.where(original(forms) <= DEFAULT_TOL.psd_tol, 1.0, -1.0)

    monkeypatch.setattr(semigroup, "hermitian_max_eig", flipped)


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
        # the two Blaschke routes: the product over the Clark points, and the series algebra
        # (whose last step also feeds the coordinate symbol)
        pytest.param(
            hardy, "_symbol_by_clark_points", "Blaschke route agreement", id="blaschke-clark"
        ),
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
