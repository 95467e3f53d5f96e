"""Semigroup engine tests: evolution, Cayley transforms, growth bounds, suite."""

import math

import numpy as np
import pytest

from shiftmodels.config import DEFAULT_TOL
from shiftmodels.errors import OneInSpectrum
from shiftmodels.numkit import ComplexMatrix, two_norm
from shiftmodels.classify import generator_concavity_criterion
from shiftmodels.semigroup import (
    SemigroupSpec,
    cogenerator,
    concavity_equivalence_suite,
    evolve,
    growth_bound,
    growth_bound_consistency,
    inverse_cayley,
    quasicontractive_rescale,
)


def _random_skew(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (raw - raw.conj().T) / 2.0


def test_evolve_pinned_values():
    A = ComplexMatrix.from_rows([[0.0, 2.0], [1.0, -1.0]])
    np.testing.assert_array_equal(evolve(SemigroupSpec(A), 0.0).array, np.eye(2))

    half = evolve(SemigroupSpec(ComplexMatrix.diagonal([-1.0])), math.log(2.0))
    assert half.array[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_evolve_semigroup_law():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        A = ComplexMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        S = SemigroupSpec(A)
        s, t = rng.uniform(0.05, 1.5, size=2)
        lhs = evolve(S, s + t).array
        rhs = evolve(S, s).array @ evolve(S, t).array
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


def test_cogenerator_pinned_values():
    np.testing.assert_allclose(
        cogenerator(SemigroupSpec(ComplexMatrix.zeros(3))).array, -np.eye(3), atol=1e-14
    )
    np.testing.assert_allclose(
        cogenerator(SemigroupSpec(ComplexMatrix.diagonal([-1.0]))).array, [[0.0]], atol=1e-14
    )


def test_cogenerator_of_skew_generator_is_unitary():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        V = cogenerator(SemigroupSpec(ComplexMatrix(_random_skew(rng, n)))).array
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-10


def test_cogenerator_rejects_one_in_spectrum():
    with pytest.raises(OneInSpectrum):
        cogenerator(SemigroupSpec(ComplexMatrix.identity(2)))


def test_inverse_cayley_round_trip():
    np.testing.assert_allclose(inverse_cayley(ComplexMatrix.zeros(2)).array, -np.eye(2), atol=1e-14)
    np.testing.assert_allclose(
        inverse_cayley(ComplexMatrix.diagonal([-1.0, -1.0])).array, np.zeros((2, 2)), atol=1e-14
    )
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = ComplexMatrix(-(B.conj().T @ B) - 0.1 * np.eye(n))  # spectrum in left half-plane
        back = inverse_cayley(cogenerator(SemigroupSpec(A))).array
        assert np.max(np.abs(back - A.array)) <= 1e-10 * max(1.0, np.max(np.abs(A.array)))


def test_growth_bound_pinned_values():
    assert growth_bound(SemigroupSpec(ComplexMatrix.diagonal([-2.0, -3.0]))).omega == pytest.approx(
        -2.0, abs=1e-12
    )
    rng = np.random.default_rng(44)
    skew = SemigroupSpec(ComplexMatrix(_random_skew(rng, 4)))
    assert growth_bound(skew).omega == pytest.approx(0.0, abs=1e-12)
    assert growth_bound(SemigroupSpec(ComplexMatrix.diagonal([1.0]))).omega == pytest.approx(1.0)


def test_growth_bound_consistency_invariant():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = ComplexMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert growth_bound_consistency(SemigroupSpec(A)) <= 1e-8


def test_quasicontractive_rescale():
    A = ComplexMatrix.diagonal([1.0])
    S = SemigroupSpec(A)
    np.testing.assert_array_equal(quasicontractive_rescale(S, 0.0).generator.array, A.array)

    shifted = quasicontractive_rescale(S, 1.0)
    for t in (0.3, 1.0, 2.5):
        assert two_norm(evolve(shifted, t)) == pytest.approx(1.0, abs=1e-12)

    S2 = quasicontractive_rescale(SemigroupSpec(ComplexMatrix.diagonal([2.0, -1.0])), 3.0)
    for t in (0.5, 1.0, 2.0):
        assert two_norm(evolve(S2, t)) <= math.exp(-t) + 1e-12


def test_rescale_matches_scalar_factor():
    rng = np.random.default_rng(46)
    A = ComplexMatrix(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    S = SemigroupSpec(A)
    lam = 0.7
    for t in (0.2, 1.1):
        lhs = evolve(quasicontractive_rescale(S, lam), t).array
        rhs = math.exp(-lam * t) * evolve(S, t).array
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


def test_equivalence_suite_skew_generator_all_true():
    rng = np.random.default_rng(47)
    suite = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(_random_skew(rng, 5))))
    assert suite.agree
    assert suite.verdict is True
    assert suite.semigroup_concave and suite.norm_path_concave
    assert suite.generator_form and suite.cogenerator_concave


def test_equivalence_suite_expanding_generator_all_false():
    # A = 2I: every T_t = e^{2t} I expands, criterion form is 8I, cogenerator 3I
    suite = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix.diagonal([2.0, 2.0, 2.0])))
    assert suite.agree
    assert suite.verdict is False
    assert suite.generator_margin == pytest.approx(8.0, abs=1e-12)
    # defect of e^{2t} I is (e^{4t} - 1)^2, largest at the grid end t = 2
    assert suite.semigroup_max_defect == pytest.approx(math.expm1(8.0) ** 2, rel=1e-12)
    # defect of the cogenerator 3I is 81 - 18 + 1
    assert suite.cogenerator_defect == pytest.approx(64.0, abs=1e-12)


def _oracle_max_defect(matrices) -> float:
    worst = -math.inf
    for E in matrices:
        EE = E @ E
        form = EE.conj().T @ EE - 2.0 * (E.conj().T @ E) + np.eye(E.shape[0])
        worst = max(worst, float(np.linalg.eigvalsh((form + form.conj().T) / 2.0)[-1]))
    return worst


def test_equivalence_suite_defects_match_independent_oracle():
    # the three generator families of acceptance criterion 2: skew, dissipative, raw
    expm_oracle = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(202)
    n = 6
    for i in range(9):
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = ((B - B.conj().T) / 2.0, -(B.conj().T @ B + np.eye(n)), B)[i % 3]
        suite = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(A)), grid_slack=1e-8)
        semigroup = _oracle_max_defect([expm_oracle(t * A) for t in suite.t_grid])
        cayley = (A + np.eye(n)) @ np.linalg.inv(A - np.eye(n))
        for value, oracle in (
            (suite.semigroup_max_defect, semigroup),
            (suite.cogenerator_defect, _oracle_max_defect([cayley])),
        ):
            assert abs(value - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_equivalence_suite_rejects_one_in_generator_spectrum():
    # the cogenerator leg needs 1 outside the generator spectrum
    with pytest.raises(OneInSpectrum):
        concavity_equivalence_suite(SemigroupSpec(ComplexMatrix.identity(3)))


def test_equivalence_suite_dissipative_generators_agree():
    rng = np.random.default_rng(48)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = ComplexMatrix(-(B.conj().T @ B) - np.eye(n))
        suite = concavity_equivalence_suite(SemigroupSpec(A))
        assert suite.agree


def test_cogenerator_commutes_with_semigroup():
    rng = np.random.default_rng(49)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        A = ComplexMatrix(-0.5 * np.eye(n) + 0.4 * _random_skew(rng, n))
        S = SemigroupSpec(A)
        V = cogenerator(S).array
        for t in (0.1, 0.7, 1.4):
            Et = evolve(S, t).array
            assert np.max(np.abs(V @ Et - Et @ V)) <= DEFAULT_TOL.residual_tol


def test_similarity_exponential_invariant():
    rng = np.random.default_rng(50)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        R = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mu = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.1, 1.5))
        lhs = evolve(SemigroupSpec(ComplexMatrix(mu * R @ A @ np.linalg.inv(R))), t).array
        rhs = R @ evolve(SemigroupSpec(ComplexMatrix(A)), mu * t).array @ np.linalg.inv(R)
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


def test_criterion_margin_nonpositive_gives_contractive_cogenerator():
    # in the matrix regime the criterion form sym(A^2) + A*A <= 0 forces A
    # skew-adjoint (margin 0), the equality case; mixed population keeps the
    # implication honest: whenever the margin is within psd_tol of zero the
    # cogenerator must be a contraction
    rng = np.random.default_rng(51)
    hits = 0
    for i in range(20):
        n = int(rng.integers(2, 6))
        if i % 2 == 0:
            A = ComplexMatrix(_random_skew(rng, n))
        else:
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A = ComplexMatrix(-(B.conj().T @ B) - 0.5 * np.eye(n))
        res = generator_concavity_criterion(A, DEFAULT_TOL)
        if res.margin <= DEFAULT_TOL.psd_tol:
            hits += 1
            assert two_norm(cogenerator(SemigroupSpec(A))) <= 1.0 + 1e-8
    assert hits >= 10


def test_suite_pass_implies_nonpositive_growth_bound():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = ComplexMatrix(_random_skew(rng, n))
        suite = concavity_equivalence_suite(SemigroupSpec(A))
        if suite.agree and suite.verdict:
            assert growth_bound(SemigroupSpec(A)).omega <= 1e-10
