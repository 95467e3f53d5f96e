"""Semigroup engine tests: evolution, Cayley transforms, growth bounds, suite."""

import cmath
import math

import numpy as np
import pytest

from shiftmodels import semigroup
from shiftmodels.config import DEFAULT_TOL, ToleranceConfig
from shiftmodels.errors import NonFinite, OneInSpectrum
from shiftmodels.numkit import ComplexMatrix, expm_stack, two_norm
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
    A = ComplexMatrix([[0.0, 2.0], [1.0, -1.0]])
    np.testing.assert_array_equal(evolve(SemigroupSpec(A), 0.0), np.eye(2))

    half = evolve(SemigroupSpec(ComplexMatrix(np.diag([-1.0]))), math.log(2.0))
    assert half[0, 0] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("t", [1e10, math.inf, math.nan])
def test_evolve_refuses_a_non_finite_t_a_by_its_norm(t):
    # 1e10 * 1e300 overflows, so t A is refused by its 1-norm; a t that is not finite is
    # refused by name before t A is formed, where inf * 0 and nan * anything were NaN
    S = SemigroupSpec(ComplexMatrix(np.diag([1e300, 0.0])))
    text = "1-norm is not finite" if math.isfinite(t) else f"parameter must be finite, got {t}"
    with pytest.raises(NonFinite, match=text):
        evolve(S, t)


def test_evolve_semigroup_law():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        A = ComplexMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        S = SemigroupSpec(A)
        s, t = rng.uniform(0.05, 1.5, size=2)
        lhs = evolve(S, s + t)
        rhs = evolve(S, s) @ evolve(S, t)
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize(
    "a, c", [(-0.5, -0.5), (0.4 + 0.4j, 0.4 + 0.4j), (-1.0, 0.3), (-0.2 + 1.5j, -0.7)]
)
@pytest.mark.parametrize("b", [1.0, -1.0j, 1e2, 1e2 * cmath.exp(0.7j)])
def test_suite_exponentials_of_triangular_generators_match_the_closed_form(a, c, b):
    # e^{tA} for A = [[a, b], [0, c]] has entry (0, 1) equal to b (e^{tc} - e^{ta}) / (c - a),
    # and t b e^{ta} when a = c.  The pins stop at |b| = 1e2: with every matrix scaled to
    # 1-norm 0.5 before the Pade step, the error is ~1e-11 at |b| = 1e4 and O(1) at 1e16,
    # so the large-|b| pins wait for the Al-Mohy-Higham choice of degree and squarings.
    S = SemigroupSpec(ComplexMatrix([[a, b], [0.0, c]]))
    times = (*semigroup._GRID, semigroup._STEP)
    evolved, half = semigroup._grid_exponentials(S)  # the suite's grid: powers of e^{2hA}
    for t, E in zip(times, (*evolved, half)):
        ta, tc = cmath.exp(t * a), cmath.exp(t * c)
        corner = t * b * ta if a == c else b * (tc - ta) / (c - a)
        for value, exact in ((E[0, 0], ta), (E[1, 1], tc), (E[0, 1], corner)):
            assert abs(value - exact) <= 1e-12 * abs(exact), (t, value, exact)
        assert E[1, 0] == 0.0


@pytest.mark.parametrize("n", [4, 6, 16, 32])
def test_suite_grid_matches_one_exponential_per_time(n):
    # the three generator families of acceptance criterion 2; the per-time stack takes
    # each e^{tA} by its own scaling and squaring, with no product of grid members
    rng = np.random.default_rng(300 + n)
    times = (*semigroup._GRID, semigroup._STEP)
    for family in range(3):
        for _ in range(2):
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A = ((B - B.conj().T) / 2.0, -(B.conj().T @ B + np.eye(n)), B)[family]
            S = SemigroupSpec(ComplexMatrix(A))
            evolved, half = semigroup._grid_exponentials(S)
            assert evolved.shape == (len(semigroup._GRID), n, n)
            independent, refusal = semigroup._evolve_stack(S, times)
            assert refusal is None
            for t, E, exact in zip(times, (*evolved, half), independent):
                scale = max(1.0, float(np.max(np.abs(exact))))
                assert np.max(np.abs(E - exact)) <= 1e-12 * scale, (family, t)


def test_suite_takes_one_matrix_exponential(monkeypatch):
    # the grid comes from e^{hA} alone; the generator form and the cogenerator never feed it
    shapes = []

    def recording(stack):
        shapes.append(stack.shape)
        return expm_stack(stack)

    monkeypatch.setattr(semigroup, "expm_stack", recording)
    rng = np.random.default_rng(301)
    suite = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(_random_skew(rng, 5))))
    assert suite.verdict is True
    assert shapes == [(1, 5, 5)]


def test_suite_refuses_an_overflowing_power():
    # A = 400 Id: e^{hA} = e^20 Id and e^{1.7 A} = e^680 Id are finite, e^{1.8 A} is not
    S = SemigroupSpec(ComplexMatrix(np.diag([400.0, 400.0])))
    evolved, refusal = semigroup._evolve_stack(S, (semigroup._STEP, 1.7))
    assert refusal is None and np.isfinite(evolved).all()
    for call in (semigroup._grid_exponentials, concavity_equivalence_suite):
        with pytest.raises(NonFinite, match="^non-finite matrix exponential$"):
            call(S)


def test_suite_refuses_an_overscaled_step_exponential():
    # e^{hA} = e^{-10} [[1, 5e158], [0, 1]] at h = 0.05, but scaling and squaring
    # overscales it to zero; the grid is built from that one member, so it is refused
    S = SemigroupSpec(ComplexMatrix([[-200.0, 1e160], [0.0, -200.0]]))
    _, refusal = semigroup._evolve_stack(S, (semigroup._STEP,))
    assert "overscaled" in str(refusal)
    with pytest.raises(NonFinite, match="overscaled it to zero"):
        concavity_equivalence_suite(S)


def test_cogenerator_pinned_values():
    np.testing.assert_allclose(
        cogenerator(SemigroupSpec(ComplexMatrix(np.zeros((3, 3))))).array, -np.eye(3), atol=1e-14
    )
    np.testing.assert_allclose(
        cogenerator(SemigroupSpec(ComplexMatrix(np.diag([-1.0])))).array, [[0.0]], atol=1e-14
    )


def test_cogenerator_of_skew_generator_is_unitary():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        V = cogenerator(SemigroupSpec(ComplexMatrix(_random_skew(rng, n)))).array
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-10


def test_cogenerator_rejects_one_in_spectrum():
    with pytest.raises(OneInSpectrum):
        cogenerator(SemigroupSpec(ComplexMatrix(np.eye(2))))


def test_inverse_cayley_round_trip():
    np.testing.assert_allclose(
        inverse_cayley(ComplexMatrix(np.zeros((2, 2)))).array, -np.eye(2), atol=1e-14
    )
    np.testing.assert_allclose(
        inverse_cayley(ComplexMatrix(np.diag([-1.0, -1.0]))).array, np.zeros((2, 2)), atol=1e-14
    )
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = ComplexMatrix(-(B.conj().T @ B) - 0.1 * np.eye(n))  # spectrum in left half-plane
        back = inverse_cayley(cogenerator(SemigroupSpec(A))).array
        assert np.max(np.abs(back - A.array)) <= 1e-10 * max(1.0, np.max(np.abs(A.array)))


def test_growth_bound_pinned_values():
    assert growth_bound(SemigroupSpec(ComplexMatrix(np.diag([-2.0, -3.0])))).omega == pytest.approx(
        -2.0, abs=1e-12
    )
    rng = np.random.default_rng(44)
    skew = SemigroupSpec(ComplexMatrix(_random_skew(rng, 4)))
    assert growth_bound(skew).omega == pytest.approx(0.0, abs=1e-12)
    assert growth_bound(SemigroupSpec(ComplexMatrix(np.diag([1.0])))).omega == pytest.approx(1.0)


def test_growth_bound_consistency_invariant():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = ComplexMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert growth_bound_consistency(SemigroupSpec(A)) <= 1e-8


def test_quasicontractive_rescale():
    A = ComplexMatrix(np.diag([1.0]))
    S = SemigroupSpec(A)
    np.testing.assert_array_equal(quasicontractive_rescale(S, 0.0).generator.array, A.array)

    shifted = quasicontractive_rescale(S, 1.0)
    for t in (0.3, 1.0, 2.5):
        assert two_norm(evolve(shifted, t)) == pytest.approx(1.0, abs=1e-12)

    S2 = quasicontractive_rescale(SemigroupSpec(ComplexMatrix(np.diag([2.0, -1.0]))), 3.0)
    for t in (0.5, 1.0, 2.0):
        assert two_norm(evolve(S2, t)) <= math.exp(-t) + 1e-12

    # inf * 0 off the diagonal would be NaN (with a warning); refused up front
    for lam in (math.inf, math.nan):
        with pytest.raises(NonFinite):
            quasicontractive_rescale(S, lam)


def test_cayley_transform_refuses_its_own_overflow():
    # A - Id = [[0, 1e8], [1e-310, 0]] has full rank at rank_tol 1e-320; its inverse holds 1e310
    near_one = SemigroupSpec(ComplexMatrix([[1.0, 1e8], [1e-310, 1.0]]))
    with pytest.raises(NonFinite, match="Cayley transform"):
        cogenerator(near_one, ToleranceConfig(rank_tol=1e-320))


def test_suite_norm_path_refuses_its_own_overflow(monkeypatch):
    # e^{2A} = e^600 Id is finite and ||e^{2A} x||^2 = e^1200 is not. On real input the
    # defect form of stage (i), which holds ||e^{4A}||^2, overflows first, so stage (i)
    # is stubbed out to reach the norm path
    monkeypatch.setattr(semigroup, "_defect_range", lambda stack: (0.0, 0.0))
    with pytest.raises(NonFinite, match="norm path"):
        concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(np.diag([300.0, 300.0]))))


def test_rescale_matches_scalar_factor():
    rng = np.random.default_rng(46)
    A = ComplexMatrix(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    S = SemigroupSpec(A)
    lam = 0.7
    for t in (0.2, 1.1):
        lhs = evolve(quasicontractive_rescale(S, lam), t)
        rhs = math.exp(-lam * t) * evolve(S, t)
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


def test_equivalence_suite_skew_generator_all_true():
    rng = np.random.default_rng(47)
    suite = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(_random_skew(rng, 5))))
    assert suite.agree
    assert suite.verdict is True
    assert suite.semigroup_concave and suite.norm_path_concave
    assert suite.generator_form and suite.cogenerator_concave
    # unitary e^{tA}: ||e^{tA} x||^2 is constant, so every second difference vanishes
    assert abs(suite.norm_path_max_second_difference) <= 1e-12


def test_equivalence_suite_expanding_generator_all_false():
    # A = 2I: every T_t = e^{2t} I expands, criterion form is 8I, cogenerator 3I
    suite = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(np.diag([2.0, 2.0, 2.0]))))
    assert suite.agree
    assert suite.verdict is False
    assert suite.generator_margin == pytest.approx(8.0, abs=1e-12)
    # defect of e^{2t} I is (e^{4t} - 1)^2, largest at the grid end t = 2
    assert suite.semigroup_max_defect == pytest.approx(math.expm1(8.0) ** 2, rel=1e-12)
    # unit x: e^{4t} (e^{4h} - 2 + e^{-4h}) = 4 e^{4t} sinh^2(2h), h = 0.05, largest at t = 2
    assert suite.norm_path_max_second_difference == pytest.approx(
        math.exp(8.0) * 4.0 * math.sinh(0.1) ** 2, rel=1e-12
    )
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
        suite = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(A)))
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
        concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(np.eye(3))))


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
            Et = evolve(S, t)
            assert np.max(np.abs(V @ Et - Et @ V)) <= DEFAULT_TOL.residual_tol


def test_similarity_exponential_invariant():
    rng = np.random.default_rng(50)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        R = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mu = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.1, 1.5))
        lhs = evolve(SemigroupSpec(ComplexMatrix(mu * R @ A @ np.linalg.inv(R))), t)
        rhs = R @ evolve(SemigroupSpec(ComplexMatrix(A)), mu * t) @ np.linalg.inv(R)
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
            assert two_norm(cogenerator(SemigroupSpec(A)).array) <= 1.0 + 1e-8
    assert hits >= 10


def test_suite_pass_implies_nonpositive_growth_bound():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = ComplexMatrix(_random_skew(rng, n))
        suite = concavity_equivalence_suite(SemigroupSpec(A))
        if suite.agree and suite.verdict:
            assert growth_bound(SemigroupSpec(A)).omega <= 1e-10
