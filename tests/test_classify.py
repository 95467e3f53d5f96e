"""Classification tests: concavity, 2-isometry, 2-contraction, purity."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from shiftmodels import classify
from shiftmodels.config import DEFAULT_TOL, ToleranceConfig
from shiftmodels.classify import classify_operator, concave_power_growth_check
from shiftmodels.errors import NotConcave
from shiftmodels.numkit import ComplexMatrix
from shiftmodels.operators import (
    Dense,
    DirectSum,
    EventuallyConstantWeights,
    FiniteSupportVector,
    Shift,
    dirichlet_shift,
    isometric_shift,
)
from shiftmodels.semigroup import SemigroupSpec, concavity_equivalence_suite
from shiftmodels.shimorin import wold_decompose


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_unitary_dense_is_two_isometry():
    rep = classify_operator(Dense(ComplexMatrix(np.diag([1.0j, -1.0]))))
    assert rep.concave and rep.two_contraction and rep.two_isometry
    assert rep.isometry_defect <= 1e-14


def test_strict_contraction_is_not_concave():
    # defect for diag(0.5): 0.5^4 - 2*0.25 + 1 = 0.5625 > 0
    rep = classify_operator(Dense(ComplexMatrix(np.diag([0.5]))))
    assert not rep.concave
    assert rep.concavity_defect == pytest.approx(0.5625, abs=1e-12)


def test_dense_diagonal_defect_range_closed_form():
    # diag(a) has defect diag((|a_k|^2 - 1)^2)
    entries = [0.5, 1.0j, -1.5, 0.9 + 0.3j]
    closed = [(abs(a) ** 2 - 1.0) ** 2 for a in entries]
    rep = classify_operator(Dense(ComplexMatrix(np.diag(entries))))
    assert rep.concavity_defect == pytest.approx(max(closed), abs=1e-12)
    assert rep.contraction_margin == pytest.approx(min(closed), abs=1e-12)


def test_dirichlet_shift_is_exact_two_isometry():
    # w_k^2 w_{k+1}^2 - 2 w_k^2 + 1 = ((k+3) - 2(k+2) + (k+1))/(k+1) = 0
    rep = classify_operator(dirichlet_shift())
    assert rep.two_isometry and rep.concave and rep.two_contraction
    assert rep.concavity_defect == 0.0
    assert rep.isometry_defect == 0.0
    assert rep.pure and rep.wandering
    assert rep.lower_bound == pytest.approx(1.0)


def test_concave_but_not_contractive_shift():
    # head weight 2: defect at k=0 is 4 - 8 + 1 = -3 < 0, so concave and
    # strictly not a 2-contraction, hence not a 2-isometry.
    rep = classify_operator(Shift(EventuallyConstantWeights((2.0,), 1.0)))
    assert rep.concave
    assert not rep.two_contraction
    assert not rep.two_isometry


def test_two_isometry_is_intersection_flag():
    rng = np.random.default_rng(31)
    operators = [
        Dense(ComplexMatrix(_random_unitary(rng, 4))),
        Dense(ComplexMatrix(np.diag([0.5]))),
        dirichlet_shift(),
        isometric_shift(),
        Shift(EventuallyConstantWeights((2.0,), 1.0)),
    ]
    for _ in range(10):
        n = int(rng.integers(2, 6))
        operators.append(
            Dense(ComplexMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        )
    for T in operators:
        rep = classify_operator(T)
        assert rep.two_isometry == (rep.concave and rep.two_contraction)


def test_generator_criterion_pinned_values():
    # the generator form sym(A^2) + A*A is leg (iii) of the equivalence suite
    skew = ComplexMatrix([[0.0, 1.0], [-1.0, 0.0]])
    res = concavity_equivalence_suite(SemigroupSpec(skew), DEFAULT_TOL)
    assert res.generator_form
    assert abs(res.generator_margin) <= 1e-14

    res = concavity_equivalence_suite(SemigroupSpec(ComplexMatrix(np.diag([-1.0]))), DEFAULT_TOL)
    assert not res.generator_form
    assert res.generator_margin == pytest.approx(2.0, abs=1e-12)

    nilpotent = ComplexMatrix([[0.0, 1.0], [0.0, 0.0]])
    res = concavity_equivalence_suite(SemigroupSpec(nilpotent), DEFAULT_TOL)
    assert not res.generator_form
    assert res.generator_margin == pytest.approx(1.0, abs=1e-12)


def test_concave_flag_implies_sampled_form_nonnegative():
    # flag true must be consistent with direct sampling of
    # 2||Tx||^2 - ||T^2 x||^2 - ||x||^2 over random unit vectors
    rng = np.random.default_rng(32)
    for i in range(30):
        n = 5
        if i % 2 == 0:
            mat = _random_unitary(rng, n)
        else:
            mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        T = ComplexMatrix(mat)
        rep = classify_operator(Dense(T))
        if not rep.concave:
            continue
        samples = rng.standard_normal((2000, n)) + 1j * rng.standard_normal((2000, n))
        samples /= np.linalg.norm(samples, axis=1)[:, None]
        tx = samples @ mat.T
        ttx = tx @ mat.T
        form = 2.0 * np.sum(np.abs(tx) ** 2, axis=1) - np.sum(np.abs(ttx) ** 2, axis=1) - 1.0
        assert float(form.min()) >= -DEFAULT_TOL.psd_tol - 1e-12


def test_finite_dimensional_rigidity():
    # Dense concave + invertible forces unitary: verified on unitaries and
    # refuted structurally for strict contractions (they are not concave).
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        U = _random_unitary(rng, n)
        rep = classify_operator(Dense(ComplexMatrix(U)))
        assert rep.concave and rep.bounded_below
        assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-8

    rep = classify_operator(Dense(ComplexMatrix(np.diag([0.9, 0.8]))))
    assert not rep.concave  # (1 - w^2)^2 > 0 for w < 1


def test_power_growth_check_pinned_cases():
    rng = np.random.default_rng(34)
    U = Dense(ComplexMatrix(_random_unitary(rng, 4)))
    x = FiniteSupportVector(tuple({0: 0.6, 2: 0.8j}.items()), 4)
    assert concave_power_growth_check(U, x, 30)

    # Dirichlet shift at e0: ||T^n e0||^2 = n+1 meets the bound with equality
    assert concave_power_growth_check(dirichlet_shift(), FiniteSupportVector.basis(0), 50)

    y = FiniteSupportVector(tuple({1: 1.0, 4: -2.0j}.items()))
    assert concave_power_growth_check(isometric_shift(), y, 50)

    # psd_tol = 10 lets diag(2, 0.5), defect 9, through the concavity gate; then
    # ||T^2 e_0||^2 = 16 exceeds the linear bound 1 + 2 * 3 = 7
    T = Dense(ComplexMatrix(np.diag([2.0, 0.5])))
    loose = ToleranceConfig(psd_tol=10.0)
    assert not concave_power_growth_check(T, FiniteSupportVector.basis(0, 2), 5, loose)


@pytest.mark.parametrize(
    "c", [1e-320, 1e-310, 1e-200, 1.0, 1e200, 1.7e308 + 1.7e308j, -1.3e308 + 1.3e308j]
)
def test_power_growth_verdict_does_not_depend_on_the_scale_of_the_vector(c):
    # the check compares ||T^n x||^2 / ||x||^2, so c e_0 gives the verdict of e_0: the
    # Dirichlet shift meets the bound, and diag(2, 0.5) through a loose gate breaks it; a
    # subnormal c too, whose products w_k c would be rounded on the subnormal grid, and a
    # c whose parts are finite but whose modulus passes the float range
    assert concave_power_growth_check(dirichlet_shift(), FiniteSupportVector(((0, c),)), 50)
    T = Dense(ComplexMatrix(np.diag([2.0, 0.5])))
    loose = ToleranceConfig(psd_tol=10.0)
    x = FiniteSupportVector(((0, c),), 2)
    assert not concave_power_growth_check(T, x, 5, loose)


def test_power_growth_check_of_the_zero_vector_holds():
    assert concave_power_growth_check(dirichlet_shift(), FiniteSupportVector(()), 10)
    assert concave_power_growth_check(isometric_shift(), FiniteSupportVector(((3, 0.0),)), 10)


def test_power_growth_check_requires_concave():
    with pytest.raises(NotConcave):
        concave_power_growth_check(
            Dense(ComplexMatrix(np.diag([2.0, 0.5]))),
            FiniteSupportVector.basis(0, ambient=2),
            10,
        )


def test_dense_purity_is_nilpotency():
    jordan = ComplexMatrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    rep = classify_operator(Dense(jordan))
    assert rep.pure
    assert not classify_operator(Dense(ComplexMatrix(np.eye(3)))).pure
    # the range of the zero matrix is trivial at the first step
    zero = classify_operator(Dense(ComplexMatrix(np.zeros((2, 2)))))
    assert zero.pure
    assert zero.pure_method == "range of T^k stops shrinking at dimension 0 by k = 1"


def _jordan(m: int, c: float = 1.0) -> np.ndarray:
    """c times the nilpotent Jordan block of size m."""
    return c * np.eye(m, k=1, dtype=np.complex128)


def _conjugated_jordan4() -> np.ndarray:
    rng = np.random.default_rng(1)
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return S @ _jordan(4) @ np.linalg.inv(S)


_U2 = _random_unitary(np.random.default_rng(3), 2)


@pytest.mark.parametrize(
    "T, steps, dim",
    [
        pytest.param(
            np.random.default_rng(5).standard_normal((4, 4)) + 0.5j * np.eye(4), 1, 4,
            id="invertible",
        ),
        pytest.param(np.zeros((3, 3)), 1, 0, id="zero"),
        pytest.param(_jordan(3), 3, 0, id="jordan3"),
        *(
            pytest.param(block_diag(_U2, _jordan(m)), m + 1, 2, id=f"unitary+J{m}")
            for m in (1, 2, 4)
        ),
        # ||T^12|| / ||T||^12 = 1e-12 lies below rank_tol, yet T^12 = 1 + 0 has rank 1
        pytest.param(block_diag([[1.0]], _jordan(11, 10.0)), 12, 1, id="one+10J11"),
        # the rounding noise of a nilpotent power lies below rank_tol ||T||_2, though not
        # below rank_tol times the norm of that power
        pytest.param(_conjugated_jordan4(), 4, 0, id="conjugated-J4"),
    ],
)
def test_core_steps_and_dimension_pinned_cases(T, steps, dim):
    op = Dense(ComplexMatrix(T))
    rep = classify_operator(op)
    assert rep.pure == (dim == 0)
    assert rep.pure_method == f"range of T^k stops shrinking at dimension {dim} by k = {steps}"
    wold = wold_decompose(op)
    assert (wold.steps_used, wold.dim_unitary) == (steps, dim)
    assert wold.wandering_span_ok


def _seeded_family():
    """(k, T): k nonzero eigenvalues of moduli 10^U(-1, 1), k in 0..3, beside c J_m, m in 1..5,
    c = 10^U(-2, 2), under a random unitary (odd trials) or I + 0.3 G (even trials) similarity."""
    rng = np.random.default_rng(0)
    for trial in range(400):
        k, m = int(rng.integers(0, 4)), int(rng.integers(1, 6))
        moduli, phases = 10.0 ** rng.uniform(-1.0, 1.0, k), rng.uniform(0.0, 2.0 * np.pi, k)
        eigenvalues = moduli * np.exp(1j * phases)
        T = block_diag(np.diag(eigenvalues), _jordan(m, 10.0 ** rng.uniform(-2.0, 2.0)))
        if trial % 2:
            S = _random_unitary(rng, k + m)
            yield k, S @ T @ S.conj().T
        else:
            S = np.eye(k + m) + 0.3 * (
                rng.standard_normal((k + m, k + m)) + 1j * rng.standard_normal((k + m, k + m))
            )
            yield k, S @ T @ np.linalg.inv(S)


def test_core_dimension_counts_the_nonzero_eigenvalues():
    # the core is the span of the generalized eigenvectors of the nonzero eigenvalues
    for trial, (k, T) in enumerate(_seeded_family()):
        op = Dense(ComplexMatrix(T))
        pure, dim = classify_operator(op).pure, wold_decompose(op).dim_unitary
        assert (pure, dim) == (k == 0, k), trial


def test_power_growth_check_reads_only_the_defect_bounds(monkeypatch):
    # the verdict needs the sup of the defect form, not a full classification
    def refuse(*args, **kwargs):
        raise AssertionError("classify_operator called")

    monkeypatch.setattr(classify, "classify_operator", refuse)
    pair = DirectSum((Dense(ComplexMatrix(np.eye(2))), isometric_shift()))
    assert concave_power_growth_check(pair, FiniteSupportVector(tuple({1: 1.0, 2: 1.0j}.items())), 20)
    # diag(2, 0.5): the defect 16 - 8 + 1 = 9 at e_0 is the sup of the form
    mixed = DirectSum((isometric_shift(), Dense(ComplexMatrix(np.diag([2.0, 0.5])))))
    with pytest.raises(NotConcave, match=r"defect 9\.000e\+00"):
        concave_power_growth_check(mixed, FiniteSupportVector.basis(0), 10)


def test_direct_sum_report_closed_forms(monkeypatch):
    # diag(2, 0.5) has defects (4 - 1)^2 = 9 and (0.25 - 1)^2 = 0.5625 and sigma_min 0.5; the
    # Dirichlet shift has defect 0 and weights decreasing to 1; diag(2, 0.5) is invertible,
    # so it is neither nilpotent nor wandering
    calls = []
    defect_range = classify._defect_range
    monkeypatch.setattr(classify, "_defect_range", lambda s: calls.append(s) or defect_range(s))
    pair = DirectSum((Dense(ComplexMatrix(np.diag([2.0, 0.5]))), dirichlet_shift()))
    rep = classify_operator(pair)
    assert len(calls) == 1  # the dense part's defect form is formed once
    assert rep.regime == "direct_sum"
    assert rep.concavity_defect == pytest.approx(9.0, abs=1e-12)
    assert rep.contraction_margin == 0.0
    assert rep.isometry_defect == pytest.approx(9.0, abs=1e-12)
    assert (rep.concave, rep.two_contraction, rep.two_isometry) == (False, True, False)
    assert rep.bounded_below and rep.lower_bound == pytest.approx(0.5, abs=1e-15)
    assert (rep.pure, rep.pure_method) == (False, "some part is not pure")
    assert (rep.wandering, rep.wandering_method) == (False, "some part is not wandering")
