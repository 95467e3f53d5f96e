"""Classification tests: concavity, 2-isometry, 2-contraction, purity."""

import numpy as np
import pytest

from shiftmodels import classify
from shiftmodels.config import DEFAULT_TOL
from shiftmodels.classify import (
    classify_operator,
    concave_power_growth_check,
    generator_concavity_criterion,
)
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
    skew = ComplexMatrix([[0.0, 1.0], [-1.0, 0.0]])
    res = generator_concavity_criterion(skew, DEFAULT_TOL)
    assert res.satisfied
    assert abs(res.margin) <= 1e-14

    res = generator_concavity_criterion(ComplexMatrix(np.diag([-1.0])), DEFAULT_TOL)
    assert not res.satisfied
    assert res.margin == pytest.approx(2.0, abs=1e-12)

    nilpotent = ComplexMatrix([[0.0, 1.0], [0.0, 0.0]])
    res = generator_concavity_criterion(nilpotent, DEFAULT_TOL)
    assert not res.satisfied
    assert res.margin == pytest.approx(1.0, abs=1e-12)


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
