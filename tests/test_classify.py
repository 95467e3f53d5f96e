"""Classification tests: concavity, 2-isometry, 2-contraction, purity."""

import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag

from shiftmodels import classify, shimorin
from shiftmodels.acceptance import _random_complex, _unitaries
from shiftmodels.config import DEFAULT_TOL, ToleranceConfig
from shiftmodels.classify import classify_operator, concave_power_growth_check
from shiftmodels.errors import NonFinite, NotConcave
from shiftmodels.numkit import ComplexMatrix
from shiftmodels.operators import (
    Dense,
    DirectSum,
    DirichletWeights,
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


# ---------------------------------------------------------------------------
# the power orbit in one pass


def test_power_growth_returns_false_before_a_later_iterate_overflows():
    # diag(2, 0.5) through a loose gate breaks the bound at n = 2, while its iterate
    # 2^(n-1) e_0 overflows before n = 1100: the verdict is the first failing bound's
    T = Dense(ComplexMatrix(np.diag([2.0, 0.5])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not concave_power_growth_check(
            T, FiniteSupportVector.basis(0, 2), 1100, ToleranceConfig(psd_tol=10.0)
        )


def _apply_ratios(T, x, N):
    """||T^n x|| / ||x|| for n = 1 .. N, applying T step by step."""
    ratios, current = [], x
    for _ in range(N):
        current = T.apply(current)
        ratios.append(current.norm() / x.norm())
    return ratios


def test_power_growth_refuses_an_iterate_that_overflows_after_every_bound_held():
    # T^2 = 1.69 Id, and ||T e_1||^2 = 4e307 makes the bound 1 + n (||T e_1||^2 - 1) infinite
    # from n = 5: the odd iterates 1.3^(n-1) T e_1 overflow with every bound held before them
    T = Dense(ComplexMatrix(np.array([[1.3, 6.3e153], [0.0, -1.3]])))
    loose = ToleranceConfig(psd_tol=4.0)
    x = FiniteSupportVector(((1, 0.5),), 2)  # a largest part in [1/2, 1) is not rescaled
    finite, current = 0, x  # the count of iterates that ``apply`` takes before it refuses one
    while True:
        try:
            current = T.apply(current)
        except NonFinite:
            break
        finite += 1
    assert finite > 1000
    for op, y in ((T, x), (DirectSum((dirichlet_shift(), T)), FiniteSupportVector(((3, 0.5),)))):
        assert concave_power_growth_check(op, y, finite, loose)
        with pytest.raises(NonFinite, match="non-finite T x"):
            concave_power_growth_check(op, y, finite + 1, loose)


def _with_zero_image_entries(rng, n):
    """A random n x n matrix with a zero row and a zero column: its images hold exact zeros."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A[1, :] = 0.0
    A[:, 0] = 0.0
    return A


def _orbit_cases():
    rng = np.random.default_rng(35)
    for trial in range(6):
        n = int(rng.integers(3, 8))
        dense = Dense(ComplexMatrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        zeros = Dense(ComplexMatrix(_with_zero_image_entries(rng, n)))
        head = tuple(rng.uniform(0.5, 1.5, int(rng.integers(0, 5))).tolist())
        shift = Shift(EventuallyConstantWeights(head, float(rng.uniform(0.9, 1.1))))
        for T in (
            shift,
            dirichlet_shift(),
            Shift(DirichletWeights(dual=True)),
            dense,
            zeros,
            DirectSum((zeros, dirichlet_shift())),
            DirectSum((isometric_shift(), dense, shift)),
            DirectSum((dense, zeros)),
        ):
            bound = 3 * n if T.ambient is None else T.ambient
            support = rng.choice(bound, size=int(rng.integers(1, min(bound, 5) + 1)), replace=False)
            if isinstance(T, DirectSum) and T.ambient is None:
                # indices of the round robin inside every finite part
                parts = len(T.parts)
                support = np.unique(rng.integers(0, n, support.size) * parts + support % parts)
            values = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
            yield T, FiniteSupportVector(tuple(zip(support.tolist(), values.tolist())), T.ambient)


def test_orbit_ratios_are_those_of_a_step_by_step_apply_loop():
    for T, x in _orbit_cases():
        ratios, finite = classify._norm_ratios(T, x, 40)
        assert finite == 40
        assert [r.hex() for r in ratios] == [r.hex() for r in _apply_ratios(T, x, 40)], T


# ---------------------------------------------------------------------------
# stacks: every member's report is that of one call


def _criterion_8_population():
    """The sums and unitaries of criterion 8 (seed 808), as matrices."""
    rng = np.random.default_rng(808)
    gaussians, nilpotents = [], []
    for _ in range(20):
        n_u, n_n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        gaussians.append(_random_complex(rng, (n_u, n_u)))
        nilpotents.append(np.triu(_random_complex(rng, (n_n, n_n)), 1))
    for _ in range(50):
        n = int(rng.integers(2, 11))
        gaussians.append(_random_complex(rng, (n, n)))
    unitaries = _unitaries(gaussians)
    sums = [block_diag(U, N) for U, N in zip(unitaries, nilpotents)]
    return sums + unitaries[20:]


def _family(n: int, seed: int):
    """Seeded n x n matrices: a unitary of dimension k beside c J_m, k + m = n, under a unitary
    or a general similarity (so the range iteration takes m + 1 steps), and random, zero and
    nilpotent members."""
    rng = np.random.default_rng(seed)
    general = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out = [np.zeros((n, n)), _jordan(n), general]
    for trial in range(9):
        m = int(rng.integers(1, n + 1))
        T = block_diag(_random_unitary(rng, n - m), _jordan(m, 10.0 ** rng.uniform(-1.0, 1.0)))
        if trial % 2:
            S = _random_unitary(rng, n)
            out.append(S @ T @ S.conj().T)
        else:
            S = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            out.append(S @ T @ np.linalg.inv(S))
    return out


@pytest.mark.parametrize(
    "matrices",
    [
        pytest.param(_criterion_8_population(), id="criterion-8"),
        *(pytest.param(_family(n, n), id=f"family-n{n}") for n in (4, 16, 32)),
    ],
)
def test_stacked_reports_equal_one_call_per_matrix(matrices):
    sizes = {}
    for A in matrices:
        sizes.setdefault(len(A), []).append(np.asarray(A, dtype=np.complex128))
    steps = set()
    for members in sizes.values():
        stack = np.stack(members)
        classified = classify._classify_stack(stack, DEFAULT_TOL)
        split = shimorin._wold_split(stack, DEFAULT_TOL)
        for A, rep, wold in zip(members, classified, split):
            assert rep == classify_operator(Dense(ComplexMatrix(A)))
            assert wold == wold_decompose(Dense(ComplexMatrix(A)))
            steps.add(wold.steps_used)
    assert len(steps) > 2  # the members leave the range iteration at different steps
