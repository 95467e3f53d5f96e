"""Analytic-model construction tests: Cauchy dual, coefficients, kernel,
multiplier semigroup, Wold splitting."""

import math
import sys

import numpy as np
import pytest

from shiftmodels.config import DEFAULT_TOL, Check, ToleranceConfig
from shiftmodels.errors import (
    AmbientMismatch,
    NonFinite,
    OutsideDisc,
    TailNotConvergent,
    UnsupportedRegime,
)
from shiftmodels.numkit import ComplexMatrix
from shiftmodels.operators import (
    Dense,
    DirectSum,
    EventuallyConstantWeights,
    FiniteSupportVector,
    Shift,
    _act,
    dirichlet_shift,
    isometric_shift,
)
from shiftmodels.series import PowerSeries, series_mul
from shiftmodels.shimorin import (
    IntertwiningReport,
    _multiplier_coeffs,
    build_model,
    cauchy_dual,
    coefficients,
    defect_projection,
    kernel_eval,
    left_inverse_apply,
    semigroup_multiplier,
    verify_intertwining,
    verify_reproducing,
    verify_semigroup_model,
    wold_decompose,
)


def _random_vector(rng: np.random.Generator, max_index: int = 15) -> FiniteSupportVector:
    support = rng.choice(max_index + 1, size=min(5, max_index + 1), replace=False)
    entries = {
        int(k): complex(rng.standard_normal(), rng.standard_normal()) for k in support
    }
    return FiniteSupportVector(tuple(entries.items()))


def test_cauchy_dual_pinned_values():
    assert cauchy_dual(isometric_shift()).weights.at(np.array([3]))[0] == pytest.approx(1.0)

    dual = cauchy_dual(dirichlet_shift()).weights.at(np.arange(6))
    for k in range(6):
        assert dual[k] == pytest.approx(math.sqrt((k + 1) / (k + 2)), abs=1e-15)


def test_cauchy_dual_refuses_a_dense_operator():
    with pytest.raises(UnsupportedRegime, match="no Cauchy dual"):
        cauchy_dual(Dense(ComplexMatrix(np.diag([2.0]))))


def test_build_model_pinned_structure():
    model = build_model(isometric_shift())
    assert model.dim_defect == 1
    assert model.radius == pytest.approx(1.0)
    assert dict(model.defect_basis[0].entries) == {0: 1.0 + 0.0j}

    dir_model = build_model(dirichlet_shift())
    assert dir_model.dim_defect == 1
    # ||L|| = sup 1/w_k = 1/inf w_k; Dirichlet weights decrease to 1 so radius 1...
    # inf w_k is the tail limit 1, giving evaluation radius 1
    assert dir_model.radius == pytest.approx(1.0)

    pair = build_model(DirectSum((isometric_shift(), isometric_shift())))
    assert pair.dim_defect == 2


def test_build_model_rejects_dense():
    with pytest.raises(UnsupportedRegime):
        build_model(Dense(ComplexMatrix(np.diag([0.5, 0.25]))))


def test_model_projection_identities():
    rng = np.random.default_rng(71)
    for T in (isometric_shift(), dirichlet_shift(), Shift(EventuallyConstantWeights((1.4,), 0.9))):
        model = build_model(T)
        for _ in range(10):
            x = _random_vector(rng)
            # L T = Id
            assert left_inverse_apply(model, T.apply(x)).sub(x).norm() <= 1e-13
            # P annihilates the range of T
            assert defect_projection(model, T.apply(x)).norm() <= 1e-13
            # P idempotent
            p = defect_projection(model, x)
            assert defect_projection(model, p).sub(p).norm() <= 1e-13


@pytest.mark.parametrize(
    "model_map, what", [(left_inverse_apply, "L x"), (defect_projection, "P x")]
)
def test_model_maps_refuse_their_own_overflow(model_map, what):
    # L moves 1e306 e_1 to 1e306 w'_0 e_0 with w'_0 = 1e3; P = Id - T L subtracts that times w_0
    model = build_model(Shift(EventuallyConstantWeights((1e-3,) * 4, 1.0)))
    with pytest.raises(NonFinite, match=what):
        model_map(model, FiniteSupportVector(((1, 1e306),), None))


def test_coefficients_pinned_values():
    iso = build_model(isometric_shift())
    c = coefficients(iso, FiniteSupportVector.basis(3), 8).coeffs
    mags = [float(np.abs(row).max()) for row in c]
    assert mags[3] == pytest.approx(1.0, abs=1e-14)
    assert sum(mags) == pytest.approx(1.0, abs=1e-13)

    dirichlet = build_model(dirichlet_shift())
    c = coefficients(dirichlet, FiniteSupportVector.basis(2), 8).coeffs
    assert np.abs(c[2][0]) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)
    assert sum(float(np.abs(row).max()) for row in c) == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-13
    )

    # (L^n e_n)_0 is the product of the n dual weights sqrt((k+1)/(k+2)), k < n
    c = coefficients(dirichlet, FiniteSupportVector.basis(20000), 20000).coeffs
    assert c[20000][0] == pytest.approx(1.0 / math.sqrt(20001.0), rel=1e-12)
    assert not np.any(c[:20000])

    # past N only row 200000 is nonzero, and the disc radius is 1, so the
    # tail bound is that one head
    c = coefficients(dirichlet, FiniteSupportVector.basis(200000), 64)
    assert dirichlet.radius == 1.0
    assert not np.any(c.coeffs)
    assert c.tail_bound == pytest.approx(1.0 / math.sqrt(200001.0), rel=1e-12)


def test_coefficients_skip_overflowing_dual_products_of_zero_entries():
    # part 0 has w'_0 ... w'_{n-1} = 1e3^n, which overflows from n = 103 on; its
    # entries there are zero, so its coefficients are exactly those of e_0
    tiny = Shift(EventuallyConstantWeights((1e-3,) * 120, 1.0))
    model = build_model(DirectSum((tiny, isometric_shift())))
    x = FiniteSupportVector(((0, 1.0), (401, 0.5)), None)
    c = coefficients(model, x, 250)
    expected = np.zeros((251, 2), dtype=np.complex128)
    expected[0, 0], expected[200, 1] = 1.0, 0.5
    np.testing.assert_array_equal(c.coeffs, expected)
    assert c.tail_bound == 0.0


@pytest.mark.parametrize("weight, entry, head", [(1e-3, 1e-100, 1e230), (1e3, 1e100, 1e-230)])
def test_coefficients_keep_representable_heads_past_an_out_of_range_dual_product(
    weight, entry, head
):
    # w'_0 ... w'_109 = weight**-110 leaves the float range alone, yet the head
    # entry * weight**-110 is representable
    model = build_model(Shift(EventuallyConstantWeights((weight,) * 120, 1.0)))
    x = FiniteSupportVector(((110, entry),), None)
    c = coefficients(model, x, 120)
    assert c.coeffs[110, 0] == pytest.approx(head, rel=1e-12)
    assert np.count_nonzero(c.coeffs) == 1
    assert c.tail_bound == 0.0


def test_coefficients_tail_bound_closed_form():
    # constant weight 2: the head of row n is x_n 2^-n and the radius is 2, so each
    # row past N adds the Euclidean norm of its entries, exactly in binary
    double = Shift(EventuallyConstantWeights((), 2.0))
    model = build_model(double)
    x = FiniteSupportVector(tuple({3: 1.0, 10: 2.0j, 11: -0.5, 40: 3.0}.items()))
    c = coefficients(model, x, 5)
    assert c.coeffs[3, 0] == 0.125
    assert c.tail_bound == 5.5

    # two parts: local index 10 of both is global 20 and 21, one row of norm 5
    pair = build_model(DirectSum((double, double)))
    c = coefficients(pair, FiniteSupportVector(tuple({20: 3.0, 21: 4.0j}.items())), 5)
    assert not np.any(c.coeffs)
    assert c.tail_bound == 5.0


def test_coefficients_of_defect_vector():
    model = build_model(dirichlet_shift())
    e = model.defect_basis[0]
    c = coefficients(model, e, 6).coeffs
    assert np.abs(c[0][0]) == pytest.approx(1.0, abs=1e-14)
    assert max(float(np.abs(row).max()) for row in c[1:]) <= 1e-14


def test_weighted_parseval_identity():
    rng = np.random.default_rng(72)
    for T in (isometric_shift(), dirichlet_shift()):
        model = build_model(T)
        for _ in range(10):
            x = _random_vector(rng)
            c = coefficients(model, x, max(dict(x.entries)) + 1)
            # the model map is an isometry: sum_n beta(n)^2 |c_n|^2 = ||x||^2
            norm_sq = sum(T.weights.beta_sq(n) * abs(c.coeffs[n, 0]) ** 2 for n in range(c.N + 1))
            assert norm_sq == pytest.approx(x.norm() ** 2, rel=1e-12)


def test_partial_expansion_telescopes_with_remainder():
    # x = sum_{k<n} T^k P L^k x + T^n L^n x exactly
    rng = np.random.default_rng(73)
    T = dirichlet_shift()
    model = build_model(T)
    for _ in range(5):
        x = _random_vector(rng)
        for n in (1, 3, 7):
            total = FiniteSupportVector(())
            y = x
            for k in range(n):
                term = defect_projection(model, y)
                for _ in range(k):
                    term = T.apply(term)
                total = total.add(term)
                y = left_inverse_apply(model, y)
            remainder = y  # equals L^n x
            for _ in range(n):
                remainder = T.apply(remainder)
            assert total.add(remainder).sub(x).norm() <= 1e-12 * max(1.0, x.norm())


def test_kernel_pinned_values():
    iso = build_model(isometric_shift())
    assert kernel_eval(iso, 0.5, 0.5)[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)

    dirichlet = build_model(dirichlet_shift())
    expected = -math.log(0.85) / 0.15
    assert kernel_eval(dirichlet, 0.3, 0.5)[0, 0] == pytest.approx(expected, abs=1e-10)


def test_kernel_at_zero_is_identity():
    for T in (isometric_shift(), dirichlet_shift()):
        model = build_model(T)
        for z in (0.0, 0.4, -0.3 + 0.5j):
            np.testing.assert_allclose(kernel_eval(model, 0.0, z), np.eye(1), atol=1e-12)


def test_kernel_hermitian_symmetry():
    model = build_model(dirichlet_shift())
    pairs = ((0.3, 0.5), (0.2 + 0.4j, -0.5j), (0.6, -0.1 - 0.3j))
    for lam, z in pairs:
        k1 = kernel_eval(model, lam, z)
        k2 = kernel_eval(model, z, lam)
        assert np.max(np.abs(k1 - k2.conj().T)) <= DEFAULT_TOL.tail_tol * 10


def test_kernel_rejects_outside_disc():
    model = build_model(isometric_shift())
    with pytest.raises(OutsideDisc):
        kernel_eval(model, 0.5, 1.0)


@pytest.mark.parametrize(
    "lam, z", [(math.nan, 0.5), (0.5, math.nan), (complex(0.1, math.inf), 0.0)]
)
def test_kernel_refuses_non_finite_points(lam, z):
    model = build_model(isometric_shift())
    with pytest.raises(NonFinite):
        kernel_eval(model, lam, z)


def test_reproducing_refuses_non_finite_point():
    model = build_model(isometric_shift())
    x = FiniteSupportVector.basis(2)
    with pytest.raises(NonFinite):
        verify_reproducing(model, x, math.nan, np.array([1.0 + 0.0j]))


def _tiny_head_model():
    """Radius 1e-3: the dual weights are 1e3 through index 119, then 1, so beta'_n = 1e3^min(n, 120)
    overflows from n = 103 on."""
    return build_model(Shift(EventuallyConstantWeights((1e-3,) * 120, 1.0)))


def test_reproducing_where_the_dual_products_overflow():
    # |lam| ||L|| = 0.9 needs 240 dual Neumann terms, past the overflow of beta'_n; the pairing
    # is sum_n x_n lam^n beta'_n = sum_n x_n 0.9^n for n <= 120
    model = _tiny_head_model()
    x = FiniteSupportVector(tuple({0: 1.0, 60: 0.5j, 103: 1e-2}.items()))
    closed = 1.0 + 0.5j * 0.9**60 + 1e-2 * 0.9**103
    rep = verify_reproducing(model, x, 0.0009, np.array([1.0 + 0.0j]))
    assert rep.passed
    assert rep.lhs == pytest.approx(closed, rel=1e-13)
    assert rep.rhs == pytest.approx(closed, rel=1e-13)


def test_kernel_where_the_dual_products_overflow():
    # sum_m (z conj(lam))^m beta'_m^2 = sum_{m <= 120} 0.81^m + 0.81^120 sum_{j >= 1} (8.1e-7)^j
    model = _tiny_head_model()
    closed = (1.0 - 0.81**121) / 0.19 + 0.81**120 * 8.1e-7 / (1.0 - 8.1e-7)
    assert closed == pytest.approx(5.2631578947, abs=1e-10)
    assert kernel_eval(model, 0.0009, 0.0009)[0, 0] == pytest.approx(closed, rel=1e-13)
    # every term past m = 0 carries z^m = 0 exactly
    assert kernel_eval(model, 0.0009, 0.0).tolist() == [[1.0]]


def _szego_dirichlet(lam: complex, z: complex) -> tuple[complex, complex]:
    """Closed forms 1/(1 - q) and -log(1 - q)/q at q = conj(lam) z."""
    q = np.conj(lam) * z
    return 1.0 / (1.0 - q), -np.log(1.0 - q) / q


def test_kernel_of_iso_dirichlet_sum_near_the_boundary():
    model = build_model(DirectSum((isometric_shift(), dirichlet_shift())))
    lam, z = 0.97 * np.exp(0.7j), 0.97 * np.exp(-2.1j)
    k = kernel_eval(model, lam, z)
    np.testing.assert_allclose(k, np.diag(_szego_dirichlet(lam, z)), rtol=0.0, atol=1e-9)
    assert np.max(np.abs(kernel_eval(model, z, lam) - k.conj().T)) <= 1e-9


def test_kernel_at_099_radius_and_term_cap():
    for r, T in enumerate((isometric_shift(), dirichlet_shift())):
        model = build_model(T)
        lam, z = 0.99 * model.radius * np.exp(0.4j), 0.99 * model.radius * np.exp(1.9j)
        expected = _szego_dirichlet(lam, z)[r]
        assert abs(kernel_eval(model, lam, z)[0, 0] - expected) <= 1e-9
        # 0.999 radius needs more Neumann terms than _TERM_CAP allows
        with pytest.raises(TailNotConvergent):
            kernel_eval(model, 0.999 * model.radius, 0.5)


def test_model_maps_refuse_finite_ambient():
    model = build_model(DirectSum((isometric_shift(), dirichlet_shift())))
    x = FiniteSupportVector.basis(1, ambient=4)
    for fn in (left_inverse_apply, defect_projection):
        with pytest.raises(AmbientMismatch):
            fn(model, x)
    with pytest.raises(AmbientMismatch):
        coefficients(model, x, 3)


def test_intertwining_examples():
    iso = build_model(isometric_shift())
    rep = verify_intertwining(iso, FiniteSupportVector.basis(0), N=12)
    assert rep.passed and rep.max_residual == 0.0

    rng = np.random.default_rng(74)
    dirichlet = build_model(dirichlet_shift())
    for _ in range(10):
        rep = verify_intertwining(dirichlet, _random_vector(rng), N=25)
        assert rep.passed
        assert rep.max_residual <= 1e-12


def test_reproducing_examples():
    iso = build_model(isometric_shift())
    e = np.array([1.0 + 0.0j])

    rep = verify_reproducing(iso, FiniteSupportVector.basis(2), 0.0, e, DEFAULT_TOL)
    assert rep.passed and rep.residual <= 1e-14

    # (U e2)(lambda) = lambda^2, so the pairing at 0.5 is 0.25
    c = coefficients(iso, FiniteSupportVector.basis(2), 4).coeffs
    lhs = sum((0.5.__pow__(n)) * c[n][0] for n in range(len(c)))
    assert lhs == pytest.approx(0.25, abs=1e-14)
    rep = verify_reproducing(iso, FiniteSupportVector.basis(2), 0.5, e, DEFAULT_TOL)
    assert rep.passed

    rng = np.random.default_rng(75)
    dirichlet = build_model(dirichlet_shift())
    for _ in range(5):
        rep = verify_reproducing(dirichlet, _random_vector(rng), 0.4, e, DEFAULT_TOL)
        assert rep.passed
        assert rep.residual <= 1e-8


@pytest.mark.parametrize("size, terms", [(1.0, 25), (1e6, 40), (1e9, 48)])
def test_reproducing_budgets_the_kernel_tail_by_the_defect_coordinates(size, terms):
    # the pairing with e_30 is 0.4^30 e / sqrt(31); the tail dropped past N terms grows with e,
    # so N grows with it and the check holds at the fixed tolerance 1e-8
    dirichlet = build_model(dirichlet_shift())
    e = np.array([size + 0.0j])
    rep = verify_reproducing(dirichlet, FiniteSupportVector.basis(30), 0.4, e)
    assert rep.passed and rep.terms_used == terms
    assert rep.rhs == pytest.approx(0.4**30 * size / math.sqrt(31.0), rel=1e-13)


def test_multiplier_pinned_values():
    flat = semigroup_multiplier(0.0, 6)
    np.testing.assert_allclose(flat.coeffs, [1.0] + [0.0] * 6, atol=0.0)

    assert semigroup_multiplier(1.0, 10).coeffs[0] == pytest.approx(math.exp(-1.0), abs=1e-14)


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0, 1e-5, -1e-5])
def test_multiplier_matches_generalized_laguerre_oracle(t):
    # L_n^{(-1)}(x) = -(x/n) L_{n-1}^{(1)}(x); scipy has no alpha = -1
    special = pytest.importorskip("scipy.special")
    N = 4095
    n = np.arange(1, N + 1)
    oracle = math.exp(-t) * np.concatenate(
        ([1.0], -(2.0 * t / n) * special.eval_genlaguerre(n - 1, 1, 2.0 * t))
    )
    assert np.max(np.abs(_multiplier_coeffs(t, N) - oracle)) <= 1e-14


@pytest.mark.parametrize("t", [0.0, 0.25, 1.0, 2.5, -1e-5])
def test_multiplier_closed_forms_through_degree_three(t):
    closed = math.exp(-t) * np.array(
        [1.0, -2.0 * t, 2.0 * t**2 - 2.0 * t, -2.0 * t + 4.0 * t**2 - 4.0 * t**3 / 3.0]
    )
    np.testing.assert_allclose(_multiplier_coeffs(t, 3), closed, rtol=1e-14, atol=1e-16)


def test_multiplier_semigroup_law():
    N = 64
    for t, s in ((0.3, 0.7), (0.25, 0.25), (1.0, 0.5)):
        product = series_mul(semigroup_multiplier(t, N), semigroup_multiplier(s, N), N=N)
        target = semigroup_multiplier(t + s, N)
        half = N // 2
        assert np.max(np.abs(product.coeffs[: half + 1] - target.coeffs[: half + 1])) <= 1e-10


def test_multiplier_derivative_is_symbol_multiplication():
    # (d/dt) e_t = e_t * (z+1)/(z-1); central difference vs series product
    N = 48
    t0, h = 1.0, 1e-5
    upper = semigroup_multiplier(t0 + h, N).coeffs
    lower = semigroup_multiplier(t0 - h, N).coeffs if t0 - h >= 0 else None
    derivative = (upper - lower) / (2.0 * h)
    symbol = PowerSeries(np.concatenate(([-1.0], -2.0 * np.ones(N))))
    target = series_mul(semigroup_multiplier(t0, N), symbol, N=N).coeffs
    assert np.max(np.abs(derivative - target)) <= 1e-5


def test_verify_semigroup_model_report():
    rep = verify_semigroup_model(0.7, N=64)
    assert rep.passed
    assert rep.generator_residual <= 1e-6
    assert rep.commutation_residual <= 1e-12
    assert rep.constant_term_residual <= 1e-12
    assert any("e^{-t}" in note or "exp" in note for note in rep.notes)


def test_model_reports_are_judged_by_their_checks():
    model = build_model(dirichlet_shift())
    x = _random_vector(np.random.default_rng(76))
    tol = ToleranceConfig(residual_tol=1e-11)
    intertwine = verify_intertwining(model, x, N=25)
    reproduce = verify_reproducing(model, x, 0.4, np.array([1.0 + 0.0j]), tol)
    semigroup = verify_semigroup_model(0.7, N=64, tol=tol)
    reports = (intertwine, reproduce, semigroup)

    pinned = {c.name: c.tolerance for rep in reports for c in rep.checks}
    assert pinned == {
        "intertwine": 1e-12,
        "reproduce": 1e-8,
        "semigroup_generator": 1e-6,
        "semigroup_commutation": 1e-11,  # residual_tol
        "semigroup_constant_term": 1e-12,
    }
    assert [c.residual for rep in reports for c in rep.checks] == [
        intertwine.max_residual,
        reproduce.residual,
        semigroup.generator_residual,
        semigroup.commutation_residual,
        semigroup.constant_term_residual,
    ]
    for rep in reports:
        assert rep.passed == all(c.passed for c in rep.checks)
        for c in rep.checks:
            assert c.passed == (c.residual <= c.tolerance)

    failing = Check("intertwine", False, 1.0, 1e-12)
    assert not IntertwiningReport(max_residual=1.0, N=1, checks=(failing,)).passed


def test_a_judged_check_passes_when_its_residual_is_at_most_its_tolerance():
    assert Check.judged("c", 1e-9, 1e-9) == Check("c", True, 1e-9, 1e-9)
    assert Check.judged("c", np.nextafter(1e-9, 1.0), 1e-9).passed is False
    assert Check.judged("c", 0.0, 1e-12).passed is True
    # a NaN residual compares false, so it fails; the verdict is a plain bool, never np.bool_
    assert Check.judged("c", math.nan, 1e-9).passed is False
    assert Check.judged("c", np.float64(math.inf), 1e-9).passed is False
    assert type(Check.judged("c", np.float64(0.5), 1.0).passed) is bool


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_semigroup_maps_refuse_non_finite_times(t):
    with pytest.raises(NonFinite):
        semigroup_multiplier(t, 8)
    with pytest.raises(NonFinite):
        verify_semigroup_model(t, N=8)


def test_semigroup_maps_refuse_negative_times():
    with pytest.raises(ValueError, match="nonnegative"):
        verify_semigroup_model(-1.0, N=8)
    with pytest.raises(ValueError, match="nonnegative"):
        verify_semigroup_model(0.5, N=-1)


@pytest.mark.parametrize("t", [1e160, 1e200, 1e300, sys.float_info.max])
@pytest.mark.parametrize("N", [0, 1, 64, 4096])
def test_multiplier_is_the_zero_series_where_the_recurrence_overflows(t, N):
    # |e^{-t} L_n(2t)| <= e^{-t} (4t)^n lies far below the least subnormal, so every
    # coefficient is a zero signed as L_n(2t), (-1)^n, also from the index on where 2t L_n
    # overflows even on values scaled down by powers of two; the bits are those of t = 1e100
    h = semigroup_multiplier(t, N).coeffs
    signs = np.where(np.arange(N + 1) % 2 == 0, 0.0, -0.0).astype(np.complex128)
    assert h.tobytes() == signs.tobytes()
    assert h.tobytes() == semigroup_multiplier(1e100, N).coeffs.tobytes()


@pytest.mark.parametrize(
    "t, N",
    [(709.0, 4096), (1000.0, 4096), (1100.0, 4096), (1e6, 64), (1e6, 4096), (1e100, 64), (1e200, 64)],
)
def test_multiplier_holds_where_e_to_the_minus_t_underflows(t, N):
    # e_t is inner, so its coefficients have sum |h_n|^2 <= 1
    h = semigroup_multiplier(t, N).coeffs
    assert np.isfinite(h).all()
    assert np.sum(np.abs(h) ** 2) <= 1.0 + 1e-12
    report = verify_semigroup_model(t, N=64)
    assert report.passed


def _multiplier_by_the_unscaled_loop(t, N):
    """e^{-t} L_n(2t) with L_n carried unscaled: the reference wherever that stays finite."""
    x = 2.0 * t
    laguerre = np.zeros(N + 1)
    laguerre[0] = previous = 1.0
    current = -x
    for n in range(1, N + 1):
        laguerre[n] = current
        previous, current = current, ((2 * n - x) * current - (n - 1) * previous) / (n + 1)
    return math.exp(-t) * laguerre


@pytest.mark.parametrize("t", [-1e-5, 0.0, 0.5, 3.0, 100.0, 400.0, 700.0])
def test_multiplier_is_bit_identical_to_the_unscaled_loop_where_that_is_finite(t):
    # from t = 400 on L_n(2t) passes 2^512 and the scaled route divides it out
    for N in (0, 1, 64, 4095):
        assert _multiplier_coeffs(t, N).tobytes() == _multiplier_by_the_unscaled_loop(t, N).tobytes()


def test_multiplier_semigroup_law_across_the_underflow_of_e_to_the_minus_t():
    # e^{-500} is a normal number and e^{-1000} is not; e_500 e_500 = e_1000 exactly in series
    N = 2048
    half = semigroup_multiplier(500.0, N)
    whole = semigroup_multiplier(1000.0, N).coeffs
    assert np.max(np.abs(whole)) >= 0.1
    assert np.max(np.abs(series_mul(half, half, N=N).coeffs - whole)) <= 1e-13


def test_wold_decompose_pinned_cases():
    rng = np.random.default_rng(76)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(raw)
    unitary = Dense(ComplexMatrix(q * (np.diag(r) / np.abs(np.diag(r)))))
    rep = wold_decompose(unitary)
    assert rep.dim_unitary == 4 and rep.dim_wandering_dense == 0
    assert rep.unitary_residual <= 1e-12

    jordan = Dense(
        ComplexMatrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    )
    rep = wold_decompose(jordan)
    assert rep.dim_unitary == 0 and rep.dim_wandering_dense == 3
    assert rep.wandering_span_dim == 3 and rep.wandering_span_ok

    mixed = DirectSum(
        (
            Dense(ComplexMatrix(np.diag([1.0j]))),
            Dense(ComplexMatrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])),
        )
    )
    rep = wold_decompose(mixed)
    assert rep.dim_unitary == 1 and rep.dim_wandering_dense == 3
    assert rep.unitary_residual <= 1e-12
    assert rep.wandering_span_ok


def test_wold_shift_blocks_reported_as_pure():
    rep = wold_decompose(DirectSum((Dense(ComplexMatrix(np.diag([1.0j]))), isometric_shift())))
    assert rep.dim_unitary == 1
    assert rep.wandering_infinite


def test_dirichlet_maps_on_a_far_basis_vector():
    # T e_n = sqrt((n+2)/(n+1)) e_{n+1}, T* e_n = sqrt((n+1)/n) e_{n-1},
    # L e_n = sqrt(n/(n+1)) e_{n-1}
    n = 200000
    T = dirichlet_shift()
    model = build_model(T)
    e = FiniteSupportVector.basis(n)
    image = dict(T.apply(e).entries)
    assert image == {n + 1: pytest.approx(math.sqrt((n + 2) / (n + 1)), rel=1e-15)}
    back = dict(_act(T, e, True, "T* e").entries)
    assert back == {n - 1: pytest.approx(math.sqrt((n + 1) / n), rel=1e-15)}
    lower = dict(left_inverse_apply(model, e).entries)
    assert lower == {n - 1: pytest.approx(math.sqrt(n / (n + 1)), rel=1e-15)}
    # e_n with n >= 1 lies in the range of T, so P e_n = e_n - T L e_n vanishes
    assert defect_projection(model, e).norm() <= 1e-15
    # (L^n e_n)_0 = 1/beta_n = 1/sqrt(n + 1) is the only coefficient
    c = coefficients(model, e, n).coeffs
    assert c[n, 0] == pytest.approx(1.0 / math.sqrt(n + 1.0), rel=1e-12)
    assert np.count_nonzero(c) == 1
    # (U e_n)(lam) = lam^n / sqrt(n + 1); at |lam| = 0.9965 that is still a normal number, and
    # 0.999 would need more kernel terms than the cap
    rep = verify_reproducing(model, e, 0.9965, np.array([1.0 + 0.0j]))
    assert rep.passed
    assert rep.lhs == pytest.approx(0.9965**n / math.sqrt(n + 1.0), rel=1e-9)
