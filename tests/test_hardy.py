"""Hardy-laboratory tests: Blaschke products, inner checks, model spaces,
ladder decompositions, shift certificates."""

import math

import numpy as np
import pytest
import scipy.linalg

from shiftmodels import hardy
from shiftmodels.config import DEFAULT_TOL, ToleranceConfig
from shiftmodels.errors import (
    NonFinite,
    SymbolSingularAtOrigin,
    TailNotConvergent,
    TruncationTooSmall,
    ZeroOnBoundary,
)
from shiftmodels.hardy import (
    BlaschkeSeries,
    BlaschkeSpec,
    ToeplitzTrunc,
    analytic_toeplitz_trunc,
    blaschke_eval,
    blaschke_series,
    block_backward_shift_trunc,
    block_forward_shift_trunc,
    caradus_certificate,
    inner_check,
    inner_semigroup_symbol,
    model_space_basis,
    verify_ladder_decomposition,
)
from shiftmodels.series import PowerSeries, series_mul
from shiftmodels.shimorin import semigroup_multiplier


def test_blaschke_series_pinned_coefficients():
    z_series = blaschke_series(BlaschkeSpec((0.0,)), 5)
    np.testing.assert_allclose(z_series.coeffs, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=0.0)

    # (0.5 - z)/(1 - 0.5 z) = 0.5 - 0.75 z - 0.375 z^2 - 0.1875 z^3 - ...
    half = blaschke_series(BlaschkeSpec((0.5,)), 6)
    np.testing.assert_allclose(
        half.coeffs[:4], [0.5, -0.75, -0.375, -0.1875], atol=1e-15
    )
    # geometric decay with ratio 0.5 afterwards
    np.testing.assert_allclose(half.coeffs[4], -0.09375, atol=1e-15)


def test_blaschke_unimodular_on_boundary():
    spec = BlaschkeSpec((0.5, -0.3 + 0.4j, 0.2j), constant=complex(math.cos(1.0), math.sin(1.0)))
    for k in range(64):
        z = complex(math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64))
        assert abs(blaschke_eval(spec, z)) == pytest.approx(1.0, abs=1e-12)


def test_blaschke_series_matches_rational_evaluation():
    spec = BlaschkeSpec((0.3, -0.4))
    series = blaschke_series(spec, 120)
    for z in (0.0, 0.2, -0.35j, 0.3 + 0.3j):
        direct = blaschke_eval(spec, z)
        summed = sum(c * z**k for k, c in enumerate(series.coeffs))
        assert summed == pytest.approx(direct, abs=1e-12)


def test_blaschke_spec_validation_and_json():
    with pytest.raises(ZeroOnBoundary):
        BlaschkeSpec((1.0,))
    with pytest.raises(NonFinite):
        BlaschkeSpec((complex("nan"),))
    with pytest.raises(ValueError):
        BlaschkeSpec((0.5,), constant=2.0)
    # literal wire dicts pin the format independently of any serializer
    spec = BlaschkeSpec.from_json({"zeros": [[0.5, 0.0], [0.0, -0.2]], "constant": [0.0, 1.0]})
    assert spec.zeros == (0.5, -0.2j)
    assert spec.constant == 1.0j
    assert spec.degree == 2
    assert BlaschkeSpec.from_json({"zeros": [[0.5, 0.0]]}).constant == 1.0


def test_inner_semigroup_symbol_t_zero_is_one():
    phi = blaschke_series(BlaschkeSpec((0.5,)), 16)
    out = inner_semigroup_symbol(phi, 0.0, 16)
    expected = np.zeros(17)
    expected[0] = 1.0
    np.testing.assert_allclose(out.coeffs, expected, atol=1e-15)


def test_inner_semigroup_symbol_matches_independent_multiplier_route():
    # same object computed by two unrelated code paths: generic series
    # algebra on phi = z versus the dedicated multiplier recurrence
    coordinate = PowerSeries([0.0, 1.0])
    for t in (0.25, 1.0, 2.5):
        via_symbol = inner_semigroup_symbol(coordinate, t, 96)
        via_recurrence = semigroup_multiplier(t, 96)
        assert np.max(np.abs(via_symbol.coeffs - via_recurrence.coeffs)) <= 1e-12


def test_inner_semigroup_symbol_cocycle():
    phi = blaschke_series(BlaschkeSpec((0.5,)), 80)
    a = inner_semigroup_symbol(phi, 0.4, 80)
    b = inner_semigroup_symbol(phi, 0.9, 80)
    ab = series_mul(a, b, N=80)
    target = inner_semigroup_symbol(phi, 1.3, 80)
    assert np.max(np.abs(ab.coeffs[:41] - target.coeffs[:41])) <= 1e-10


def test_inner_semigroup_symbol_rejects_singular_origin():
    with pytest.raises(SymbolSingularAtOrigin):
        inner_semigroup_symbol(PowerSeries([1.0, 0.5]), 1.0, 8)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_inner_semigroup_symbol_refuses_non_finite_time(t):
    with pytest.raises(NonFinite):
        inner_semigroup_symbol(PowerSeries([0.0, 1.0]), t, 8)


def _zeros_with_largest_modulus(rng, degree, largest):
    radii = np.concatenate(([largest], rng.uniform(0.0, largest, degree - 1)))
    return tuple(complex(v) for v in radii * np.exp(2j * np.pi * rng.uniform(size=degree)))


def _symbol_by_clark_points(spec, t, N):
    """exp(t F), F = (phi + 1)/(phi - 1), from the Herglotz form of F.

    F is rational with Re F <= 0 on the disc and simple poles at the d points
    zeta_j of the circle where phi = 1, the roots of P - Q for phi = P / Q.  So
    F = i Im F(0) + sum_j lam_j (z + zeta_j)/(z - zeta_j) with
    lam_j = Q(zeta_j) / (zeta_j (P - Q)'(zeta_j)) > 0, and exp(t F) is the product of
    the rotated multipliers e_{lam_j t}(z / zeta_j), whose coefficients
    h_n(lam_j t) conj(zeta_j)^n come from the Laguerre route.
    """
    poly = np.polynomial.polynomial
    P, Q = np.array([spec.constant]), np.array([1.0 + 0.0j])
    for a in spec.zeros:
        P = poly.polymul(P, (0.0, 1.0) if a == 0 else (abs(a), -abs(a) / a))
        Q = poly.polymul(Q, (1.0, -np.conj(a)))
    zetas = poly.polyroots(P - Q)
    zetas /= np.abs(zetas)
    lams = poly.polyval(zetas, Q) / (zetas * poly.polyval(zetas, poly.polyder(P - Q)))
    assert np.abs(lams.imag).max() <= 1e-12 and lams.real.min() > 0.0
    out = np.zeros(N + 1, dtype=np.complex128)
    out[0] = np.exp(1j * t * ((P[0] + 1.0) / (P[0] - 1.0)).imag)
    for zeta, lam in zip(zetas, lams.real):
        rotated = semigroup_multiplier(lam * t, N).coeffs * np.conj(zeta) ** np.arange(N + 1)
        out = np.convolve(out, rotated)[: N + 1]
    return out


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_symbol_from_zeros_matches_the_clark_point_closed_form(degree, t):
    # at N = 4095 a largest zero modulus of 0.85-0.9 keeps the Blaschke series normal
    rng = np.random.default_rng(20261019 + degree)
    spec = BlaschkeSpec(_zeros_with_largest_modulus(rng, degree, rng.uniform(0.85, 0.9)))
    N = 4095
    symbol = inner_semigroup_symbol(blaschke_series(spec, N), t, N).coeffs
    assert np.max(np.abs(symbol - _symbol_by_clark_points(spec, t, N))) <= 1e-13


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_symbol_routes_agree_on_blaschke_data(degree, t):
    # zeros within |a| <= 0.6 at N = 1023; nearer the circle and at N = 4095 the
    # series-algebra route is itself off by more than 1e-13 (up to 2e-12 at |a| = 0.9, t = 4)
    rng = np.random.default_rng(20261020 + degree)
    N = 1023
    phi = blaschke_series(BlaschkeSpec(_zeros_with_largest_modulus(rng, degree, 0.6)), N)
    by_zeros = inner_semigroup_symbol(phi, t, N).coeffs
    by_algebra = inner_semigroup_symbol(PowerSeries(phi.coeffs), t, N).coeffs
    assert np.max(np.abs(by_zeros - by_algebra)) <= 1e-13


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_symbol_of_the_coordinate_closed_forms(t):
    h = inner_semigroup_symbol(blaschke_series(BlaschkeSpec((0.0,)), 64), t, 64).coeffs
    closed = math.exp(-t) * np.array([1.0, -2.0 * t, 2.0 * t**2 - 2.0 * t])
    np.testing.assert_allclose(h[:3], closed, rtol=1e-14, atol=0.0)
    # a rotated coordinate c z gives h_n c^n
    for angle in (0.5, 2.0, math.pi):
        c = complex(math.cos(angle), math.sin(angle))
        rotated = inner_semigroup_symbol(blaschke_series(BlaschkeSpec((0.0,), c), 64), t, 64)
        assert np.max(np.abs(rotated.coeffs - h * c ** np.arange(65))) <= 1e-14


@pytest.mark.parametrize("c", [-1.0, 1j, complex(math.cos(2.0), math.sin(2.0))])
def test_symbol_of_a_constant_is_a_constant(c):
    out = inner_semigroup_symbol(blaschke_series(BlaschkeSpec((), c), 16), 1.5, 16).coeffs
    assert out[0] == pytest.approx(np.exp(1.5 * (c + 1.0) / (c - 1.0)), abs=1e-15)
    # exact zeros, and none of them negative: the report prints 0.0, as for the series route
    assert not out[1:].any() and not np.signbit(out[1:].view(np.float64)).any()


def test_symbol_route_is_chosen_by_type(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the series-algebra route ran")

    monkeypatch.setattr(hardy, "series_inv", refuse)
    phi = blaschke_series(BlaschkeSpec((0.5, -0.3j)), 32)
    assert inner_semigroup_symbol(phi, 1.0, 32).order == 32
    with pytest.raises(AssertionError):
        inner_semigroup_symbol(PowerSeries(phi.coeffs), 1.0, 32)
    # a Blaschke series shorter than the requested order holds only a truncation
    with pytest.raises(AssertionError):
        inner_semigroup_symbol(phi, 1.0, 33)


def test_symbol_from_zeros_keeps_the_refusals():
    with pytest.raises(SymbolSingularAtOrigin):
        inner_semigroup_symbol(blaschke_series(BlaschkeSpec(()), 8), 1.0, 8)
    phi = blaschke_series(BlaschkeSpec((0.5,)), 8)
    for t in (math.nan, math.inf):
        with pytest.raises(NonFinite):
            inner_semigroup_symbol(phi, t, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        inner_semigroup_symbol(phi, -1.0, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        inner_semigroup_symbol(phi, 1.0, -1)
    # 2t (P Q' - Q P') overflows; so does t (phi + 1)/(phi - 1) on the series route
    for route in (phi, PowerSeries(phi.coeffs)):
        with pytest.raises(NonFinite):
            inner_semigroup_symbol(route, 1e308, 8)


def test_inner_check_coordinate_passes():
    report = inner_check(PowerSeries([0.0, 1.0]))
    assert report.passed
    assert report.max_modulus[0] == pytest.approx(0.9, abs=1e-12)
    assert report.max_modulus[1] == pytest.approx(0.99, abs=1e-12)
    assert report.tail_estimates == (0.0, 0.0)


def test_inner_check_blaschke_passes():
    report = inner_check(blaschke_series(BlaschkeSpec((0.5,)), 63))
    assert report.passed
    assert report.max_modulus[1] >= 0.97


def test_inner_check_shrinking_symbol_fails():
    report = inner_check(PowerSeries([0.0, 0.9]))
    assert not report.passed
    assert report.max_modulus[1] <= 0.9


def test_inner_check_refuses_unresolved_tail():
    with pytest.raises(TailNotConvergent):
        inner_check(PowerSeries(np.ones(21)))


def test_inner_check_singular_symbol_resolves_at_large_order():
    # exp((z+1)/(z-1)) has slowly decaying, oscillating coefficients; at
    # N=4096 the genuine tail on the 0.99 circle is ~1e-19, so the check
    # certifies. Boundary modulus approaches e^{-(1-r)/(1+r)} -> 1.
    symbol = inner_semigroup_symbol(PowerSeries([0.0, 1.0]), 1.0, 4096)
    report = inner_check(symbol)
    assert report.passed
    assert report.max_modulus[1] == pytest.approx(math.exp(-0.01 / 1.99), abs=1e-4)
    assert max(report.tail_estimates) <= DEFAULT_TOL.tail_tol


def _inner_check_per_circle(f, tol=DEFAULT_TOL):
    """The report from one ``polyval`` call per circle, each after its own tail is judged."""
    magnitudes = np.abs(f.coeffs)
    maxima, means, tails = [], [], []
    for rho in hardy._CHECK_RADII:
        tails.append(hardy._tail_estimate(magnitudes, rho, tol.tail_tol))
        assert tails[-1] <= tol.tail_tol
        angles = 2.0 * np.pi * np.arange(hardy._INNER_GRID) / hardy._INNER_GRID
        moduli = np.abs(np.polynomial.polynomial.polyval(rho * np.exp(1j * angles), f.coeffs))
        maxima.append(float(moduli.max()))
        means.append(float(moduli.mean()))
    passed = (
        all(m <= 1.0 + tol.residual_tol for m in maxima)
        and maxima[-1] >= hardy._BOUNDARY_FLOOR
        and means[-1] >= means[0] - tol.residual_tol
    )
    return hardy.InnerCheckReport(
        radii=hardy._CHECK_RADII,
        grid=hardy._INNER_GRID,
        max_modulus=tuple(maxima),
        mean_modulus=tuple(means),
        tail_estimates=tuple(tails),
        boundary_floor=hardy._BOUNDARY_FLOOR,
        passed=passed,
    )


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_inner_check_is_bit_identical_to_one_polyval_per_circle(degree, N):
    rng = np.random.default_rng(20261018 + 10 * N + degree)
    for _ in range(10):
        radii = 0.6 * np.sqrt(rng.uniform(size=degree))
        zeros = tuple(complex(v) for v in radii * np.exp(2j * np.pi * rng.uniform(size=degree)))
        f = blaschke_series(BlaschkeSpec(zeros), N)
        assert inner_check(f) == _inner_check_per_circle(f), zeros


def test_inner_check_of_the_semigroup_symbol_is_bit_identical_to_one_polyval_per_circle():
    symbol = inner_semigroup_symbol(PowerSeries([0.0, 1.0]), 1.0, 4095)
    report = inner_check(symbol)
    assert report.passed
    assert report == _inner_check_per_circle(symbol)


def test_inner_check_refusal_text_is_unchanged():
    symbol = inner_semigroup_symbol(PowerSeries([0.0, 1.0]), 0.5, 2047)
    with pytest.raises(TailNotConvergent) as refused:
        inner_check(symbol)
    assert str(refused.value) == (
        "coefficient tail beyond degree 2047 contributes about 1.993e-10 on the circle "
        "|z| = 0.99, above the tail tolerance 1.0e-10; increase the truncation order"
    )


def test_model_space_of_monomial_symbol():
    phi = blaschke_series(BlaschkeSpec((0.0, 0.0)), 31)  # z^2
    basis = model_space_basis(phi, 32, 2)
    assert basis.shape == (32, 2)
    # complement of z^2 H^2 is span{1, z}
    assert np.max(np.abs(basis[2:, :])) <= 1e-12
    np.testing.assert_allclose(basis[:2, :].conj().T @ basis[:2, :], np.eye(2), atol=1e-12)


def test_model_space_of_blaschke_half():
    n = 64
    phi = blaschke_series(BlaschkeSpec((0.5,)), n - 1)
    basis = model_space_basis(phi, n, 1)
    assert basis.shape == (n, 1)
    # K_phi is spanned by the kernel 1/(1 - 0.5 z): coefficients 0.5^k,
    # normalized by sqrt(1 - 0.25); the closed form fixes the phase, so no division by it
    expected = np.array([math.sqrt(0.75) * 0.5**k for k in range(n)])
    np.testing.assert_allclose(basis[:, 0], expected, rtol=0.0, atol=1e-12)

    # orthogonality to phi * z^k columns (spec invariant)
    columns = analytic_toeplitz_trunc(phi, n)[:, : n // 2]
    assert np.max(np.abs(basis.conj().T @ columns)) <= 1e-10


def test_model_space_degree_two_dimension():
    n = 64
    phi = blaschke_series(BlaschkeSpec((0.3, -0.4)), n - 1)
    basis = model_space_basis(phi, n, 2)
    assert basis.shape == (n, 2)
    gram = basis.conj().T @ basis
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def _factor_series_loop(a, N):
    """The scalar loop the vectorized factor coefficients must reproduce bit for bit."""
    coeffs = np.zeros(N + 1, dtype=np.complex128)
    if a == 0:
        if N >= 1:
            coeffs[1] = 1.0
        return coeffs
    mod = abs(a)
    lead = mod / a
    drop = mod * mod - 1.0
    coeffs[0] = mod
    power = 1.0 + 0.0j
    for k in range(1, N + 1):
        coeffs[k] = lead * power * drop
        power *= np.conj(a)
    return coeffs


@pytest.mark.parametrize("N", [0, 1, 5, 256, 4095])
def test_factor_series_is_bit_identical_to_the_scalar_loop(N):
    rng = np.random.default_rng(20261018)
    radii = 0.999 * np.sqrt(rng.uniform(size=300))
    zeros = radii * np.exp(2j * np.pi * rng.uniform(size=300))
    for a in (0.0, 0.5, -0.4, 0.3j, *zeros):
        a = complex(a)
        assert np.array_equal(hardy._factor_series(a, N), _factor_series_loop(a, N)), a


def _blaschke_series_from_full_constant(spec, N):
    """The product started from the constant as a full length-(N + 1) series."""
    coeffs = PowerSeries.constant(spec.constant, N).coeffs
    for a in spec.zeros:
        coeffs = np.convolve(coeffs, hardy._factor_series(a, N))[: N + 1]
    return coeffs


@pytest.mark.parametrize("N", [0, 1, 5, 64, 256, 4095])
def test_blaschke_series_from_the_constant_alone_is_bit_identical(N):
    # scaling the first factor by the constant (c * f) rounds differently; convolving
    # [c] with it does not, for c = 1 and for unimodular c.  Only the first convolution
    # differs between the routes, so most cases have one zero.
    rng = np.random.default_rng(20261018 + N)
    for case in range(40):
        constant = 1.0 if case % 2 else complex(np.exp(2j * np.pi * rng.uniform()))
        radius, angle = 0.95 * np.sqrt(rng.uniform()), 2.0 * np.pi * rng.uniform()
        a = 0.0 if case % 10 == 0 else complex(radius * np.exp(1j * angle))
        spec = BlaschkeSpec((a, 0.5j) if case % 20 == 1 else (a,), constant)
        coeffs, full = blaschke_series(spec, N).coeffs, _blaschke_series_from_full_constant(spec, N)
        assert np.array_equal(coeffs, full) and coeffs.tobytes() == full.tobytes(), spec
    constant = BlaschkeSpec((), 1j)  # no zeros: the full constant series, length N + 1
    assert np.array_equal(blaschke_series(constant, N).coeffs, [1j] + [0.0] * N)


def test_blaschke_series_keeps_its_spec_and_operations_drop_it():
    spec = BlaschkeSpec((0.3, -0.4))
    phi = blaschke_series(spec, 31)
    assert isinstance(phi, BlaschkeSeries)
    assert phi.spec is spec and phi.order == 31
    for derived in (series_mul(phi, phi), phi.truncate(31), phi.truncate(63)):
        assert type(derived) is PowerSeries


def _tmw_closed_form(zeros, k, z):
    """e_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_{a_j}(z), written out."""
    a = zeros[k]
    value = math.sqrt(1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * z)
    for b in zeros[:k]:
        value *= z if b == 0 else (abs(b) / b) * (b - z) / (1.0 - b.conjugate() * z)
    return value


@pytest.mark.parametrize(
    "zeros",
    [(0.3, -0.4), (0.0, 0.5 - 0.2j), (0.4j, 0.4j), (-0.3 + 0.4j, 0.0, 0.6, 0.6)],
    ids=["two", "origin", "repeated", "mixed"],
)
def test_tmw_basis_matches_the_rational_closed_form(zeros):
    zeros = tuple(complex(a) for a in zeros)
    n = 96
    basis = model_space_basis(blaschke_series(BlaschkeSpec(zeros), n - 1), n, len(zeros))
    rng = np.random.default_rng(7)
    points = 0.9 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
    points[0] = 0.9  # one point on the outer circle
    for k in range(len(zeros)):
        by_series = np.polynomial.polynomial.polyval(points, basis[:, k])
        closed = np.array([_tmw_closed_form(zeros, k, complex(z)) for z in points])
        np.testing.assert_allclose(by_series, closed, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("zeros", [(0.5,), (0.5, -0.3 + 0.4j, 0.2j)])
def test_tmw_and_svd_routes_span_the_same_space(zeros, n):
    phi = blaschke_series(BlaschkeSpec(zeros), n - 1)
    tmw = model_space_basis(phi, n, len(zeros))
    svd = model_space_basis(PowerSeries(phi.coeffs), n, len(zeros))
    np.testing.assert_allclose(tmw.conj().T @ tmw, np.eye(len(zeros)), rtol=0.0, atol=1e-12)
    gap = np.abs(tmw @ tmw.conj().T - svd @ svd.conj().T).max()
    assert gap <= 1e-12


def test_model_space_route_follows_the_input_type(monkeypatch):
    n = 64
    phi = blaschke_series(BlaschkeSpec((0.3, -0.4)), n - 1)
    tmw = model_space_basis(phi, n, 2)

    def refuse(*args):
        raise AssertionError("wrong route")

    # a plain series with the same coefficients, a degree other than the zero count, or a
    # symbol shorter than the truncation takes the SVD complement
    monkeypatch.setattr(hardy, "_tmw_basis", refuse)
    plain = model_space_basis(PowerSeries(phi.coeffs), n, 2)
    assert np.abs(plain @ plain.conj().T - tmw @ tmw.conj().T).max() <= 1e-12
    with pytest.raises(ValueError, match="rank deficient"):
        model_space_basis(phi, n, 1)
    assert model_space_basis(blaschke_series(BlaschkeSpec((0.3, -0.4)), 31), n, 2).shape == (n, 2)
    monkeypatch.undo()
    # the Blaschke series itself never reaches the SVD
    monkeypatch.setattr(hardy, "null_space_basis", refuse)
    np.testing.assert_array_equal(model_space_basis(phi, n, 2), tmw)


def test_tmw_route_keeps_the_refusals():
    # both refusals run before the route is chosen
    with pytest.raises(TruncationTooSmall, match="working minimum"):
        model_space_basis(blaschke_series(BlaschkeSpec((0.3, -0.4)), 63), 7, 2)
    with pytest.raises(TruncationTooSmall, match="carry mass"):
        model_space_basis(blaschke_series(BlaschkeSpec((0.95,)), 63), 64, 1)


def test_model_space_rejects_small_truncation():
    phi = blaschke_series(BlaschkeSpec((0.3, -0.4)), 7)
    with pytest.raises(TruncationTooSmall):
        model_space_basis(phi, 7, 2)


def test_ladder_coordinate_symbol_exact():
    report = verify_ladder_decomposition(PowerSeries([0.0, 1.0]), 1, 3, 16, DEFAULT_TOL)
    assert report.passed
    assert report.total_dim == report.expected_dim == 4
    assert report.offdiag_residual == 0.0


def test_ladder_blaschke_levels():
    phi = blaschke_series(BlaschkeSpec((0.5,)), 63)
    report = verify_ladder_decomposition(phi, 1, 4, 64, DEFAULT_TOL)
    assert report.passed
    assert report.offdiag_residual <= 1e-10
    assert report.total_dim == 5

    two = blaschke_series(BlaschkeSpec((0.3, -0.4)), 63)
    report = verify_ladder_decomposition(two, 2, 3, 64, DEFAULT_TOL)
    assert report.passed
    assert report.expected_dim == 8
    assert report.total_dim == 8


def test_toeplitz_truncation_multiplies_exactly():
    # analytic truncations are lower triangular, so the product identity
    # T_n(phi) T_n(psi) = T_n(phi psi) holds with no boundary error
    rng = np.random.default_rng(81)
    for _ in range(10):
        dp, dq = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        phi = PowerSeries(rng.standard_normal(dp + 1) + 1j * rng.standard_normal(dp + 1))
        psi = PowerSeries(rng.standard_normal(dq + 1) + 1j * rng.standard_normal(dq + 1))
        n = 12
        lhs = analytic_toeplitz_trunc(phi, n) @ analytic_toeplitz_trunc(psi, n)
        rhs = analytic_toeplitz_trunc(series_mul(phi, psi, N=dp + dq), n)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13

    tri = analytic_toeplitz_trunc(PowerSeries([1.0, 2.0, 3.0]), 6)
    assert np.max(np.abs(np.triu(tri, k=1))) == 0.0


@pytest.mark.parametrize("order, n", [(0, 1), (2, 6), (9, 4), (5, 6)])
def test_toeplitz_truncation_pinned_diagonals(order, n):
    # diagonal d below the main one holds c_d; taps past the symbol's order are 0
    rng = np.random.default_rng(order + 10 * n)
    c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    expected = sum(c[d] * np.eye(n, k=-d) for d in range(min(order + 1, n)))
    np.testing.assert_array_equal(analytic_toeplitz_trunc(PowerSeries(c), n), expected)


@pytest.mark.parametrize("shape", [(5, 8), (8, 5), (6, 6), (7, 9)])
def test_caradus_measures_planted_rank(shape):
    # U[:, :r] diag(sigma) V[:, :r]* has rank r exactly, its kernel has
    # dimension cols - r, and its nonzero singular values are sigma
    rows, cols = shape
    rng = np.random.default_rng(rows * 10 + cols)
    for r in range(0, min(shape) + 1):
        U, _ = np.linalg.qr(rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows)))
        V, _ = np.linalg.qr(rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols)))
        sigma = rng.uniform(1e-3, 1.0, r)
        M = U[:, :r] @ np.diag(sigma) @ V[:, :r].conj().T
        report = caradus_certificate(M)
        assert (report.rows, report.cols) == shape
        assert report.rank == r
        assert report.kernel_dim == cols - r == scipy.linalg.null_space(M).shape[1]
        assert report.surjective == (r == rows)
        assert report.passed == (r == rows < cols)
        expected = sigma.min() / sigma.max() if r else 0.0
        assert report.sigma_min == pytest.approx(expected, abs=1e-12)
        assert report.rank_tol == DEFAULT_TOL.rank_tol


_BLOCKS = ((1, 8), (4, 20), (3, 24))


def test_caradus_backward_shift_certified():
    # the n x (n + m) block is onto C^n and kills the first m basis vectors
    for m, n in _BLOCKS:
        report = caradus_certificate(block_backward_shift_trunc(m, n))
        assert (report.rows, report.cols, report.rank) == (n, n + m, n)
        assert report.kernel_dim == m
        assert report.surjective and report.passed
        assert report.sigma_min == 1.0  # a partial isometry: nonzero singular values are 1


def test_caradus_forward_shift_refused():
    # the (n + m) x n block is injective and its range misses m coordinates
    for m, n in _BLOCKS:
        report = caradus_certificate(block_forward_shift_trunc(m, n))
        assert (report.rows, report.cols, report.rank) == (n + m, n, n)
        assert report.kernel_dim == 0
        assert not report.surjective and not report.passed


def test_caradus_block_multiplicity():
    for m in range(1, 6):
        assert caradus_certificate(block_backward_shift_trunc(m, 20)).kernel_dim == m
        assert caradus_certificate(block_forward_shift_trunc(m, 20)).kernel_dim == 0


def test_caradus_adjoint_swaps_roles():
    for m, n in _BLOCKS:
        back = block_backward_shift_trunc(m, n)
        forward = block_forward_shift_trunc(m, n)
        np.testing.assert_array_equal(back.conj().T, forward)
        rb = caradus_certificate(back)
        rf = caradus_certificate(forward)
        assert rb.rank == rf.rank == n
        assert (rb.rows, rb.cols) == (rf.cols, rf.rows)
        assert rb.passed and not rf.passed


@pytest.mark.parametrize("m, n", [(0, 4), (-1, 4), (2, 0)])
def test_block_shifts_refuse_empty_shapes(m, n):
    with pytest.raises(ValueError):
        block_backward_shift_trunc(m, n)
    with pytest.raises(ValueError):
        block_forward_shift_trunc(m, n)


def test_caradus_square_matrix_has_no_kernel():
    # a square matrix: surjective means invertible, so there is no kernel
    report = caradus_certificate(np.eye(3, dtype=np.complex128))
    assert (report.rows, report.cols, report.rank, report.kernel_dim) == (3, 3, 3, 0)
    assert report.surjective and not report.passed


def test_tolerance_config_rejects_nonpositive():
    for value in (0.0, -1e-10, math.inf, math.nan):
        for name in ("rank_tol", "psd_tol", "residual_tol", "tail_tol"):
            with pytest.raises(ValueError, match=name):
                ToleranceConfig(**{name: value})


def test_toeplitz_truncation_refuses_non_finite_coefficients():
    with pytest.raises(NonFinite, match="Toeplitz coefficients"):
        ToeplitzTrunc((1.0, complex(0.0, math.inf)), 3)
    T = ToeplitzTrunc((1.0, 2.0), 3).matrix()
    assert not T.flags.writeable
    np.testing.assert_array_equal(T, [[1, 0, 0], [2, 1, 0], [0, 2, 1]])
