"""Hardy-laboratory tests: Blaschke products, inner checks, model spaces,
ladder decompositions, shift certificates."""

import math

import numpy as np
import pytest
import scipy.linalg

from shiftmodels import hardy
from shiftmodels.cli import _blaschke
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
from shiftmodels.series import _HEAD, _TAIL, PowerSeries, series_mul
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
    spec = _blaschke({"zeros": [[0.5, 0.0], [0.0, -0.2]], "constant": [0.0, 1.0]})
    assert spec.zeros == (0.5, -0.2j)
    assert spec.constant == 1.0j
    assert spec.degree == 2
    assert _blaschke({"zeros": [[0.5, 0.0]]}).constant == 1.0


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
    by_clark = inner_semigroup_symbol(phi, t, N).coeffs
    by_algebra = inner_semigroup_symbol(PowerSeries(phi.coeffs), t, N).coeffs
    assert np.max(np.abs(by_clark - by_algebra)) <= 1e-13


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
    # lam t overflows on the Clark route (lam = 3 for the zero 0.5), so its Laguerre factor is
    # non-finite; t (phi + 1)/(phi - 1) overflows on the series route, below its head and past it
    for N in (8, _HEAD + _TAIL):
        phi = blaschke_series(BlaschkeSpec((0.5,)), N)
        for route in (phi, PowerSeries(phi.coeffs)):
            with pytest.raises(NonFinite, match="^non-finite series coefficients$"):
                inner_semigroup_symbol(route, 1e308, N)


def _two_stage_recurrence(B, D, start, N):
    """The symbol's differential equation solved one coefficient at a time, in its inputs'
    arithmetic.

    With ``D = P - Q`` and ``B = 2t (P Q' - Q P')`` for ``phi = P / Q``, the symbol g solves
    ``D^2 g' = B g``, taken as the two stages ``w = D g'`` and ``D w = B g`` from
    g_0 = exp(t F(0)).
    """
    d = len(D) - 1
    g, w = [start], []
    for n in range(N):
        w_n = sum(B[j] * g[n - j] for j in range(min(2 * d, n + 1)))
        w_n = (w_n - sum(D[k] * w[n - k] for k in range(1, min(d, n) + 1))) / D[0]
        recent = range(1, min(d, n + 1) + 1)
        lowered = (n + 1) * sum(D[k] * g[n + 1 - k] for k in recent) - sum(
            k * D[k] * g[n + 1 - k] for k in recent
        )
        g.append((w_n - lowered) / (D[0] * (n + 1)))
        w.append(w_n)
    return g


def _symbol_by_mpmath(spec, t, N, digits=40):
    """``_two_stage_recurrence`` in ``digits``-digit arithmetic, from the zeros."""
    mpmath = pytest.importorskip("mpmath")

    def times(p, q):
        out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    with mpmath.workdps(digits):
        P, Q = [mpmath.mpc(spec.constant)], [mpmath.mpc(1)]
        for a in map(mpmath.mpc, spec.zeros):
            P = times(P, [mpmath.mpc(0), mpmath.mpc(1)] if a == 0 else [abs(a), -abs(a) / a])
            Q = times(Q, [mpmath.mpc(1), -mpmath.conj(a)])
        d = spec.degree
        PdQ = times(P, [k * Q[k] for k in range(1, d + 1)] + [mpmath.mpc(0)])
        QdP = times(Q, [k * P[k] for k in range(1, d + 1)] + [mpmath.mpc(0)])
        B = [2 * t * (PdQ[j] - QdP[j]) for j in range(2 * d)]
        D = [p - q for p, q in zip(P, Q)]
        start = mpmath.exp(t * (P[0] + 1) / (P[0] - 1))
        return np.array([complex(c) for c in _two_stage_recurrence(B, D, start, N)])


_ZERO_SETS = [
    (0.5,), (0.3, -0.4), (0.6, 0.35), (0.2 + 0.3j, -0.5, 0.6j), (0.9, 0.9, 0.89j, -0.95)
]


@pytest.mark.parametrize("t", [0.25, 1.0])
@pytest.mark.parametrize("zeros", _ZERO_SETS)
def test_symbol_from_zeros_matches_a_40_digit_recurrence(zeros, t):
    # a Blaschke series takes the Clark route from its zeros
    spec = BlaschkeSpec(zeros)
    symbol = inner_semigroup_symbol(blaschke_series(spec, 1023), t, 1023).coeffs
    assert np.max(np.abs(symbol - _symbol_by_mpmath(spec, t, 1023))) <= 1e-13


def test_symbol_near_the_circle_matches_a_40_digit_recurrence_through_4095():
    # two equal zeros and two near the circle, where the recurrence in floating point drifts
    # to 4e-11
    spec, N = BlaschkeSpec(_ZERO_SETS[-1]), 4095
    symbol = inner_semigroup_symbol(blaschke_series(spec, N), 4.0, N).coeffs
    assert np.max(np.abs(symbol - _symbol_by_mpmath(spec, 4.0, N))) <= 1e-13


@pytest.mark.parametrize("N", [254, 255, 256])
@pytest.mark.parametrize("zeros", [(0.3, -0.4), (0.2 + 0.3j, -0.5, 0.6j), (0.9, 0.9, 0.89j, -0.95)])
def test_symbol_by_clark_points_holds_where_the_fft_length_doubles(zeros, N):
    # each product of two factors has 2N + 1 coefficients: 511 at N = 255 fill a transform of
    # 512, and 513 at N = 256 need 1024; a shorter one folds the top coefficients onto the bottom
    spec = BlaschkeSpec(zeros)
    symbol = inner_semigroup_symbol(blaschke_series(spec, N), 1.0, N).coeffs
    assert np.max(np.abs(symbol - _symbol_by_mpmath(spec, 1.0, N))) <= 1e-13


@pytest.mark.parametrize("degree", [32, 64])
def test_clark_route_of_many_zeros_matches_the_series_algebra(degree):
    # np.roots of P - Q alone, without the Newton step, leaves the d = 64 symbol 7.5e-10 off
    rng = np.random.default_rng(degree)
    zeros = 0.6 * np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
    phi, N = blaschke_series(BlaschkeSpec(tuple(zeros)), 1023), 1023
    symbol = inner_semigroup_symbol(phi, 1.0, N).coeffs
    by_algebra = inner_semigroup_symbol(PowerSeries(phi.coeffs), 1.0, N).coeffs
    assert np.max(np.abs(symbol - by_algebra)) <= 1e-12


# four zeros spread over the disc, on which the recurrence in floating point loses every
# digit by t = 30 (Sum |c_n|^2 reads 9000.9 there, where the symbol's is 0.828)
_SPREAD_ZEROS = (0.2212 - 0.6419j, 0.4861 + 0.6376j, 0.0750 - 0.2075j, -0.8465 + 0.3498j)


@pytest.mark.parametrize("t", [10.0, 30.0, 60.0])
def test_symbol_by_clark_points_matches_a_60_digit_recurrence_at_large_times(t):
    # 60 digits hold the recurrence through N = 981 at t = 60: an 80-digit run reads the same
    spec, N = BlaschkeSpec(_SPREAD_ZEROS), 981
    symbol = inner_semigroup_symbol(blaschke_series(spec, N), t, N).coeffs
    assert np.max(np.abs(symbol - _symbol_by_mpmath(spec, t, N, digits=60))) <= 1e-12
    assert np.vdot(symbol, symbol).real <= 1.0


@pytest.mark.parametrize("zeros", [(0.0,), (0.5, 0.3), (0.9, 0.9, 0.89j, -0.95)])
def test_a_huge_time_gives_the_zero_symbol(zeros):
    # at t = 1e300 every coefficient underflows to 0 on both routes, none of them negative
    spec, N = BlaschkeSpec(zeros), 1000
    phi = blaschke_series(spec, N)
    for route in (phi, PowerSeries(phi.coeffs)):
        coeffs = inner_semigroup_symbol(route, 1e300, N).coeffs
        assert not coeffs.any() and not np.signbit(coeffs.view(np.float64)).any()


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("largest", [0.85, 0.9])
def test_series_algebra_symbol_matches_the_clark_point_closed_form_near_the_circle(degree, largest):
    # near the circle at large t the series-algebra route is the less accurate one (CHANGES.md)
    rng = np.random.default_rng(20261019 + degree)
    spec = BlaschkeSpec(_zeros_with_largest_modulus(rng, degree, largest))
    N, t = 4095, 4.0
    phi = PowerSeries(blaschke_series(spec, N).coeffs)
    symbol = inner_semigroup_symbol(phi, t, N).coeffs
    assert np.max(np.abs(symbol - _symbol_by_clark_points(spec, t, N))) <= 2.5e-12


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


def _assert_agrees_with_one_polyval_per_circle(report, f):
    # the FFT and Horner's rule sum in different orders, so the moduli agree to rounding
    oracle = _inner_check_per_circle(f)
    for field in ("max_modulus", "mean_modulus"):
        got, expected = getattr(report, field), getattr(oracle, field)
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-14, field
    assert report.tail_estimates == oracle.tail_estimates
    assert report.passed == oracle.passed
    assert (report.radii, report.grid, report.boundary_floor) == (
        oracle.radii, oracle.grid, oracle.boundary_floor
    )


# the names are kept from the bit-for-bit pins against the former Horner sweep
@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_inner_check_is_bit_identical_to_one_polyval_per_circle(degree, N):
    rng = np.random.default_rng(20261018 + 10 * N + degree)
    for _ in range(10):
        radii = 0.6 * np.sqrt(rng.uniform(size=degree))
        zeros = tuple(complex(v) for v in radii * np.exp(2j * np.pi * rng.uniform(size=degree)))
        f = blaschke_series(BlaschkeSpec(zeros), N)
        _assert_agrees_with_one_polyval_per_circle(inner_check(f), f)


def test_inner_check_of_the_semigroup_symbol_is_bit_identical_to_one_polyval_per_circle():
    symbol = inner_semigroup_symbol(PowerSeries([0.0, 1.0]), 1.0, 4095)
    report = inner_check(symbol)
    assert report.passed
    _assert_agrees_with_one_polyval_per_circle(report, symbol)


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
    """One factor's closed form, c_0 = |a| and c_k = (|a|/a) conj(a)^(k-1) (|a|^2 - 1) for k >= 1,
    by a scalar loop."""
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


# the name is kept from the bit-for-bit pin of the deleted factor series against this loop
@pytest.mark.parametrize("N", [0, 1, 5, 256, 4095])
def test_factor_series_is_bit_identical_to_the_scalar_loop(N):
    # the doubling scan forms conj(a)^k from squarings, the loop by k products, so both
    # carry about k ulps; with |a| near 1 the first term |a|^2 - 1 also cancels
    rng = np.random.default_rng(20261018)
    radii = 0.999 * np.sqrt(rng.uniform(size=300))
    zeros = radii * np.exp(2j * np.pi * rng.uniform(size=300))
    for a in (0.0, 0.5, -0.4, 0.3j, 0.999, -0.999j, *zeros):
        a = complex(a)
        got, closed = blaschke_series(BlaschkeSpec((a,)), N).coeffs, _factor_series_loop(a, N)
        error = np.abs(got - closed)
        assert error.max() <= 1e-15, a
        normal = np.abs(closed) > 1e-290
        assert (error[normal] <= 1e-12 * np.abs(closed[normal])).all(), a


def _blaschke_series_by_mpmath(spec, N):
    """The product started from the constant, one factor at a time, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        h = [mpmath.mpc(spec.constant)] + [mpmath.mpc(0)] * N
        for a in spec.zeros:
            if a == 0:
                h = [mpmath.mpc(0)] + h[:-1]
                continue
            a = mpmath.mpc(a)
            mod, back = abs(a), mpmath.conj(a)
            # times (|a|/a)(a - z), then divided by 1 - conj(a) z
            u = [mod * h[0]] + [mod * h[k] - mod / a * h[k - 1] for k in range(1, N + 1)]
            for k in range(1, N + 1):
                u[k] += back * u[k - 1]
            h = u
        return np.array([complex(c) for c in h])


# the name is kept from the bit-for-bit pin against the product started from the full constant
@pytest.mark.parametrize("N", [0, 1, 5, 64, 256, 4095])
def test_blaschke_series_from_the_constant_alone_is_bit_identical(N):
    # the scan starts from c e_0; at N = 4095 every fifth case and one with two zeros keep
    # the 40-digit reference near half a second
    rng = np.random.default_rng(20261018 + N)
    checked = range(40) if N < 4095 else (*range(0, 40, 5), 21)
    for case in range(40):
        constant = 1.0 if case % 2 else complex(np.exp(2j * np.pi * rng.uniform()))
        radius, angle = 0.95 * np.sqrt(rng.uniform()), 2.0 * np.pi * rng.uniform()
        a = 0.0 if case % 10 == 0 else complex(radius * np.exp(1j * angle))
        spec = BlaschkeSpec((a, 0.5j) if case % 20 == 1 else (a,), constant)
        if case in checked:
            error = np.abs(blaschke_series(spec, N).coeffs - _blaschke_series_by_mpmath(spec, N))
            assert error.max() <= 1e-15, spec
    constant = BlaschkeSpec((), 1j)  # no zeros: the full constant series, length N + 1
    assert np.array_equal(blaschke_series(constant, N).coeffs, [1j] + [0.0] * N)


@pytest.mark.parametrize(
    "zeros",
    [(0.5,), (0.3, -0.4), (0.6, 0.35), (0.2 + 0.3j, -0.5, 0.6j), (0.9, 0.9, 0.89j, -0.95),
     (0.999,), (0.99j, -0.995)],
)
def test_blaschke_series_matches_a_40_digit_product(zeros):
    spec = BlaschkeSpec(zeros)
    error = np.abs(blaschke_series(spec, 600).coeffs - _blaschke_series_by_mpmath(spec, 600))
    assert error.max() <= 1e-15


def test_the_blaschke_routes_never_convolve(monkeypatch):
    # blaschke_series, the TMW basis and the ladder of a Blaschke series run factor scans;
    # a plain series of the same coefficients still convolves, in the ladder and the SVD route
    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve ran")

    n = 64
    spec = BlaschkeSpec((0.3, -0.4j))
    plain = PowerSeries(blaschke_series(spec, n - 1).coeffs)
    monkeypatch.setattr(np, "convolve", refuse)
    phi = blaschke_series(spec, n - 1)
    assert model_space_basis(phi, n, 2).shape == (n, 2)
    assert verify_ladder_decomposition(phi, 2, 3, n).passed
    with pytest.raises(AssertionError, match="np.convolve ran"):
        verify_ladder_decomposition(plain, 2, 3, n)


def test_blaschke_series_keeps_its_spec_and_operations_drop_it():
    spec = BlaschkeSpec((0.3, -0.4))
    phi = blaschke_series(spec, 31)
    assert isinstance(phi, BlaschkeSeries)
    assert phi.spec is spec and phi.order == 31
    for derived in (series_mul(phi, phi, 31), phi.truncate(31), phi.truncate(63)):
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


@pytest.mark.parametrize("zeros", [(0.5,), (0.3, -0.4j), (0.0, 0.6 + 0.2j, -0.5)])
def test_ladder_levels_by_factor_scans_match_the_convolution(zeros):
    # a constant other than 1 too: the Gram residuals cannot see a phase per level
    n = 128
    spec = BlaschkeSpec(zeros, complex(math.cos(2.0), math.sin(2.0)))
    phi = blaschke_series(spec, n - 1)
    K = model_space_basis(phi, n, len(zeros))
    by_scan = hardy._ladder_blocks(phi, K, 4)
    by_convolution = hardy._ladder_blocks(PowerSeries(phi.coeffs), K, 4)
    for level, (a, b) in enumerate(zip(by_scan, by_convolution)):
        assert np.abs(a - b).max() <= 1e-14, level


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
