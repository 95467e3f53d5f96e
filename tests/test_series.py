"""Truncated power-series arithmetic tests."""

import math
import sys

import numpy as np
import pytest

from shiftmodels import series
from shiftmodels.cli import _complex
from shiftmodels.errors import NonFinite, ZeroConstantTerm
from shiftmodels.series import (
    PowerSeries,
    series_add,
    series_eval,
    series_exp,
    series_inv,
    series_mul,
    series_scale,
)


def test_exp_of_zero_is_one():
    out = series_exp(PowerSeries(np.zeros(8)), 7)
    np.testing.assert_allclose(out.coeffs, [1.0] + [0.0] * 7, atol=0.0)


def test_inv_of_one_minus_z_is_geometric():
    out = series_inv(PowerSeries([1.0, -1.0]), 10)
    np.testing.assert_allclose(out.coeffs, np.ones(11), atol=1e-14)


def test_mul_telescopes_back_to_one():
    ones = PowerSeries(np.ones(11))
    out = series_mul(PowerSeries([1.0, -1.0]), ones, N=10)
    expected = np.zeros(11)
    expected[0] = 1.0
    np.testing.assert_allclose(out.coeffs, expected, atol=1e-14)


def test_inv_requires_nonzero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        series_inv(PowerSeries([0.0, 1.0]), 4)


def test_exp_matches_scalar_on_constant_series():
    out = series_exp(PowerSeries([0.5]), 6)
    assert out.coeffs[0] == pytest.approx(np.exp(0.5), abs=1e-14)
    np.testing.assert_allclose(out.coeffs[1:], np.zeros(6), atol=0.0)


def test_exp_inverse_identity():
    # exp(f) * exp(-f) = 1 through the truncation order
    rng = np.random.default_rng(61)
    for _ in range(10):
        order = int(rng.integers(4, 40))
        coeffs = 0.5 * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
        coeffs[0] = 0.0  # keep the exponential recurrence scale-free
        f = PowerSeries(coeffs)
        product = series_mul(series_exp(f, order), series_exp(series_scale(f, -1.0), order), N=order)
        expected = np.zeros(order + 1)
        expected[0] = 1.0
        assert np.max(np.abs(product.coeffs - expected)) <= 1e-12


def test_inv_is_two_sided_through_truncation():
    rng = np.random.default_rng(62)
    for _ in range(10):
        order = int(rng.integers(3, 30))
        coeffs = 0.4 * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
        coeffs[0] = 1.0 + coeffs[0] * 0.1
        f = PowerSeries(coeffs)
        product = series_mul(f, series_inv(f, order), N=order)
        expected = np.zeros(order + 1)
        expected[0] = 1.0
        assert np.max(np.abs(product.coeffs - expected)) <= 1e-12


def _exp_by_loop(fc: np.ndarray) -> np.ndarray:
    """The derivative recurrence n g_n = sum_k k f_k g_{n-k}, one term at a time."""
    out = np.zeros(fc.size, dtype=np.complex128)
    out[0] = np.exp(fc[0])
    for n in range(1, fc.size):
        out[n] = sum(k * fc[k] * out[n - k] for k in range(1, n + 1)) / n
    return out


def _inv_by_loop(fc: np.ndarray) -> np.ndarray:
    """The convolution recurrence f_0 g_n = -sum_k f_k g_{n-k}, one term at a time."""
    out = np.zeros(fc.size, dtype=np.complex128)
    out[0] = 1.0 / fc[0]
    for n in range(1, fc.size):
        out[n] = -sum(fc[k] * out[n - k] for k in range(1, n + 1)) / fc[0]
    return out


def test_exp_and_inv_match_the_scalar_recurrences():
    # the same products in another summation order: agreement to rounding
    rng = np.random.default_rng(63)
    order = 96
    coeffs = 0.3 * (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1))
    coeffs[0] = 1.0 + 0.5j
    f = PowerSeries(coeffs)
    for fast, slow in ((series_exp, _exp_by_loop), (series_inv, _inv_by_loop)):
        reference = slow(f.coeffs)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(fast(f, order).coeffs - reference)) <= 1e-13 * scale


_LARGE_ORDER = 4095


def test_inv_of_squared_one_minus_z_is_exact_at_large_order():
    # 1/(1-z)^2 = sum (n+1) z^n; every partial sum is an integer below 2^53
    out = series_inv(PowerSeries([1.0, -2.0, 1.0]), _LARGE_ORDER)
    assert np.array_equal(out.coeffs, np.arange(1, _LARGE_ORDER + 2))


def test_exp_of_log_is_geometric_at_large_order():
    # exp(sum_{k>=1} z^k / k) = exp(-log(1-z)) = 1/(1-z)
    log = np.concatenate(([0.0], 1.0 / np.arange(1, _LARGE_ORDER + 1)))
    out = series_exp(PowerSeries(log), _LARGE_ORDER)
    assert np.max(np.abs(out.coeffs - 1.0)) <= 1e-12


def test_exp_of_z_is_reciprocal_factorials_at_large_order():
    out = series_exp(PowerSeries([0.0, 1.0]), _LARGE_ORDER)
    # 1/n! as a running product of 1/k
    expected = np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1, _LARGE_ORDER + 1))))
    assert np.max(np.abs(out.coeffs - expected)) <= 1e-15


def test_add_scale_shift_eval():
    f = PowerSeries([1.0, 2.0])
    g = PowerSeries([0.0, -2.0, 3.0])
    total = series_add(f, g)
    np.testing.assert_allclose(total.coeffs, [1.0, 0.0, 3.0], atol=0.0)
    np.testing.assert_allclose(series_scale(f, 2.0j).coeffs, [2.0j, 4.0j], atol=0.0)
    z = PowerSeries([0.0, 1.0])
    np.testing.assert_allclose(series_mul(f, z, N=2).coeffs, [0.0, 1.0, 2.0], atol=0.0)
    assert series_eval(total, 0.5) == pytest.approx(1.0 + 3.0 * 0.25, abs=1e-14)


def test_truncate_and_json_round_trip():
    f = PowerSeries([1.0, 2.0, 3.0, 4.0])
    assert f.order == 3
    np.testing.assert_allclose(f.truncate(1).coeffs, [1.0, 2.0], atol=0.0)
    assert f.truncate(5).coeffs.size == 6
    # a literal wire list, lowest degree first, pins the format independently of any serializer
    parsed = PowerSeries(_complex([[1.0, 0.0], [2.0, -1.0], [0.0, 0.5]], "series coefficients"))
    np.testing.assert_array_equal(parsed.coeffs, [1.0, 2.0 - 1.0j, 0.5j])


def _exp_by_the_forward_buffer(f, N, dtype=np.complex128):
    """The recurrence on a forward buffer, whose reversed view np.dot copies each step."""
    fc = f.truncate(N).coeffs.astype(dtype)
    out = np.zeros(N + 1, dtype=dtype)
    with np.errstate(all="ignore"):
        out[0] = np.exp(fc[0])
        kf = np.arange(N + 1) * fc
        for n in range(1, N + 1):
            out[n] = np.dot(kf[1 : n + 1], out[n - 1 :: -1]) / n
    return out


def _inv_by_the_forward_buffer(f, N, dtype=np.complex128):
    fc = f.truncate(N).coeffs.astype(dtype)
    out = np.zeros(N + 1, dtype=dtype)
    with np.errstate(all="ignore"):
        out[0] = 1.0 / fc[0]
        for n in range(1, N + 1):
            out[n] = -np.dot(fc[1 : n + 1], out[n - 1 :: -1]) / fc[0]
    return out


def _outcome(route, f, N):
    """The coefficient bytes, or the refusal's type and text."""
    try:
        return route(f, N).coeffs.tobytes()
    except NonFinite as exc:
        return type(exc), str(exc)


def _decaying_series(N, scale=1.0):
    # the tail's l1 norm stays below |f_0|, so 1/f has no pole in the closed disc
    rng = np.random.default_rng(20261018 + N)
    coeffs = 0.15 * (rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1))
    coeffs /= np.arange(1, N + 2) ** 1.5
    coeffs[0] = 0.7 - 0.2j
    return PowerSeries(scale * coeffs)


_LOOPS = {series_exp: _exp_by_the_forward_buffer, series_inv: _inv_by_the_forward_buffer}


def _outcomes(route, f, N):
    """The route's outcome and the forward-buffer loop's, refused as PowerSeries refuses."""
    return _outcome(route, f, N), _outcome(lambda f, N: PowerSeries(_LOOPS[route](f, N)), f, N)


def _error_to_long_double(route, f, N):
    # the loop in np.clongdouble, a reference with more digits
    reference = _LOOPS[route](f, N, np.clongdouble)
    return float(np.max(np.abs(route(f, N).coeffs - reference)))


# the lowest order that goes by blocks: every order below it is the loop's alone
_FIRST_BLOCKED = series._HEAD + series._TAIL


# the name is kept from the bit-for-bit pin of the whole recurrence: orders below the
# first blocked one are still the loop's bits, and from it on the blocks agree with a
# long-double run
@pytest.mark.parametrize("N", [0, 1, 2, 7, 64, 257, 2047, 4095])
def test_exp_and_inv_are_bit_identical_to_the_forward_buffer(N):
    f = _decaying_series(N)
    # the input's own order, a truncation and a zero-padded extension
    for order in sorted({N, N // 2, N + 3}):
        for route in _LOOPS:
            outcome, loop = _outcomes(route, f, order)
            assert isinstance(outcome, bytes), (route.__name__, order)
            if order < _FIRST_BLOCKED:
                assert outcome == loop, (route.__name__, order)
            else:
                assert _error_to_long_double(route, f, order) <= 1e-15, (route.__name__, order)


@pytest.mark.parametrize("N", [7, 64, 257, 2047])
def test_a_huge_series_keeps_its_outcome_and_refusal_text(N):
    f = _decaying_series(N, 1e150)
    if N < _FIRST_BLOCKED:
        for route in _LOOPS:
            outcome, loop = _outcomes(route, f, N)
            assert outcome == loop, route.__name__
    else:  # 1/f scales by 1e-150, and so does its rounding error
        assert _error_to_long_double(series_inv, f, N) <= 1e-165
    assert _outcome(series_exp, f, N) == (NonFinite, "non-finite series coefficients")
    assert isinstance(_outcome(series_inv, f, N), bytes)


def _boundaries(block):
    # where the blocks start, and where the last block is one short of full, full, and one
    # coefficient: the blocks start at coefficient _HEAD, so order N leaves
    # (N + 1 - _HEAD) % block coefficients to the last one
    first = _FIRST_BLOCKED
    full = next(N for N in range(first, first + block) if (N + 1 - series._HEAD) % block == 0)
    return (first - 1, first, first + 1, full - 1, full, full + 1)


@pytest.mark.parametrize(
    ("route", "N"),
    [(series_exp, N) for N in (*_boundaries(series._EXP_BLOCK), 4095)]
    + [(series_inv, N) for N in (*_boundaries(series._INV_BLOCK), 4095)],
)
def test_the_blocks_agree_with_a_long_double_run_across_their_boundaries(route, N):
    assert _error_to_long_double(route, _decaying_series(N), N) <= 1e-15


@pytest.mark.parametrize("t", [0.5, 3.0])
def test_exp_of_the_coordinate_symbol_matches_a_long_double_run(t):
    # t (z + 1)/(z - 1) = -t - 2t sum_{k>=1} z^k, perfbench's symbol jobs at N = 2047
    explicit = np.full(2048, -2.0 * t)
    explicit[0] = -t
    assert _error_to_long_double(series_exp, PowerSeries(explicit), 2047) <= 5e-15


def test_inv_of_cubed_one_minus_z_is_exact_at_large_order():
    # 1/(1-z)^3 = sum C(n+2, 2) z^n: integers below 2^53 in every sum and product
    out = series_inv(PowerSeries([1.0, -3.0, 3.0, -1.0]), _LARGE_ORDER)
    n = np.arange(_LARGE_ORDER + 1)
    assert np.array_equal(out.coeffs, (n + 2) * (n + 1) // 2)


def test_an_exponential_whose_block_inverses_overflow_is_the_loops():
    # t (z + 1)/(z - 1) at t = 1e300: exp(-t) is 0, so every coefficient is 0, but the
    # blocks' inverses of diag(n) - L overflow; the loop runs on instead
    explicit = np.full(1001, -2e300)
    explicit[0] = -1e300
    outcome, loop = _outcomes(series_exp, PowerSeries(explicit), 1000)
    assert outcome == loop == np.zeros(1001, dtype=np.complex128).tobytes()


def _block(route):
    return series._EXP_BLOCK if route is series_exp else series._INV_BLOCK


@pytest.mark.parametrize(
    ("route", "f", "log_magnitude"),
    [
        # 1/(1 - 3z) = sum 3^n z^n
        (series_inv, PowerSeries([1.0, -3.0]), lambda n: n * math.log(3.0)),
        # exp(1000 z) = sum 1000^n / n! z^n
        (
            series_exp,
            PowerSeries([0.0, 1000.0]),
            lambda n: n * math.log(1000.0) - math.lgamma(n + 1),
        ),
    ],
)
def test_an_overflow_inside_a_block_is_refused_as_the_loop_refuses_it(route, f, log_magnitude):
    first = next(n for n in range(10_000) if log_magnitude(n) > math.log(sys.float_info.max))
    assert first > series._HEAD and (first - series._HEAD) % _block(route) != 0
    N = max(first + 2 * _block(route), _FIRST_BLOCKED)
    refusal = (NonFinite, "non-finite series coefficients")
    assert _outcomes(route, f, N) == (refusal, refusal)


@pytest.mark.parametrize("route", [series_exp, series_inv])
def test_past_the_head_each_block_is_one_convolution(monkeypatch, route):
    calls = {"dot": 0, "convolve": 0}
    dot, convolve = np.dot, np.convolve

    def counted(name, inner):
        def call(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return call

    monkeypatch.setattr(np, "dot", counted("dot", dot))
    monkeypatch.setattr(np, "convolve", counted("convolve", convolve))
    route(_decaying_series(_LARGE_ORDER), _LARGE_ORDER)
    assert calls["dot"] <= series._HEAD
    assert calls["convolve"] == -(-(_LARGE_ORDER + 1 - series._HEAD) // _block(route))


def _eval_over_numpy_scalars(f, z):
    """Horner's rule over the numpy scalars of the coefficient array."""
    acc = 0.0 + 0.0j
    for c in f.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)


@pytest.mark.parametrize("kind", [float, complex, np.complex128])
def test_eval_is_bit_identical_to_horner_over_numpy_scalars(kind):
    # Python complex arithmetic rounds as numpy's complex128 does, for z given in any of these types
    rng = np.random.default_rng(20261020)
    for case in range(100):
        N = int(rng.integers(0, 257))
        f = PowerSeries(rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1))
        radius, angle = 1.1 * rng.uniform(), 2.0 * np.pi * rng.uniform()
        z = kind(radius * (np.cos(angle) if kind is float else np.exp(1j * angle)))
        got, expected = series_eval(f, z), _eval_over_numpy_scalars(f, z)
        assert type(got) is complex, case
        assert np.array([got]).tobytes() == np.array([expected]).tobytes(), case  # signed zeros too
