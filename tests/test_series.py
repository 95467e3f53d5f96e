"""Truncated power-series arithmetic tests."""

import numpy as np
import pytest

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


def _exp_by_the_forward_buffer(f, N):
    """The recurrence on a forward buffer, whose reversed view np.dot copies each step."""
    fc = f.truncate(N).coeffs
    out = np.zeros(N + 1, dtype=np.complex128)
    with np.errstate(all="ignore"):
        out[0] = np.exp(fc[0])
        kf = np.arange(N + 1) * fc
        for n in range(1, N + 1):
            out[n] = np.dot(kf[1 : n + 1], out[n - 1 :: -1]) / n
    return PowerSeries(out)


def _inv_by_the_forward_buffer(f, N):
    fc = f.truncate(N).coeffs
    out = np.zeros(N + 1, dtype=np.complex128)
    with np.errstate(all="ignore"):
        out[0] = 1.0 / fc[0]
        for n in range(1, N + 1):
            out[n] = -np.dot(fc[1 : n + 1], out[n - 1 :: -1]) / fc[0]
    return PowerSeries(out)


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


_ROUTES = ((series_exp, _exp_by_the_forward_buffer), (series_inv, _inv_by_the_forward_buffer))


@pytest.mark.parametrize("N", [0, 1, 2, 7, 64, 257, 2047, 4095])
def test_exp_and_inv_are_bit_identical_to_the_forward_buffer(N):
    f = _decaying_series(N)
    # the input's own order, a truncation and a zero-padded extension
    for order in sorted({N, N // 2, N + 3}):
        for fast, slow in _ROUTES:
            outcome = _outcome(fast, f, order)
            assert isinstance(outcome, bytes), (fast.__name__, order)
            assert outcome == _outcome(slow, f, order), (fast.__name__, order)


@pytest.mark.parametrize("N", [7, 64, 257])
def test_a_huge_series_keeps_its_outcome_and_refusal_text(N):
    f = _decaying_series(N, 1e150)
    for fast, slow in _ROUTES:
        assert _outcome(fast, f, N) == _outcome(slow, f, N), fast.__name__
    assert _outcome(series_exp, f, N) == (NonFinite, "non-finite series coefficients")
    assert isinstance(_outcome(series_inv, f, N), bytes)


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
