"""Truncated power series with the handful of exact recurrences the lab needs.

Coefficients are stored lowest degree first as a read-only complex array.
``series_exp`` uses the derivative recurrence g' = f' g and ``series_inv`` the
matching convolution recurrence; both are exact degree-by-degree statements,
so truncation order is the only approximation.

Both recurrences fill a reversed buffer, g_j at index ``N - j`` for the
truncation degree N, so that the known coefficients g_{n-1}, ..., g_0 of step
n are the contiguous tail ``rev[N - n + 1:]``.  ``np.dot`` would copy a
negative-stride view of a forward buffer to exactly that operand before
calling BLAS, so the reversed buffer gives the same bits without the copy; the
result is reversed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroConstantTerm
from .numkit import _finite, _quiet

__all__ = [
    "PowerSeries",
    "series_mul",
    "series_add",
    "series_scale",
    "series_exp",
    "series_inv",
    "series_eval",
]


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series; ``coeffs[k]`` is the z^k coefficient."""

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"series needs a nonempty 1-d coefficient array, got shape {arr.shape}")
        arr = _finite(arr, "series coefficients").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def constant(cls, value: complex, N: int = 0) -> "PowerSeries":
        arr = np.zeros(N + 1, dtype=np.complex128)
        arr[0] = value
        return cls(arr)

    def truncate(self, N: int) -> "PowerSeries":
        if N + 1 <= self.coeffs.size:
            return PowerSeries(self.coeffs[: N + 1])
        out = np.zeros(N + 1, dtype=np.complex128)
        out[: self.coeffs.size] = self.coeffs
        return PowerSeries(out)


def series_mul(f: PowerSeries, g: PowerSeries, N: int) -> PowerSeries:
    """Cauchy product truncated to degree N."""
    full = np.convolve(f.coeffs, g.coeffs)[: N + 1]
    out = np.zeros(N + 1, dtype=np.complex128)
    out[: full.size] = full
    return PowerSeries(out)


def series_add(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    order = max(f.order, g.order)
    out = np.zeros(order + 1, dtype=np.complex128)
    out[: f.coeffs.size] += f.coeffs
    out[: g.coeffs.size] += g.coeffs
    return PowerSeries(out)


def series_scale(f: PowerSeries, c: complex) -> PowerSeries:
    with _quiet():  # an overflowing coefficient is refused by PowerSeries
        return PowerSeries(c * f.coeffs)


def series_exp(f: PowerSeries, N: int) -> PowerSeries:
    """exp(f) through degree N via the derivative recurrence n g_n = sum_k k f_k g_{n-k}."""
    fc = f.truncate(N).coeffs
    rev = np.zeros(N + 1, dtype=np.complex128)  # g_j at rev[N - j]
    with _quiet():  # an overflowing coefficient is refused by PowerSeries
        rev[N] = np.exp(fc[0])
        kf = np.arange(N + 1) * fc
        for n in range(1, N + 1):
            rev[N - n] = np.dot(kf[1 : n + 1], rev[N - n + 1 :]) / n
    return PowerSeries(rev[::-1])


def series_inv(f: PowerSeries, N: int) -> PowerSeries:
    """Reciprocal series through degree N; requires a nonzero constant term."""
    fc = f.truncate(N).coeffs
    if fc[0] == 0:
        raise ZeroConstantTerm("series inversion needs a nonzero constant term")
    rev = np.zeros(N + 1, dtype=np.complex128)  # g_j at rev[N - j]
    with _quiet():  # an overflowing coefficient is refused by PowerSeries
        rev[N] = 1.0 / fc[0]
        for n in range(1, N + 1):
            rev[N - n] = -np.dot(fc[1 : n + 1], rev[N - n + 1 :]) / fc[0]
    return PowerSeries(rev[::-1])


def series_eval(f: PowerSeries, z: complex) -> complex:
    """Evaluate by Horner's rule at a point, in Python complex arithmetic.

    Python's complex product and sum round as numpy's complex128 ones do, so
    this gives the bits of the same loop over numpy scalars, without their
    per-operation cost.
    """
    z = complex(z)
    acc = 0.0 + 0.0j
    for c in f.coeffs[::-1].tolist():
        acc = acc * z + c
    return acc
