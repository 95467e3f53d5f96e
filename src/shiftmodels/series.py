"""Truncated power series with the handful of exact recurrences the lab needs.

Coefficients are stored lowest degree first as a read-only complex array.
``series_exp`` uses the derivative recurrence g' = f' g and ``series_inv`` the
matching convolution recurrence; both are exact degree-by-degree statements,
so truncation order is the only approximation.

Both recurrences solve their first ``_HEAD`` coefficients (all of them below
order ``_HEAD + _TAIL``) one at a time on a reversed buffer, g_j at index
``N - j`` for the truncation degree N, so that the known coefficients g_{n-1},
..., g_0 of step n are the contiguous tail ``rev[N - n + 1:]``: ``np.dot`` would
copy a negative-stride view of a forward buffer to exactly that operand before
calling BLAS, so the reversed buffer gives the same bits without the copy.  Past
the head they go block by block, the blocked ("relaxed") evaluation of J. van der
Hoeven, *Relax, but don't be too lazy*, J. Symbolic Comput. 34 (2002): one
``np.convolve`` per block adds up what every coefficient before the block
contributes to it (the reversed view of the buffer is the contiguous operand the
convolution wants), and one product with a b x b matrix solves the block's own
lower-triangular system.  Below order ``_HEAD + _TAIL`` the result has the bits
of the loop; from it on the blocks sum the same products in another order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroConstantTerm
from .numkit import _finite, _quiet

# Past the head the recurrences go by blocks, but only where at least _TAIL
# coefficients follow it, so that the blocks' set-up always costs less than the
# loop it saves (``series_exp`` and ``series_inv`` break even with fewer; below
# order _HEAD + _TAIL every coefficient keeps the loop's bits).  _HEAD is at least
# 129, so that acceptance criterion 7's orders 64 and 128 keep the loop's bits,
# and the inverse's blocks use the Toeplitz matrix of its head, so
# _INV_BLOCK <= _HEAD and _INV_BLOCK <= _TAIL.
_HEAD = 192
_TAIL = 192
_EXP_BLOCK = 16
_INV_BLOCK = 128

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


def _head(N: int) -> int:
    """How many of the N + 1 coefficients a recurrence solves one at a time."""
    return _HEAD if N >= _HEAD + _TAIL else N + 1


def series_exp(f: PowerSeries, N: int) -> PowerSeries:
    """exp(f) through degree N via the derivative recurrence n g_n = sum_k k f_k g_{n-k}.

    The head is solved one coefficient at a time; past it each block [s, e) solves
    (diag(n) - L) g[s:e] = c, where c is what the coefficients before the block
    contribute and L the strictly lower Toeplitz matrix of k f_k, by one product with
    that matrix's inverse (``_exp_block_inverses``).  Where an inverse is not finite
    the loop runs on to N.
    """
    fc = f.truncate(N).coeffs
    head = _head(N)
    rev = np.zeros(N + 1, dtype=np.complex128)  # g_j at rev[N - j]
    with _quiet():  # an overflowing coefficient is refused by PowerSeries
        rev[N] = np.exp(fc[0])
        kf = np.arange(N + 1) * fc
        if head <= N:
            starts = range(head, N + 1, _EXP_BLOCK)
            inverses = _exp_block_inverses(kf, starts)
            if not np.isfinite(inverses).all():  # huge k f_k: the loop alone needs none
                head = N + 1
        for n in range(1, head):
            rev[N - n] = np.dot(kf[1 : n + 1], rev[N - n + 1 :]) / n
        g = rev[::-1]
        if head <= N:
            for s, inverse in zip(starts, inverses):
                e = min(s + _EXP_BLOCK, N + 1)
                g[s:e] = inverse[: e - s, : e - s] @ np.convolve(kf[1:e], g[:s], "valid")
    return PowerSeries(g)


def _exp_block_inverses(kf: np.ndarray, starts: range) -> np.ndarray:
    """``(diag(s, ..., s + b - 1) - L)^-1`` for each block start s, shape (blocks, b, b).

    L is the strictly lower Toeplitz matrix of ``kf`` (entry (i, j) is kf[i - j]), b is
    ``_EXP_BLOCK``.  Rows and columns from j on of the matrix for s are the matrix for
    s + j, so column j of the inverse for s is column 0 of the inverse for s + j,
    moved down by j.  Column 0 for every start sigma = s + j at once is b vectorized
    substitution steps, y_0 = 1/sigma and y_i = sum_{k<i} kf[i - k] y_k / (sigma + i).
    """
    b = _EXP_BLOCK
    sigma = np.arange(starts.start, starts[-1] + b)
    y = np.zeros((b, sigma.size), dtype=np.complex128)
    y[0] = 1.0 / sigma
    taps = kf[b - 1 : 0 : -1].copy()  # kf[i:0:-1] is its contiguous tail taps[b - 1 - i:]
    for i in range(1, b):
        y[i] = (taps[b - 1 - i :] @ y[:i]) / (sigma + i)
    inverses = np.zeros((len(starts), b, b), dtype=np.complex128)
    for j in range(b):
        inverses[:, j:, j] = y[: b - j, j::b].T
    return inverses


def series_inv(f: PowerSeries, N: int) -> PowerSeries:
    """Reciprocal series through degree N; requires a nonzero constant term.

    The head is solved one coefficient at a time by f_0 g_n = -sum_k f_k g_{n-k}; past
    it each block [s, e) solves T(f) g[s:e] = -c, where c is what the coefficients
    before the block contribute and T(f) the lower Toeplitz matrix of f, by one product
    with T(f)^-1 = T(g), the Toeplitz matrix of the head of g itself.
    """
    fc = f.truncate(N).coeffs
    if fc[0] == 0:
        raise ZeroConstantTerm("series inversion needs a nonzero constant term")
    head = _head(N)
    rev = np.zeros(N + 1, dtype=np.complex128)  # g_j at rev[N - j]
    with _quiet():  # an overflowing coefficient is refused by PowerSeries
        rev[N] = 1.0 / fc[0]
        for n in range(1, head):
            rev[N - n] = -np.dot(fc[1 : n + 1], rev[N - n + 1 :]) / fc[0]
        g = rev[::-1]
        if head <= N:
            inverse = _lower_toeplitz(g[:_INV_BLOCK])
            for s in range(head, N + 1, _INV_BLOCK):
                e = min(s + _INV_BLOCK, N + 1)
                g[s:e] = inverse[: e - s, : e - s] @ -np.convolve(fc[1:e], g[:s], "valid")
    return PowerSeries(g)


def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    """The lower triangular Toeplitz matrix with first column ``c``, a read-only view.

    With n = ``c.size``, row i of the sliding windows of ``(0, ..., 0, c)`` (n - 1
    zeros) holds entries i .. i + n - 1 of it, and entry (i, j) of the matrix is entry
    i + n - 1 - j: the windows with their columns reversed.
    """
    padded = np.concatenate((np.zeros(c.size - 1, dtype=c.dtype), c))
    return np.lib.stride_tricks.sliding_window_view(padded, c.size)[:, ::-1]


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
