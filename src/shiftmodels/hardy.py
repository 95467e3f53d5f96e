"""Hardy-space symbols, truncated Toeplitz matrices, and ladder models.

This module works with concrete power-series representatives of analytic
functions on the unit disc.  It provides:

* Blaschke products (closed-form Taylor coefficients, rational evaluation);
  their series remember the zeros (``BlaschkeSeries``);
* the inner symbol ``exp(t * (phi + 1) / (phi - 1))`` attached to an inner
  ``phi``, on two independent routes: a Blaschke series whose zeros are
  known gets the O(N d) coefficient recurrence of the symbol's differential
  equation, built from the zeros alone; any other series gets series algebra
  (inversion then exponential).  Neither calls the Laguerre recurrence of
  the analytic-model module, so the three routes cross-check each other;
* a boundary-circle innerness check;
* analytic Toeplitz truncations and model-space bases ``K_B = H^2 ⊖ B H^2``
  on two independent routes: the Takenaka-Malmquist-Walsh closed form for a
  Blaschke series whose zeros are known, and the orthogonal complement of
  the shifted-symbol columns (an SVD) for any other series;
* ladder decompositions ``K, phi*K, phi^2*K, ...`` with orthogonality
  certificates;
* Caradus certificates (surjective with a kernel) read from the measured
  rank of rectangular block-shift truncations.

Everything is desk scale: matrices are a few hundred rows at most and all
residuals are reported, not hidden.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import mul

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    NonFinite,
    SymbolSingularAtOrigin,
    TailNotConvergent,
    TruncationTooSmall,
    ZeroOnBoundary,
)
from .numkit import (
    _finite,
    _quiet,
    _rank_of,
    null_space_basis,
    rank,
    singular_values,
)
from .series import (
    PowerSeries,
    series_add,
    series_exp,
    series_inv,
    series_mul,
    series_scale,
)

__all__ = [
    "BlaschkeSpec",
    "BlaschkeSeries",
    "blaschke_series",
    "blaschke_eval",
    "inner_semigroup_symbol",
    "InnerCheckReport",
    "inner_check",
    "ToeplitzTrunc",
    "analytic_toeplitz_trunc",
    "model_space_basis",
    "LadderReport",
    "verify_ladder_decomposition",
    "CaradusReport",
    "caradus_certificate",
    "block_backward_shift_trunc",
    "block_forward_shift_trunc",
]

_CHECK_RADII = (0.9, 0.99)
_INNER_GRID = 256
_BOUNDARY_FLOOR = 0.95


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlaschkeSpec:
    """A finite Blaschke product: unimodular constant times disc factors.

    ``zeros`` lists the zeros inside the open unit disc, with multiplicity.
    Each zero ``a`` contributes the factor ``(|a|/a) * (a - z) / (1 - conj(a) z)``
    (just ``z`` when ``a = 0``), normalised to be positive at the origin.
    """

    zeros: tuple[complex, ...]
    constant: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        zeros = tuple(complex(a) for a in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        for a in zeros:
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise NonFinite("Blaschke zero must be a finite complex number")
            if abs(a) >= 1.0:
                raise ZeroOnBoundary(
                    f"Blaschke zero {a} has modulus {abs(a):.6g} >= 1; "
                    "zeros must lie strictly inside the unit disc"
                )
        c = complex(self.constant)
        object.__setattr__(self, "constant", c)
        if abs(abs(c) - 1.0) > 1e-12:
            raise ValueError(
                f"leading constant must be unimodular, got modulus {abs(c):.6g}"
            )

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @classmethod
    def from_json(cls, data: dict) -> "BlaschkeSpec":
        try:
            zeros = tuple(complex(re, im) for re, im in data["zeros"])
            cre, cim = data.get("constant", [1.0, 0.0])
            constant = complex(cre, cim)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed Blaschke specification: {exc}") from exc
        return cls(zeros=zeros, constant=constant)


def _conj_powers(a: complex, count: int) -> np.ndarray:
    """``conj(a)^0, ..., conj(a)^(count - 1)``, each one multiplication after the last."""
    steps = np.full(count, np.conj(a), dtype=np.complex128)
    steps[:1] = 1.0
    return np.cumprod(steps)


def _factor_series(a: complex, N: int) -> np.ndarray:
    """Taylor coefficients of one normalised Blaschke factor through degree N.

    For ``a != 0`` the closed form is ``c_0 = |a|`` and
    ``c_k = (|a|/a) * conj(a)^(k-1) * (|a|^2 - 1)`` for ``k >= 1``.
    """
    coeffs = np.zeros(N + 1, dtype=np.complex128)
    if a == 0:
        coeffs[1:2] = 1.0
        return coeffs
    mod = abs(a)
    lead = mod / a
    drop = mod * mod - 1.0
    coeffs[0] = mod
    power = _conj_powers(a, N)
    # the product by parts: numpy's array complex multiply rounds differently from
    # the scalar one, and these are the scalar product's roundings
    coeffs.real[1:] = (lead.real * power.real - lead.imag * power.imag) * drop
    coeffs.imag[1:] = (lead.real * power.imag + lead.imag * power.real) * drop
    return coeffs


@dataclass(frozen=True)
class BlaschkeSeries(PowerSeries):
    """Taylor coefficients of a Blaschke product that remember its zeros.

    Only ``blaschke_series`` builds one. Every series operation returns a plain
    ``PowerSeries``, so the factorization is dropped as soon as the
    coefficients could change.
    """

    spec: BlaschkeSpec


def blaschke_series(spec: BlaschkeSpec, N: int) -> BlaschkeSeries:
    """Taylor coefficients of the Blaschke product through degree ``N``."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    if not spec.zeros:
        return BlaschkeSeries(PowerSeries.constant(spec.constant, N).coeffs, spec)
    coeffs = np.array([spec.constant])  # a length-1 start: the first product is a scaling
    for a in spec.zeros:
        coeffs = np.convolve(coeffs, _factor_series(a, N))[: N + 1]
    return BlaschkeSeries(coeffs, spec)


def blaschke_eval(spec: BlaschkeSpec, z: complex) -> complex:
    """Evaluate the Blaschke product at ``z`` from its rational form."""
    z = complex(z)
    value = spec.constant
    for a in spec.zeros:
        if a == 0:
            value *= z
        else:
            value *= (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
    return complex(value)


# ---------------------------------------------------------------------------
# The inner semigroup symbol
# ---------------------------------------------------------------------------


def inner_semigroup_symbol(phi: PowerSeries, t: float, N: int) -> PowerSeries:
    """Taylor coefficients of ``exp(t * (phi + 1) / (phi - 1))`` through ``N``.

    ``phi`` is an analytic symbol with ``phi(0) != 1`` so that
    ``(phi - 1)`` is invertible as a power series; the result for inner
    ``phi`` with ``t >= 0`` is again inner (a singular inner function when
    ``phi`` is, for example, the coordinate).

    Two independent routes compute it, chosen by the input's type:

    * a ``BlaschkeSeries`` of order at least ``N`` takes the coefficient
      recurrence of the symbol's differential equation, built from the
      zeros alone (``_symbol_from_zeros``), in O(N d) for d zeros;
    * any other series, a plain ``PowerSeries`` of Blaschke coefficients
      included, takes series algebra: invert ``phi - 1``, multiply by
      ``phi + 1``, scale by ``t``, exponentiate, in O(N^2).

    Neither route calls the Laguerre recurrence of the coordinate symbol, so
    each is an oracle for the other and for ``shimorin.semigroup_multiplier``.
    """
    if not math.isfinite(t):
        raise NonFinite(f"time parameter must be finite, got {t}")
    if t < 0:
        raise ValueError("time parameter must be nonnegative")
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    c0 = complex(phi.coeffs[0])
    if abs(c0 - 1.0) <= 1e-12:
        raise SymbolSingularAtOrigin(
            "phi(0) = 1 makes (phi - 1) non-invertible as a power series; "
            "the symbol has no Taylor expansion at the origin"
        )
    if isinstance(phi, BlaschkeSeries) and phi.order >= N:
        return _symbol_from_zeros(phi.spec, t, N)
    numerator = series_add(phi, PowerSeries.constant(1.0))
    denominator = series_add(phi, PowerSeries.constant(-1.0))
    quotient = series_mul(numerator, series_inv(denominator, N=N), N=N)
    return series_exp(series_scale(quotient, complex(t)), N=N)


def _symbol_from_zeros(spec: BlaschkeSpec, t: float, N: int) -> PowerSeries:
    """Coefficients of ``exp(t (phi + 1)/(phi - 1))`` through ``N`` for a Blaschke ``phi``.

    Write ``phi = P / Q`` with ``Q = prod (1 - conj(a) z)`` and ``P`` the
    constant times the factors' numerators, and ``D = P - Q``.  Then
    ``g = exp(t (P + Q)/D)`` satisfies ``D^2 g' = B g`` with
    ``B = 2t (P Q' - Q P')``, of degree below 2d.  The squared factor is
    taken as two stages, ``w = D g'`` and ``D w = B g``; coefficient n of each
    gives, with ``D_0 = phi(0) - 1``,

        D_0 w_n = sum_{j<2d} B_j g_{n-j} - sum_{1<=k<=d} D_k w_{n-k}
        D_0 (n + 1) g_{n+1} = w_n - sum_{1<=k<=d} D_k (n + 1 - k) g_{n+1-k}

    from ``g_0 = exp(t (phi(0) + 1)/(phi(0) - 1))``; for ``phi = z`` the two
    stages combine into the Laguerre recurrence.  Dividing by ``D_0`` twice,
    not by ``D_0^2`` once, keeps the rounding error at N = 4095 near 1e-14:
    the one recurrence of order 2d for ``D^2 g' = B g`` drifted to 2.6e-13 on
    a degree-4 product with two close zeros.  ``D_0`` is nonzero because the
    caller refused ``phi(0) = 1``.  The windows of recent values are Python
    numbers; the results go to one buffer.
    """
    P = np.array([spec.constant])
    Q = np.ones(1, dtype=np.complex128)
    for a in spec.zeros:
        mod = abs(a)
        P = np.convolve(P, (0.0, 1.0) if a == 0 else (mod, -mod / a))
        Q = np.convolve(Q, (1.0, -a.conjugate()))
    d = spec.degree
    with _quiet():  # an overflowing coefficient is refused by PowerSeries
        # derivatives padded to length d + 1, so degree 0 needs no branch
        dP = np.append(np.arange(1, P.size) * P[1:], 0.0)
        dQ = np.append(np.arange(1, Q.size) * Q[1:], 0.0)
        B = (2.0 * t * (np.convolve(P, dQ) - np.convolve(Q, dP)))[: 2 * d].tolist()
        start = complex(np.exp(t * (P[0] + 1.0) / (P[0] - 1.0)))
    D = P - Q
    lead = complex(D[0])
    tail = D[1:].tolist()
    weighted = (np.arange(1, d + 1) * D[1:]).tolist()  # k D_k
    out = np.empty(N + 1, dtype=np.complex128)
    out[0] = start
    g = deque([start], maxlen=2 * d)  # g_n, g_{n-1}, ..., newest first
    w = deque(maxlen=d)  # w_{n-1}, w_{n-2}, ...
    for n in range(N):
        w_n = (sum(map(mul, B, g), 0j) - sum(map(mul, tail, w), 0j)) / lead
        # sum_k D_k (n + 1 - k) g_{n+1-k}, as (n + 1) sum D_k g - sum k D_k g
        lowered = (n + 1) * sum(map(mul, tail, g), 0j) - sum(map(mul, weighted, g), 0j)
        value = (w_n - lowered) / (lead * (n + 1))
        w.appendleft(w_n)
        g.appendleft(value)
        out[n + 1] = value
    out += 0.0  # clears negative zeros, which the report would print as -0.0
    return PowerSeries(out)


# ---------------------------------------------------------------------------
# Innerness check on boundary circles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerCheckReport:
    """Moduli statistics of a series on the circles |z| = 0.9 and 0.99."""

    radii: tuple[float, ...]
    grid: int
    max_modulus: tuple[float, ...]
    mean_modulus: tuple[float, ...]
    tail_estimates: tuple[float, ...]
    boundary_floor: float
    passed: bool


def _tail_estimate(magnitudes: np.ndarray, rho: float, tail_tol: float) -> float:
    """Extrapolated bound for the coefficient tail at radius ``rho``.

    If the final coefficient is already below ``tail_tol`` the truncation is
    considered resolved.  Otherwise the decay of the trailing quarter of the
    coefficients is extrapolated geometrically, giving the bound
    ``anchor * rho**order * x / (1 - x)`` with ``x = rho * ratio`` for the
    mass beyond the truncation order.  The per-step ratio comes from block
    means over the two halves of the trailing window, so envelopes whose
    individual magnitudes oscillate through zeros are still handled; short
    windows fall back to pointwise ratios.  A series with no consecutive
    nonzero trailing coefficients (an exact short polynomial such as the
    coordinate) carries no evidence of a tail and the estimate is zero.
    """
    last = float(magnitudes[-1])
    if last <= tail_tol:
        return 0.0
    order = magnitudes.size - 1
    window = magnitudes[-max(3, magnitudes.size // 4):]
    half = window.size // 2
    mean_early = float(np.mean(window[:half])) if half >= 3 else 0.0
    mean_late = float(np.mean(window[half: 2 * half])) if half >= 3 else 0.0
    if mean_early > 0.0 and mean_late > 0.0:
        ratio = (mean_late / mean_early) ** (1.0 / half)
        anchor = max(last, mean_late)
    else:
        pointwise = [
            window[i + 1] / window[i]
            for i in range(window.size - 1)
            if window[i] > 0.0 and window[i + 1] > 0.0
        ]
        if not pointwise:
            return 0.0
        ratio = max(pointwise)
        anchor = last
    x = rho * ratio
    if x >= 1.0:
        return math.inf
    return anchor * rho**order * x / (1.0 - x)


def inner_check(f: PowerSeries, tol: ToleranceConfig = DEFAULT_TOL) -> InnerCheckReport:
    """Check that a series behaves like an inner function near the boundary.

    Evaluates ``|f|`` at 256 equispaced points on the circles of radius
    0.9 and 0.99 and passes iff the maximum modulus stays below ``1 + tol``,
    the radial means do not decrease from 0.9 to 0.99, and the modulus
    actually approaches the unit circle (max at 0.99 at least 0.95).
    Raises ``TailNotConvergent`` when the declared truncation shows
    unresolved coefficient mass at these radii.

    Both tail estimates are judged before anything is evaluated, so a
    refused series costs no evaluation.  One in-place Horner sweep then
    covers the points of both circles; it performs the operations of
    ``np.polynomial.polynomial.polyval`` in the same order, so the moduli
    are the same bits as one ``polyval`` call per circle.
    """
    coeffs = np.asarray(f.coeffs, dtype=np.complex128)
    magnitudes = np.abs(coeffs)
    tails: list[float] = []
    for rho in _CHECK_RADII:
        estimate = _tail_estimate(magnitudes, rho, tol.tail_tol)
        if estimate > tol.tail_tol:
            raise TailNotConvergent(
                f"coefficient tail beyond degree {f.order} contributes about "
                f"{estimate:.3e} on the circle |z| = {rho}, above the tail "
                f"tolerance {tol.tail_tol:.1e}; increase the truncation order"
            )
        tails.append(estimate)
    angles = 2.0 * np.pi * np.arange(_INNER_GRID) / _INNER_GRID
    circle = np.exp(1j * angles)
    zs = np.concatenate([rho * circle for rho in _CHECK_RADII])
    values = coeffs[-1] + zs * 0
    for c in coeffs[-2::-1].tolist():
        values *= zs
        values += c
    moduli = np.abs(values).reshape(len(_CHECK_RADII), _INNER_GRID)
    maxima = [float(row.max()) for row in moduli]
    means = [float(row.mean()) for row in moduli]
    bounded = all(m <= 1.0 + tol.residual_tol for m in maxima)
    approaching = maxima[-1] >= _BOUNDARY_FLOOR
    nondecreasing = means[-1] >= means[0] - tol.residual_tol
    return InnerCheckReport(
        radii=_CHECK_RADII,
        grid=_INNER_GRID,
        max_modulus=tuple(maxima),
        mean_modulus=tuple(means),
        tail_estimates=tuple(tails),
        boundary_floor=_BOUNDARY_FLOOR,
        passed=bool(bounded and approaching and nondecreasing),
    )


# ---------------------------------------------------------------------------
# Toeplitz truncations and model spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToeplitzTrunc:
    """The n x n truncation of multiplication by an analytic symbol.

    ``coefficients`` stores ``(c_0, ..., c_{n-1})``; entry (i, j) is
    ``c_{i-j}`` for ``i >= j`` and zero above the diagonal, so the matrix
    is lower triangular.
    """

    coefficients: tuple[complex, ...]
    dimension: int

    def __post_init__(self) -> None:
        coeffs = _finite(tuple(complex(c) for c in self.coefficients), "Toeplitz coefficients")
        object.__setattr__(self, "coefficients", coeffs)
        if self.dimension < 1:
            raise ValueError("dimension must be positive")

    @classmethod
    def from_analytic(cls, phi: PowerSeries, n: int) -> "ToeplitzTrunc":
        taps = list(phi.coeffs[:n])
        taps += [0.0 + 0.0j] * (n - len(taps))
        return cls(coefficients=tuple(taps), dimension=n)

    def matrix(self) -> np.ndarray:
        n = self.dimension
        arr = np.zeros((n, n), dtype=np.complex128)
        flat = arr.reshape(-1)  # a view: entry (i, i - d) sits at i * (n + 1) - d
        for d, c in enumerate(self.coefficients):
            flat[d * n :: n + 1] = c
        arr.flags.writeable = False
        return arr


def analytic_toeplitz_trunc(phi: PowerSeries, n: int) -> np.ndarray:
    """The lower-triangular n x n truncation of multiplication by ``phi``, read-only."""
    return ToeplitzTrunc.from_analytic(phi, n).matrix()


def _tmw_basis(zeros: tuple[complex, ...], n: int) -> np.ndarray:
    """The Takenaka-Malmquist-Walsh basis of ``K_B``, ``n`` coefficients per column.

    Column ``k`` holds ``e_k = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_j``
    with ``b_j`` the normalised factor of zero ``a_j``.  These functions are
    orthonormal in H^2 and span ``K_B`` (Garcia, Mashreghi and Ross,
    *Introduction to Model Spaces and their Operators*, 2016), so the
    truncation drops only their tails.  One running product of the factor
    series serves every column.
    """
    basis = np.empty((n, len(zeros)), dtype=np.complex128)
    product = np.ones(1, dtype=np.complex128)
    for k, a in enumerate(zeros):
        if k:
            product = np.convolve(product, _factor_series(zeros[k - 1], n - 1))[:n]
        kernel = math.sqrt(1.0 - abs(a) ** 2) * _conj_powers(a, n)
        basis[:, k] = np.convolve(product, kernel)[:n]
    return basis


def model_space_basis(
    phi: PowerSeries,
    n: int,
    degree: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Orthonormal basis of the degree-dimensional complement of shifted symbols.

    Columns ``0 .. n - degree - 1`` of the analytic Toeplitz truncation hold
    the truncated coefficient vectors of ``phi, z phi, z^2 phi, ...``; the
    returned ``(n, degree)`` array spans their orthogonal complement inside
    the length-``n`` coefficient space.  For an inner symbol of the given
    degree this complement reproduces the model space to the accuracy of the
    symbol's coefficient decay.

    Requires ``n >= 4 * degree`` and a truncation that resolves the symbol:
    the trailing coefficient mass from index ``n - 2 * degree`` on must stay
    below the tail tolerance, otherwise ``TruncationTooSmall`` is raised.

    A ``BlaschkeSeries`` of this degree and of order at least ``n - 1`` gets
    the Takenaka-Malmquist-Walsh basis, whose phases are fixed by its
    formula; any other series gets the SVD complement, whose column phases
    LAPACK picks.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if n < 4 * degree:
        raise TruncationTooSmall(
            f"truncation {n} is below the working minimum {4 * degree} "
            f"for a degree {degree} symbol"
        )
    coeffs = phi.coeffs
    boundary = n - 2 * degree
    trailing = np.abs(coeffs[boundary:]).sum() if coeffs.size > boundary else 0.0
    if trailing > tol.tail_tol:
        raise TruncationTooSmall(
            f"symbol coefficients from index {boundary} carry mass "
            f"{trailing:.3e}, above the tail tolerance {tol.tail_tol:.1e}; "
            "increase the truncation"
        )
    if isinstance(phi, BlaschkeSeries) and phi.spec.degree == degree and phi.order >= n - 1:
        return _tmw_basis(phi.spec.zeros, n)
    T = analytic_toeplitz_trunc(phi, n)
    columns = T[:, : n - degree]
    basis = null_space_basis(columns.conj().T, tol)
    if basis.shape[1] != degree:
        raise ValueError(
            f"complement of the shifted-symbol columns has dimension "
            f"{basis.shape[1]}, expected {degree}; the symbol truncation "
            "is rank deficient"
        )
    return basis


# ---------------------------------------------------------------------------
# Ladder decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderReport:
    """Orthogonality certificate for the blocks K, phi K, ..., phi^m K."""

    degree: int
    levels: int
    truncation: int
    expected_dim: int
    total_dim: int
    offdiag_residual: float
    within_block_residual: float
    passed: bool


def verify_ladder_decomposition(
    phi: PowerSeries,
    degree: int,
    levels: int,
    n: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> LadderReport:
    """Certify that K, phi K, ..., phi^levels K are mutually orthogonal.

    ``K`` is the model-space basis of ``phi`` at truncation ``n``; each level
    multiplies by one more copy of the symbol (series convolution, truncated
    to length ``n``).  The report records the largest off-block Gram entry,
    the largest within-block deviation from the identity (multiplication by
    an inner symbol is isometric), and the numerical rank of all the stacked
    columns, which must equal ``(levels + 1) * degree``.
    """
    if levels < 1:
        raise ValueError("need at least one ladder level")
    needed = 2 * (levels + 2) * degree
    if n < needed:
        raise TruncationTooSmall(
            f"truncation {n} is below the working minimum {needed} for "
            f"{levels} ladder levels at degree {degree}"
        )
    K = model_space_basis(phi, n, degree, tol)
    blocks: list[np.ndarray] = []
    power = PowerSeries.constant(1.0)
    for _ in range(levels + 1):
        blocks.append(np.stack([np.convolve(power.coeffs, column)[:n] for column in K.T], axis=1))
        power = series_mul(power, phi, N=n - 1)
    stacked = np.hstack(blocks)
    gram = stacked.conj().T @ stacked
    d = degree
    offdiag = 0.0
    within = 0.0
    for j in range(levels + 1):
        for k in range(levels + 1):
            sub = gram[j * d : (j + 1) * d, k * d : (k + 1) * d]
            if j == k:
                within = max(within, float(np.abs(sub - np.eye(d)).max()))
            else:
                offdiag = max(offdiag, float(np.abs(sub).max()))
    total = rank(stacked, tol)
    expected = (levels + 1) * degree
    passed = (
        offdiag <= tol.residual_tol
        and within <= tol.residual_tol
        and total == expected
    )
    return LadderReport(
        degree=degree,
        levels=levels,
        truncation=n,
        expected_dim=expected,
        total_dim=total,
        offdiag_residual=offdiag,
        within_block_residual=within,
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# Caradus-style certificates on truncations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaradusReport:
    """Surjectivity-plus-kernel certificate read from a measured rank.

    ``rank`` counts the singular values above ``rank_tol`` relative to the
    largest; ``sigma_min`` is the smallest of them relative to the largest,
    the margin of that decision.  The operator is surjective iff the rank
    equals ``rows`` and ``kernel_dim = cols - rank``; the certificate passes
    iff it is surjective with a nontrivial kernel.
    """

    rows: int
    cols: int
    rank: int
    kernel_dim: int
    surjective: bool
    sigma_min: float
    rank_tol: float
    passed: bool


def _check_block(multiplicity: int, n: int) -> None:
    if multiplicity < 1 or n < 1:
        raise ValueError("need multiplicity >= 1 and n >= 1")


def block_backward_shift_trunc(multiplicity: int, n: int) -> np.ndarray:
    """The n x (n + multiplicity) block of the backward shift of that multiplicity.

    Column ``k`` is the image of ``e_k``: ``e_{k - multiplicity}``, and zero
    for the first ``multiplicity`` columns, so the block maps onto ``C^n``
    with a ``multiplicity``-dimensional kernel, as the untruncated shift does.
    """
    _check_block(multiplicity, n)
    return np.eye(n, n + multiplicity, k=multiplicity, dtype=np.complex128)


def block_forward_shift_trunc(multiplicity: int, n: int) -> np.ndarray:
    """The (n + multiplicity) x n block of the forward shift: the backward block's adjoint.

    It is injective and its range misses the first ``multiplicity``
    coordinates, as the untruncated shift's does.
    """
    _check_block(multiplicity, n)
    return np.eye(n + multiplicity, n, k=-multiplicity, dtype=np.complex128)


def caradus_certificate(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> CaradusReport:
    """Check the surjective-with-kernel hypothesis on a (rectangular) truncation.

    A bounded operator that is surjective and has nontrivial kernel is the
    classical sufficient hypothesis for universality (Caradus).  The verdict
    is measured: surjective means full row rank, and the kernel has
    dimension ``cols - rank``.
    """
    s = singular_values(M)
    rows, cols = M.shape
    r = _rank_of(s, tol)
    surjective = r == rows
    kernel = cols - r
    return CaradusReport(
        rows=rows,
        cols=cols,
        rank=r,
        kernel_dim=kernel,
        surjective=surjective,
        sigma_min=float(s[r - 1] / s[0]) if r else 0.0,
        rank_tol=tol.rank_tol,
        passed=surjective and kernel >= 1,
    )
