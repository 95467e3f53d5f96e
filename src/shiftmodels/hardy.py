"""Hardy-space symbols, truncated Toeplitz matrices, and ladder models.

This module works with concrete power-series representatives of analytic
functions on the unit disc.  It provides:

* Blaschke products (Taylor coefficients by one doubling scan per factor,
  O(N log N) each; rational evaluation); their series remember the zeros
  (``BlaschkeSeries``);
* the inner symbol ``exp(t * (phi + 1) / (phi - 1))`` attached to an inner
  ``phi``, on two independent routes: a Blaschke series whose zeros are
  known gets Clark's closed form, a product of rotated Laguerre multipliers
  of the analytic-model module, one per point of the circle where
  ``phi = 1``; any other series gets series algebra (inversion then
  exponential), which shares no code with it, so the two cross-check each
  other;
* a boundary-circle innerness check, one inverse FFT per circle;
* analytic Toeplitz truncations and model-space bases ``K_B = H^2 ⊖ B H^2``
  on two independent routes: the Takenaka-Malmquist-Walsh closed form for a
  Blaschke series whose zeros are known (built by the same factor scans),
  and the orthogonal complement of the shifted-symbol columns (an SVD) for
  any other series;
* ladder decompositions ``K, phi*K, phi^2*K, ...`` with orthogonality
  certificates, whose levels a Blaschke series on the TMW route takes by
  factor scans and any other series by convolution;
* Caradus certificates (surjective with a kernel) read from the measured
  rank of rectangular block-shift truncations.

Everything is desk scale: matrices are a few hundred rows at most and all
residuals are reported, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    _order,
    _quiet,
    _rank_of,
    _time,
    null_space_basis,
    rank,
    singular_values,
)
from .series import (
    PowerSeries,
    _lower_toeplitz,
    series_add,
    series_exp,
    series_inv,
    series_mul,
    series_scale,
)
from .shimorin import _multiplier_coeffs

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
        # moduli by hypot, which is inf past the float range where abs of a complex raises
        for a in zeros:
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise NonFinite("Blaschke zero must be a finite complex number")
            modulus = math.hypot(a.real, a.imag)
            if modulus >= 1.0:
                raise ZeroOnBoundary(
                    f"Blaschke zero {a} has modulus {modulus:.6g} >= 1; "
                    "zeros must lie strictly inside the unit disc"
                )
        c = complex(self.constant)
        object.__setattr__(self, "constant", c)
        modulus = math.hypot(c.real, c.imag)
        if abs(modulus - 1.0) > 1e-12:
            raise ValueError(f"leading constant must be unimodular, got modulus {modulus:.6g}")

    @property
    def degree(self) -> int:
        return len(self.zeros)


def _divide_by_kernel(u: np.ndarray, a: complex) -> np.ndarray:
    """``u / (1 - conj(a) z)`` truncated to ``len(u)``, in place along the first axis.

    The quotient solves ``h_k = u_k + conj(a) h_{k-1}``, a first-order recurrence that
    the doubling scan of Hillis and Steele runs in ceil(log2 n) vectorized steps
    ``h[s:] += p h[:-s]`` with ``p = conj(a)^s``, s = 1, 2, 4, ... (G. E. Blelloch,
    *Prefix sums and their applications*, CMU-CS-90-190, 1990).  Each right-hand side
    is formed before its sum, so every step reads the previous step's values.  Once
    ``p`` underflows to 0 the remaining steps add nothing.
    """
    p = a.conjugate()
    s = 1
    while s < u.shape[0] and p != 0:
        u[s:] += p * u[:-s]
        p *= p
        s *= 2
    return u


def _times_factor(h: np.ndarray, a: complex) -> np.ndarray:
    """``h`` times the normalised factor ``(|a|/a) (a - z)/(1 - conj(a) z)``, truncated.

    ``h`` holds coefficients along its first axis, shape (n,) or (n, m); the result is
    a new array of the same shape.  The numerator is one O(n) step,
    ``u = |a| h - (|a|/a) z h`` (just the shift ``z h`` for ``a = 0``); the denominator
    is the doubling scan of ``_divide_by_kernel``.
    """
    if a == 0:
        out = np.zeros_like(h)
        out[1:] = h[:-1]
        return out
    mod = abs(a)
    out = mod * h
    out[1:] -= (mod / a) * h[:-1]
    return _divide_by_kernel(out, a)


@dataclass(frozen=True)
class BlaschkeSeries(PowerSeries):
    """Taylor coefficients of a Blaschke product that remember its zeros.

    Only ``blaschke_series`` builds one. Every series operation returns a plain
    ``PowerSeries``, so the factorization is dropped as soon as the
    coefficients could change.
    """

    spec: BlaschkeSpec


def blaschke_series(spec: BlaschkeSpec, N: int) -> BlaschkeSeries:
    """Taylor coefficients of the Blaschke product through degree ``N``.

    The constant times ``e_0`` is multiplied by one factor after another
    (``_times_factor``), in O(N log N) per zero.
    """
    _order(N)
    coeffs = PowerSeries.constant(spec.constant, N).coeffs
    for a in spec.zeros:
        coeffs = _times_factor(coeffs, a)
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

    * a ``BlaschkeSeries`` of order at least ``N`` takes Clark's closed form
      from its zeros (``_symbol_by_clark_points``): the product over the d
      points of the circle where ``phi = 1`` of Laguerre multipliers
      ``shimorin._multiplier_coeffs``, each rotated, in O(N) for one zero and
      O(d N log N) time and O(N) extra memory for d of them.  Each factor has
      norm at most 1, so the symbol stays right at any t;
    * any other series, a plain ``PowerSeries`` of Blaschke coefficients
      included, takes series algebra: invert ``phi - 1``, multiply by
      ``phi + 1``, scale by ``t``, exponentiate, in O(N^2), whose two
      recurrences go by blocks past a head (``series._HEAD``).

    The two routes share no code, so each is an oracle for the other; the
    series-algebra symbol of the coordinate is also one for
    ``shimorin.semigroup_multiplier``.
    """
    _time(t)
    _order(N)
    c0 = complex(phi.coeffs[0])
    if abs(c0 - 1.0) <= 1e-12:
        raise SymbolSingularAtOrigin(
            "phi(0) = 1 makes (phi - 1) non-invertible as a power series; "
            "the symbol has no Taylor expansion at the origin"
        )
    if isinstance(phi, BlaschkeSeries) and phi.order >= N:
        return _symbol_by_clark_points(phi.spec, t, N)
    numerator = series_add(phi, PowerSeries.constant(1.0))
    denominator = series_add(phi, PowerSeries.constant(-1.0))
    quotient = series_mul(numerator, series_inv(denominator, N=N), N=N)
    return series_exp(series_scale(quotient, complex(t)), N=N)


def _symbol_by_clark_points(spec: BlaschkeSpec, t: float, N: int) -> PowerSeries:
    """Coefficients of ``exp(t (phi + 1)/(phi - 1))`` through ``N`` for a Blaschke ``phi``.

    On the circle ``phi = e^{i psi}`` with ``psi' = sum_k (1 - |a_k|^2)/|z - a_k|^2 > 0``,
    so ``phi = 1`` at exactly d simple Clark points ``zeta_j``, the roots of ``P - Q`` for
    ``phi = P / Q`` (``np.roots``, then one Newton step along the circle), and
    ``F = (phi + 1)/(phi - 1) = i Im F(0) + sum_j lam_j (z + zeta_j)/(z - zeta_j)`` with
    ``lam_j = 1/psi'(zeta_j)`` (D. N. Clark, *One dimensional perturbations of restricted
    shifts*, J. Analyse Math. 25, 1972).  Hence
    ``exp(t F) = e^{i t Im F(0)} prod_j e_{lam_j t}(conj(zeta_j) z)``: factor j has the
    coefficients ``_multiplier_coeffs(lam_j t, N)`` times ``conj(zeta_j)^n`` and an l^2
    norm of at most 1.  The factors are multiplied in one at a time, each product by FFTs
    of one length, the power of two at or above 2N + 1, cut back to N + 1 coefficients:
    O(d N log N) time, and O(d^2 + N) memory beyond the result.
    """
    units = [abs(a) / a if a else -1.0 for a in spec.zeros]  # the factor z of a = 0 is -(0 - z)
    P = np.array([spec.constant])
    Q = np.ones(1, dtype=np.complex128)
    for a, unit in zip(spec.zeros, units):
        P = np.convolve(P, (abs(a), -unit))
        Q = np.convolve(Q, (1.0, -a.conjugate()))
    zetas = np.roots((P - Q)[::-1])  # the Clark points; P - Q has degree d, as |P_d| = 1 > |Q_d|
    zetas /= np.abs(zetas)
    zeros = np.array(spec.zeros, dtype=np.complex128)
    weights = 1.0 - np.abs(zeros) ** 2

    def psi_prime(points: np.ndarray) -> np.ndarray:
        return (weights / np.abs(points[:, None] - zeros) ** 2).sum(axis=1)

    # np.roots of the monomial P - Q loses digits as d grows (7.5e-10 in the symbol at d = 64),
    # so one Newton step on arg phi(e^{i theta}), whose derivative is psi', polishes the points
    phis = spec.constant * np.prod(
        np.array(units) * (zeros - zetas[:, None]) / (1.0 - zeros.conj() * zetas[:, None]), axis=1
    )
    zetas = zetas * np.exp(-1j * np.angle(phis) / psi_prime(zetas))
    lams = 1.0 / psi_prime(zetas)
    size = 1 << (2 * N).bit_length()  # holds the 2N + 1 coefficients of a product of two
    unit = np.zeros(N + 1, dtype=np.complex128)
    unit[0] = 1.0
    product = unit
    with _quiet():  # an overflowing time or coefficient is refused by PowerSeries
        for j, (zeta, lam) in enumerate(zip(zetas.tolist(), lams.tolist())):
            factor = _divide_by_kernel(unit.copy(), zeta)  # conj(zeta)^n by squarings
            factor *= _multiplier_coeffs(lam * t, N)  # e_{lam t}(conj(zeta) z)
            product = factor if j == 0 else np.fft.ifft(
                np.fft.fft(product, size) * np.fft.fft(factor, size)
            )[: N + 1]
        out = np.exp(1j * t * ((P[0] + 1.0) / (P[0] - 1.0)).imag) * product
    return PowerSeries(out + 0.0)  # + 0.0 clears negative zeros, which the report would print


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
    refused series costs no evaluation.  The 256 points of a circle of
    radius rho are rho w^j with w = exp(2 pi i / 256), so
    ``f(rho w^j) = sum_r b_r w^(jr)`` with the bins ``b_r`` summing
    ``c_k rho^k`` over k = r mod 256: each circle is one inverse FFT of its
    256 bins, unscaled (``norm="forward"``), in O(N + 256 log 256).  The
    moduli agree with Horner's rule on the same points to rounding.
    """
    coeffs = np.asarray(f.coeffs, dtype=np.complex128)
    magnitudes = np.abs(coeffs)
    tails: list[float] = []
    for rho in _CHECK_RADII:
        with _quiet():  # near the float maximum a ratio or the bound overflows to inf: refused
            estimate = _tail_estimate(magnitudes, rho, tol.tail_tol)
        if not estimate <= tol.tail_tol:  # a NaN estimate (inf / inf block means) bounds nothing
            raise TailNotConvergent(
                f"coefficient tail beyond degree {f.order} contributes about "
                f"{estimate:.3e} on the circle |z| = {rho}, above the tail "
                f"tolerance {tol.tail_tol:.1e}; increase the truncation order"
            )
        tails.append(estimate)
    width = -(-coeffs.size // _INNER_GRID) * _INNER_GRID  # whole rows of 256 bins
    bins = np.zeros((len(_CHECK_RADII), width), dtype=np.complex128)
    # the powers of the radii, and their products, underflow far out; a sum of moduli near
    # the float maximum overflows, and the report holding it is refused as non-finite
    with _quiet():
        weights = np.power.outer(_CHECK_RADII, np.arange(coeffs.size))
        np.multiply(coeffs, weights, out=bins[:, : coeffs.size])
        folded = bins.reshape(len(_CHECK_RADII), -1, _INNER_GRID).sum(axis=1)
        moduli = np.abs(np.fft.ifft(folded, norm="forward"))
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

    def matrix(self) -> np.ndarray:
        """The read-only n x n matrix: coefficients past n are cut, missing ones are zero."""
        taps = np.zeros(self.dimension, dtype=np.complex128)
        kept = self.coefficients[: self.dimension]
        taps[: len(kept)] = kept
        arr = _lower_toeplitz(taps).copy()
        arr.flags.writeable = False
        return arr


def analytic_toeplitz_trunc(phi: PowerSeries, n: int) -> np.ndarray:
    """The lower-triangular n x n truncation of multiplication by ``phi``, read-only."""
    return ToeplitzTrunc(tuple(phi.coeffs[:n]), n).matrix()


def _tmw_basis(zeros: tuple[complex, ...], n: int) -> np.ndarray:
    """The Takenaka-Malmquist-Walsh basis of ``K_B``, ``n`` coefficients per column.

    Column ``k`` holds ``e_k = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_j``
    with ``b_j`` the normalised factor of zero ``a_j``.  These functions are
    orthonormal in H^2 and span ``K_B`` (Garcia, Mashreghi and Ross,
    *Introduction to Model Spaces and their Operators*, 2016), so the
    truncation drops only their tails.  One running product, started from
    ``e_0`` and taken one factor further per column by ``_times_factor``, serves
    every column; each column divides it by its kernel's denominator.
    """
    basis = np.empty((n, len(zeros)), dtype=np.complex128)
    product = np.zeros(n, dtype=np.complex128)
    product[0] = 1.0
    for k, a in enumerate(zeros):
        if k:
            product = _times_factor(product, zeros[k - 1])
        basis[:, k] = _divide_by_kernel(math.sqrt(1.0 - abs(a) ** 2) * product, a)
    return basis


def _has_tmw_basis(phi: PowerSeries, n: int, degree: int) -> bool:
    """Whether ``phi`` is a Blaschke series of this degree that holds ``n`` coefficients."""
    return isinstance(phi, BlaschkeSeries) and phi.spec.degree == degree and phi.order >= n - 1


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
    if _has_tmw_basis(phi, n, degree):
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


def _ladder_blocks(phi: PowerSeries, K: np.ndarray, levels: int) -> list[np.ndarray]:
    """``K, phi K, ..., phi^levels K``, each truncated to the ``n`` rows of ``K``.

    Each level is the last one times ``phi``, truncated: a Blaschke series that has the
    TMW basis multiplies by every factor (``_times_factor`` on the whole block) and the
    constant, and any other series convolves each column with its coefficients.
    Truncated lower-triangular products are associative, so both give ``phi^k K``.
    """
    n, degree = K.shape
    blocks = [K]
    if _has_tmw_basis(phi, n, degree):
        for _ in range(levels):
            block = blocks[-1]
            for a in phi.spec.zeros:
                block = _times_factor(block, a)
            blocks.append(phi.spec.constant * block)
        return blocks
    with _quiet():  # a level past the float range is refused
        for _ in range(levels):
            columns = [np.convolve(phi.coeffs[:n], c)[:n] for c in blocks[-1].T]
            blocks.append(_finite(np.stack(columns, axis=1), "series coefficients"))
    return blocks


def verify_ladder_decomposition(
    phi: PowerSeries,
    degree: int,
    levels: int,
    n: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> LadderReport:
    """Certify that K, phi K, ..., phi^levels K are mutually orthogonal.

    ``K`` is the model-space basis of ``phi`` at truncation ``n``; each level
    multiplies by one more copy of the symbol, truncated to length ``n``: by
    factor scans for a Blaschke series on the TMW route, by series
    convolution otherwise (``_ladder_blocks``).  The report records the
    largest off-block Gram entry, the largest within-block deviation from the
    identity (multiplication by an inner symbol is isometric), and the
    numerical rank of all the stacked columns, which must equal
    ``(levels + 1) * degree``.
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
    stacked = np.hstack(_ladder_blocks(phi, K, levels))
    with _quiet():
        gram = _finite(stacked.conj().T @ stacked, "ladder Gram matrix")
    # block (j, k) of |Gram - Id| is entry [j, :, k, :]: the identity off its diagonal
    # blocks subtracts exact zeros
    m = levels + 1
    deviation = np.abs(gram - np.eye(m * degree)).reshape(m, degree, m, degree)
    same = np.eye(m, dtype=bool)[:, None, :, None]
    within = float(deviation.max(where=same, initial=0.0))
    offdiag = float(deviation.max(where=~same, initial=0.0))
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
