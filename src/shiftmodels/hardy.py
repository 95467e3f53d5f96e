"""Hardy-space symbols, truncated Toeplitz matrices, and ladder models.

This module works with concrete power-series representatives of analytic
functions on the unit disc.  It provides:

* Blaschke products (closed-form Taylor coefficients, rational evaluation);
* the inner symbol ``exp(t * (phi + 1) / (phi - 1))`` attached to an inner
  ``phi``, built purely by series algebra (inversion then exponential), a
  deliberately different route from the coefficient recurrence used by the
  analytic-model module so the two can cross-check each other;
* a boundary-circle innerness check;
* analytic Toeplitz truncations and model-space bases (orthogonal
  complements of shifted-symbol columns);
* ladder decompositions ``K, phi*K, phi^2*K, ...`` with orthogonality
  certificates;
* surjectivity-plus-kernel certificates for truncated block shifts, with the
  structural verdict kept separate from truncation artifacts;
* small exhibit constructors (composition operator of a disc automorphism,
  differentiation generator) used to probe which truncations do or do not
  carry universal-model structure.

Everything is desk scale: matrices are a few hundred rows at most and all
residuals are reported, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    InvalidAutomorphism,
    SymbolSingularAtOrigin,
    TailNotConvergent,
    TruncationTooSmall,
    ZeroOnBoundary,
)
from .numkit import ComplexMatrix, null_space_basis, rank
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
    "composition_operator_trunc",
    "differentiation_generator_trunc",
    "generator_kernel_scan",
]

_CHECK_RADII = (0.9, 0.99)


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
                raise ZeroOnBoundary("Blaschke zero must be a finite complex number")
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

    def to_json(self) -> dict:
        return {
            "zeros": [[a.real, a.imag] for a in self.zeros],
            "constant": [self.constant.real, self.constant.imag],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BlaschkeSpec":
        zeros = tuple(complex(re, im) for re, im in data["zeros"])
        cre, cim = data.get("constant", [1.0, 0.0])
        return cls(zeros=zeros, constant=complex(cre, cim))


def _factor_series(a: complex, N: int) -> PowerSeries:
    """Taylor coefficients of one normalised Blaschke factor through degree N.

    For ``a != 0`` the closed form is ``c_0 = |a|`` and
    ``c_k = (|a|/a) * conj(a)^(k-1) * (|a|^2 - 1)`` for ``k >= 1``.
    """
    coeffs = np.zeros(N + 1, dtype=np.complex128)
    if a == 0:
        if N >= 1:
            coeffs[1] = 1.0
        return PowerSeries(tuple(coeffs))
    mod = abs(a)
    lead = mod / a
    drop = mod * mod - 1.0
    coeffs[0] = mod
    power = 1.0 + 0.0j
    for k in range(1, N + 1):
        coeffs[k] = lead * power * drop
        power *= np.conj(a)
    return PowerSeries(tuple(coeffs))


def blaschke_series(spec: BlaschkeSpec, N: int) -> PowerSeries:
    """Taylor coefficients of the Blaschke product through degree ``N``."""
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    out = PowerSeries.constant(spec.constant, N)
    for a in spec.zeros:
        out = series_mul(out, _factor_series(a, N), N=N)
    return out


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
# The inner semigroup symbol, by series algebra
# ---------------------------------------------------------------------------


def inner_semigroup_symbol(phi: PowerSeries, t: float, N: int) -> PowerSeries:
    """Taylor coefficients of ``exp(t * (phi + 1) / (phi - 1))`` through ``N``.

    ``phi`` is an analytic symbol with ``phi(0) != 1`` so that
    ``(phi - 1)`` is invertible as a power series; the result for inner
    ``phi`` with ``t >= 0`` is again inner (a singular inner function when
    ``phi`` is, for example, the coordinate).

    The computation is pure series algebra: invert ``phi - 1``, multiply by
    ``phi + 1``, scale by ``t``, exponentiate.  No coefficient recurrence
    specific to the coordinate symbol is used here.
    """
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
    numerator = series_add(phi, PowerSeries.constant(1.0))
    denominator = series_add(phi, PowerSeries.constant(-1.0))
    quotient = series_mul(numerator, series_inv(denominator, N=N), N=N)
    return series_exp(series_scale(quotient, complex(t)), N=N)


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


def inner_check(
    f: PowerSeries,
    grid: int = 256,
    tol: ToleranceConfig = DEFAULT_TOL,
    boundary_floor: float = 0.95,
) -> InnerCheckReport:
    """Check that a series behaves like an inner function near the boundary.

    Evaluates ``|f|`` at ``grid`` equispaced points on the circles of radius
    0.9 and 0.99 and passes iff the maximum modulus stays below ``1 + tol``,
    the radial means do not decrease from 0.9 to 0.99, and the modulus
    actually approaches the unit circle (max at 0.99 above
    ``boundary_floor``).  Raises ``TailNotConvergent`` when the declared
    truncation shows unresolved coefficient mass at these radii.
    """
    if grid < 8:
        raise ValueError("grid must have at least 8 boundary samples")
    coeffs = np.asarray(f.coeffs, dtype=np.complex128)
    magnitudes = np.abs(coeffs)
    maxima: list[float] = []
    means: list[float] = []
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
        angles = 2.0 * np.pi * np.arange(grid) / grid
        zs = rho * np.exp(1j * angles)
        values = np.polynomial.polynomial.polyval(zs, coeffs)
        moduli = np.abs(values)
        maxima.append(float(moduli.max()))
        means.append(float(moduli.mean()))
    bounded = all(m <= 1.0 + tol.residual_tol for m in maxima)
    approaching = maxima[-1] >= boundary_floor
    nondecreasing = means[-1] >= means[0] - tol.residual_tol
    return InnerCheckReport(
        radii=_CHECK_RADII,
        grid=grid,
        max_modulus=tuple(maxima),
        mean_modulus=tuple(means),
        tail_estimates=tuple(tails),
        boundary_floor=boundary_floor,
        passed=bool(bounded and approaching and nondecreasing),
    )


# ---------------------------------------------------------------------------
# Toeplitz truncations and model spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToeplitzTrunc:
    """An n x n Toeplitz truncation with entry (i, j) = c_{i-j}.

    ``coefficients`` stores ``(c_{-K}, ..., c_0, ..., c_K)``; diagonals with
    ``|i - j| > K`` are zero.  Analytic symbols (no negative coefficients)
    give lower-triangular truncations.
    """

    coefficients: tuple[complex, ...]
    offset: int
    dimension: int

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != 2 * self.offset + 1:
            raise ValueError("coefficient count must equal 2 * offset + 1")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")

    @classmethod
    def from_analytic(cls, phi: PowerSeries, n: int) -> "ToeplitzTrunc":
        taps = list(phi.coeffs[:n])
        taps += [0.0 + 0.0j] * (n - len(taps))
        K = n - 1
        coeffs = [0.0 + 0.0j] * K + taps
        return cls(coefficients=tuple(coeffs), offset=K, dimension=n)

    def matrix(self) -> ComplexMatrix:
        n = self.dimension
        arr = np.zeros((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                d = i - j
                if -self.offset <= d <= self.offset:
                    arr[i, j] = self.coefficients[self.offset + d]
        return ComplexMatrix(arr)


def analytic_toeplitz_trunc(phi: PowerSeries, n: int) -> ComplexMatrix:
    """The lower-triangular n x n truncation of multiplication by ``phi``."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return ToeplitzTrunc.from_analytic(phi, n).matrix()


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
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if n < 4 * degree:
        raise TruncationTooSmall(
            f"truncation {n} is below the working minimum {4 * degree} "
            f"for a degree {degree} symbol"
        )
    coeffs = np.asarray(phi.coeffs, dtype=np.complex128)
    boundary = n - 2 * degree
    trailing = np.abs(coeffs[boundary:]).sum() if coeffs.size > boundary else 0.0
    if trailing > tol.tail_tol:
        raise TruncationTooSmall(
            f"symbol coefficients from index {boundary} carry mass "
            f"{trailing:.3e}, above the tail tolerance {tol.tail_tol:.1e}; "
            "increase the truncation"
        )
    T = analytic_toeplitz_trunc(phi, n).array
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
        block = np.zeros((n, degree), dtype=np.complex128)
        for r in range(degree):
            column = PowerSeries(tuple(K[:, r]))
            product = series_mul(power, column, N=n - 1)
            vals = np.asarray(product.coeffs, dtype=np.complex128)
            block[: vals.size, r] = vals
        blocks.append(block)
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
    """Surjectivity-plus-kernel certificate for a truncated operator.

    ``rank``, ``kernel_dim`` and ``surjective_on_truncation`` are measured on
    the matrix as given.  When ``structure`` names a known truncation family
    the structural fields state what the untruncated operator satisfies and
    ``caveat`` spells out which measured deficits are truncation artifacts.
    The certificate passes iff the structural reading has a nontrivial
    kernel and is surjective.
    """

    dimension: int
    rank: int
    kernel_dim: int
    surjective_on_truncation: bool
    structure: str | None
    structural_kernel_dim: int
    structural_surjective: bool
    caveat: str
    passed: bool


_STRUCTURES = (None, "backward_shift", "forward_shift")


def block_backward_shift_trunc(multiplicity: int, n: int) -> ComplexMatrix:
    """Truncation of the backward shift of the given multiplicity.

    Sends basis vector ``e_k`` to ``e_{k - multiplicity}`` (and the first
    ``multiplicity`` vectors to zero).
    """
    if multiplicity < 1 or n <= multiplicity:
        raise ValueError("need 1 <= multiplicity < n")
    arr = np.zeros((n, n), dtype=np.complex128)
    for k in range(multiplicity, n):
        arr[k - multiplicity, k] = 1.0
    return ComplexMatrix(arr)


def block_forward_shift_trunc(multiplicity: int, n: int) -> ComplexMatrix:
    """Truncation of the forward shift of the given multiplicity."""
    if multiplicity < 1 or n <= multiplicity:
        raise ValueError("need 1 <= multiplicity < n")
    arr = np.zeros((n, n), dtype=np.complex128)
    for k in range(0, n - multiplicity):
        arr[k + multiplicity, k] = 1.0
    return ComplexMatrix(arr)


def caradus_certificate(
    M,
    tol: ToleranceConfig = DEFAULT_TOL,
    structure: str | None = None,
) -> CaradusReport:
    """Check the surjective-with-kernel hypothesis on a truncated operator.

    A bounded operator that is surjective and has nontrivial kernel is the
    classical sufficient hypothesis for universality.  On an ``n x n``
    truncation surjectivity can fail (or a kernel can appear) purely as an
    edge effect, so a ``structure`` tag is accepted for the two stock
    families:

    * ``"backward_shift"``: the kernel (bottom coordinates) is genuine, the
      rank deficit (top coordinates unreachable) is an artifact; the full
      operator is surjective, so the certificate passes.
    * ``"forward_shift"``: the kernel (top coordinates) is an artifact, the
      rank deficit (bottom coordinates unreachable) is genuine; the full
      operator is injective and not surjective, so the certificate fails.
    """
    if structure not in _STRUCTURES:
        raise ValueError(f"unknown structure tag {structure!r}")
    if isinstance(M, ComplexMatrix):
        arr = M.array
    elif isinstance(M, ToeplitzTrunc):
        arr = M.matrix().array
    else:
        arr = np.asarray(M, dtype=np.complex128)
    n = arr.shape[0]
    r = rank(arr, tol)
    kernel = n - r
    surjective_trunc = kernel == 0
    if structure == "backward_shift":
        structural_kernel = kernel
        structural_surjective = True
        caveat = (
            "rank deficit on the truncation sits in the top coordinates and "
            "is a truncation artifact; the untruncated backward shift is "
            "surjective, and the kernel in the bottom coordinates is genuine"
        )
    elif structure == "forward_shift":
        structural_kernel = 0
        structural_surjective = False
        caveat = (
            "kernel on the truncation sits in the top coordinates and is a "
            "truncation artifact; the untruncated forward shift is injective "
            "and its range genuinely misses the bottom coordinates"
        )
    else:
        structural_kernel = kernel
        structural_surjective = surjective_trunc
        caveat = "no structure tag given; structural reading equals the measured one"
    passed = structural_kernel >= 1 and structural_surjective
    return CaradusReport(
        dimension=n,
        rank=r,
        kernel_dim=kernel,
        surjective_on_truncation=bool(surjective_trunc),
        structure=structure,
        structural_kernel_dim=structural_kernel,
        structural_surjective=structural_surjective,
        caveat=caveat,
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# Exhibit constructors
# ---------------------------------------------------------------------------


def composition_operator_trunc(r: float, n: int) -> ComplexMatrix:
    """Truncated composition operator of the disc automorphism (z + r)/(1 + r z).

    Column ``j`` holds the Taylor coefficients of the ``j``-th power of the
    automorphism, truncated to length ``n``.  Requires ``0 <= r < 1``.
    """
    if not (0.0 <= r < 1.0):
        raise InvalidAutomorphism(
            f"parameter {r} does not define a disc automorphism of this "
            "family; need 0 <= r < 1"
        )
    if n < 2:
        raise ValueError("need dimension at least 2")
    taps = np.zeros(n, dtype=np.complex128)
    taps[0] = r
    if n >= 2:
        scale = 1.0 - r * r
        power = 1.0
        for k in range(1, n):
            taps[k] = power * scale
            power *= -r
    symbol = PowerSeries(tuple(taps))
    arr = np.zeros((n, n), dtype=np.complex128)
    current = PowerSeries.constant(1.0)
    for j in range(n):
        vals = np.asarray(current.coeffs, dtype=np.complex128)[:n]
        arr[: vals.size, j] = vals
        current = series_mul(current, symbol, N=n - 1)
    return ComplexMatrix(arr)


def differentiation_generator_trunc(n: int) -> ComplexMatrix:
    """Truncation of d/dz on coefficient space: entry (k, k+1) = k + 1."""
    if n < 2:
        raise ValueError("need dimension at least 2")
    arr = np.zeros((n, n), dtype=np.complex128)
    for k in range(n - 1):
        arr[k, k + 1] = k + 1
    return ComplexMatrix(arr)


def generator_kernel_scan(
    M,
    lam_values,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[int, ...]:
    """Kernel dimensions of ``M - lam * I`` over a list of sample points.

    Used to show that an exhibit's truncation carries at most one-dimensional
    eigenspaces (no room for the infinite-multiplicity structure a universal
    model needs).
    """
    arr = M.array if isinstance(M, ComplexMatrix) else np.asarray(M, dtype=np.complex128)
    n = arr.shape[0]
    dims = []
    for lam in lam_values:
        shifted = arr - complex(lam) * np.eye(n, dtype=np.complex128)
        dims.append(n - rank(shifted, tol))
    return tuple(dims)
