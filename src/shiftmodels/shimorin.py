"""Analytic models for pure, bounded-below operators with wandering defect.

A shift-regime operator T (single weighted shift or direct sum of them) is
unitarily identified with multiplication by z on a space of analytic
functions: with the Cauchy dual T' = T (T*T)^{-1} and the left inverse
L = (T')*, the map x -> sum_n (P L^n x) z^n sends T to the coordinate shift.
Here P = Id - T L is the orthogonal projection onto the defect space
E = H - TH, and the reproducing kernel of the image space is

    k(lam, z) = P (Id - z L)^{-1} (Id - conj(lam) L*)^{-1} restricted to E.

On a weighted shift with dual weights w'_k = 1/w_k this is, part by part, the
scalar series sum_m (z conj(lam))^m (w'_0 ... w'_{m-1})^2, summed as one running
product of the factors (z w'_k) conj(lam w'_k).  Evaluations converge on the
disc of radius 1/||L|| = 1/sup w', where every factor has modulus below 1, so
the product cannot overflow; the possibly larger spectral radius of T' is kept
on the model as metadata only.  The semigroup of the coordinate shift acts by
multiplication with e_t = exp(t(z+1)/(z-1)), computed through the Laguerre
recurrence (constant term e^{-t}).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import _wandering_span_dim
from .config import DEFAULT_TOL, Check, ToleranceConfig
from .errors import NonFinite, OutsideDisc, TailNotConvergent, UnsupportedRegime
from .numkit import (
    _finite,
    _quiet,
    _rank_of,
    orthonormal_range_basis,
    singular_values,
    two_norm,
)
from .operators import (
    Dense,
    DirectSum,
    FiniteSupportVector,
    Shift,
    StructuredOperator,
    _act,
    _round_robin,
    _support,
    _vector,
    spectral_radius_estimate,
    to_dense_matrix,
)
from .series import PowerSeries

__all__ = [
    "AnalyticModel",
    "ModelCoefficients",
    "IntertwiningReport",
    "ReproducingReport",
    "SemigroupModelReport",
    "WoldReport",
    "cauchy_dual",
    "build_model",
    "left_inverse_apply",
    "defect_projection",
    "coefficients",
    "kernel_eval",
    "verify_intertwining",
    "verify_reproducing",
    "semigroup_multiplier",
    "verify_semigroup_model",
    "wold_decompose",
    "MULTIPLIER_SIGN_NOTE",
    "RADIUS_CONVENTION_NOTE",
]

_TERM_CAP = 10_000
_NORMAL_MIN = np.finfo(np.float64).tiny
_RESCALE_BITS = 512
_RESCALE_ABOVE = 2.0**_RESCALE_BITS

_INTERTWINE_TOL = 1e-12
_REPRODUCE_TOL = 1e-8
_GENERATOR_TOL = 1e-6
_CONSTANT_TOL = 1e-12
_FD_STEP = 1e-5

# Convention notes carried on every semigroup-model report.
MULTIPLIER_SIGN_NOTE = (
    "multiplier exponent convention: e_t = exp(t (z+1)/(z-1)), the branch with "
    "Re exponent <= 0 on the disc and constant term e^{-t}"
)
RADIUS_CONVENTION_NOTE = (
    "evaluation disc radius is 1/||L|| (guaranteed Neumann convergence); the "
    "dual spectral radius is metadata only and may be larger"
)


@dataclass(frozen=True)
class AnalyticModel:
    """Shift-regime operator together with its model data."""

    source: StructuredOperator
    dual: StructuredOperator
    defect_basis: tuple[FiniteSupportVector, ...]
    left_inverse_norm: float
    radius: float
    dual_spectral_radius: float

    @property
    def dim_defect(self) -> int:
        return len(self.defect_basis)


@dataclass(frozen=True)
class ModelCoefficients:
    """Model coefficients of a vector: row n holds P L^n x in defect coordinates."""

    coeffs: np.ndarray = field(repr=False)
    N: int = 0
    tail_bound: float = 0.0


class _Judged:
    """A report judged by its ``checks``: it passes when every check does."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class IntertwiningReport(_Judged):
    max_residual: float
    N: int
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class ReproducingReport(_Judged):
    lhs: complex
    rhs: complex
    residual: float
    terms_used: int
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class SemigroupModelReport(_Judged):
    generator_residual: float
    generator_degree: int
    commutation_residual: float
    constant_term_residual: float
    checks: tuple[Check, ...]
    notes: tuple[str, ...] = (MULTIPLIER_SIGN_NOTE, RADIUS_CONVENTION_NOTE)


@dataclass(frozen=True)
class WoldReport:
    """Splitting diagnostics: invariant unitary part vs wandering part."""

    dim_unitary: int
    dim_wandering_dense: int
    wandering_infinite: bool
    unitary_residual: float
    wandering_span_dim: int
    wandering_span_ok: bool
    steps_used: int


# ---------------------------------------------------------------------------
# construction


def cauchy_dual(T: StructuredOperator) -> StructuredOperator:
    """Cauchy dual T' = T (T*T)^{-1} of a shift or a sum of shifts: the reciprocal weights."""
    if isinstance(T, Shift):
        return Shift(T.weights.reciprocal())
    if isinstance(T, DirectSum):
        return DirectSum(tuple(cauchy_dual(p) for p in T.parts))
    raise UnsupportedRegime(f"no Cauchy dual for operator type {type(T).__name__}")


def _shift_parts(T: StructuredOperator) -> tuple[Shift, ...]:
    if isinstance(T, Shift):
        return (T,)
    if isinstance(T, DirectSum):
        for p in T.parts:
            if not isinstance(p, Shift):
                raise UnsupportedRegime(
                    "analytic models require a shift or a direct sum of shifts; "
                    f"found a {type(p).__name__} part"
                )
        return T.parts
    if isinstance(T, Dense):
        raise UnsupportedRegime(
            "finite-dimensional operators cannot be simultaneously bounded below and pure"
        )
    raise UnsupportedRegime(f"unsupported operator type {type(T).__name__}")


def build_model(T: StructuredOperator) -> AnalyticModel:
    """Construct the analytic model of a shift-regime operator.

    A shift with positive weights is bounded below, pure and has the
    wandering-subspace property by its structure, so only the Cauchy dual is
    built.  Its weights are the reciprocals of the source's, so L T = Id,
    P = Id - T L projects orthogonally onto the defect space, and L
    annihilates it, each to rounding.
    """
    parts = _shift_parts(T)
    dual = cauchy_dual(T)
    left_inverse_norm = max(p.weights.sup() for p in _shift_parts(dual))
    radius = 1.0 / left_inverse_norm
    # local index 0 of part r is global index r of the round-robin layout
    defect_basis = tuple(FiniteSupportVector.basis(r, None) for r in range(len(parts)))

    return AnalyticModel(
        source=T,
        dual=dual,
        defect_basis=defect_basis,
        left_inverse_norm=left_inverse_norm,
        radius=radius,
        dual_spectral_radius=spectral_radius_estimate(dual),
    )


# ---------------------------------------------------------------------------
# the model map
#
# L = (T')* is the adjoint action of the Cauchy dual; it lowers local index
# q + 1 of a part to q with weight w'_q = 1/w_q and never mixes parts.  The
# maps read weights and the per-part supports of a vector from ``operators``.


def _power_heads(q: np.ndarray, v: np.ndarray, dual: np.ndarray) -> np.ndarray:
    """(L^n x)_0 = x_n w'_{n-1} ... w'_0 at the local indices n = q of one part.

    ``v`` holds x at q, and ``dual`` the weights w'_0 .. w'_{m-1} for m >= max q.
    """
    scale = np.concatenate(([1.0], np.multiply.accumulate(dual)))[q]
    # a vanished entry stays 0 even where the running product has overflowed
    heads = np.where(v != 0, v * scale, 0.0)
    # where the product alone leaves the normal range, apply the weights to x_n one
    # at a time, as L does, so a representable head is not lost to the product
    stray = (v != 0) & ~(np.isfinite(scale) & (scale >= _NORMAL_MIN))
    for i in np.flatnonzero(stray):
        heads[i] = np.multiply.accumulate(np.concatenate((v[i : i + 1], dual[q[i] - 1 :: -1])))[-1]
    return heads


def _model_heads(model: AnalyticModel, x: FiniteSupportVector):
    """Part r, local index q and amplitude of each support entry of x, with its head (L^q x_r)_0.

    The heads are the nonzero model coefficients: entry (q, r) of the coefficient table.
    """
    k, v = _support(model.dual, x)
    r, q = _round_robin(model.dim_defect, k)
    heads = np.zeros(k.size, dtype=np.complex128)
    with _quiet():
        for i, part in enumerate(_shift_parts(model.dual)):
            mine = r == i
            if mine.any():
                local = q[mine]  # ascending, like k
                heads[mine] = _power_heads(local, v[mine], part.weights.at(np.arange(local[-1])))
    heads += 0.0  # clears negative zeros, as pairing with the basis vectors does
    return r, q, v, heads


def left_inverse_apply(model: AnalyticModel, x: FiniteSupportVector) -> FiniteSupportVector:
    """L x with L = (T')*, the distinguished left inverse of the source."""
    return _act(model.dual, x, True, "L x")


def defect_projection(model: AnalyticModel, x: FiniteSupportVector) -> FiniteSupportVector:
    """P x = x - T L x, the orthogonal projection onto the defect space."""
    k, v = _support(model.source, x)
    with _quiet():
        lowered = model.dual._map(k, v, True)
        raised, tlx = model.source._map(*lowered, False)
        # T L x keeps every index of x outside the defect space and no other
        px = v.copy()
        px[np.searchsorted(k, raised)] -= tlx
    return _vector(k, _finite(px, "P x"), None)


def coefficients(model: AnalyticModel, x: FiniteSupportVector, N: int) -> ModelCoefficients:
    """First N+1 model coefficients of x; exact for finitely supported input.

    Coefficient n of part r is (L^n x_r)_0.  L lowers every block's local
    index, so iterates vanish past the largest local support index and the
    reported tail bound is a finite sum, evaluated at the model's disc radius.
    """
    if N < 0:
        raise ValueError("coefficient order must be nonnegative")
    r, q, _, heads = _model_heads(model, x)
    out = np.zeros((N + 1, model.dim_defect), dtype=np.complex128)
    tail = 0.0
    with _quiet():
        inside = q <= N
        out[q[inside], r[inside]] = heads[inside]
        if not inside.all():
            # the rows past N in order, each with its entries of every part
            rows, row = np.unique(q[~inside], return_inverse=True)
            table = np.zeros((rows.size, model.dim_defect), dtype=np.complex128)
            table[row, r[~inside]] = heads[~inside]
            radius = np.float64(model.radius)  # an overflowing power is inf, not an OverflowError
            for n, entries in zip(rows, table):
                size = np.linalg.norm(entries)
                if size:  # a vanished row adds nothing, even where radius**n overflows
                    tail += float(size * radius**n)
    _finite(out, "model coefficients")
    _finite(tail, "coefficient tail bound")
    return ModelCoefficients(coeffs=out, N=N, tail_bound=tail)


def _check_inside(model: AnalyticModel, value: complex, name: str) -> None:
    if not cmath.isfinite(value):
        raise NonFinite(f"{name} = {value} is not a finite complex number")
    if abs(value) >= model.radius:
        raise OutsideDisc(
            f"|{name}| = {abs(value):.6g} is not inside the model disc of radius {model.radius:.6g}"
        )


def _dual_terms(model: AnalyticModel, lam: complex, budget: float) -> int:
    """Smallest N with q^{N+1}/(1-q) <= budget, q = |lam| ||L|| < 1; capped."""
    q = abs(lam) * model.left_inverse_norm
    target = budget * (1.0 - q)
    terms = 0
    if 0.0 < q and target < q:
        terms = max(0, int(math.ceil(math.log(target) / math.log(q))) - 1)
    if terms > _TERM_CAP:
        raise TailNotConvergent(
            f"kernel tail needs {terms} terms (cap {_TERM_CAP}) at |point| = {abs(lam):.6g}"
        )
    return terms


def kernel_eval(
    model: AnalyticModel, lam: complex, z: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Reproducing kernel k(lam, z) compressed to the defect space.

    Entry (r, r) is sum_m (z conj(lam))^m (w'_0 ... w'_{m-1})^2 over the dual
    weights w' of part r, for m up to the term count of ``_dual_terms``: one
    running product of the factors (z w'_k) conj(lam w'_k), plus 1 for m = 0;
    entries are accurate to tail_tol.  Inside the disc every factor has modulus
    below 1, so the product cannot overflow, and it is formed so that neither
    w'^2 nor z conj(lam) alone need be representable.  L keeps the parts apart,
    so the matrix is diagonal.
    """
    lam = complex(lam)
    z = complex(z)
    _check_inside(model, lam, "lam")
    _check_inside(model, z, "z")
    # target half the budget per stage so conjugate-symmetric calls agree to tail_tol
    amplification = 1.0 / (1.0 - abs(z) * model.left_inverse_norm)
    terms = _dual_terms(model, lam, 0.5 * tol.tail_tol / amplification)
    out = np.zeros((model.dim_defect, model.dim_defect), dtype=np.complex128)
    for r, part in enumerate(_shift_parts(model.dual)):
        dual = part.weights.at(np.arange(terms))
        out[r, r] = 1.0 + np.cumprod(z * dual * np.conj(lam * dual)).sum()
    return out


def verify_intertwining(
    model: AnalyticModel,
    x: FiniteSupportVector,
    N: int,
) -> IntertwiningReport:
    """Check that applying T shifts model coefficients by one degree."""
    cx = coefficients(model, x, N).coeffs
    ctx = coefficients(model, model.source.apply(x), N).coeffs
    residual = float(np.max(np.abs(ctx[0])))
    if N >= 1:
        residual = max(residual, float(np.max(np.abs(ctx[1:] - cx[:-1]))))
    return IntertwiningReport(
        max_residual=residual, N=N, checks=(Check.judged("intertwine", residual, _INTERTWINE_TOL),)
    )


def verify_reproducing(
    model: AnalyticModel,
    x: FiniteSupportVector,
    lam: complex,
    e_coords,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ReproducingReport:
    """Check <(Ux)(lam), e> = <x, k_lam e> for a defect coordinate vector e."""
    lam = complex(lam)
    _check_inside(model, lam, "lam")
    e_coords = np.asarray(e_coords, dtype=np.complex128)
    if e_coords.shape != (model.dim_defect,):
        raise ValueError(f"defect coordinates must have shape ({model.dim_defect},)")

    r, q, v, heads = _model_heads(model, x)
    # the tail dropped from <x, k_lam e> is at most ||x|| ||e|| times that of the scalar series
    size = x.norm() * math.hypot(*map(abs, e_coords.tolist()))
    terms = _dual_terms(model, lam, tol.tail_tol / max(1.0, size))
    with _quiet():
        # left side: sum_n lam^n <coefficient n of x, e>, whose nonzero terms are the heads
        lhs = complex(np.sum(heads * lam**q * e_coords.conj()[r]))
        # right side: <x, k_lam e>, where k_lam e holds e_r conj(lam)^n w'_0 ... w'_{n-1} at
        # local index n of part r; each factor conj(lam) w'_k has modulus below 1
        section = np.ones((model.dim_defect, terms + 1), dtype=np.complex128)
        for i, part in enumerate(_shift_parts(model.dual)):
            section[i, 1:] = np.cumprod(np.conj(lam) * part.weights.at(np.arange(terms)))
        section *= e_coords[:, None]
        inside = q <= terms
        rhs = complex(np.sum(v[inside] * section[r[inside], q[inside]].conj()))
    residual = abs(lhs - rhs)
    check = Check.judged("reproduce", residual, _REPRODUCE_TOL)
    return ReproducingReport(lhs=lhs, rhs=rhs, residual=residual, terms_used=terms, checks=(check,))


# ---------------------------------------------------------------------------
# the semigroup on the model space


def _multiplier_coeffs(t: float, N: int) -> np.ndarray:
    """Coefficients of exp(t (z+1)/(z-1)) for any real t.

    t (z+1)/(z-1) = -t - 2t z/(1-z), and the Laguerre generating function
    sum_n L_n^{(-1)}(x) z^n = exp(-x z/(1-z)) (DLMF §18.12) makes coefficient
    n equal to e^{-t} L_n^{(-1)}(2t).  The three-term recurrence with alpha = -1,
    (n+1) L_{n+1} = (2n - x) L_n - (n-1) L_{n-1}, L_0 = 1, L_1 = -x, costs O(N).

    L_n(2t) grows like (2t)^n / n! while e^{-t} underflows from t = 745 on, so
    the recurrence carries its two values scaled by exact powers of two: when
    either passes 2^512, both are divided by 2^512 and the binary exponent of
    every later index grows by 512.  Since |L_{n+1}| <= (3 + |x|) times the
    larger of |L_n| and |L_{n-1}|, values below 2^512 stay finite for
    511 / log2(3 + |x|) steps, so that test runs once per block of as many
    steps, not at every step.  The scaling is exact: where e^{-t} is a normal
    number the result has the bits of the product e^{-t} L_n.  Below that,
    e^{-t} 2^exponent is applied as 2^(exponent - t / ln 2), at a relative
    error of about t 2^-52 from rounding t / ln 2.

    From x of order 2^512 on, x times a scaled value can overflow all the same.
    There every coefficient is zero in floating point:
    |L_n(x)| <= (2 max(1, x))^n <= (4 max(1, t))^n, so |e^{-t} L_n(x)| < 2^-1075
    for every n <= N once t - N ln(4 max(1, t)) > 1075 ln 2, and each rounds to
    a zero signed as L_n(x), which is (-1)^n for x past the largest root (< 4N).
    """
    x = 2.0 * t
    laguerre = np.zeros(N + 1)
    rescaled: list[int] = []  # the indices from which a further 2^512 was divided out
    laguerre[0] = previous = 1.0
    current = -x
    block = max(1, int(511 / math.log2(3.0 + abs(x))))
    for start in range(1, N + 1, block):
        if max(abs(previous), abs(current)) > _RESCALE_ABOVE:
            previous /= _RESCALE_ABOVE
            current /= _RESCALE_ABOVE
            rescaled.append(start)
        for n in range(start, min(start + block, N + 1)):
            laguerre[n] = current
            previous, current = current, ((2 * n - x) * current - (n - 1) * previous) / (n + 1)
    if not np.isfinite(laguerre).all():
        growth = 2.0 * math.log(2.0) + math.log(max(1.0, t))  # ln(4 max(1, t)), even past 2t = inf
        if t - N * growth > 1075.0 * math.log(2.0):
            zeros = np.zeros(N + 1)
            zeros[1::2] = -0.0
            return zeros
    head = math.exp(-t)
    if not rescaled and head >= _NORMAL_MIN:
        return head * laguerre
    exponents = _RESCALE_BITS * np.searchsorted(rescaled, np.arange(N + 1), side="right")
    if head < _NORMAL_MIN:
        # below -2^13 every entry underflows; the floor keeps the exponents in range of an int64
        total = np.maximum(exponents - t / math.log(2.0), -8192.0)
        exponents = np.floor(total)
        head = np.exp2(total - exponents)
    return np.ldexp(head * laguerre, exponents.astype(np.int64))


def semigroup_multiplier(t: float, N: int) -> PowerSeries:
    """Multiplier series e_t = exp(t (z+1)/(z-1)) through degree N (t >= 0)."""
    if not math.isfinite(t):
        raise NonFinite(f"semigroup parameter must be finite, got {t}")
    if t < 0.0:
        raise ValueError(f"semigroup parameter must be nonnegative, got {t}")
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    with _quiet():
        coeffs = _finite(_multiplier_coeffs(float(t), N), "multiplier coefficients")
    return PowerSeries(coeffs)


def verify_semigroup_model(
    t: float, N: int = 64, tol: ToleranceConfig = DEFAULT_TOL
) -> SemigroupModelReport:
    """Check the multiplier semigroup against its generator and the shift.

    The derivative at t = 0 of multiplication by e_t must be multiplication
    by (z+1)/(z-1); a central finite difference at step 1e-5 is compared
    coefficient-wise on the constant series 1 (through degree min(N, 64):
    the difference's truncation error grows like step^2 n^2, which stays
    below 1e-6 there).  Multiplying by e_t must commute with the coordinate
    shift exactly in floating point.  The time t is validated as by
    ``semigroup_multiplier``.
    """
    et = semigroup_multiplier(t, N).coeffs

    # generator check by central difference; on the constant series 1 the
    # products are the multiplier coefficients themselves
    degree = min(N, 64)
    plus = _multiplier_coeffs(_FD_STEP, N)
    minus = _multiplier_coeffs(-_FD_STEP, N)
    derivative = (plus - minus) / (2.0 * _FD_STEP)
    symbol = np.full(N + 1, -2.0 + 0.0j)
    symbol[0] = -1.0
    generator_residual = float(np.max(np.abs(derivative[: degree + 1] - symbol[: degree + 1])))

    # commutation with the coordinate shift, exact through degree N
    left = np.convolve(et, [0.0, 1.0])[: N + 1]
    right = np.concatenate(([0.0 + 0.0j], et))[: N + 1]
    commutation_residual = float(np.max(np.abs(left - right)))

    constant_residual = abs(et[0] - math.exp(-float(t)))

    return SemigroupModelReport(
        generator_residual=generator_residual,
        generator_degree=degree,
        commutation_residual=commutation_residual,
        constant_term_residual=constant_residual,
        checks=(
            Check.judged("semigroup_generator", generator_residual, _GENERATOR_TOL),
            Check.judged("semigroup_commutation", commutation_residual, tol.residual_tol),
            Check.judged("semigroup_constant_term", constant_residual, _CONSTANT_TOL),
        ),
    )


# ---------------------------------------------------------------------------
# the splitting into unitary and wandering parts


def wold_decompose(V: StructuredOperator, tol: ToleranceConfig = DEFAULT_TOL) -> WoldReport:
    """Split off the largest invariant part on which V acts unitarily.

    The unitary part is the stabilized range of powers; the rest is checked
    against the span of the defect-space iterates.  Shift summands are pure
    by structure and contribute only to the (then infinite) wandering part.
    """
    wandering_infinite = False
    if isinstance(V, Shift):
        V = DirectSum((V,))  # a lone shift is a sum without dense parts
    if isinstance(V, DirectSum):
        dense_parts = []
        for p in V.parts:
            if isinstance(p, Shift):
                wandering_infinite = True
            elif isinstance(p, Dense):
                dense_parts.append(p)
            else:
                raise UnsupportedRegime("nested direct sums are not supported here")
        if not dense_parts:
            return WoldReport(0, 0, wandering_infinite, 0.0, 0, True, 0)
        arr = to_dense_matrix(DirectSum(tuple(dense_parts)))
    elif isinstance(V, Dense):
        arr = V.matrix.array
    else:
        raise UnsupportedRegime(f"cannot decompose operator type {type(V).__name__}")

    n = arr.shape[0]
    power = np.eye(n, dtype=np.complex128)
    previous_rank = n
    steps_used = 0
    for _ in range(n + 1):
        power = arr @ power
        s = singular_values(power)
        if s[0] == 0.0:
            previous_rank = 0
            steps_used += 1
            break
        power = power / s[0]
        current_rank = _rank_of(s, tol)
        steps_used += 1
        if current_rank == previous_rank:
            break
        previous_rank = current_rank

    dim_unitary = previous_rank
    if dim_unitary > 0:
        basis = orthonormal_range_basis(power, tol)
        with _quiet():
            restricted = basis.conj().T @ arr @ basis
            gram = restricted.conj().T @ restricted - np.eye(dim_unitary)
        unitary_residual = two_norm(_finite(gram, "restricted V*V - Id"))
    else:
        unitary_residual = 0.0

    span_dim = _wandering_span_dim(arr, tol)

    return WoldReport(
        dim_unitary=dim_unitary,
        dim_wandering_dense=n - dim_unitary,
        wandering_infinite=wandering_infinite,
        unitary_residual=unitary_residual,
        wandering_span_dim=span_dim,
        wandering_span_ok=span_dim == n - dim_unitary,
        steps_used=steps_used,
    )
