"""Analytic models for pure, bounded-below operators with wandering defect.

A shift-regime operator T (single weighted shift or direct sum of them) is
unitarily identified with multiplication by z on a space of analytic
functions: with the Cauchy dual T' = T (T*T)^{-1} and the left inverse
L = (T')*, the map x -> sum_n (P L^n x) z^n sends T to the coordinate shift.
Here P = Id - T L is the orthogonal projection onto the defect space
E = H - TH, and the reproducing kernel of the image space is

    k(lam, z) = P (Id - z L)^{-1} (Id - conj(lam) L*)^{-1} restricted to E.

Evaluations converge on the disc of radius 1/||L||; the possibly larger
spectral radius of T' is kept on the model as metadata only.  The semigroup
of the coordinate shift acts by multiplication with e_t = exp(t(z+1)/(z-1)),
computed through its own exponential recurrence (constant term e^{-t}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import _wandering_span_dim, classify_operator
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    NoWanderingSubspace,
    NotBoundedBelow,
    NotPure,
    OutsideDisc,
    TailNotConvergent,
    ToolkitError,
    UnsupportedRegime,
)
from .numkit import ComplexMatrix, orthonormal_range_basis, rank, two_norm
from .operators import (
    Dense,
    DirectSum,
    FiniteSupportVector,
    Shift,
    StructuredOperator,
    adjoint_apply,
    apply,
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
    "defect_coordinates",
    "coefficients",
    "model_norm_sq",
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
    shift_parts: tuple[Shift, ...]
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


@dataclass(frozen=True)
class IntertwiningReport:
    max_residual: float
    passed: bool
    N: int


@dataclass(frozen=True)
class ReproducingReport:
    lhs: complex
    rhs: complex
    residual: float
    passed: bool
    terms_used: int


@dataclass(frozen=True)
class SemigroupModelReport:
    generator_residual: float
    generator_degree: int
    commutation_residual: float
    constant_term_residual: float
    passed: bool
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


def cauchy_dual(
    T: StructuredOperator, tol: ToleranceConfig = DEFAULT_TOL
) -> StructuredOperator:
    """Cauchy dual T' = T (T*T)^{-1}; reciprocal weights in the shift regime."""
    if isinstance(T, Shift):
        return Shift(T.weights.reciprocal())
    if isinstance(T, DirectSum):
        return DirectSum(tuple(cauchy_dual(p, tol) for p in T.parts))
    if isinstance(T, Dense):
        arr = T.matrix.array
        gram = arr.conj().T @ arr
        if rank(arr, tol) < T.matrix.n:
            raise NotBoundedBelow(
                f"Cauchy dual needs a bounded-below operator (rank_tol={tol.rank_tol:g})"
            )
        dual = np.linalg.solve(gram, arr.conj().T).conj().T
        return Dense(ComplexMatrix(dual))
    raise UnsupportedRegime(f"no Cauchy dual for operator type {type(T).__name__}")


def _shift_parts(T: StructuredOperator) -> tuple[Shift, ...]:
    if isinstance(T, Shift):
        return (T,)
    if isinstance(T, DirectSum):
        parts = []
        for p in T.parts:
            if not isinstance(p, Shift):
                raise UnsupportedRegime(
                    "analytic models require a shift or a direct sum of shifts; "
                    f"found a {type(p).__name__} part"
                )
            parts.append(p)
        return tuple(parts)
    if isinstance(T, Dense):
        raise UnsupportedRegime(
            "finite-dimensional operators cannot be simultaneously bounded below and pure"
        )
    raise UnsupportedRegime(f"unsupported operator type {type(T).__name__}")


def build_model(T: StructuredOperator, tol: ToleranceConfig = DEFAULT_TOL) -> AnalyticModel:
    """Construct the analytic model of a shift-regime operator.

    Verifies the left-inverse facts at construction: L T = Id, P = Id - T L
    projects orthogonally onto the defect space, and L annihilates it.
    """
    parts = _shift_parts(T)
    report = classify_operator(T, tol)
    if not report.bounded_below:
        raise NotBoundedBelow(f"lower bound {report.lower_bound:.3e} too small")
    if not report.pure:
        raise NotPure(report.pure_method)
    if not report.wandering:
        raise NoWanderingSubspace(report.wandering_method)

    dual = cauchy_dual(T, tol)
    left_inverse_norm = max(p.weights.reciprocal().sup() for p in parts)
    radius = 1.0 / left_inverse_norm
    if isinstance(T, DirectSum):
        defect_basis = tuple(
            T.embed(r, FiniteSupportVector.basis(0, None)) for r in range(len(parts))
        )
    else:
        defect_basis = (FiniteSupportVector.basis(0, None),)

    model = AnalyticModel(
        source=T,
        dual=dual,
        shift_parts=parts,
        defect_basis=defect_basis,
        left_inverse_norm=left_inverse_norm,
        radius=radius,
        dual_spectral_radius=spectral_radius_estimate(dual),
    )
    _construction_self_check(model, tol)
    return model


def _construction_self_check(model: AnalyticModel, tol: ToleranceConfig) -> None:
    probes = [FiniteSupportVector.basis(k, None) for k in range(min(8, 2 + 3 * model.dim_defect))]
    bound = 10.0 * tol.residual_tol
    for x in probes:
        tx = apply(model.source, x)
        if left_inverse_apply(model, tx).sub(x).norm() > bound:
            raise ToolkitError("model self-check failed: L T != Id on probe vectors")
        if defect_projection(model, tx).norm() > bound:
            raise ToolkitError("model self-check failed: P does not annihilate the range")
        px = defect_projection(model, x)
        if defect_projection(model, px).sub(px).norm() > bound:
            raise ToolkitError("model self-check failed: P is not idempotent")
    for e in model.defect_basis:
        if left_inverse_apply(model, e).norm() > bound:
            raise ToolkitError("model self-check failed: L does not annihilate the defect space")
        if defect_projection(model, e).sub(e).norm() > bound:
            raise ToolkitError("model self-check failed: P does not fix the defect space")


# ---------------------------------------------------------------------------
# the model map


def left_inverse_apply(model: AnalyticModel, x: FiniteSupportVector) -> FiniteSupportVector:
    """L x with L = (T')*, the distinguished left inverse of the source."""
    return adjoint_apply(model.dual, x)


def defect_projection(model: AnalyticModel, x: FiniteSupportVector) -> FiniteSupportVector:
    """P x = x - T L x, the orthogonal projection onto the defect space."""
    return x.sub(apply(model.source, left_inverse_apply(model, x)))


def defect_coordinates(model: AnalyticModel, x: FiniteSupportVector) -> np.ndarray:
    """Coordinates of P x in the defect basis (P is implicit: <Px,e> = <x,e>)."""
    return np.array([x.inner(e) for e in model.defect_basis], dtype=np.complex128)


def coefficients(model: AnalyticModel, x: FiniteSupportVector, N: int) -> ModelCoefficients:
    """First N+1 model coefficients of x; exact for finitely supported input.

    L lowers every block's local index, so iterates vanish past the largest
    local support index and the reported tail bound is a finite sum,
    evaluated at the model's disc radius.
    """
    if N < 0:
        raise ValueError("coefficient order must be nonnegative")
    out = np.zeros((N + 1, model.dim_defect), dtype=np.complex128)
    current = x
    for n in range(N + 1):
        if not current.entries:
            break
        out[n] = defect_coordinates(model, current)
        current = left_inverse_apply(model, current)
    tail = 0.0
    n = N + 1
    while current.entries:
        tail += float(np.linalg.norm(defect_coordinates(model, current))) * model.radius**n
        current = left_inverse_apply(model, current)
        n += 1
    return ModelCoefficients(coeffs=out, N=N, tail_bound=tail)


def model_norm_sq(model: AnalyticModel, coeffs: ModelCoefficients) -> float:
    """Squared model norm sum_n sum_r beta_r(n)^2 |c_{n,r}|^2 (pullback norm)."""
    total = 0.0
    for n in range(coeffs.N + 1):
        for r, part in enumerate(model.shift_parts):
            total += part.weights.beta_sq(n) * abs(coeffs.coeffs[n, r]) ** 2
    return total


def _neumann_terms(q: float, budget: float) -> int:
    """Smallest N with q^{N+1}/(1-q) <= budget (q < 1)."""
    if q <= 0.0:
        return 0
    target = budget * (1.0 - q)
    if target >= q:
        return 0
    n = int(math.ceil(math.log(target) / math.log(q))) - 1
    return max(0, n)


def _check_inside(model: AnalyticModel, value: complex, name: str) -> None:
    if abs(value) >= model.radius:
        raise OutsideDisc(
            f"|{name}| = {abs(value):.6g} is not inside the model disc of radius {model.radius:.6g}"
        )


def _dual_neumann(model: AnalyticModel, lam: complex, e: FiniteSupportVector, budget: float) -> tuple[FiniteSupportVector, int]:
    """Truncated (Id - conj(lam) L*)^{-1} e = sum_n conj(lam)^n T'^n e."""
    q = abs(lam) * model.left_inverse_norm
    terms = _neumann_terms(q, budget)
    if terms > _TERM_CAP:
        raise TailNotConvergent(
            f"kernel tail needs {terms} terms (cap {_TERM_CAP}) at |point| = {abs(lam):.6g}"
        )
    acc = e
    current = e
    factor = 1.0 + 0.0j
    for _ in range(terms):
        current = apply(model.dual, current)
        factor *= lam.conjugate()
        acc = acc.add(current.scale(factor))
    return acc, terms


def kernel_eval(
    model: AnalyticModel, lam: complex, z: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Reproducing kernel k(lam, z) compressed to the defect space.

    Computed as two Neumann sums: u = (Id - conj(lam) L*)^{-1} e column by
    column, then sum_m z^m L^m u, which terminates exactly because L is
    locally nilpotent on finite supports; entries are accurate to tail_tol.
    """
    lam = complex(lam)
    z = complex(z)
    _check_inside(model, lam, "lam")
    _check_inside(model, z, "z")
    dim = model.dim_defect
    # target half the budget per stage so conjugate-symmetric calls agree to tail_tol
    amplification = 1.0 / (1.0 - abs(z) * model.left_inverse_norm)
    budget = 0.5 * tol.tail_tol / amplification
    out = np.zeros((dim, dim), dtype=np.complex128)
    for s, e in enumerate(model.defect_basis):
        u, _ = _dual_neumann(model, lam, e, budget)
        acc = u
        current = u
        factor = 1.0 + 0.0j
        while True:
            current = left_inverse_apply(model, current)
            if not current.entries:
                break
            factor *= z
            acc = acc.add(current.scale(factor))
        out[:, s] = defect_coordinates(model, acc)
    return out


def verify_intertwining(
    model: AnalyticModel,
    x: FiniteSupportVector,
    N: int,
    threshold: float = 1e-12,
) -> IntertwiningReport:
    """Check that applying T shifts model coefficients by one degree."""
    cx = coefficients(model, x, N).coeffs
    ctx = coefficients(model, apply(model.source, x), N).coeffs
    residual = float(np.max(np.abs(ctx[0])))
    if N >= 1:
        residual = max(residual, float(np.max(np.abs(ctx[1:] - cx[:-1]))))
    return IntertwiningReport(max_residual=residual, passed=residual <= threshold, N=N)


def verify_reproducing(
    model: AnalyticModel,
    x: FiniteSupportVector,
    lam: complex,
    e_coords,
    tol: ToleranceConfig = DEFAULT_TOL,
    threshold: float = 1e-8,
) -> ReproducingReport:
    """Check <(Ux)(lam), e> = <x, k_lam e> for a defect coordinate vector e."""
    lam = complex(lam)
    _check_inside(model, lam, "lam")
    e_coords = np.asarray(e_coords, dtype=np.complex128)
    if e_coords.shape != (model.dim_defect,):
        raise ValueError(f"defect coordinates must have shape ({model.dim_defect},)")

    # left side: the coefficient series ends at the largest local support index
    parts = len(model.shift_parts)
    depth = 0 if not x.entries else x.max_index // parts + 1
    cx = coefficients(model, x, depth).coeffs
    lhs = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for n in range(depth + 1):
        lhs += power * complex(cx[n] @ e_coords.conj())
        power *= lam

    # right side: pair x against the kernel section at lam
    e_vec = FiniteSupportVector.zero(None)
    for r, c in enumerate(e_coords):
        if c != 0:
            e_vec = e_vec.add(model.defect_basis[r].scale(c))
    budget = tol.tail_tol / max(1.0, x.norm())
    section, terms = _dual_neumann(model, lam, e_vec, budget)
    rhs = x.inner(section)
    residual = abs(lhs - rhs)
    return ReproducingReport(
        lhs=lhs, rhs=rhs, residual=residual, passed=residual <= threshold, terms_used=terms
    )


# ---------------------------------------------------------------------------
# the semigroup on the model space


def _multiplier_coeffs(t: float, N: int) -> np.ndarray:
    """Coefficients of exp(t (z+1)/(z-1)) for any real t.

    (z+1)/(z-1) = -1 - 2 sum_{k>=1} z^k, so the series is e^{-t} times the
    exponential of g = -2t sum_{k>=1} z^k, generated by n h_n = sum k g_k h_{n-k}.
    """
    h = np.zeros(N + 1, dtype=np.complex128)
    h[0] = 1.0
    for n in range(1, N + 1):
        acc = 0.0 + 0.0j
        for k in range(1, n + 1):
            acc += k * h[n - k]
        h[n] = -2.0 * t * acc / n
    return math.exp(-t) * h


def semigroup_multiplier(t: float, N: int) -> PowerSeries:
    """Multiplier series e_t = exp(t (z+1)/(z-1)) through degree N (t >= 0)."""
    if t < 0.0:
        raise ValueError(f"semigroup parameter must be nonnegative, got {t}")
    if N < 0:
        raise ValueError("truncation order must be nonnegative")
    return PowerSeries(_multiplier_coeffs(float(t), N))


def verify_semigroup_model(
    model: AnalyticModel,
    t: float,
    x: FiniteSupportVector | None = None,
    N: int = 64,
    tol: ToleranceConfig = DEFAULT_TOL,
    generator_threshold: float = 1e-6,
    fd_step: float = 1e-5,
) -> SemigroupModelReport:
    """Check the multiplier semigroup against its generator and the shift.

    The derivative at t = 0 of multiplication by e_t must be multiplication
    by (z+1)/(z-1); a central finite difference at ``fd_step`` is compared
    coefficient-wise (through degree min(N, 64): the difference's truncation
    error grows like step^2 n^2, which stays below 1e-6 there).  Multiplying
    by e_t must commute with the coordinate shift exactly in floating point.
    """
    if x is None:
        f = np.zeros(N + 1, dtype=np.complex128)
        f[0] = 1.0
    else:
        parts = len(model.shift_parts)
        depth = 0 if not x.entries else x.max_index // parts + 1
        if model.dim_defect != 1:
            raise UnsupportedRegime(
                "series-valued check only supports one-dimensional defect spaces"
            )
        f = coefficients(model, x, max(N, depth)).coeffs[: N + 1, 0]

    # generator check by central difference
    degree = min(N, 64)
    plus = np.convolve(_multiplier_coeffs(fd_step, N), f)[: N + 1]
    minus = np.convolve(_multiplier_coeffs(-fd_step, N), f)[: N + 1]
    derivative = (plus - minus) / (2.0 * fd_step)
    symbol = np.full(N + 1, -2.0 + 0.0j)
    symbol[0] = -1.0
    target = np.convolve(symbol, f)[: N + 1]
    generator_residual = float(np.max(np.abs(derivative[: degree + 1] - target[: degree + 1])))

    # commutation with the coordinate shift, exact through degree N
    et = _multiplier_coeffs(float(t), N)
    zf = np.concatenate(([0.0 + 0.0j], f))
    left = np.convolve(et, zf)[: N + 1]
    right = np.concatenate(([0.0 + 0.0j], np.convolve(et, f)))[: N + 1]
    commutation_residual = float(np.max(np.abs(left - right)))

    constant_residual = abs(et[0] - math.exp(-float(t)))

    passed = (
        generator_residual <= generator_threshold
        and commutation_residual <= tol.residual_tol
        and constant_residual <= 1e-12
    )
    return SemigroupModelReport(
        generator_residual=generator_residual,
        generator_degree=degree,
        commutation_residual=commutation_residual,
        constant_term_residual=constant_residual,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# the splitting into unitary and wandering parts


def wold_decompose(
    V: StructuredOperator,
    steps: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> WoldReport:
    """Split off the largest invariant part on which V acts unitarily.

    The unitary part is the stabilized range of powers; the rest is checked
    against the span of the defect-space iterates.  Shift summands are pure
    by structure and contribute only to the (then infinite) wandering part.
    """
    wandering_infinite = False
    if isinstance(V, Shift):
        return WoldReport(
            dim_unitary=0,
            dim_wandering_dense=0,
            wandering_infinite=True,
            unitary_residual=0.0,
            wandering_span_dim=0,
            wandering_span_ok=True,
            steps_used=0,
        )
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
        arr = to_dense_matrix(DirectSum(tuple(dense_parts))).array
    elif isinstance(V, Dense):
        arr = V.matrix.array
    else:
        raise UnsupportedRegime(f"cannot decompose operator type {type(V).__name__}")

    n = arr.shape[0]
    max_steps = n + 1 if steps is None else max(1, steps)
    power = np.eye(n, dtype=np.complex128)
    previous_rank = n
    steps_used = 0
    for _ in range(max_steps):
        power = arr @ power
        norm = two_norm(power)
        if norm == 0.0:
            previous_rank = 0
            steps_used += 1
            break
        power = power / norm
        current_rank = rank(power, tol)
        steps_used += 1
        if current_rank == previous_rank:
            break
        previous_rank = current_rank

    dim_unitary = previous_rank
    if dim_unitary > 0:
        basis = orthonormal_range_basis(power, tol)
        restricted = basis.conj().T @ arr @ basis
        gram = restricted.conj().T @ restricted - np.eye(dim_unitary)
        unitary_residual = two_norm(gram)
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
