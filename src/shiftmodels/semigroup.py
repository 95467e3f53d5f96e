"""Matrix semigroups e^{tA}, their cogenerators, and concavity equivalences.

The cogenerator is the Cayley transform V = (A + Id)(A - Id)^{-1}, defined
whenever 1 is not in the spectrum of A; the same rational map inverts it,
A = (V + Id)(V - Id)^{-1}.  The equivalence suite cross-checks four
formulations of semigroup concavity that agree exactly in theory:

  (i)   every evolved operator e^{tA} is concave (t on a grid);
  (ii)  t -> ||e^{tA} x||^2 has nonpositive second differences;
  (iii) Re <A^2 y, y> + ||Ay||^2 <= 0 as a Hermitian form;
  (iv)  the cogenerator V is concave.

Grid conditions (i) and (ii) carry discretization error, so they are judged
with a separate slack (10 * residual_tol) while (iii) and (iv) use psd_tol
directly.  The grid t_k = k/10 needs one matrix exponential: with h = 0.05,
e^{t_k A} is the k-th power of e^{2hA} = (e^{hA})^2, the semigroup law that
scaling and squaring itself rests on.  The generator form and the cogenerator
never feed the grid, so the four routes stay independent.

The suite runs over a (k, n, n) stack of generators, and the public
``concavity_equivalence_suite`` is its stack of one.  One ``expm_stack`` call, one
batched doubling, one eigvalsh over the grid's defect forms, one norm-path pass, one
eigvalsh over the generator forms and one batched Cayley transform serve the whole
stack; each member's report holds the bits its own suite would.  Acceptance criterion 2
makes one call per generator family.

The growth bound and its spectral-mapping check run over a stack the same way:
``_growth_consistencies`` takes one eigvals call on the generators, one ``expm_stack``
call on t A for the three consistency times and one eigvals call on the evolved
matrices, and ``growth_bound_consistency`` is its stack of one.  The Cayley transform
``_cayley`` takes a stack too, and ``cogenerator`` and ``inverse_cayley`` are its stacks
of one.  Acceptance criterion 10 runs the growth pass over one stack, and criterion 1
the Cayley transform over one stack per matrix size; batched LAPACK calls treat each
member alone, so every member gets the bits of its own public call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import _defect_range
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NonFinite, OneInSpectrum
from .numkit import (
    ComplexMatrix,
    _finite,
    _quiet,
    _rank_of,
    _time,
    expm_stack,
    hermitian_max_eig,
    singular_values,
)

__all__ = [
    "SemigroupSpec",
    "GrowthBound",
    "EquivalenceSuiteReport",
    "evolve",
    "cogenerator",
    "inverse_cayley",
    "growth_bound",
    "growth_bound_consistency",
    "quasicontractive_rescale",
    "concavity_equivalence_suite",
]

_GRID = tuple(k / 10.0 for k in range(1, 21))
_STEP = 0.05  # half the grid spacing, so t_k - h = t_{k-1} + h
_SAMPLES = 3
_SEED = 7
_CONSISTENCY_TIMES = np.array((0.5, 1.0, 2.0))


@dataclass(frozen=True)
class SemigroupSpec:
    """A semigroup presented by its (matrix) generator."""

    generator: ComplexMatrix


@dataclass(frozen=True)
class GrowthBound:
    """Growth bound omega with the method that produced it."""

    omega: float
    method: str


@dataclass(frozen=True)
class EquivalenceSuiteReport:
    """Outcome of the four-way concavity equivalence check."""

    semigroup_concave: bool
    semigroup_max_defect: float
    norm_path_concave: bool
    norm_path_max_second_difference: float
    generator_form: bool
    generator_margin: float
    cogenerator_concave: bool
    cogenerator_defect: float
    agree: bool
    verdict: bool | None
    t_grid: tuple[float, ...] = field(repr=False, default=_GRID)
    grid_slack: float = 0.0


def evolve(S: SemigroupSpec, t: float) -> np.ndarray:
    """e^{tA} as a read-only array: t not finite or below 0 is refused, and t = 0 gives the
    exact identity (t A is zero)."""
    _time(t)
    with _quiet():  # the core refuses a t A holding infinity or NaN: its 1-norm is not finite
        scaled = t * S.generator.array[None]
    evolved, refusal = expm_stack(scaled)
    if refusal is not None:
        raise refusal
    evolved.flags.writeable = False
    return evolved[0]


def _cayley(stack: np.ndarray, tol: ToleranceConfig, what: str) -> np.ndarray:
    """(A + Id)(A - Id)^{-1} for each A of a (k, n, n) stack, from one batched SVD and one
    batched solve; OneInSpectrum when 1 lies in the spectrum of any member."""
    ident = np.eye(stack.shape[-1], dtype=np.complex128)
    shifted = stack - ident
    if np.count_nonzero(_rank_of(singular_values(shifted), tol) < stack.shape[-1]):
        raise OneInSpectrum(f"1 lies in the spectrum of the {what} at rank_tol={tol.rank_tol:g}")
    plus = stack + ident
    # right division: X (A - Id) = (A + Id) solved through the adjoint system
    adjoint = np.linalg.solve(shifted.conj().mT, plus.conj().mT)
    return _finite(adjoint.conj().mT, f"Cayley transform of the {what}")


def cogenerator(S: SemigroupSpec, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Cayley transform V = (A + Id)(A - Id)^{-1} of the generator."""
    return ComplexMatrix(_cayley(S.generator.array[None], tol, "generator")[0])


def inverse_cayley(V: ComplexMatrix) -> ComplexMatrix:
    """Recover the generator A = (V + Id)(V - Id)^{-1} from a cogenerator."""
    return ComplexMatrix(_cayley(V.array[None], DEFAULT_TOL, "cogenerator")[0])


def growth_bound(S: SemigroupSpec) -> GrowthBound:
    """omega = max Re(spectrum of A); exact for matrix semigroups."""
    omega = float(np.max(np.linalg.eigvals(S.generator.array).real))
    return GrowthBound(omega=omega, method="max real part of generator spectrum")


def _growth_consistencies(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """omega = max Re(spectrum of A) and max over t of |(1/t) log r(e^{tA}) - omega| for each
    A of a (k, n, n) stack, t in _CONSISTENCY_TIMES.

    One eigvals call on the generators, one ``expm_stack`` call on the (3k, n, n) stack of
    t A and one eigvals call on the evolved matrices serve the whole stack.  Refusals are
    raised for the stack: first a radius that underflows to 0 among the exponentials
    before the first one refused, then that exponential's own refusal.
    """
    omegas = np.linalg.eigvals(stack).real.max(axis=-1)
    with _quiet():
        scaled = _CONSISTENCY_TIMES[:, None, None] * stack[:, None]
    evolved, refusal = expm_stack(scaled.reshape(-1, *stack.shape[1:]))
    radii = np.abs(np.linalg.eigvals(evolved)).max(axis=-1)
    if not radii.all():  # e^{tA} is invertible, so only underflow gives r = 0
        first = np.flatnonzero(radii == 0.0)[0]
        t = _CONSISTENCY_TIMES[first % _CONSISTENCY_TIMES.size]
        raise NonFinite(f"spectral radius of e^{{tA}} underflows to 0 at t = {t:g}")
    if refusal is not None:
        raise refusal
    logs = np.log(radii).reshape(-1, _CONSISTENCY_TIMES.size)
    return omegas, np.abs(logs / _CONSISTENCY_TIMES - omegas[:, None]).max(axis=1)


def growth_bound_consistency(S: SemigroupSpec) -> float:
    """Max over t of |(1/t) log r(e^{tA}) - omega|; small by spectral mapping.

    This is the stack of one generator (see ``_growth_consistencies``)."""
    return float(_growth_consistencies(S.generator.array[None])[1][0])


def quasicontractive_rescale(S: SemigroupSpec, lam: float) -> SemigroupSpec:
    """Shift the generator to A - lam Id, rescaling the semigroup by e^{-lam t}."""
    if not math.isfinite(lam):
        raise NonFinite(f"rescaling parameter must be finite, got {lam}")
    shift = lam * np.eye(S.generator.array.shape[0], dtype=np.complex128)
    with _quiet():
        shifted = _finite(S.generator.array - shift, "rescaled generator A - lam Id")
    return SemigroupSpec(ComplexMatrix(shifted))


def _grid_exponentials(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^{t_k A} on the grid t_k = 2k h (k = 1..20) and e^{hA}, h = _STEP, for each A of a
    (m, n, n) stack, from one exponential each: a (m, 20, n, n) grid and a (m, n, n) step.

    Only H = e^{hA} is a matrix exponential, and one ``expm_stack`` call takes all of them.
    By the semigroup law e^{t_k A} = E^k with E = H^2, and E^1..E^20 come from batched
    doubling over the stack: [E] -> [E, E^2] -> [E..E^4] -> [E..E^8] -> [E..E^16], and
    E^17..E^20 as E^1..E^4 times E^16.  A power that overflows is refused as a non-finite
    matrix exponential.
    """
    half, refusal = expm_stack(_STEP * stack)
    if refusal is not None:
        raise refusal
    k = len(_GRID)
    powers = np.empty((half.shape[0], k, *half.shape[1:]), dtype=half.dtype)
    with _quiet():
        np.matmul(half, half, out=powers[:, 0])
        m = 1  # powers[:, :m] holds E^1..E^m
        while m < k:  # [E..E^j] E^m = [E^{m+1}..E^{m+j}]
            j = min(m, k - m)
            np.matmul(powers[:, :j], powers[:, m - 1 : m], out=powers[:, m : m + j])
            m += j
    return _finite(powers, "matrix exponential"), half


def _concavity_suites(stack: np.ndarray, tol: ToleranceConfig) -> list[EquivalenceSuiteReport]:
    """The four-way concavity check of the semigroup of each generator of a (k, n, n) stack.

    Each leg runs once over the whole stack.  Batched products, eigenvalues, SVDs and solves
    treat each member alone, so each report holds the bits that member's own suite would.  A
    refusal is raised for the stack, in the order of the legs, so a stack of one refuses
    exactly as ``concavity_equivalence_suite`` does.
    """
    slack = 10.0 * tol.residual_tol
    n = stack.shape[-1]

    # (i) concavity of each evolved operator on the grid
    evolved, half = _grid_exponentials(stack)
    max_defects = _defect_range(evolved)[1].max(axis=1)

    # (ii) second differences of t -> ||e^{tA} x||^2 at t_k - h, t_k, t_k + h: with
    # y = e^{hA} x the outer points are e^{t_{k-1} A} y and e^{t_k A} y (e^{0A} = Id)
    rng = np.random.default_rng(_SEED)
    xs = rng.standard_normal((_SAMPLES, n)) + 1j * rng.standard_normal((_SAMPLES, n))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    with _quiet():
        ys = (half @ xs.T)[:, None]
        mid = np.linalg.norm(evolved @ xs.T, axis=-2) ** 2
        outer = np.linalg.norm(np.concatenate((ys, evolved @ ys), axis=1), axis=-2) ** 2
        second = outer[:, 1:] - 2.0 * mid + outer[:, :-1]
        _finite(second, "norm path ||e^{tA} x||^2 on the grid")
    max_seconds = second.max(axis=(1, 2))

    # (iii) the generator-side Hermitian form sym(A^2) + A*A: Re <A^2 y, y> + ||Ay||^2 <= 0
    # for all y exactly when its largest eigenvalue is nonpositive (at psd_tol)
    with _quiet():
        sq = stack @ stack
        form = _finite((sq + sq.conj().mT) / 2.0 + stack.conj().mT @ stack, "generator form")
    margins = hermitian_max_eig(form)

    # (iv) concavity of the cogenerator
    cog_defects = _defect_range(_cayley(stack, tol, "generator"))[1]

    reports = []
    for max_defect, max_second, margin, cog_defect in zip(
        max_defects.tolist(), max_seconds.tolist(), margins.tolist(), cog_defects.tolist()
    ):
        cog_concave = cog_defect <= tol.psd_tol
        gen = margin <= tol.psd_tol
        values = (max_defect <= slack, max_second <= slack, gen, cog_concave)
        agree = len(set(values)) == 1
        reports.append(
            EquivalenceSuiteReport(
                semigroup_concave=values[0],
                semigroup_max_defect=max_defect,
                norm_path_concave=values[1],
                norm_path_max_second_difference=max_second,
                generator_form=gen,
                generator_margin=margin,
                cogenerator_concave=cog_concave,
                cogenerator_defect=cog_defect,
                agree=agree,
                verdict=values[0] if agree else None,
                t_grid=_GRID,
                grid_slack=slack,
            )
        )
    return reports


def concavity_equivalence_suite(
    S: SemigroupSpec, tol: ToleranceConfig = DEFAULT_TOL
) -> EquivalenceSuiteReport:
    """Evaluate the four equivalent concavity conditions and compare verdicts.

    This is the stack of one generator (see ``_concavity_suites``).  The grid of (i) and
    (ii) is built as powers of e^{2hA} from the one exponential e^{hA} (see
    ``_grid_exponentials``); its refusals are those of that exponential, and a power that
    overflows is a non-finite matrix exponential.
    """
    return _concavity_suites(S.generator.array[None], tol)[0]
