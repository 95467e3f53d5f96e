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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import _defect_range, generator_concavity_criterion
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NonFinite, OneInSpectrum
from .numkit import ComplexMatrix, _finite, _quiet, eigenvalues, expm_stack, rank

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
_CONSISTENCY_TIMES = (0.5, 1.0, 2.0)


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


def _evolve_stack(S: SemigroupSpec, times) -> tuple[np.ndarray, NonFinite | None]:
    """e^{tA} for each t of ``times`` up to the first one refused, and its refusal: t not
    finite or below 0 is refused outright, and t = 0 gives the exact identity (t A is zero)."""
    for t in times:
        if not math.isfinite(t):
            raise NonFinite(f"semigroup parameter must be finite, got {t}")
        if t < 0.0:
            raise ValueError(f"semigroup parameter must be nonnegative, got {t}")
    with _quiet():  # the core refuses a t A holding infinity or NaN: its 1-norm is not finite
        scaled = np.asarray(times, dtype=np.float64)[:, None, None] * S.generator.array
    return expm_stack(scaled)


def evolve(S: SemigroupSpec, t: float) -> np.ndarray:
    """e^{tA} as a read-only array; t = 0 returns the exact identity."""
    evolved, refusal = _evolve_stack(S, (t,))
    if refusal is not None:
        raise refusal
    evolved.flags.writeable = False
    return evolved[0]


def _cayley(arr: np.ndarray, tol: ToleranceConfig, what: str) -> ComplexMatrix:
    n = arr.shape[0]
    shifted = arr - np.eye(n, dtype=np.complex128)
    if rank(shifted, tol) < n:
        raise OneInSpectrum(f"1 lies in the spectrum of the {what} at rank_tol={tol.rank_tol:g}")
    plus = arr + np.eye(n, dtype=np.complex128)
    # right division: X (A - Id) = (A + Id) solved through the adjoint system
    X = np.linalg.solve(shifted.conj().T, plus.conj().T).conj().T
    return ComplexMatrix(_finite(X, f"Cayley transform of the {what}"))


def cogenerator(S: SemigroupSpec, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Cayley transform V = (A + Id)(A - Id)^{-1} of the generator."""
    return _cayley(S.generator.array, tol, "generator")


def inverse_cayley(V: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Recover the generator A = (V + Id)(V - Id)^{-1} from a cogenerator."""
    return _cayley(V.array, tol, "cogenerator")


def growth_bound(S: SemigroupSpec) -> GrowthBound:
    """omega = max Re(spectrum of A); exact for matrix semigroups."""
    omega = float(np.max(eigenvalues(S.generator.array).real))
    return GrowthBound(omega=omega, method="max real part of generator spectrum")


def growth_bound_consistency(S: SemigroupSpec) -> float:
    """Max over t of |(1/t) log r(e^{tA}) - omega|; small by spectral mapping."""
    omega = growth_bound(S).omega
    evolved, refusal = _evolve_stack(S, _CONSISTENCY_TIMES)
    radii = np.abs(np.linalg.eigvals(evolved)).max(axis=1).tolist()
    worst = 0.0
    for t, radius in zip(_CONSISTENCY_TIMES, radii):  # the times before the first one refused
        if radius == 0.0:  # e^{tA} is invertible, so only underflow gives r = 0
            raise NonFinite(f"spectral radius of e^{{tA}} underflows to 0 at t = {t:g}")
        worst = max(worst, abs(np.log(radius) / t - omega))
    if refusal is not None:
        raise refusal
    return worst


def quasicontractive_rescale(S: SemigroupSpec, lam: float) -> SemigroupSpec:
    """Shift the generator to A - lam Id, rescaling the semigroup by e^{-lam t}."""
    if not math.isfinite(lam):
        raise NonFinite(f"rescaling parameter must be finite, got {lam}")
    shift = lam * np.eye(S.generator.array.shape[0], dtype=np.complex128)
    with _quiet():
        shifted = _finite(S.generator.array - shift, "rescaled generator A - lam Id")
    return SemigroupSpec(ComplexMatrix(shifted))


def _grid_exponentials(S: SemigroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """e^{t_k A} on the grid t_k = 2k h (k = 1..20) and e^{hA}, h = _STEP, from one exponential.

    Only H = e^{hA} is a matrix exponential; by the semigroup law e^{t_k A} = E^k with
    E = H^2, and E^1..E^20 come from batched doubling: [E] -> [E, E^2] -> [E..E^4] ->
    [E..E^8] -> [E..E^16], and E^17..E^20 as E^1..E^4 times E^16.  A power that overflows
    is refused as a non-finite matrix exponential.
    """
    exponentials, refusal = _evolve_stack(S, (_STEP,))
    if refusal is not None:
        raise refusal
    half = exponentials[0]
    k = len(_GRID)
    powers = np.empty((k, *half.shape), dtype=half.dtype)
    with _quiet():
        np.matmul(half, half, out=powers[0])
        m = 1  # powers[:m] holds E^1..E^m
        while m < k:  # [E..E^j] E^m = [E^{m+1}..E^{m+j}]
            j = min(m, k - m)
            np.matmul(powers[:j], powers[m - 1], out=powers[m : m + j])
            m += j
    return _finite(powers, "matrix exponential"), half


def concavity_equivalence_suite(
    S: SemigroupSpec, tol: ToleranceConfig = DEFAULT_TOL
) -> EquivalenceSuiteReport:
    """Evaluate the four equivalent concavity conditions and compare verdicts.

    The grid of (i) and (ii) is built as powers of e^{2hA} from the one exponential
    e^{hA} (see ``_grid_exponentials``); its refusals are those of that exponential,
    and a power that overflows is a non-finite matrix exponential.
    """
    slack = 10.0 * tol.residual_tol
    n = S.generator.array.shape[0]

    # (i) concavity of each evolved operator on the grid
    evolved, half = _grid_exponentials(S)
    _, max_defect = _defect_range(evolved)
    semigroup_concave = max_defect <= slack

    # (ii) second differences of t -> ||e^{tA} x||^2 at t_k - h, t_k, t_k + h: with
    # y = e^{hA} x the outer points are e^{t_{k-1} A} y and e^{t_k A} y (e^{0A} = Id)
    rng = np.random.default_rng(_SEED)
    xs = rng.standard_normal((_SAMPLES, n)) + 1j * rng.standard_normal((_SAMPLES, n))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    with _quiet():
        ys = half @ xs.T
        mid = np.linalg.norm(evolved @ xs.T, axis=1) ** 2
        outer = np.linalg.norm(np.concatenate((ys[None], evolved @ ys)), axis=1) ** 2
        second = _finite(outer[1:] - 2.0 * mid + outer[:-1], "norm path ||e^{tA} x||^2 on the grid")
    max_second = float(second.max())
    norm_path_concave = max_second <= slack

    # (iii) the generator-side Hermitian form
    gen = generator_concavity_criterion(S.generator, tol)

    # (iv) concavity of the cogenerator
    _, cog_defect = _defect_range(cogenerator(S, tol).array)
    cog_concave = cog_defect <= tol.psd_tol

    values = (
        semigroup_concave,
        norm_path_concave,
        gen.satisfied,
        cog_concave,
    )
    agree = len(set(values)) == 1
    return EquivalenceSuiteReport(
        semigroup_concave=semigroup_concave,
        semigroup_max_defect=max_defect,
        norm_path_concave=norm_path_concave,
        norm_path_max_second_difference=max_second,
        generator_form=gen.satisfied,
        generator_margin=gen.margin,
        cogenerator_concave=cog_concave,
        cogenerator_defect=cog_defect,
        agree=agree,
        verdict=values[0] if agree else None,
        t_grid=_GRID,
        grid_slack=slack,
    )
