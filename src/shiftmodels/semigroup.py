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
with a separate slack (default 10 * residual_tol) while (iii) and (iv) use
psd_tol directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import _defect_range, generator_concavity_criterion
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import OneInSpectrum
from .numkit import ComplexMatrix, eigenvalues, expm, rank, spectral_radius

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

_DEFAULT_GRID = tuple(k / 10.0 for k in range(1, 21))


@dataclass(frozen=True)
class SemigroupSpec:
    """A semigroup presented by its (matrix) generator."""

    generator: ComplexMatrix
    label: str | None = None


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
    t_grid: tuple[float, ...] = field(repr=False, default=_DEFAULT_GRID)
    grid_slack: float = 0.0


def evolve(S: SemigroupSpec, t: float) -> ComplexMatrix:
    """e^{tA}; t = 0 returns the exact identity."""
    if t < 0.0:
        raise ValueError(f"semigroup parameter must be nonnegative, got {t}")
    if t == 0.0:
        return ComplexMatrix.identity(S.generator.n)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = t * S.generator.array  # overflow is refused by expm as NonFinite
    return expm(scaled)


def _cayley(arr: np.ndarray, tol: ToleranceConfig, what: str) -> np.ndarray:
    n = arr.shape[0]
    shifted = arr - np.eye(n, dtype=np.complex128)
    if rank(shifted, tol) < n:
        raise OneInSpectrum(f"1 lies in the spectrum of the {what} at rank_tol={tol.rank_tol:g}")
    plus = arr + np.eye(n, dtype=np.complex128)
    # right division: X (A - Id) = (A + Id) solved through the adjoint system
    return np.linalg.solve(shifted.conj().T, plus.conj().T).conj().T


def cogenerator(S: SemigroupSpec, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Cayley transform V = (A + Id)(A - Id)^{-1} of the generator."""
    return ComplexMatrix(_cayley(S.generator.array, tol, "generator"))


def inverse_cayley(V: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> ComplexMatrix:
    """Recover the generator A = (V + Id)(V - Id)^{-1} from a cogenerator."""
    return ComplexMatrix(_cayley(V.array, tol, "cogenerator"))


def growth_bound(S: SemigroupSpec) -> GrowthBound:
    """omega = max Re(spectrum of A); exact for matrix semigroups."""
    omega = float(np.max(eigenvalues(S.generator).real))
    return GrowthBound(omega=omega, method="max real part of generator spectrum")

def growth_bound_consistency(
    S: SemigroupSpec, t_values: tuple[float, ...] = (0.5, 1.0, 2.0)
) -> float:
    """Max over t of |(1/t) log r(e^{tA}) - omega|; small by spectral mapping."""
    omega = growth_bound(S).omega
    worst = 0.0
    for t in t_values:
        radius = spectral_radius(evolve(S, t))
        worst = max(worst, abs(np.log(radius) / t - omega))
    return worst


def quasicontractive_rescale(S: SemigroupSpec, lam: float) -> SemigroupSpec:
    """Shift the generator to A - lam Id, rescaling the semigroup by e^{-lam t}."""
    n = S.generator.n
    shifted = S.generator.array - lam * np.eye(n, dtype=np.complex128)
    label = f"{S.label} - {lam:g} Id" if S.label else None
    return SemigroupSpec(ComplexMatrix(shifted), label)


def concavity_equivalence_suite(
    S: SemigroupSpec,
    samples: int = 3,
    tol: ToleranceConfig = DEFAULT_TOL,
    t_grid: tuple[float, ...] = _DEFAULT_GRID,
    h: float = 0.05,
    grid_slack: float | None = None,
    seed: int = 7,
) -> EquivalenceSuiteReport:
    """Evaluate the four equivalent concavity conditions and compare verdicts."""
    slack = 10.0 * tol.residual_tol if grid_slack is None else grid_slack
    A = S.generator
    n = A.n

    # (i) concavity of each evolved operator on the grid
    evolved = {}

    def _evolved(t: float) -> np.ndarray:
        if t not in evolved:
            evolved[t] = evolve(S, t).array
        return evolved[t]

    _, max_defect = _defect_range(np.stack([_evolved(t) for t in t_grid]))
    semigroup_concave = max_defect <= slack

    # (ii) second differences of t -> ||e^{tA} x||^2 on the grid
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    max_second = float("-inf")
    for t in t_grid:
        left, mid, right = _evolved(t - h), _evolved(t), _evolved(t + h)
        for x in xs:
            phi_left = float(np.linalg.norm(left @ x) ** 2)
            phi_mid = float(np.linalg.norm(mid @ x) ** 2)
            phi_right = float(np.linalg.norm(right @ x) ** 2)
            max_second = max(max_second, phi_right - 2.0 * phi_mid + phi_left)
    norm_path_concave = max_second <= slack

    # (iii) the generator-side Hermitian form
    gen = generator_concavity_criterion(A, tol)

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
        t_grid=tuple(t_grid),
        grid_slack=slack,
    )
