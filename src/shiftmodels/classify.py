"""Classification of structured operators.

The central Hermitian form is the defect  T*T*TT - 2 T*T + Id  (written on
vectors: ||T^2 x||^2 - 2 ||Tx||^2 + ||x||^2).  An operator is concave when
the form is negative semidefinite, a 2-contraction when it is positive
semidefinite, and a 2-isometry when it vanishes; the 2-isometries are exactly
the concave 2-contractions, and the report keeps those flags consistent by
deriving all three from the same spectral data.

Shift weights give closed forms: the defect acts diagonally with scalar
d_k = w_k^2 w_{k+1}^2 - 2 w_k^2 + 1, so semidefiniteness reduces to the range
of d_k, finitely checkable for eventually constant weights and exact for the
named laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NotConcave, UnsupportedRegime
from .numkit import (
    ComplexMatrix,
    _finite,
    _quiet,
    _rank_of,
    hermitian_max_eig,
    null_space_basis,
    rank,
    singular_values,
    two_norm,
)
from .operators import (
    Dense,
    DirectSum,
    FiniteSupportVector,
    Shift,
    StructuredOperator,
)

__all__ = [
    "ClassificationReport",
    "GeneratorConcavity",
    "classify_operator",
    "generator_concavity_criterion",
    "concave_power_growth_check",
]


@dataclass(frozen=True)
class ClassificationReport:
    """Verdicts with the margins that produced them.

    concavity_defect    largest eigenvalue of the defect form (<= tol: concave)
    contraction_margin  smallest eigenvalue of the defect form (>= -tol: 2-contraction)
    isometry_defect     spectral bound of the defect form (<= tol: 2-isometry)
    lower_bound         greatest C with ||Tx|| >= C ||x|| (numerically: sigma_min)
    """

    regime: str
    bounded_below: bool
    lower_bound: float
    concave: bool
    concavity_defect: float
    two_contraction: bool
    contraction_margin: float
    two_isometry: bool
    isometry_defect: float
    pure: bool
    pure_method: str
    wandering: bool
    wandering_method: str


@dataclass(frozen=True)
class GeneratorConcavity:
    """Result of the generator-side concavity criterion."""

    satisfied: bool
    margin: float


def _report_from_defect_range(
    regime: str,
    d_inf: float,
    d_sup: float,
    bounded_below: bool,
    lower_bound: float,
    pure: bool,
    pure_method: str,
    wandering: bool,
    wandering_method: str,
    tol: ToleranceConfig,
) -> ClassificationReport:
    concave = d_sup <= tol.psd_tol
    two_contraction = d_inf >= -tol.psd_tol
    isometry_defect = max(abs(d_inf), abs(d_sup))
    return ClassificationReport(
        regime=regime,
        bounded_below=bounded_below,
        lower_bound=lower_bound,
        concave=concave,
        concavity_defect=d_sup,
        two_contraction=two_contraction,
        contraction_margin=d_inf,
        two_isometry=concave and two_contraction,
        isometry_defect=isometry_defect,
        pure=pure,
        pure_method=pure_method,
        wandering=wandering,
        wandering_method=wandering_method,
    )


def _defect_range(stack: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of T*T*TT - 2 T*T + Id over a stack of T.

    ``stack`` has shape (..., n, n); one eigvalsh call covers every matrix.
    """
    n = stack.shape[-1]
    with _quiet():
        adj = stack.conj().swapaxes(-1, -2)
        sq = stack @ stack
        defect = sq.conj().swapaxes(-1, -2) @ sq - 2.0 * (adj @ stack) + np.eye(n)
        herm = _finite((defect + defect.conj().swapaxes(-1, -2)) / 2.0, "defect form")
    eigs = np.linalg.eigvalsh(herm)
    return float(eigs[..., 0].min()), float(eigs[..., -1].max())


def _defect_bounds(T: StructuredOperator) -> tuple[float, float]:
    """(inf, sup) of the defect form: eigenvalues for a matrix, the weight law for a shift."""
    if isinstance(T, Dense):
        return _defect_range(T.matrix.array)
    if isinstance(T, Shift):
        return T.weights.defect_range()
    if isinstance(T, DirectSum):
        bounds = [_defect_bounds(p) for p in T.parts]
        return min(b[0] for b in bounds), max(b[1] for b in bounds)
    raise UnsupportedRegime(f"cannot classify operator of type {type(T).__name__}")


def _wandering_span_dim(arr: np.ndarray, tol: ToleranceConfig) -> int:
    """Dimension spanned by the defect space ker T* and its first n - 1 iterates."""
    current = null_space_basis(arr.conj().T, tol)
    if current.shape[1] == 0:
        return 0
    blocks = [current]
    for _ in range(arr.shape[0] - 1):
        with _quiet():
            current = arr @ current
            col_norms = _finite(np.linalg.norm(current, axis=0), "norms of the defect iterates")
        col_norms[col_norms == 0.0] = 1.0
        current = current / col_norms
        blocks.append(current)
    return rank(np.hstack(blocks), tol)


def _classify_dense(T: Dense, tol: ToleranceConfig) -> ClassificationReport:
    arr = T.matrix.array
    n = arr.shape[0]
    d_inf, d_sup = _defect_bounds(T)
    s = singular_values(arr)

    # purity = nilpotency: the normalized n-th power must vanish
    if s[0] == 0.0:
        pure_residual = 0.0
    else:
        pure_residual = two_norm(np.linalg.matrix_power(arr / s[0], n))
    pure_method = f"nilpotency residual of normalized {n}-th power = {pure_residual:.3e}"

    # wandering subspace: iterates of the defect space must fill the ambient
    span_dim = _wandering_span_dim(arr, tol)
    wandering_method = f"defect iterates span {span_dim} of {n} dimensions"

    return _report_from_defect_range(
        "dense",
        d_inf,
        d_sup,
        _rank_of(s, tol) == n,
        float(s[-1]),
        pure_residual <= tol.rank_tol,
        pure_method,
        span_dim == n,
        wandering_method,
        tol,
    )


def _classify_shift(T: Shift, tol: ToleranceConfig) -> ClassificationReport:
    d_inf, d_sup = _defect_bounds(T)
    return _report_from_defect_range(
        "shift",
        d_inf,
        d_sup,
        True,
        T.weights.inf(),
        True,
        "shift structure: intersection of ranges of powers is trivial",
        True,
        "shift structure: defect iterates span by construction",
        tol,
    )


def classify_operator(
    T: StructuredOperator, tol: ToleranceConfig = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a structured operator; direct sums combine their parts."""
    if isinstance(T, Dense):
        return _classify_dense(T, tol)
    if isinstance(T, Shift):
        return _classify_shift(T, tol)
    if isinstance(T, DirectSum):
        reports = [classify_operator(p, tol) for p in T.parts]
        d_sup = max(r.concavity_defect for r in reports)
        d_inf = min(r.contraction_margin for r in reports)
        return _report_from_defect_range(
            "direct_sum",
            d_inf,
            d_sup,
            all(r.bounded_below for r in reports),
            min(r.lower_bound for r in reports),
            all(r.pure for r in reports),
            "all parts pure" if all(r.pure for r in reports) else "some part is not pure",
            all(r.wandering for r in reports),
            "all parts wandering" if all(r.wandering for r in reports) else "some part is not wandering",
            tol,
        )
    raise UnsupportedRegime(f"cannot classify operator of type {type(T).__name__}")


def generator_concavity_criterion(
    A: ComplexMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> GeneratorConcavity:
    """Generator-side test: Re<A^2 y, y> + ||Ay||^2 <= 0 for all y.

    The quadratic form is the Hermitian matrix sym(A^2) + A*A; the criterion
    holds exactly when its largest eigenvalue is nonpositive (at psd_tol).
    """
    arr = A.array
    with _quiet():
        sq = arr @ arr
        form = _finite((sq + sq.conj().T) / 2.0 + arr.conj().T @ arr, "generator form")
    margin = hermitian_max_eig(form)
    return GeneratorConcavity(satisfied=margin <= tol.psd_tol, margin=margin)


def concave_power_growth_check(
    T: StructuredOperator,
    x: FiniteSupportVector,
    N: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Linear growth bound ||T^n x||^2 <= ||x||^2 + n (||Tx||^2 - ||x||^2).

    Requires a concave operator (concavity makes n -> ||T^n x||^2 concave, so
    its increments are dominated by the first one); checked for n = 1 .. N
    with residual_tol slack.
    """
    _, d_sup = _defect_bounds(T)
    if d_sup > tol.psd_tol:
        raise NotConcave(f"power growth bound needs a concave operator (defect {d_sup:.3e})")
    base = x.norm() ** 2
    current = T.apply(x)
    first = current.norm() ** 2
    slope = first - base
    for n in range(1, N + 1):
        if n > 1:
            current = T.apply(current)
        value = current.norm() ** 2
        if value > base + n * slope + tol.residual_tol:
            return False
    return True
