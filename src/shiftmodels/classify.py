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

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NotConcave, UnsupportedRegime
from .numkit import _finite, _quiet, _svd, rank
from .operators import (
    Dense,
    DirectSum,
    FiniteSupportVector,
    Shift,
    StructuredOperator,
    _vector,
)

__all__ = [
    "ClassificationReport",
    "classify_operator",
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


def _defect_range(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of T*T*TT - 2 T*T + Id for each T of a stack.

    ``stack`` has shape (..., n, n), and both results its leading shape (...); one eigvalsh
    call covers every matrix.  The form is built in place on fresh products, which keeps a
    large stack's working set small and gives the bits of the out-of-place expression.
    """
    n = stack.shape[-1]
    with _quiet():
        sq = stack @ stack
        defect = sq.conj().mT @ sq
        del sq
        gram = stack.conj().mT @ stack
        gram *= 2.0
        defect -= gram
        del gram
        defect += np.eye(n)
        herm = defect.conj().mT
        herm += defect
        del defect
        herm /= 2.0
        _finite(herm, "defect form")
    eigs = np.linalg.eigvalsh(herm)
    return eigs[..., 0], eigs[..., -1]


def _defect_bounds(T: StructuredOperator) -> tuple[float, float]:
    """(inf, sup) of the defect form: eigenvalues for a matrix, the weight law for a shift."""
    if isinstance(T, Dense):
        low, high = _defect_range(T.matrix.array)
        return float(low), float(high)
    if isinstance(T, Shift):
        return T.weights.defect_range()
    if isinstance(T, DirectSum):
        bounds = [_defect_bounds(p) for p in T.parts]
        return min(b[0] for b in bounds), max(b[1] for b in bounds)
    raise UnsupportedRegime(f"cannot classify operator of type {type(T).__name__}")


def _core(arr: np.ndarray, tol: ToleranceConfig) -> tuple[float, np.ndarray, np.ndarray, int]:
    """sigma_min of T, and orthonormal bases of ker T* and of the core, from one SVD of T.

    The core is the range of T^k once it stops shrinking: the unitary part of the Wold
    split, trivial exactly when T is pure.  Step k maps the range basis of T^(k-1) by T and
    keeps the left singular vectors above the one absolute cutoff rank_tol ||T||_2; the
    count k of steps is returned last.
    """
    u, s, _ = _svd(arr, compute_uv=True)
    cutoff = tol.rank_tol * s[0]
    r = np.count_nonzero(s > cutoff)
    core, previous, steps = u[:, :r], arr.shape[0], 1
    while 0 < core.shape[1] < previous:
        previous = core.shape[1]
        image, image_s, _ = _svd(arr @ core, compute_uv=True)
        core = image[:, : np.count_nonzero(image_s > cutoff)]
        steps += 1
    return float(s[-1]), u[:, r:], core, steps


def _wandering_span_dim(arr: np.ndarray, defect: np.ndarray, tol: ToleranceConfig) -> int:
    """Dimension spanned by ``defect``, a basis of ker T*, and its first n - 1 iterates."""
    if defect.shape[1] == 0:
        return 0
    current = defect
    blocks = [defect]
    for _ in range(arr.shape[0] - 1):
        with _quiet():
            current = arr @ current
            col_norms = _finite(np.linalg.norm(current, axis=0), "norms of the defect iterates")
        col_norms[col_norms == 0.0] = 1.0
        current = current / col_norms
        blocks.append(current)
    return rank(np.hstack(blocks), tol)


def _structure(T: StructuredOperator, tol: ToleranceConfig) -> dict:
    """Regime, lower bound, purity and wandering of T, each verdict with its method text."""
    if isinstance(T, Dense):
        arr = T.matrix.array
        n = arr.shape[0]
        lower_bound, defect, core, steps = _core(arr, tol)
        span_dim = _wandering_span_dim(arr, defect, tol)
        return dict(
            regime="dense",
            bounded_below=defect.shape[1] == 0,  # T is square: onto exactly when injective
            lower_bound=lower_bound,
            pure=core.shape[1] == 0,
            pure_method=f"range of T^k stops shrinking at dimension {core.shape[1]} by k = {steps}",
            wandering=span_dim == n,
            wandering_method=f"defect iterates span {span_dim} of {n} dimensions",
        )
    if isinstance(T, Shift):
        return dict(
            regime="shift",
            bounded_below=True,
            lower_bound=T.weights.inf(),
            pure=True,
            pure_method="shift structure: intersection of ranges of powers is trivial",
            wandering=True,
            wandering_method="shift structure: defect iterates span by construction",
        )
    # a direct sum: _defect_bounds, which runs first, has refused every other type
    parts = [_structure(p, tol) for p in T.parts]
    pure = all(p["pure"] for p in parts)
    wandering = all(p["wandering"] for p in parts)
    return dict(
        regime="direct_sum",
        bounded_below=all(p["bounded_below"] for p in parts),
        lower_bound=min(p["lower_bound"] for p in parts),
        pure=pure,
        pure_method="all parts pure" if pure else "some part is not pure",
        wandering=wandering,
        wandering_method="all parts wandering" if wandering else "some part is not wandering",
    )


def classify_operator(
    T: StructuredOperator, tol: ToleranceConfig = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a structured operator; direct sums combine their parts.

    The three verdicts come from the range of the defect form; a 2-isometry is
    exactly a concave 2-contraction.
    """
    d_inf, d_sup = _defect_bounds(T)
    concave = d_sup <= tol.psd_tol
    two_contraction = d_inf >= -tol.psd_tol
    return ClassificationReport(
        concave=concave,
        concavity_defect=d_sup,
        two_contraction=two_contraction,
        contraction_margin=d_inf,
        two_isometry=concave and two_contraction,
        isometry_defect=max(abs(d_inf), abs(d_sup)),
        **_structure(T, tol),
    )


def concave_power_growth_check(
    T: StructuredOperator,
    x: FiniteSupportVector,
    N: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Linear growth bound ||T^n x||^2 <= ||x||^2 + n (||Tx||^2 - ||x||^2).

    Requires a concave operator (concavity makes n -> ||T^n x||^2 concave, so
    its increments are dominated by the first one); checked for n = 1 .. N
    on the ratios r_n = ||T^n x||^2 / ||x||^2, r_n <= 1 + n (r_1 - 1), with
    residual_tol slack (so relative to ||x||^2).  The ratios do not depend on the scale
    of x, and T is linear, so x is first scaled by an exact power of two until its largest
    part is in [1/2, 1): the verdict for c x is that for x at any c != 0, subnormal
    amplitudes and norms past the float range included; the zero vector meets the bound.
    """
    _, d_sup = _defect_bounds(T)
    if d_sup > tol.psd_tol:
        raise NotConcave(f"power growth bound needs a concave operator (defect {d_sup:.3e})")
    parts = x.values.view(np.float64)
    top = float(np.abs(parts).max(initial=0.0))
    if top == 0.0:
        return True
    parts = np.ldexp(parts, -math.frexp(top)[1])  # exact, but where a part underflows
    x = _vector(x.indices, parts.view(np.complex128), x.ambient)
    size = x.norm()
    current = T.apply(x)
    ratio = current.norm() / size
    slope = ratio * ratio - 1.0  # a product past the float range is inf, where ** raises
    for n in range(1, N + 1):
        if n > 1:
            current = T.apply(current)
            ratio = current.norm() / size
        if ratio * ratio > 1.0 + n * slope + tol.residual_tol:
            return False
    return True
