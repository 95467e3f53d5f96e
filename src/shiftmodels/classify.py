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

Dense matrices are classified as (k, n, n) stacks: one eigvalsh for the defect
forms, and for the range iteration and the defect iterates one batched SVD per
step over the members whose operands share a shape there.  Batched LAPACK calls
treat each member alone, so a member's report is that of a stack of one, which
is what ``classify_operator`` makes of a dense operator or part.  The power
growth check takes the orbit T x, ..., T^N x in one pass and judges it in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NonFinite, NotConcave, UnsupportedRegime
from .numkit import _finite, _quiet, _rank_of, _svd, singular_values
from .operators import (
    Dense,
    DirectSum,
    FiniteSupportVector,
    Shift,
    StructuredOperator,
    _support,
    _vector,
    to_dense_matrix,
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


def _core(
    stack: np.ndarray, tol: ToleranceConfig
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray], list[int]]:
    """sigma_min of each T of a (k, n, n) stack, and orthonormal bases of ker T* and of the
    core of each, from one batched SVD of the stack.

    The core is the range of T^k once it stops shrinking: the unitary part of the Wold
    split, trivial exactly when T is pure.  Step k maps the range basis of T^(k-1) by T and
    keeps the left singular vectors above the one absolute cutoff rank_tol ||T||_2; the
    counts k of steps are returned last.  A step takes one batched SVD per range dimension
    among the members still shrinking, each basis a column slice of its member's left
    singular vectors as on its own, so each member gets the bits of a stack of one.
    """
    n = stack.shape[-1]
    u, s, _ = _svd(stack, compute_uv=True)
    cutoffs = tol.rank_tol * s[:, :1]
    ranks = _rank_of(s, tol).tolist()
    defects = [basis[:, r:] for basis, r in zip(u, ranks)]
    cores = [basis[:, :r] for basis, r in zip(u, ranks)]
    steps = [1] * len(stack)
    # range dimension -> the members still shrinking at it, and their left singular vectors
    live = {r: (members, u[members]) for r, members in _positions(ranks, n).items()}
    while live:
        shrinking: dict[int, list[tuple[list[int], np.ndarray]]] = {}
        for width, (members, bases) in live.items():
            image, image_s, _ = _svd(stack[members] @ bases[..., :width], compute_uv=True)
            counts = (image_s > cutoffs[members]).sum(axis=-1).tolist()
            for i, basis, r in zip(members, image, counts):
                cores[i] = basis[:, :r]
                steps[i] += 1
            for r, at in _positions(counts, width).items():
                shrinking.setdefault(r, []).append(([members[j] for j in at], image[at]))
        live = {
            r: ([i for members, _ in parts for i in members], np.concatenate([b for _, b in parts]))
            for r, parts in shrinking.items()
        }
    return s[:, -1], defects, cores, steps


def _positions(values: list[int], bound: int) -> dict[int, list[int]]:
    """The positions of each value v of ``values`` with 0 < v < bound, by value."""
    out: dict[int, list[int]] = {}
    for j, v in enumerate(values):
        if 0 < v < bound:
            out.setdefault(v, []).append(j)
    return out


def _wandering_span_dim(
    stack: np.ndarray, defects: list[np.ndarray], tol: ToleranceConfig
) -> list[int]:
    """Dimension spanned by each basis of ker T* in ``defects`` and its first n - 1 iterates
    under its T of the (k, n, n) stack: one pass per kernel dimension."""
    n = stack.shape[-1]
    dims = [0] * len(stack)
    for members in _positions([d.shape[1] for d in defects], n + 1).values():
        arr = stack[members]
        current = np.stack([defects[i] for i in members])
        blocks, norms = [current], []
        with _quiet():
            for _ in range(n - 1):
                current = arr @ current
                col_norms = np.linalg.norm(current, axis=-2, keepdims=True)
                col_norms[col_norms == 0.0] = 1.0
                norms.append(col_norms)
                current = current / col_norms
                blocks.append(current)
        if norms:
            _finite(np.concatenate(norms), "norms of the defect iterates")
        ranks = _rank_of(singular_values(np.concatenate(blocks, axis=-1)), tol)
        for i, r in zip(members, ranks.tolist()):
            dims[i] = r
    return dims


def _dense_structures(stack: np.ndarray, tol: ToleranceConfig) -> list[dict]:
    """``_structure`` of each T of a (k, n, n) stack, from the batched core and span."""
    n = stack.shape[-1]
    lower_bounds, defects, cores, steps = _core(stack, tol)
    spans = _wandering_span_dim(stack, defects, tol)
    return [
        dict(
            regime="dense",
            bounded_below=defect.shape[1] == 0,  # T is square: onto exactly when injective
            lower_bound=lower_bound,
            pure=core.shape[1] == 0,
            pure_method=f"range of T^k stops shrinking at dimension {core.shape[1]} by k = {k}",
            wandering=span_dim == n,
            wandering_method=f"defect iterates span {span_dim} of {n} dimensions",
        )
        for lower_bound, defect, core, k, span_dim in zip(
            lower_bounds.tolist(), defects, cores, steps, spans
        )
    ]


def _structure(T: StructuredOperator, tol: ToleranceConfig) -> dict:
    """Regime, lower bound, purity and wandering of T, each verdict with its method text."""
    if isinstance(T, Dense):
        return _dense_structures(T.matrix.array[None], tol)[0]
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


def _report(
    d_inf: float, d_sup: float, structure: dict, tol: ToleranceConfig
) -> ClassificationReport:
    """The report of an operator from the range of its defect form and its ``_structure``."""
    concave = d_sup <= tol.psd_tol
    two_contraction = d_inf >= -tol.psd_tol
    return ClassificationReport(
        concave=concave,
        concavity_defect=d_sup,
        two_contraction=two_contraction,
        contraction_margin=d_inf,
        two_isometry=concave and two_contraction,
        isometry_defect=max(abs(d_inf), abs(d_sup)),
        **structure,
    )


def classify_operator(
    T: StructuredOperator, tol: ToleranceConfig = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a structured operator; direct sums combine their parts.

    The three verdicts come from the range of the defect form; a 2-isometry is
    exactly a concave 2-contraction.  A dense operator, or a dense part, is a stack of
    one for ``_classify_stack``'s passes.
    """
    d_inf, d_sup = _defect_bounds(T)
    return _report(d_inf, d_sup, _structure(T, tol), tol)


def _classify_stack(stack: np.ndarray, tol: ToleranceConfig) -> list[ClassificationReport]:
    """``classify_operator`` of Dense(T) for each T of a (k, n, n) stack: one eigvalsh for
    the defect forms, then the batched core and wandering span."""
    lows, highs = _defect_range(stack)
    structures = _dense_structures(stack, tol)
    return [
        _report(d_inf, d_sup, structure, tol)
        for d_inf, d_sup, structure in zip(lows.tolist(), highs.tolist(), structures)
    ]


def _orbit(
    T: StructuredOperator, k: np.ndarray, v: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index and amplitude tables of x, T x, ..., T^steps x for the vector of support
    arrays k, v on T's ambient: row n holds T^n x in ascending index order.

    Each amplitude is the product that applying T step by step makes, in the same order;
    a row may keep zeros (which add nothing to a norm) and, past an overflow, infinities
    and NaN, which the caller tests.  Call it under ``_quiet``.
    """
    if isinstance(T, Shift):
        # (T^n x)_{k+n} = (x_k w_k) w_{k+1} ... w_{k+n-1}: one factor per step, as ``apply``
        offsets = np.arange(steps + 1)[:, None]
        table = np.empty((steps + 1, k.size), dtype=np.complex128)
        table[0] = v
        table[1:] = T.weights.at(k + offsets[:-1])
        return k + offsets, np.multiply.accumulate(table, axis=0)
    if T.ambient is not None:  # a Dense, or a direct sum of finite parts: its block matrix
        arr = to_dense_matrix(T)
        table = np.zeros((steps + 1, arr.shape[0]), dtype=np.complex128)
        table[0, k] = v
        for n in range(steps):
            arr.dot(table[n], out=table[n + 1])  # one matrix-vector product, as ``apply``
        return np.broadcast_to(np.arange(arr.shape[0]), table.shape), table
    # a direct sum with an infinite part: the parts' orbits, merged row by row
    p = len(T.parts)
    r, q = T._split(k)
    keys, images = [], []
    for i, part in enumerate(T.parts):
        mine = r == i
        if mine.any():  # a part without entries contributes nothing
            local, image = _orbit(part, q[mine], v[mine], steps)
            keys.append(local * p + i)
            images.append(image)
    keys = np.concatenate(keys, axis=1)
    order = keys.argsort(axis=1)
    return (
        np.take_along_axis(keys, order, axis=1),
        np.take_along_axis(np.concatenate(images, axis=1), order, axis=1),
    )


def _norm_ratios(
    T: StructuredOperator, x: FiniteSupportVector, steps: int
) -> tuple[list[float], int]:
    """||T^n x|| / ||x|| for n = 1 .. steps and a nonzero x, from one pass over the orbit,
    with the count of iterates before the first that overflows (steps where none does).

    Each norm is ``FiniteSupportVector.norm`` of the iterate that applying T step by step
    makes: the zeros an orbit row keeps add nothing to it.
    """
    k, v = _support(T, x)
    with _quiet():
        _, orbit = _orbit(T, k, v, steps)
    size = x.norm()
    ratios = [math.hypot(*row) / size for row in orbit[1:].view(np.float64).tolist()]
    finite = np.isfinite(orbit[1:]).all(axis=1)
    return ratios, steps if finite.all() else int(finite.argmin())


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
    The orbit T x, ..., T^N x is taken in one pass (``_orbit``) and judged in order, so a
    bound that fails returns False even where a later iterate overflows; an iterate that
    overflows before any bound fails is refused (NonFinite).
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
    steps = max(N, 1)  # T x is taken, and may overflow, even for N < 1
    ratios, finite = _norm_ratios(T, x, steps)
    if finite:
        slope = ratios[0] * ratios[0] - 1.0  # past the float range a product is inf; ** raises
        for n, ratio in enumerate(ratios[: min(N, finite)], 1):
            if ratio * ratio > 1.0 + n * slope + tol.residual_tol:
                return False
    if finite < steps:
        raise NonFinite("non-finite T x")
    return True
