"""Dense complex linear algebra kernels with explicit tolerance policy.

A matrix inside the package is a complex128 ndarray, validated once where it enters:
:class:`ComplexMatrix` checks one from JSON or from a caller, and an array the package
computes is finite by construction or tested where it is formed.  So the kernels take
arrays and neither convert nor scan them.  Rank decisions go through singular values,
so every cutoff is relative to the largest one.  Factorizations are delegated to LAPACK
via numpy; the matrix exponential of a stack of matrices is computed here by scaling and
squaring with one degree-13 Pade core because downstream semigroup checks pin it.
A stack takes one Pade evaluation and one solve, whatever its members' squaring counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NonFinite

__all__ = [
    "ComplexMatrix",
    "hermitian_max_eig",
    "expm_stack",
    "rank",
    "orthonormal_range_basis",
    "null_space_basis",
    "eigenvalues",
    "singular_values",
    "spectral_radius",
    "two_norm",
]

_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)

# Scale so the Pade argument has 1-norm at most this value.
_EXPM_SCALE_TARGET = 0.5
# e^x falls below the smallest normal double for x under this value.
_LOG_NORMAL_MIN = float(np.log(np.finfo(np.float64).tiny))


def _quiet():
    """The one overflow policy: numpy warnings off here, and _finite tests what was computed."""
    return np.errstate(over="ignore", invalid="ignore")


def _finite(value, what: str):
    """``value``, or NonFinite naming ``what`` where it holds NaN or infinity."""
    finite = np.isfinite(value)  # count_nonzero is twice as fast as .all() on short arrays
    if np.count_nonzero(finite) != finite.size:
        raise NonFinite(f"non-finite {what}")
    return value


def _json_integer(value, what: str) -> int:
    """A JSON number that is a finite integer (3 or 3.0) as an int; anything else is refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be a finite integer, got {value!r}")


@dataclass(frozen=True)
class ComplexMatrix:
    """The checked record of a square complex matrix, at least 1x1, with finite entries.

    This is the boundary: a matrix from JSON or from a caller (``Dense``,
    ``SemigroupSpec``) is converted, copied and scanned here once, and ``array`` is
    the read-only complex128 copy that the package computes with.  The record stays
    while the benchmark's jobs construct it and read ``.array`` from it.

    The wire format is ``{"rows": n, "cols": n, "data": [[re, im], ...]}``
    with ``data`` in row-major order.
    """

    array: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.array, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError(f"matrix must be at least 1x1, got shape {arr.shape}")
        arr = _finite(arr, "matrix entries").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    def to_json(self) -> dict:
        n = self.array.shape[0]
        data = [[float(v.real), float(v.imag)] for v in self.array.reshape(-1)]
        return {"rows": n, "cols": n, "data": data}

    @classmethod
    def from_json(cls, obj: dict) -> "ComplexMatrix":
        try:
            rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"matrix object missing field: {exc}") from exc
        rows, cols = _json_integer(rows, "matrix rows"), _json_integer(cols, "matrix cols")
        if rows != cols:
            raise ValueError(f"matrix must be square, got {rows}x{cols}")
        if not isinstance(data, list):
            raise ValueError(f"matrix data must be a list, got {type(data).__name__}")
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        try:
            flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix entries: {exc}") from exc
        return cls(flat.reshape(rows, rows))


def hermitian_max_eig(arr: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part (M + M*)/2.

    Callers promise M is Hermitian up to residual_tol; symmetrizing first
    makes the result insensitive to that residual.
    """
    herm = arr / 2.0 + arr.conj().T / 2.0  # halving first cannot overflow
    return float(np.linalg.eigvalsh(herm)[-1])


def expm_stack(stack: np.ndarray) -> tuple[np.ndarray, NonFinite | None]:
    """e^{A_j} for the members of a (k, n, n) stack up to the first one refused, and its refusal.

    Each member keeps its own 1-norm, squaring count and refusals; a zero member is the
    exact identity.  One Pade pass serves the whole stack: each member is scaled by its own
    power of two, and the members, ordered by squaring count, are squared as a shrinking
    prefix.  Batched products and solves treat each member alone, so every result is the
    one that member gets on its own.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ValueError(f"stack must be (k, n, n) with n >= 1, got shape {stack.shape}")
    k, n = stack.shape[:2]
    m, zeros, live = k, [], []  # m members computed; live: (squaring count, member)
    with _quiet():
        for j, norm in enumerate(np.abs(stack).sum(axis=1).max(axis=1).tolist()):  # 1-norms
            if not math.isfinite(norm):
                m = j
                break
            if norm == 0.0:
                zeros.append(j)
                continue
            # the quotient overflows only for norms within a factor 2 of the float
            # maximum, and only there is its log2 taken as a difference of logs:
            # log2(norm) + 1 rounds differently next to powers of two
            ratio = norm / _EXPM_SCALE_TARGET
            log_ratio = (
                np.log2(ratio) if ratio < math.inf else np.log2(norm) - np.log2(_EXPM_SCALE_TARGET)
            )
            live.append((max(0, math.ceil(log_ratio)), j))
        stack = stack[:m]
        # descending counts, ties in member order: the squaring rounds act on a shrinking prefix
        live.sort(key=lambda p: -p[0])
        counts = [s for s, _ in live]
        order = [j for _, j in live]
        ident = np.eye(n, dtype=np.complex128)[None]  # a stack broadcasts faster than a matrix
        R = stack[:0]  # no live member: m = 0, or every member is zero
        if live:
            scale = np.ldexp(1.0, -np.array(counts))  # integer exponents: exact powers of two
            A = stack[order] * scale[:, None, None]
            A2 = A @ A
            A4 = A2 @ A2
            A6 = A4 @ A2
            # U (odd coefficients) and V (even ones) sum their terms in the one-matrix order;
            # finishing U first lets A go before V, and the powers go before the solve, so
            # the whole-stack working set stays small
            b = _PADE13_B
            U = b[13] * A6
            for X, c in ((A4, b[11]), (A2, b[9])):
                U += c * X
            U = A6 @ U
            for X, c in ((A6, b[7]), (A4, b[5]), (A2, b[3]), (ident, b[1])):
                U += c * X
            U = A @ U
            del A
            V = b[12] * A6
            for X, c in ((A4, b[10]), (A2, b[8])):
                V += c * X
            V = A6 @ V
            for X, c in ((A6, b[6]), (A4, b[4]), (A2, b[2]), (ident, b[0])):
                V += c * X
            del A2, A4, A6
            R = np.linalg.solve(V - U, V + U)
            del U, V
            width = len(order)
            for i in range(counts[0]):  # round i squares the members with more than i
                while counts[width - 1] <= i:
                    width -= 1
                R[:width] = R[:width] @ R[:width]
        out = np.empty_like(stack)
        out[zeros] = ident
        out[order] = R
    finite = np.isfinite(out)
    # a zero member has a zero diagonal: with none on any diagonal, no member is zero
    if np.count_nonzero(finite) != finite.size or np.count_nonzero(out.diagonal(0, 1, 2)) != m * n:
        for j in range(m):
            if not finite[j].all():
                return out[:j], NonFinite("non-finite matrix exponential")
            # e^A is invertible, so the zero matrix is an underflow only where every eigenvalue
            # of A lies left of log(tiny); elsewhere the Pade rounding was squared away
            if not out[j].any() and np.linalg.eigvals(stack[j]).real.max() > _LOG_NORMAL_MIN:
                overscaled = "matrix exponential: scaling and squaring overscaled it to zero"
                return out[:j], NonFinite(overscaled)
    return out, None if m == k else NonFinite("matrix 1-norm is not finite")


def _svd(arr: np.ndarray, compute_uv: bool):
    """The one SVD call: singular values past the float range are refused."""
    out = np.linalg.svd(arr, compute_uv=compute_uv)
    _finite(out.S if compute_uv else out, "singular values")
    return out


def singular_values(arr: np.ndarray) -> np.ndarray:
    return _svd(arr, compute_uv=False)


def _rank_of(s: np.ndarray, tol: ToleranceConfig) -> int:
    """Count of the descending singular values s above rank_tol relative to s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))


def rank(arr: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above rank_tol relative to the largest."""
    return _rank_of(singular_values(arr), tol)


def orthonormal_range_basis(arr: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Columns form an orthonormal basis of the numerical column space."""
    u, s, _ = _svd(arr, compute_uv=True)
    return u[:, : _rank_of(s, tol)]


def null_space_basis(arr: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Columns form an orthonormal basis of the numerical kernel."""
    _, s, vh = _svd(arr, compute_uv=True)
    return vh[_rank_of(s, tol) :].conj().T


def eigenvalues(arr: np.ndarray) -> np.ndarray:
    """All eigenvalues via the QR/Schur path (general non-Hermitian input)."""
    return np.linalg.eigvals(arr)


def two_norm(arr: np.ndarray) -> float:
    s = singular_values(arr)
    return float(s[0]) if s.size else 0.0


def spectral_radius(arr: np.ndarray) -> float:
    """Spectral radius: the largest eigenvalue modulus."""
    return float(np.max(np.abs(eigenvalues(arr))))
