"""Dense complex linear algebra kernels with explicit tolerance policy.

All kernels accept :class:`ComplexMatrix` (or a raw ndarray for internal use)
and route rank decisions through singular values so every cutoff is relative
to the largest one.  Factorizations are delegated to LAPACK via numpy; the
matrix exponential is computed here by scaling and squaring with a degree-13
Pade core because downstream semigroup checks pin its behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NonFinite, Singular

__all__ = [
    "ComplexMatrix",
    "hermitian_max_eig",
    "hermitian_min_eig",
    "expm",
    "solve",
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


def _checked(arr: np.ndarray, square: bool = True) -> np.ndarray:
    if arr.ndim != 2 or (square and arr.shape[0] != arr.shape[1]):
        raise ValueError(f"matrix must be {'square' if square else '2-d'}, got shape {arr.shape}")
    if square and arr.shape[0] == 0:
        raise ValueError(f"matrix must be at least 1x1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NonFinite("matrix contains NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class ComplexMatrix:
    """Immutable square complex matrix, at least 1x1, with finite entries.

    The wire format is ``{"rows": n, "cols": n, "data": [[re, im], ...]}``
    with ``data`` in row-major order.
    """

    array: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = _checked(np.asarray(self.array, dtype=np.complex128)).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[complex]]) -> "ComplexMatrix":
        return cls(np.array(rows, dtype=np.complex128))

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def zeros(cls, n: int) -> "ComplexMatrix":
        return cls(np.zeros((n, n), dtype=np.complex128))

    @classmethod
    def diagonal(cls, entries: Iterable[complex]) -> "ComplexMatrix":
        return cls(np.diag(np.array(list(entries), dtype=np.complex128)))

    def adjoint(self) -> "ComplexMatrix":
        return ComplexMatrix(self.array.conj().T)

    def to_json(self) -> dict:
        n = self.n
        data = [[float(v.real), float(v.imag)] for v in self.array.reshape(-1)]
        return {"rows": n, "cols": n, "data": data}

    @classmethod
    def from_json(cls, obj: dict) -> "ComplexMatrix":
        try:
            rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"matrix object missing field: {exc}") from exc
        if rows != cols:
            raise ValueError(f"matrix must be square, got {rows}x{cols}")
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
        return cls(flat.reshape(rows, rows))


def _as_array(M, square: bool = True) -> np.ndarray:
    if isinstance(M, ComplexMatrix):
        return M.array
    return _checked(np.asarray(M, dtype=np.complex128), square)


def hermitian_max_eig(M) -> float:
    """Largest eigenvalue of the Hermitian part (M + M*)/2.

    Callers promise M is Hermitian up to residual_tol; symmetrizing first
    makes the result insensitive to that residual.
    """
    arr = _as_array(M)
    herm = (arr + arr.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[-1])


def hermitian_min_eig(M) -> float:
    """Smallest eigenvalue of the Hermitian part (M + M*)/2."""
    arr = _as_array(M)
    herm = (arr + arr.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0])


def _expm_array(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    # overflow shows up as non-finite entries, refused by the caller's checks
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(arr, 1))
        if norm == 0.0:
            return np.eye(n, dtype=np.complex128)
        if not np.isfinite(norm):
            raise NonFinite("matrix 1-norm overflows")
        squarings = max(0, int(np.ceil(np.log2(norm / _EXPM_SCALE_TARGET))))
        A = arr / (2.0**squarings)

        ident = np.eye(n, dtype=np.complex128)
        b = _PADE13_B
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (
            A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
            + b[7] * A6
            + b[5] * A4
            + b[3] * A2
            + b[1] * ident
        )
        V = (
            A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
            + b[6] * A6
            + b[4] * A4
            + b[2] * A2
            + b[0] * ident
        )
        R = np.linalg.solve(V - U, V + U)
        for _ in range(squarings):
            R = R @ R
    return R


def expm(M) -> ComplexMatrix:
    """Matrix exponential by scaling and squaring with a degree-13 Pade core."""
    return ComplexMatrix(_expm_array(_as_array(M)))


def singular_values(M) -> np.ndarray:
    return np.linalg.svd(_as_array(M, square=False), compute_uv=False)


def _rank_of(s: np.ndarray, tol: ToleranceConfig) -> int:
    """Count of the descending singular values s above rank_tol relative to s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))


def rank(M, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above rank_tol relative to the largest."""
    return _rank_of(singular_values(M), tol)


def solve(M, rhs, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Solve M y = rhs, raising Singular below the relative rank cutoff."""
    arr = _as_array(M)
    b = np.asarray(rhs, dtype=np.complex128)
    if b.shape[0] != arr.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} does not match matrix size {arr.shape[0]}")
    s = singular_values(arr)
    if _rank_of(s, tol) < arr.shape[0]:
        raise Singular(
            f"matrix singular at rank_tol={tol.rank_tol:g}: "
            f"sigma_min/sigma_max = {0.0 if s[0] == 0.0 else s[-1] / s[0]:.3e}"
        )
    return np.linalg.solve(arr, b)


def orthonormal_range_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Columns form an orthonormal basis of the numerical column space."""
    u, s, _ = np.linalg.svd(_as_array(M, square=False))
    return u[:, : _rank_of(s, tol)]


def null_space_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Columns form an orthonormal basis of the numerical kernel."""
    _, s, vh = np.linalg.svd(_as_array(M, square=False))
    return vh[_rank_of(s, tol) :].conj().T


def eigenvalues(M) -> np.ndarray:
    """All eigenvalues via the QR/Schur path (general non-Hermitian input)."""
    return np.linalg.eigvals(_as_array(M))


def two_norm(M) -> float:
    s = singular_values(M)
    return float(s[0]) if s.size else 0.0


def spectral_radius(M) -> float:
    """Spectral radius: the largest eigenvalue modulus."""
    return float(np.max(np.abs(eigenvalues(M))))
