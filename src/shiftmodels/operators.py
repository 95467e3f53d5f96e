"""Structured operators on sequence space and their vector arithmetic.

Three regimes are supported and closed under the toolkit's constructions:

* ``Dense``      -- an n x n matrix acting on ambient dimension n;
* ``Shift``      -- a weighted unilateral forward shift (T x)_{k+1} = w_k x_k
                    acting on infinite ambient;
* ``DirectSum``  -- a finite direct sum of the above.

Weights of a shift are either eventually constant (an explicit head list plus
a constant tail) or follow a named exact law.  The laws exist because the
Dirichlet shift w_k = sqrt((k+2)/(k+1)) is not eventually constant, yet its
closed-form weight algebra (beta_n^2 = n + 1, concavity defect identically
zero) is exactly what desk-scale checks need.

A vector is stored as the two arrays every operator acts on: its ascending
indices and its amplitudes.  So applying an operator to a sparse vector costs
its support and not its largest index; the weight rules answer for a whole
index array at once.  (The model coefficients in ``shimorin`` are the one
exception: they still read the dual weights up to the largest local index.)

Index layout for direct sums: when every summand is finite the parts occupy
consecutive index blocks and the sum acts by its block-diagonal matrix; when
any summand is infinite, global index ``q * p + r`` holds local index ``q``
of part ``r`` (round robin), the only flat layout that accommodates several
infinite blocks.  This module is the one place that layout is written down:
``_round_robin`` splits a global index, ``DirectSum`` joins it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import AmbientMismatch, NonFinite, UnsupportedRegime
from .numkit import ComplexMatrix, _finite, _json_integer, _quiet, spectral_radius

__all__ = [
    "FiniteSupportVector",
    "EventuallyConstantWeights",
    "DirichletWeights",
    "Shift",
    "Dense",
    "DirectSum",
    "StructuredOperator",
    "isometric_shift",
    "dirichlet_shift",
    "spectral_radius_estimate",
    "to_dense_matrix",
    "operator_from_json",
    "vector_from_json",
]


# Indices live in int64 arrays; the margin below 2**63 leaves room to shift and interleave.
_INDEX_LIMIT = 2**62

# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True, init=False, eq=False, slots=True)
class FiniteSupportVector:
    """Finitely supported vector, held as the two arrays every operator computes with.

    ``indices`` (int64, ascending, distinct) and ``values`` (complex128, nonzero,
    finite) are read-only; ``ambient`` is the ambient dimension, or None for
    infinite ambient.  The constructor takes (index, amplitude) pairs and
    validates them once: exact zeros are dropped; indices must be nonnegative,
    distinct, below 2**62 and, for finite ambient, strictly below it.  Data
    that breaks these rules, or a negative ambient, is malformed: ValueError
    naming the first offending pair in input order (NonFinite for an amplitude).
    Vectors compare by identity.
    """

    indices: np.ndarray
    values: np.ndarray
    ambient: int | None

    def __init__(
        self, entries: Iterable[tuple[int, complex]] = (), ambient: int | None = None
    ) -> None:
        if ambient is not None and ambient < 0:
            raise ValueError(f"negative ambient dimension {ambient}")
        keys, amplitudes = [], []
        seen = set()
        for k, v in entries:
            k = int(k)
            v = complex(v)
            if k < 0:
                raise ValueError(f"negative index {k}")
            if k >= _INDEX_LIMIT:
                raise ValueError(f"index {k} is not below 2**62")
            if k in seen:
                raise ValueError(f"duplicate index {k}")
            if ambient is not None and k >= ambient:
                raise ValueError(f"index {k} outside ambient dimension {ambient}")
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise NonFinite(f"non-finite amplitude at index {k}")
            seen.add(k)
            if v != 0:
                keys.append(k)
                amplitudes.append(v)
        if keys != sorted(keys):
            order = sorted(range(len(keys)), key=keys.__getitem__)
            keys, amplitudes = [keys[i] for i in order], [amplitudes[i] for i in order]
        indices = np.array(keys, dtype=np.int64)
        _hold(self, indices, np.array(amplitudes, dtype=np.complex128), ambient)

    @classmethod
    def from_dense(cls, values: Sequence[complex], ambient: int | None = None) -> "FiniteSupportVector":
        amb = len(values) if ambient is None else ambient
        return cls(tuple(enumerate(values)), amb)

    @classmethod
    def basis(cls, k: int, ambient: int | None = None) -> "FiniteSupportVector":
        return cls(((k, 1.0 + 0.0j),), ambient)

    @property
    def entries(self) -> tuple[tuple[int, complex], ...]:
        """The (index, amplitude) pairs in ascending index order, as the constructor takes them."""
        return tuple(zip(self.indices.tolist(), self.values.tolist()))

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.values.tolist()))

    def scale(self, c: complex) -> "FiniteSupportVector":
        with _quiet():
            v = c * self.values
        return _vector(self.indices, _finite(v, "scaled amplitudes"), self.ambient)

    def add(self, other: "FiniteSupportVector") -> "FiniteSupportVector":
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"ambient mismatch: {self.ambient} vs {other.ambient}")
        # the union of the supports in Python: np.union1d imports numpy.ma (~1 MB) on first use
        union = set(self.indices.tolist()).union(other.indices.tolist())
        k = np.array(sorted(union), dtype=np.int64)
        v = np.zeros(k.size, dtype=np.complex128)
        v[k.searchsorted(self.indices)] = self.values
        with _quiet():
            v[k.searchsorted(other.indices)] += other.values
        return _vector(k, _finite(v, "sum of amplitudes"), self.ambient)

    def sub(self, other: "FiniteSupportVector") -> "FiniteSupportVector":
        return self.add(other.scale(-1.0))


def _hold(x: FiniteSupportVector, k: np.ndarray, v: np.ndarray, ambient: int | None):
    """Store the support arrays k, v on x, read-only."""
    k.setflags(write=False)
    v.setflags(write=False)
    object.__setattr__(x, "indices", k)
    object.__setattr__(x, "values", v)
    object.__setattr__(x, "ambient", ambient)
    return x


def _vector(k: np.ndarray, v: np.ndarray, ambient: int | None) -> FiniteSupportVector:
    """The vector of computed arrays: ascending indices k, finite amplitudes v; zeros dropped."""
    if np.count_nonzero(v) != v.size:
        keep = v != 0
        k, v = k[keep], v[keep]
    return _hold(object.__new__(FiniteSupportVector), k, v, ambient)


# ---------------------------------------------------------------------------
# weight rules


@dataclass(frozen=True)
class EventuallyConstantWeights:
    """Weights w_0 .. w_{m-1} from ``head``, then w_k = ``tail`` for k >= m."""

    head: tuple[float, ...] = ()
    tail: float = 1.0

    def __post_init__(self) -> None:
        head = tuple(float(w) for w in self.head)
        for w in head + (float(self.tail),):
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError(f"shift weights must be positive finite, got {w!r}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", float(self.tail))

    @cached_property
    def _table(self) -> np.ndarray:
        return np.array(self.head + (self.tail,))

    def at(self, k: np.ndarray) -> np.ndarray:
        """w_k for every index in the integer array ``k``."""
        return self._table.take(k, mode="clip")  # indices past the head read the tail

    def sup(self) -> float:
        return max(self.head + (self.tail,))

    def inf(self) -> float:
        return min(self.head + (self.tail,))

    def limit(self) -> float:
        return self.tail

    def reciprocal(self) -> "EventuallyConstantWeights":
        return EventuallyConstantWeights(tuple(1.0 / w for w in self.head), 1.0 / self.tail)

    def beta_sq(self, n: int) -> float:
        """Squared norm of T^n e_0: product of w_k^2 for k < n."""
        return math.prod((self.at(np.arange(n)) ** 2).tolist(), start=1.0)

    def defect_range(self) -> tuple[float, float]:
        """(inf, sup) of the defect w_k^2 w_{k+1}^2 - 2 w_k^2 + 1; constant past the head."""
        w2 = self.at(np.arange(len(self.head) + 2)) ** 2
        defects = w2[:-1] * w2[1:] - 2.0 * w2[:-1] + 1.0
        return float(defects.min()), float(defects.max())


@dataclass(frozen=True)
class DirichletWeights:
    """Exact law w_k = sqrt((k+2)/(k+1)), or its reciprocal when ``dual``.

    The primal law is the Dirichlet shift: beta_n^2 = n + 1 and the concavity
    defect vanishes identically, both exact statements used as closed forms.
    """

    dual: bool = False

    def at(self, k: np.ndarray) -> np.ndarray:
        """w_k for every index in the integer array ``k``."""
        ratio = (k + 2.0) / (k + 1.0)
        return np.sqrt(1.0 / ratio if self.dual else ratio)

    def sup(self) -> float:
        return 1.0 if self.dual else math.sqrt(2.0)  # w_0 = sqrt(2), then decreasing to 1

    def inf(self) -> float:
        return math.sqrt(0.5) if self.dual else 1.0

    def limit(self) -> float:
        return 1.0

    def reciprocal(self) -> "DirichletWeights":
        return DirichletWeights(dual=not self.dual)

    def beta_sq(self, n: int) -> float:
        return 1.0 / (n + 1.0) if self.dual else float(n + 1)

    def defect_range(self) -> tuple[float, float]:
        if self.dual:
            # the defect 2 / ((k + 2)(k + 3)) decreases in k with infimum 0, maximum at k = 0
            return 0.0, 2.0 / 6.0
        return 0.0, 0.0


WeightRule = Union[EventuallyConstantWeights, DirichletWeights]


# ---------------------------------------------------------------------------
# operators
#
# Each operator class defines ``_map(k, v, adjoint)``: the support arrays of
# T x (or T* x) from those of x, with k ascending.  It may leave zeros and
# overflow in place; ``_act`` runs it under the one overflow guard and drops
# the zeros.


def _support(T: "StructuredOperator", x: FiniteSupportVector) -> tuple[np.ndarray, np.ndarray]:
    """Index and amplitude arrays of a vector on T's ambient."""
    if x.ambient != T.ambient:
        raise AmbientMismatch(
            f"vector ambient {x.ambient} does not match operator ambient {T.ambient}"
        )
    return x.indices, x.values


def _act(T: "StructuredOperator", x: FiniteSupportVector, adjoint: bool, what: str):
    """T x, or T* x when ``adjoint``; NonFinite naming ``what`` where it overflows."""
    k, v = _support(T, x)
    with _quiet():
        k, v = T._map(k, v, adjoint)
    return _vector(k, _finite(v, what), T.ambient)


def _round_robin(parts: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Part r and local index q of the global indices k = q * parts + r."""
    q, r = np.divmod(k, parts)
    return r, q


def _matvec(arr: np.ndarray, k: np.ndarray, v: np.ndarray, adjoint: bool):
    """Support arrays of arr x, or arr* x when ``adjoint``, as a dense local vector."""
    x = np.zeros(arr.shape[0], dtype=np.complex128)
    x[k] = v
    y = (arr.conj().T if adjoint else arr) @ x
    return np.arange(y.size), y


class _Acting:
    """``apply`` of every operator, through its ``_map``."""

    def apply(self, x: FiniteSupportVector) -> FiniteSupportVector:
        return _act(self, x, False, "T x")


@dataclass(frozen=True)
class Shift(_Acting):
    """Weighted unilateral forward shift on infinite ambient."""

    weights: WeightRule

    @property
    def ambient(self) -> int | None:
        return None

    def _map(self, k: np.ndarray, v: np.ndarray, adjoint: bool) -> tuple[np.ndarray, np.ndarray]:
        if adjoint:  # (T* x)_{k-1} = w_{k-1} x_k
            keep = k > 0
            k, v = k[keep] - 1, v[keep]
            return k, self.weights.at(k) * v
        return k + 1, self.weights.at(k) * v


@dataclass(frozen=True)
class Dense(_Acting):
    """Matrix operator on ambient dimension n."""

    matrix: ComplexMatrix

    @property
    def ambient(self) -> int | None:
        return self.matrix.array.shape[0]

    def _map(self, k: np.ndarray, v: np.ndarray, adjoint: bool) -> tuple[np.ndarray, np.ndarray]:
        return _matvec(self.matrix.array, k, v, adjoint)


@dataclass(frozen=True)
class DirectSum(_Acting):
    """Direct sum of structured operators; see module docstring for layout."""

    parts: tuple["StructuredOperator", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("direct sum needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    @cached_property
    def _dims(self) -> np.ndarray:
        """Dimension of every part, infinity for an infinite one."""
        return np.array([np.inf if p.ambient is None else p.ambient for p in self.parts])

    @cached_property
    def ambient(self) -> int | None:
        return None if np.isinf(self._dims).any() else int(self._dims.sum())

    def _map(self, k: np.ndarray, v: np.ndarray, adjoint: bool) -> tuple[np.ndarray, np.ndarray]:
        if self.ambient is not None:
            return _matvec(to_dense_matrix(self), k, v, adjoint)
        p = len(self.parts)
        r, q = _round_robin(p, k)
        outside = (q >= self._dims[r]).nonzero()[0]
        if outside.size:
            i = outside[0]
            raise AmbientMismatch(
                f"global index {k[i]} lands outside part {r[i]} (dimension {int(self._dims[r[i]])})"
            )
        keys, images = [k[:0]], [v[:0]]  # so that a vector without entries maps to one
        for i, part in enumerate(self.parts):
            mine = r == i
            if mine.any():  # a part without entries contributes nothing
                local, image = part._map(q[mine], v[mine], adjoint)
                keys.append(local * p + i)
                images.append(image)
        k = np.concatenate(keys)
        order = k.argsort()
        # adding 0.0 clears negative zeros, as adding the parts' images into a zero vector would
        return k[order], np.concatenate(images)[order] + 0.0


StructuredOperator = Union[Shift, Dense, DirectSum]


def isometric_shift() -> Shift:
    return Shift(EventuallyConstantWeights((), 1.0))


def dirichlet_shift(dual: bool = False) -> Shift:
    return Shift(DirichletWeights(dual=dual))


# ---------------------------------------------------------------------------
# whole-operator data


def spectral_radius_estimate(T: StructuredOperator) -> float:
    """Spectral radius: exact weight limit for shifts, max |eigenvalue| for dense."""
    if isinstance(T, Shift):
        return T.weights.limit()
    if isinstance(T, Dense):
        return spectral_radius(T.matrix.array)
    return max(spectral_radius_estimate(p) for p in T.parts)


def to_dense_matrix(T: StructuredOperator) -> np.ndarray:
    """Materialize a finite-ambient operator as a read-only matrix (block diagonal sums)."""
    if isinstance(T, Dense):
        return T.matrix.array
    if isinstance(T, DirectSum):
        if T.ambient is None:
            raise UnsupportedRegime("cannot materialize a direct sum with infinite parts")
        n = T.ambient
        out = np.zeros((n, n), dtype=np.complex128)
        off = 0
        for p in T.parts:
            block = to_dense_matrix(p)
            m = block.shape[0]
            out[off : off + m, off : off + m] = block
            off += m
        out.flags.writeable = False
        return out
    raise UnsupportedRegime("shift operators have no finite matrix form")


# ---------------------------------------------------------------------------
# JSON wire formats


def operator_from_json(obj: dict) -> StructuredOperator:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("operator object must be a dict with a 'kind' field")
    kind = obj["kind"]
    if kind == "shift":
        if "law" in obj:
            law = obj["law"]
            if law == "dirichlet":
                return Shift(DirichletWeights(dual=False))
            if law == "dirichlet-dual":
                return Shift(DirichletWeights(dual=True))
            raise ValueError(f"unknown shift weight law {law!r}")
        try:
            head = tuple(float(w) for w in obj["head_weights"])
            tail = float(obj["tail_weight"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed shift weights: {exc}") from exc
        return Shift(EventuallyConstantWeights(head, tail))
    if kind == "dense":
        if "matrix" not in obj:
            raise ValueError("dense operator needs a 'matrix' field")
        return Dense(ComplexMatrix.from_json(obj["matrix"]))
    if kind == "direct_sum":
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ValueError("direct_sum needs a nonempty 'parts' list")
        return DirectSum(tuple(operator_from_json(p) for p in parts))
    raise ValueError(f"unknown operator kind {kind!r}")


def vector_from_json(obj: dict) -> FiniteSupportVector:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("vector object must be a dict with an 'entries' field")
    ambient = obj.get("ambient")
    if ambient is not None:
        ambient = _json_integer(ambient, "vector ambient")
    try:
        entries = tuple(
            (_json_integer(k, "vector index"), complex(re, im)) for k, re, im in obj["entries"]
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed vector entries: {exc}") from exc
    return FiniteSupportVector(entries, ambient)
