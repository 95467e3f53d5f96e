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

Index layout for direct sums: when every summand is finite the parts occupy
consecutive index blocks; when any summand is infinite, global index
``q * p + r`` holds local index ``q`` of part ``r`` (round robin), the only
flat layout that accommodates several infinite blocks.  ``embed`` and
``project`` hide the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import AmbientMismatch, NonFinite, NotBoundedBelow, UnsupportedRegime
from .numkit import ComplexMatrix, rank, solve, spectral_radius

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
    "apply",
    "adjoint_apply",
    "gram_apply_inverse",
    "spectral_radius_estimate",
    "to_dense_matrix",
    "operator_to_json",
    "operator_from_json",
    "vector_to_json",
    "vector_from_json",
]


# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True)
class FiniteSupportVector:
    """Finitely supported vector: sorted (index, amplitude) pairs.

    ``ambient`` is the ambient dimension, or None for infinite ambient.
    Exact zeros are dropped at construction; indices must be nonnegative and,
    for finite ambient, strictly below it.
    """

    entries: tuple[tuple[int, complex], ...]
    ambient: int | None = None

    def __post_init__(self) -> None:
        cleaned = []
        seen = set()
        for k, v in self.entries:
            k = int(k)
            v = complex(v)
            if k < 0:
                raise AmbientMismatch(f"negative index {k}")
            if k in seen:
                raise AmbientMismatch(f"duplicate index {k}")
            if self.ambient is not None and k >= self.ambient:
                raise AmbientMismatch(f"index {k} outside ambient dimension {self.ambient}")
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise NonFinite(f"non-finite amplitude at index {k}")
            seen.add(k)
            if v != 0:
                cleaned.append((k, v))
        cleaned.sort(key=lambda kv: kv[0])
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def from_dict(cls, entries: Mapping[int, complex], ambient: int | None = None) -> "FiniteSupportVector":
        return cls(tuple(entries.items()), ambient)

    @classmethod
    def from_dense(cls, values: Sequence[complex], ambient: int | None = None) -> "FiniteSupportVector":
        amb = len(values) if ambient is None else ambient
        return cls(tuple(enumerate(values)), amb)

    @classmethod
    def basis(cls, k: int, ambient: int | None = None) -> "FiniteSupportVector":
        return cls(((k, 1.0 + 0.0j),), ambient)

    @classmethod
    def zero(cls, ambient: int | None = None) -> "FiniteSupportVector":
        return cls((), ambient)

    def as_dict(self) -> dict[int, complex]:
        return dict(self.entries)

    def amplitude(self, k: int) -> complex:
        for idx, v in self.entries:
            if idx == k:
                return v
        return 0.0 + 0.0j

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else -1

    def dense(self, n: int | None = None) -> np.ndarray:
        size = n if n is not None else (self.ambient if self.ambient is not None else self.max_index + 1)
        out = np.zeros(size, dtype=np.complex128)
        for k, v in self.entries:
            if k >= size:
                raise AmbientMismatch(f"index {k} outside requested length {size}")
            out[k] = v
        return out

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for _, v in self.entries))

    def inner(self, other: "FiniteSupportVector") -> complex:
        """Inner product, linear in the first slot: sum_k x_k * conj(y_k)."""
        _check_same_ambient(self, other)
        other_map = other.as_dict()
        return sum(v * other_map[k].conjugate() for k, v in self.entries if k in other_map)

    def scale(self, c: complex) -> "FiniteSupportVector":
        return FiniteSupportVector(tuple((k, c * v) for k, v in self.entries), self.ambient)

    def add(self, other: "FiniteSupportVector") -> "FiniteSupportVector":
        _check_same_ambient(self, other)
        acc = self.as_dict()
        for k, v in other.entries:
            acc[k] = acc.get(k, 0.0) + v
        return FiniteSupportVector.from_dict(acc, self.ambient)

    def sub(self, other: "FiniteSupportVector") -> "FiniteSupportVector":
        return self.add(other.scale(-1.0))


def _check_same_ambient(x: FiniteSupportVector, y: FiniteSupportVector) -> None:
    if x.ambient != y.ambient:
        raise AmbientMismatch(f"ambient mismatch: {x.ambient} vs {y.ambient}")


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

    def weight(self, k: int) -> float:
        return self.head[k] if k < len(self.head) else self.tail

    def weight_sq(self, k: int) -> float:
        w = self.weight(k)
        return w * w

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
        out = 1.0
        for k in range(n):
            out *= self.weight_sq(k)
        return out

    def defect(self, k: int) -> float:
        """Concavity defect w_k^2 w_{k+1}^2 - 2 w_k^2 + 1 at position k."""
        a = self.weight_sq(k)
        return a * self.weight_sq(k + 1) - 2.0 * a + 1.0

    def defect_range(self) -> tuple[float, float]:
        """(inf, sup) of the defect over all k; constant past the head."""
        values = [self.defect(k) for k in range(len(self.head) + 1)]
        return min(values), max(values)

    def json_fields(self) -> dict:
        return {"head_weights": list(self.head), "tail_weight": self.tail}


@dataclass(frozen=True)
class DirichletWeights:
    """Exact law w_k = sqrt((k+2)/(k+1)), or its reciprocal when ``dual``.

    The primal law is the Dirichlet shift: beta_n^2 = n + 1 and the concavity
    defect vanishes identically, both exact statements used as closed forms.
    """

    dual: bool = False

    def weight(self, k: int) -> float:
        return math.sqrt(self.weight_sq(k))

    def weight_sq(self, k: int) -> float:
        ratio = (k + 2.0) / (k + 1.0)
        return 1.0 / ratio if self.dual else ratio

    def sup(self) -> float:
        return 1.0 if self.dual else self.weight(0)

    def inf(self) -> float:
        return self.weight(0) if self.dual else 1.0

    def limit(self) -> float:
        return 1.0

    def reciprocal(self) -> "DirichletWeights":
        return DirichletWeights(dual=not self.dual)

    def beta_sq(self, n: int) -> float:
        return 1.0 / (n + 1.0) if self.dual else float(n + 1)

    def defect(self, k: int) -> float:
        if self.dual:
            return 2.0 / ((k + 2.0) * (k + 3.0))
        return 0.0

    def defect_range(self) -> tuple[float, float]:
        if self.dual:
            # decreasing in k with infimum 0, maximum at k = 0
            return 0.0, self.defect(0)
        return 0.0, 0.0

    def json_fields(self) -> dict:
        return {"law": "dirichlet-dual" if self.dual else "dirichlet"}


WeightRule = Union[EventuallyConstantWeights, DirichletWeights]


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class Shift:
    """Weighted unilateral forward shift on infinite ambient."""

    weights: WeightRule

    @property
    def ambient(self) -> int | None:
        return None

    def apply(self, x: FiniteSupportVector) -> FiniteSupportVector:
        _require_infinite(x)
        return FiniteSupportVector(
            tuple((k + 1, self.weights.weight(k) * v) for k, v in x.entries), None
        )

    def adjoint_apply(self, x: FiniteSupportVector) -> FiniteSupportVector:
        _require_infinite(x)
        return FiniteSupportVector(
            tuple((k - 1, self.weights.weight(k - 1) * v) for k, v in x.entries if k >= 1), None
        )

    def gram_apply_inverse(self, x: FiniteSupportVector) -> FiniteSupportVector:
        _require_infinite(x)
        return FiniteSupportVector(
            tuple((k, v / self.weights.weight_sq(k)) for k, v in x.entries), None
        )


@dataclass(frozen=True)
class Dense:
    """Matrix operator on ambient dimension n."""

    matrix: ComplexMatrix

    @property
    def ambient(self) -> int | None:
        return self.matrix.n

    def apply(self, x: FiniteSupportVector) -> FiniteSupportVector:
        return self._matvec(self.matrix.array, x)

    def adjoint_apply(self, x: FiniteSupportVector) -> FiniteSupportVector:
        return self._matvec(self.matrix.array.conj().T, x)

    def gram_apply_inverse(
        self, x: FiniteSupportVector, tol: ToleranceConfig = DEFAULT_TOL
    ) -> FiniteSupportVector:
        arr = self.matrix.array
        if rank(arr, tol) < self.matrix.n:
            raise NotBoundedBelow(
                f"operator not bounded below at rank_tol={tol.rank_tol:g}"
            )
        gram = arr.conj().T @ arr
        y = solve(gram, x.dense(self.matrix.n), tol)
        return FiniteSupportVector.from_dense(y, self.matrix.n)

    def _matvec(self, arr: np.ndarray, x: FiniteSupportVector) -> FiniteSupportVector:
        if x.ambient != self.matrix.n:
            raise AmbientMismatch(
                f"vector ambient {x.ambient} does not match matrix size {self.matrix.n}"
            )
        return FiniteSupportVector.from_dense(arr @ x.dense(self.matrix.n), self.matrix.n)


@dataclass(frozen=True)
class DirectSum:
    """Direct sum of structured operators; see module docstring for layout."""

    parts: tuple["StructuredOperator", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("direct sum needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def ambient(self) -> int | None:
        dims = [p.ambient for p in self.parts]
        if any(d is None for d in dims):
            return None
        return int(sum(dims))

    @property
    def interleaved(self) -> bool:
        return self.ambient is None

    def _offsets(self) -> list[int]:
        offsets = [0]
        for p in self.parts:
            offsets.append(offsets[-1] + p.ambient)
        return offsets

    def embed(self, part_index: int, local: FiniteSupportVector) -> FiniteSupportVector:
        """Lift a vector on part ``part_index`` to the sum's global indices."""
        p = len(self.parts)
        part = self.parts[part_index]
        if local.ambient != part.ambient:
            raise AmbientMismatch(
                f"local ambient {local.ambient} does not match part ambient {part.ambient}"
            )
        if self.interleaved:
            entries = tuple((q * p + part_index, v) for q, v in local.entries)
            return FiniteSupportVector(entries, None)
        off = self._offsets()[part_index]
        entries = tuple((q + off, v) for q, v in local.entries)
        return FiniteSupportVector(entries, self.ambient)

    def decompose(self, x: FiniteSupportVector) -> list[FiniteSupportVector]:
        """Split a global vector into per-part local vectors."""
        if x.ambient != self.ambient:
            raise AmbientMismatch(f"vector ambient {x.ambient} does not match sum ambient {self.ambient}")
        p = len(self.parts)
        buckets: list[dict[int, complex]] = [dict() for _ in self.parts]
        if self.interleaved:
            for g, v in x.entries:
                r, q = g % p, g // p
                part = self.parts[r]
                if part.ambient is not None and q >= part.ambient:
                    raise AmbientMismatch(
                        f"global index {g} lands outside part {r} (dimension {part.ambient})"
                    )
                buckets[r][q] = v
        else:
            offsets = self._offsets()
            for g, v in x.entries:
                for r in range(p):
                    if offsets[r] <= g < offsets[r + 1]:
                        buckets[r][g - offsets[r]] = v
                        break
        return [
            FiniteSupportVector.from_dict(buckets[r], self.parts[r].ambient)
            for r in range(p)
        ]

    def recombine(self, locals_: Sequence[FiniteSupportVector]) -> FiniteSupportVector:
        out = FiniteSupportVector.zero(self.ambient)
        for r, local in enumerate(locals_):
            out = out.add(self.embed(r, local))
        return out

    def apply(self, x: FiniteSupportVector) -> FiniteSupportVector:
        return self.recombine([p.apply(v) for p, v in zip(self.parts, self.decompose(x))])

    def adjoint_apply(self, x: FiniteSupportVector) -> FiniteSupportVector:
        return self.recombine(
            [p.adjoint_apply(v) for p, v in zip(self.parts, self.decompose(x))]
        )

    def gram_apply_inverse(
        self, x: FiniteSupportVector, tol: ToleranceConfig = DEFAULT_TOL
    ) -> FiniteSupportVector:
        locals_ = self.decompose(x)
        images = []
        for p, v in zip(self.parts, locals_):
            if isinstance(p, Dense):
                images.append(p.gram_apply_inverse(v, tol))
            else:
                images.append(p.gram_apply_inverse(v))
        return self.recombine(images)


StructuredOperator = Union[Shift, Dense, DirectSum]


def _require_infinite(x: FiniteSupportVector) -> None:
    if x.ambient is not None:
        raise AmbientMismatch("shift operators act on infinite ambient (ambient=None)")


def isometric_shift() -> Shift:
    return Shift(EventuallyConstantWeights((), 1.0))


def dirichlet_shift(dual: bool = False) -> Shift:
    return Shift(DirichletWeights(dual=dual))


# ---------------------------------------------------------------------------
# operation entry points


def apply(T: StructuredOperator, x: FiniteSupportVector) -> FiniteSupportVector:
    return T.apply(x)


def adjoint_apply(T: StructuredOperator, x: FiniteSupportVector) -> FiniteSupportVector:
    return T.adjoint_apply(x)


def gram_apply_inverse(
    T: StructuredOperator, x: FiniteSupportVector, tol: ToleranceConfig = DEFAULT_TOL
) -> FiniteSupportVector:
    """Solve (T*T) y = x within the operator's structure."""
    if isinstance(T, Dense):
        return T.gram_apply_inverse(x, tol)
    if isinstance(T, DirectSum):
        return T.gram_apply_inverse(x, tol)
    return T.gram_apply_inverse(x)


def spectral_radius_estimate(T: StructuredOperator) -> float:
    """Spectral radius: exact weight limit for shifts, Schur-backed for dense."""
    if isinstance(T, Shift):
        return T.weights.limit()
    if isinstance(T, Dense):
        return spectral_radius(T.matrix)
    return max(spectral_radius_estimate(p) for p in T.parts)


def to_dense_matrix(T: StructuredOperator) -> ComplexMatrix:
    """Materialize a finite-ambient operator as a matrix (block diagonal sums)."""
    if isinstance(T, Dense):
        return T.matrix
    if isinstance(T, DirectSum):
        if T.ambient is None:
            raise UnsupportedRegime("cannot materialize a direct sum with infinite parts")
        n = T.ambient
        out = np.zeros((n, n), dtype=np.complex128)
        off = 0
        for p in T.parts:
            block = to_dense_matrix(p).array
            m = block.shape[0]
            out[off : off + m, off : off + m] = block
            off += m
        return ComplexMatrix(out)
    raise UnsupportedRegime("shift operators have no finite matrix form")


# ---------------------------------------------------------------------------
# JSON wire formats


def operator_to_json(T: StructuredOperator) -> dict:
    if isinstance(T, Shift):
        out: dict = {"kind": "shift"}
        out.update(T.weights.json_fields())
        return out
    if isinstance(T, Dense):
        return {"kind": "dense", "matrix": T.matrix.to_json()}
    if isinstance(T, DirectSum):
        return {"kind": "direct_sum", "parts": [operator_to_json(p) for p in T.parts]}
    raise UnsupportedRegime(f"unknown operator type {type(T).__name__}")


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
        if not parts:
            raise ValueError("direct_sum needs a nonempty 'parts' list")
        return DirectSum(tuple(operator_from_json(p) for p in parts))
    raise ValueError(f"unknown operator kind {kind!r}")


def vector_to_json(x: FiniteSupportVector) -> dict:
    return {
        "ambient": x.ambient,
        "entries": [[k, float(v.real), float(v.imag)] for k, v in x.entries],
    }


def vector_from_json(obj: dict) -> FiniteSupportVector:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("vector object must be a dict with an 'entries' field")
    ambient = obj.get("ambient")
    if ambient is not None:
        ambient = int(ambient)
    try:
        entries = tuple((int(k), complex(re, im)) for k, re, im in obj["entries"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed vector entries: {exc}") from exc
    return FiniteSupportVector(entries, ambient)
