"""Structured operator tests: shifts, dense blocks, direct sums, JSON formats."""

import math
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from shiftmodels.classify import classify_operator
from shiftmodels.cli import _operator, _vector
from shiftmodels.errors import AmbientMismatch, NonFinite, UnsupportedRegime
from shiftmodels.hardy import analytic_toeplitz_trunc
from shiftmodels.numkit import ComplexMatrix
from shiftmodels.operators import (
    Dense,
    DirectSum,
    DirichletWeights,
    EventuallyConstantWeights,
    FiniteSupportVector,
    Shift,
    _act,
    dirichlet_shift,
    isometric_shift,
    to_dense_matrix,
)
from shiftmodels.series import PowerSeries
from shiftmodels.shimorin import build_model, cauchy_dual, verify_reproducing, wold_decompose

SQRT2 = math.sqrt(2.0)


def _adjoint_apply(T, y: FiniteSupportVector) -> FiniteSupportVector:
    return _act(T, y, True, "T* y")


def _inner(x: FiniteSupportVector, y: FiniteSupportVector) -> complex:
    """Linear in the first slot: sum_k x_k * conj(y_k)."""
    ys = dict(y.entries)
    return sum(v * ys.get(k, 0.0).conjugate() for k, v in x.entries)


def _random_vector(
    rng: np.random.Generator, max_index: int = 12, ambient: int | None = None
) -> FiniteSupportVector:
    size = min(int(rng.integers(1, 6)), max_index + 1)
    support = rng.choice(max_index + 1, size=size, replace=False)
    entries = {
        int(k): complex(rng.standard_normal(), rng.standard_normal()) for k in support
    }
    return FiniteSupportVector(tuple(entries.items()), ambient)


def test_apply_pinned_values():
    e0 = FiniteSupportVector.basis(0)
    assert dict(isometric_shift().apply(e0).entries) == {1: 1.0 + 0.0j}

    v = FiniteSupportVector(tuple({0: 2.0, 1: -1.0j}.items()), 2)
    eye = Dense(ComplexMatrix(np.eye(2)))
    assert dict(eye.apply(v).entries) == dict(v.entries)

    image = dict(dirichlet_shift().apply(e0).entries)
    assert set(image) == {1}
    assert image[1] == pytest.approx(SQRT2, abs=1e-15)


def test_adjoint_apply_pinned_values():
    S = isometric_shift()
    assert dict(_adjoint_apply(S, FiniteSupportVector.basis(0)).entries) == {}
    assert dict(_adjoint_apply(S, FiniteSupportVector.basis(1)).entries) == {0: 1.0 + 0.0j}

    back = dict(_adjoint_apply(dirichlet_shift(), FiniteSupportVector.basis(1)).entries)
    assert set(back) == {0}
    assert back[0] == pytest.approx(SQRT2, abs=1e-15)


def test_adjoint_pairing():
    rng = np.random.default_rng(21)
    shift = Shift(EventuallyConstantWeights((1.3, 0.7), 1.1))
    for _ in range(25):
        x = _random_vector(rng)
        y = _random_vector(rng)
        lhs = _inner(shift.apply(x), y)
        rhs = _inner(x, _adjoint_apply(shift, y))
        assert lhs == pytest.approx(rhs, abs=1e-14)

    dense = Dense(ComplexMatrix(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))))
    for _ in range(25):
        x = _random_vector(rng, max_index=4, ambient=5)
        y = _random_vector(rng, max_index=4, ambient=5)
        lhs = _inner(dense.apply(x), y)
        rhs = _inner(x, _adjoint_apply(dense, y))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_cauchy_dual_left_inverse_identity():
    # adjoint of the Cauchy dual is a left inverse of T on finite supports.
    rng = np.random.default_rng(22)
    for T in (isometric_shift(), dirichlet_shift(), Shift(EventuallyConstantWeights((2.0,), 1.0))):
        for _ in range(10):
            x = _random_vector(rng)
            back = _adjoint_apply(cauchy_dual(T), T.apply(x))
            diff = back.sub(x)
            assert diff.norm() <= 1e-14 * max(1.0, x.norm())


def test_direct_sum_acts_blockwise():
    dense = Dense(ComplexMatrix([[0.0, 1.0], [0.0, 0.0]]))
    V = DirectSum((dense, Dense(ComplexMatrix(np.diag([1.0j])))))
    # contiguous layout: block 0 owns indices 0..1, block 1 owns index 2
    x = FiniteSupportVector(tuple({1: 1.0, 2: 2.0}.items()), 3)
    image = dict(V.apply(x).entries)
    assert image[0] == pytest.approx(1.0)
    assert 1 not in image
    assert image[2] == pytest.approx(2.0j)


def test_direct_sum_round_robin_for_infinite_parts():
    V = DirectSum((isometric_shift(), isometric_shift()))
    # round-robin layout: part r, local index q sit at flat index 2q + r
    image = V.apply(FiniteSupportVector.basis(0))
    assert dict(image.entries) == {2: 1.0 + 0.0j}
    image = V.apply(FiniteSupportVector.basis(1))
    assert dict(image.entries) == {3: 1.0 + 0.0j}


def test_ambient_mismatch_raised():
    eye = Dense(ComplexMatrix(np.eye(2)))
    with pytest.raises(AmbientMismatch):
        eye.apply(FiniteSupportVector.basis(5))


def test_vector_algebra():
    x = FiniteSupportVector(tuple({0: 1.0 + 1.0j}.items()))
    y = FiniteSupportVector(tuple({0: 2.0}.items()))
    # scaling multiplies each amplitude
    assert dict(x.scale(3.0).entries) == {0: 3.0 + 3.0j}
    assert dict(y.scale(1.0j).entries) == {0: 2.0j}
    assert dict(x.add(y).entries)[0] == pytest.approx(3.0 + 1.0j)
    assert dict(x.sub(y).entries)[0] == pytest.approx(-1.0 + 1.0j)
    assert x.norm() == pytest.approx(SQRT2, abs=1e-15)


@pytest.mark.parametrize(
    "entries, expected",
    [
        # a square past the float range raises in the power, a sum past it is inf
        (((0, 1e200), (3, 1e200j)), 1e200 * SQRT2),
        (((0, 1e154), (1, -1e154)), 1e154 * SQRT2),
    ],
)
def test_vector_norm_is_scaled_where_its_square_overflows(entries, expected):
    assert FiniteSupportVector(entries).norm() == pytest.approx(expected, rel=1e-15)


def test_vector_norm_past_the_float_range_is_inf():
    # both parts are finite, but the modulus is not: abs of the complex would raise
    assert FiniteSupportVector(((0, 1.7e308 + 1.7e308j),)).norm() == math.inf
    assert FiniteSupportVector(((0, 1e-300), (4, -1.7e308 + 1.7e308j))).norm() == math.inf


def test_vector_norm_is_scaled_where_its_square_underflows():
    # each square is below the smallest double, so the plain sum reads 0 for a nonzero vector
    assert FiniteSupportVector(((0, 1e-200),)).norm() == 1e-200
    assert abs(FiniteSupportVector(((0, 3e-200), (5, 4e-200j))).norm() - 5e-200) <= math.ulp(5e-200)
    # a square below the normal range but not 0: sqrt of a subnormal sum loses digits
    assert FiniteSupportVector(((0, 1e-160),)).norm() == 1e-160
    assert FiniteSupportVector(((0, 0.0), (2, 0.0))).norm() == 0.0
    # 5.0 is the correctly rounded norm: the part 1e-150 adds 1e-301 to 25
    assert FiniteSupportVector(((0, 3.0), (1, 4.0j), (7, 1e-150))).norm() == 5.0


def _exact_norm(parts: list[float]) -> Decimal:
    """The 2-norm of ``parts`` to 60 digits: the exact sum of squares, then one square root."""
    square = sum(Fraction(p) ** 2 for p in parts)
    with localcontext() as context:
        context.prec = 60
        return (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()


def _norm_cases() -> list[list[complex]]:
    """Amplitude lists whose parts run from 5e-324 to 1.7e308: fixed extremes, then seeded
    vectors of one random scale each (norms from subnormal to past the float range) and of
    parts spread over every scale."""
    cases = [
        [5e-324],
        [5e-324 + 5e-324j],
        [1.7e308 + 1.7e308j],
        [1.7e308, 1e-300j, 5e-324],
        [1.2e308 + 1.2e308j],  # just below the float maximum
        [1.3e308 + 1.3e308j],  # just past it
        [2.2250738585072014e-308 + 5e-324j, 1e-320],
    ]
    rng = np.random.default_rng(1701)
    for _ in range(200):
        size = int(rng.integers(1, 9))
        signs = rng.choice((-1.0, 1.0), 2 * size)
        center = rng.uniform(-1074.0, 1024.0)
        spread = 4.0 if rng.random() < 0.5 else 2100.0
        exponents = np.clip(rng.uniform(center - spread, center + spread, 2 * size), -1074, 1023.9)
        parts = np.clip(signs * np.exp2(exponents), -1.7e308, 1.7e308).tolist()
        parts = [math.copysign(max(abs(p), 5e-324), p) for p in parts]
        cases.append([complex(re, im) for re, im in zip(parts[0::2], parts[1::2])])
    return cases


def test_vector_norm_is_within_one_ulp_of_the_exact_norm():
    # inf only where the exact norm passes the float maximum; elsewhere at most 1 ulp off
    largest = Decimal(sys.float_info.max)
    for amplitudes in _norm_cases():
        x = FiniteSupportVector(tuple(enumerate(amplitudes)))
        parts = [part for v in amplitudes for part in (v.real, v.imag)]
        exact, norm = _exact_norm(parts), x.norm()
        if norm == math.inf:
            assert exact > largest, amplitudes
        else:
            assert abs(Decimal(norm) - exact) <= Decimal(math.ulp(norm)), amplitudes


def _assert_same_operator(S, T) -> None:
    assert type(S) is type(T)
    if isinstance(S, Shift):
        assert S.weights == T.weights
    elif isinstance(S, Dense):
        np.testing.assert_array_equal(S.matrix.array, T.matrix.array)
    else:
        assert len(S.parts) == len(T.parts)
        for a, b in zip(S.parts, T.parts):
            _assert_same_operator(a, b)


_ROTATION = {"rows": 2, "cols": 2, "data": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]}


def test_operator_json_round_trip():
    # literal wire dicts pin the format independently of any serializer
    cases = (
        ({"kind": "shift", "law": "dirichlet"}, dirichlet_shift()),
        ({"kind": "shift", "law": "dirichlet-dual"}, Shift(DirichletWeights(dual=True))),
        (
            {"kind": "shift", "head_weights": [1.5, 0.5], "tail_weight": 1.0},
            Shift(EventuallyConstantWeights((1.5, 0.5), 1.0)),
        ),
        (
            {"kind": "dense", "matrix": _ROTATION},
            Dense(ComplexMatrix([[0.0, 1.0], [-1.0, 0.0]])),
        ),
        (
            {
                "kind": "direct_sum",
                "parts": [
                    {"kind": "dense", "matrix": {"rows": 1, "cols": 1, "data": [[0.0, 1.0]]}},
                    {"kind": "shift", "law": "dirichlet"},
                ],
            },
            DirectSum((Dense(ComplexMatrix(np.diag([1.0j]))), dirichlet_shift())),
        ),
    )
    for wire, expected in cases:
        _assert_same_operator(_operator(wire), expected)


def test_vector_json_round_trip():
    # a literal wire dict: entries are [index, re, im], ambient is optional
    x = _vector({"entries": [[7, 0.25, 0.0], [0, 1.0, -2.0]]})
    assert x.entries == ((0, 1.0 - 2.0j), (7, 0.25 + 0.0j))
    assert x.ambient is None
    assert _vector({"ambient": 8, "entries": [[7, 0.25, 0.0]]}).ambient == 8


def _mixed_sum() -> DirectSum:
    # round robin: global 2q is local q of the 2x2 block, global 2q + 1 local q of the shift
    dense = Dense(ComplexMatrix([[0.0, 1.0], [2.0, 0.0]]))
    return DirectSum((dense, Shift(EventuallyConstantWeights((3.0,), 1.0))))


def test_mixed_direct_sum_pinned_entries():
    V = _mixed_sum()
    x = FiniteSupportVector(tuple({0: 1.0, 1: 1.0, 2: 1.0j, 3: 2.0}.items()))
    # block: A (1, i) = (i, 2); shift: T (e_0 + 2 e_1) = 3 e_1 + 2 e_2
    assert dict(V.apply(x).entries) == {0: 1.0j, 2: 2.0, 3: 3.0, 5: 2.0}
    # block: A* (1, i) = (2i, 1); shift: T* (e_0 + 2 e_1) = 6 e_0
    assert dict(_adjoint_apply(V, x).entries) == {0: 2.0j, 1: 6.0, 2: 1.0}


def test_nested_direct_sum_pinned_entries():
    # outer part 0 is the iso + Dirichlet sum (its own round robin), part 1 is 2 on C^1
    inner = DirectSum((isometric_shift(), dirichlet_shift()))
    V = DirectSum((inner, Dense(ComplexMatrix(np.diag([2.0])))))
    x = FiniteSupportVector(tuple({0: 1.0, 1: 5.0, 2: 1.0j, 4: 3.0}.items()))
    image = dict(V.apply(x).entries)
    assert set(image) == {1, 4, 6, 8}
    assert image[1] == 10.0
    assert image[4] == 1.0 and image[8] == 3.0
    assert image[6] == pytest.approx(SQRT2 * 1j, abs=1e-15)
    # the Dirichlet part loses its e_0, the isometric one moves 3 e_1 to 3 e_0
    assert dict(_adjoint_apply(V, x).entries) == {0: 3.0, 1: 10.0}


@pytest.mark.parametrize("method", ["apply", "adjoint_apply"])
def test_direct_sum_refuses_an_index_outside_a_finite_part(method):
    # the forward action T x and the adjoint action T* x alike; global 4 is local 2 of
    # the 2-dimensional block
    adjoint = method == "adjoint_apply"
    x = FiniteSupportVector(tuple({3: 1.0, 4: 1.0}.items()))
    with pytest.raises(AmbientMismatch, match="global index 4 lands outside part 0"):
        _act(_mixed_sum(), x, adjoint, "T x")
    nested = DirectSum((isometric_shift(), DirectSum((_mixed_sum(),))))
    with pytest.raises(AmbientMismatch, match="global index 4 lands outside part 0"):
        _act(nested, FiniteSupportVector.basis(9), adjoint, "T x")


@pytest.mark.parametrize("method, index", [("apply", 0), ("adjoint_apply", 1)])
def test_shift_refuses_overflow_without_warnings(method, index):
    adjoint = method == "adjoint_apply"
    shift = Shift(EventuallyConstantWeights((), 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            _act(shift, FiniteSupportVector(((index, 1e10),), None), adjoint, "T x")


def test_weight_lookup_matches_the_scalar_rules():
    k = np.arange(12)
    for rule in (EventuallyConstantWeights((1.5, 0.25, 3.0), 0.75), EventuallyConstantWeights()):
        reference = [rule.head[i] if i < len(rule.head) else rule.tail for i in k]
        assert rule.at(k).tolist() == reference
    x = FiniteSupportVector(tuple({i: complex(i + 1, -0.5 * i) for i in range(12)}.items()))
    for dual in (False, True):
        shift = Shift(DirichletWeights(dual=dual))
        reference = [math.sqrt((i + 1) / (i + 2) if dual else (i + 2) / (i + 1)) for i in k]
        weights = shift.weights.at(k).tolist()
        assert weights == pytest.approx(reference, rel=1e-15)
        # T x is the scalar product w_k x_k, entry by entry
        image = {i + 1: w * v for (i, v), w in zip(x.entries, weights)}
        assert dict(shift.apply(x).entries) == image


@pytest.mark.parametrize(
    "rule, sup, inf, defects",
    [
        (EventuallyConstantWeights((1.5, 0.5), 1.0), 1.5, 0.5, (-2.9375, 0.75)),
        (EventuallyConstantWeights((), 0.9), 0.9, 0.9, (0.0361, 0.0361)),
        (DirichletWeights(), math.sqrt(2.0), 1.0, (0.0, 0.0)),
        (DirichletWeights(dual=True), 1.0, math.sqrt(0.5), (0.0, 1.0 / 3.0)),
    ],
    ids=["head", "constant", "dirichlet", "dirichlet-dual"],
)
def test_weight_rule_bounds_are_pinned(rule, sup, inf, defects):
    # defects w_k^2 w_{k+1}^2 - 2 w_k^2 + 1 of (1.5, 0.5, 1, ...): 2.25 * 0.25 - 4.5 + 1,
    # 0.25 - 0.5 + 1, then 0; of the constant 0.9: (1 - 0.81)^2; of the Dirichlet dual:
    # 2 / ((k+2)(k+3)), largest at k = 0
    assert rule.sup() == sup and rule.inf() == inf
    assert rule.defect_range() == pytest.approx(defects, rel=1e-15, abs=1e-15)


_NAN = complex(float("nan"), 0.0)
_NOT_BELOW = "is not below 2\\*\\*62"


@pytest.mark.parametrize(
    "entries, ambient, error, message",
    [
        (((0, 1.0), (-1, 1.0), (-2, 1.0)), None, ValueError, "negative index -1"),
        (((1, 1.0), (2**62, 1.0), (-1, 1.0)), None, ValueError, f"index {2**62} {_NOT_BELOW}"),
        # a Python int past int64: refused before any array conversion could overflow
        (((1, 1.0), (2**70, 1.0)), None, ValueError, f"index {2**70} {_NOT_BELOW}"),
        # a dropped zero still claims its index
        (((3, 0.0), (1, 1.0), (3, 2.0), (-1, 1.0)), None, ValueError, "duplicate index 3"),
        (((1, 1.0), (4, 1.0), (-1, 1.0)), 4, ValueError, "index 4 outside ambient dimension 4"),
        (((2, 1.0), (5, _NAN), (-1, 1.0)), None, NonFinite, "non-finite amplitude at index 5"),
    ],
    ids=["negative", "2**62", "2**70", "duplicate", "outside-ambient", "nan"],
)
def test_vector_constructor_names_the_first_offending_entry(entries, ambient, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        FiniteSupportVector(entries, ambient)


def test_vector_holds_read_only_arrays_without_zeros():
    x = FiniteSupportVector(((7, 0.25), (0, 1.0 - 2.0j), (3, 0.0), (5, -0.0j)), None)
    assert x.indices.dtype == np.int64 and x.values.dtype == np.complex128
    assert x.indices.tolist() == [0, 7] and x.values.tolist() == [1.0 - 2.0j, 0.25]
    assert x.entries == ((0, 1.0 - 2.0j), (7, 0.25 + 0.0j))
    again = FiniteSupportVector(x.entries, x.ambient)
    assert again.entries == x.entries and again.ambient is None
    # a computed vector holds its arrays the same way: T x of (1, 1) under diag(0, 1) is e_1
    ones = FiniteSupportVector(((0, 1.0), (1, 1.0)), 2)
    image = Dense(ComplexMatrix(np.diag([0.0, 1.0]))).apply(ones)
    assert image.entries == ((1, 1.0 + 0.0j),)
    for y in (x, image):
        for arr in (y.indices, y.values):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
    with pytest.raises(AttributeError):
        x.ambient = 3


def test_vector_indices_stay_in_the_array_range():
    FiniteSupportVector.basis(2**62 - 1)
    with pytest.raises(ValueError, match="2\\*\\*62"):
        FiniteSupportVector.basis(2**62)


def test_reciprocal_weights_are_the_scalar_quotients():
    # array division rounds as the scalar one does, down to a weight whose reciprocal is near
    # the float maximum; one past it, the dual leaves the float range
    rule = EventuallyConstantWeights((6e-309, 0.7, 3.0, 1e300), 1.0 / 3.0)
    dual = rule.reciprocal()
    assert dual.head == tuple(1.0 / w for w in rule.head) and dual.tail == 3.0
    with pytest.raises(NonFinite, match="^non-finite Cauchy dual weights$"):
        EventuallyConstantWeights((1e-320,), 1.0).reciprocal()


def _unit(ambient):
    return FiniteSupportVector(((0, 1.0),), ambient)


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: _unit(2).add(_unit(None)), AmbientMismatch, "ambient mismatch: 2 vs None"),
        (lambda: DirectSum(()), ValueError, "direct sum needs at least one part"),
        (
            lambda: to_dense_matrix(DirectSum((isometric_shift(),))),
            UnsupportedRegime,
            "cannot materialize a direct sum with infinite parts",
        ),
        (
            lambda: to_dense_matrix(isometric_shift()),
            UnsupportedRegime,
            "shift operators have no finite matrix form",
        ),
        (
            lambda: ComplexMatrix(np.zeros((2, 3))),
            ValueError,
            "matrix must be square, got shape (2, 3)",
        ),
        (
            lambda: analytic_toeplitz_trunc(PowerSeries([1.0]), 0),
            ValueError,
            "dimension must be positive",
        ),
        (lambda: build_model(object()), UnsupportedRegime, "unsupported operator type object"),
        (
            lambda: verify_reproducing(build_model(isometric_shift()), _unit(None), 0.3, [1, 1]),
            ValueError,
            "defect coordinates must have shape (1,)",
        ),
        (
            lambda: wold_decompose(object()),
            UnsupportedRegime,
            "cannot decompose operator type object",
        ),
        (
            lambda: classify_operator(object()),
            UnsupportedRegime,
            "cannot classify operator of type object",
        ),
    ],
)
def test_refusals_only_library_callers_reach(call, error, text):
    # the command line cannot build these inputs: its JSON readers refuse them first
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == text
