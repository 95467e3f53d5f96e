"""Structured operator tests: shifts, dense blocks, direct sums, JSON formats."""

import math
import warnings

import numpy as np
import pytest

from shiftmodels.errors import AmbientMismatch, NonFinite
from shiftmodels.numkit import ComplexMatrix
from shiftmodels.operators import (
    Dense,
    DirectSum,
    EventuallyConstantWeights,
    FiniteSupportVector,
    Shift,
    _act,
    dirichlet_shift,
    isometric_shift,
    operator_from_json,
    spectral_radius_estimate,
    vector_from_json,
)
from shiftmodels.shimorin import cauchy_dual

SQRT2 = math.sqrt(2.0)


def _adjoint_apply(T, y: FiniteSupportVector) -> FiniteSupportVector:
    return _act(T, y, True, "T* y")


def _inner(x: FiniteSupportVector, y: FiniteSupportVector) -> complex:
    """Linear in the first slot: sum_k x_k * conj(y_k)."""
    ys = y.as_dict()
    return sum(v * ys.get(k, 0.0).conjugate() for k, v in x.entries)


def _random_vector(
    rng: np.random.Generator, max_index: int = 12, ambient: int | None = None
) -> FiniteSupportVector:
    size = min(int(rng.integers(1, 6)), max_index + 1)
    support = rng.choice(max_index + 1, size=size, replace=False)
    entries = {
        int(k): complex(rng.standard_normal(), rng.standard_normal()) for k in support
    }
    return FiniteSupportVector.from_dict(entries, ambient=ambient)


def test_apply_pinned_values():
    e0 = FiniteSupportVector.basis(0)
    assert isometric_shift().apply(e0).as_dict() == {1: 1.0 + 0.0j}

    v = FiniteSupportVector.from_dict({0: 2.0, 1: -1.0j}, ambient=2)
    eye = Dense(ComplexMatrix(np.eye(2)))
    assert eye.apply(v).as_dict() == v.as_dict()

    image = dirichlet_shift().apply(e0)
    assert set(image.as_dict()) == {1}
    assert image.as_dict()[1] == pytest.approx(SQRT2, abs=1e-15)


def test_adjoint_apply_pinned_values():
    S = isometric_shift()
    assert _adjoint_apply(S, FiniteSupportVector.basis(0)).as_dict() == {}
    assert _adjoint_apply(S, FiniteSupportVector.basis(1)).as_dict() == {0: 1.0 + 0.0j}

    back = _adjoint_apply(dirichlet_shift(), FiniteSupportVector.basis(1))
    assert set(back.as_dict()) == {0}
    assert back.as_dict()[0] == pytest.approx(SQRT2, abs=1e-15)


def test_spectral_radius_estimates():
    assert spectral_radius_estimate(isometric_shift()) == pytest.approx(1.0, abs=1e-15)
    assert spectral_radius_estimate(Dense(ComplexMatrix.diagonal([3.0, -5.0]))) == pytest.approx(
        5.0, abs=1e-8
    )
    # Cauchy dual of the Dirichlet shift: weights sqrt((k+1)/(k+2)), tail limit 1.
    assert spectral_radius_estimate(dirichlet_shift(dual=True)) == pytest.approx(1.0, abs=1e-15)


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
    V = DirectSum((dense, Dense(ComplexMatrix.diagonal([1.0j]))))
    # contiguous layout: block 0 owns indices 0..1, block 1 owns index 2
    x = FiniteSupportVector.from_dict({1: 1.0, 2: 2.0}, ambient=3)
    image = V.apply(x)
    assert image.as_dict()[0] == pytest.approx(1.0)
    assert 1 not in image.as_dict()
    assert image.as_dict()[2] == pytest.approx(2.0j)


def test_direct_sum_round_robin_for_infinite_parts():
    V = DirectSum((isometric_shift(), isometric_shift()))
    # round-robin layout: part r, local index q sit at flat index 2q + r
    image = V.apply(FiniteSupportVector.basis(0))
    assert image.as_dict() == {2: 1.0 + 0.0j}
    image = V.apply(FiniteSupportVector.basis(1))
    assert image.as_dict() == {3: 1.0 + 0.0j}


def test_ambient_mismatch_raised():
    eye = Dense(ComplexMatrix(np.eye(2)))
    with pytest.raises(AmbientMismatch):
        eye.apply(FiniteSupportVector.basis(5))


def test_vector_algebra():
    x = FiniteSupportVector.from_dict({0: 1.0 + 1.0j})
    y = FiniteSupportVector.from_dict({0: 2.0})
    # scaling multiplies each amplitude
    assert x.scale(3.0).as_dict() == {0: 3.0 + 3.0j}
    assert y.scale(1.0j).as_dict() == {0: 2.0j}
    assert x.add(y).as_dict()[0] == pytest.approx(3.0 + 1.0j)
    assert x.sub(y).as_dict()[0] == pytest.approx(-1.0 + 1.0j)
    assert x.norm() == pytest.approx(SQRT2, abs=1e-15)


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
        ({"kind": "shift", "law": "dirichlet-dual"}, dirichlet_shift(dual=True)),
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
            DirectSum((Dense(ComplexMatrix.diagonal([1.0j])), dirichlet_shift())),
        ),
    )
    for wire, expected in cases:
        _assert_same_operator(operator_from_json(wire), expected)


def test_vector_json_round_trip():
    # a literal wire dict: entries are [index, re, im], ambient is optional
    x = vector_from_json({"entries": [[7, 0.25, 0.0], [0, 1.0, -2.0]]})
    assert x.entries == ((0, 1.0 - 2.0j), (7, 0.25 + 0.0j))
    assert x.ambient is None
    assert vector_from_json({"ambient": 8, "entries": [[7, 0.25, 0.0]]}).ambient == 8


def _mixed_sum() -> DirectSum:
    # round robin: global 2q is local q of the 2x2 block, global 2q + 1 local q of the shift
    dense = Dense(ComplexMatrix([[0.0, 1.0], [2.0, 0.0]]))
    return DirectSum((dense, Shift(EventuallyConstantWeights((3.0,), 1.0))))


def test_mixed_direct_sum_pinned_entries():
    V = _mixed_sum()
    x = FiniteSupportVector.from_dict({0: 1.0, 1: 1.0, 2: 1.0j, 3: 2.0})
    # block: A (1, i) = (i, 2); shift: T (e_0 + 2 e_1) = 3 e_1 + 2 e_2
    assert V.apply(x).as_dict() == {0: 1.0j, 2: 2.0, 3: 3.0, 5: 2.0}
    # block: A* (1, i) = (2i, 1); shift: T* (e_0 + 2 e_1) = 6 e_0
    assert _adjoint_apply(V, x).as_dict() == {0: 2.0j, 1: 6.0, 2: 1.0}


def test_nested_direct_sum_pinned_entries():
    # outer part 0 is the iso + Dirichlet sum (its own round robin), part 1 is 2 on C^1
    inner = DirectSum((isometric_shift(), dirichlet_shift()))
    V = DirectSum((inner, Dense(ComplexMatrix.diagonal([2.0]))))
    x = FiniteSupportVector.from_dict({0: 1.0, 1: 5.0, 2: 1.0j, 4: 3.0})
    image = V.apply(x)
    assert set(image.as_dict()) == {1, 4, 6, 8}
    assert image.as_dict()[1] == 10.0
    assert image.as_dict()[4] == 1.0 and image.as_dict()[8] == 3.0
    assert image.as_dict()[6] == pytest.approx(SQRT2 * 1j, abs=1e-15)
    # the Dirichlet part loses its e_0, the isometric one moves 3 e_1 to 3 e_0
    assert _adjoint_apply(V, x).as_dict() == {0: 3.0, 1: 10.0}


@pytest.mark.parametrize("method", ["apply", "adjoint_apply"])
def test_direct_sum_refuses_an_index_outside_a_finite_part(method):
    # the forward action T x and the adjoint action T* x alike; global 4 is local 2 of
    # the 2-dimensional block
    adjoint = method == "adjoint_apply"
    x = FiniteSupportVector.from_dict({3: 1.0, 4: 1.0})
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
    x = FiniteSupportVector.from_dict({i: complex(i + 1, -0.5 * i) for i in range(12)})
    for dual in (False, True):
        shift = dirichlet_shift(dual)
        reference = [math.sqrt(shift.weights.weight_sq(i)) for i in k]
        assert shift.weights.at(k).tolist() == reference
        # T x is the scalar product w_k x_k, entry by entry
        assert shift.apply(x).as_dict() == {i + 1: w * v for (i, v), w in zip(x.entries, reference)}


def test_vector_indices_stay_in_the_array_range():
    FiniteSupportVector.basis(2**62 - 1)
    with pytest.raises(ValueError, match="2\\*\\*62"):
        FiniteSupportVector.basis(2**62)
