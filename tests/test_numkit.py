"""Dense linear-algebra kernel tests: eigenvalue bounds, the stacked exponential, rank."""

import json
import math

import numpy as np
import pytest

import shiftmodels as sm
from shiftmodels.cli import _matrix, _matrix_json, _write
from shiftmodels.config import DEFAULT_TOL
from shiftmodels.errors import NonFinite
from shiftmodels.hardy import analytic_toeplitz_trunc
from shiftmodels.numkit import (
    ComplexMatrix,
    _rank_of,
    expm_stack,
    hermitian_max_eig,
    null_space_basis,
    rank,
    spectral_radius,
    two_norm,
)
from shiftmodels.operators import Dense, DirectSum, to_dense_matrix
from shiftmodels.semigroup import (
    SemigroupSpec,
    cogenerator,
    evolve,
    inverse_cayley,
    quasicontractive_rescale,
)
from shiftmodels.series import PowerSeries


def _random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * raw


def _expm(A) -> np.ndarray:
    """e^A as a one-member stack: one matrix's operations, raising the stack's refusal."""
    out, refusal = expm_stack(np.asarray(A, dtype=np.complex128)[None])
    if refusal is not None:
        raise refusal
    return out[0]


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _diag(entries) -> np.ndarray:
    return np.diag(np.array(entries, dtype=np.complex128))


def test_hermitian_max_eig_pinned_values():
    assert hermitian_max_eig(_diag([1.0, 1.0, 1.0])) == pytest.approx(1.0, abs=1e-14)
    assert hermitian_max_eig(_diag([0.0, 0.0])) == pytest.approx(0.0, abs=1e-14)
    assert hermitian_max_eig(_diag([-2.0, 5.0])) == pytest.approx(5.0, abs=1e-12)
    assert hermitian_max_eig(_diag([-2.0, -5.0])) == pytest.approx(-2.0, abs=1e-12)


def test_hermitian_max_eig_of_a_stack_is_that_of_each_matrix():
    # one eigvalsh call over any leading shape; each member keeps its 2-D bits
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((2, 3, 5, 5)) + 1j * rng.standard_normal((2, 3, 5, 5))
    tops = hermitian_max_eig(stack)
    assert tops.shape == (2, 3)
    for M, top in zip(stack.reshape(6, 5, 5), tops.ravel().tolist()):
        assert type(hermitian_max_eig(M)) is float
        assert repr(top) == repr(hermitian_max_eig(M))


def test_the_package_root_kernels_take_the_checked_array():
    # the root re-exports numkit's kernels, which take an array and neither convert nor
    # scan it: a caller's matrix is checked by ComplexMatrix first and passed as its .array
    assert sm.hermitian_max_eig is hermitian_max_eig and sm.spectral_radius is spectral_radius
    M = sm.ComplexMatrix([[1.0, 2.0], [0.0, 3.0]])
    assert sm.hermitian_max_eig(M.array) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-14)
    assert sm.spectral_radius(M.array) == pytest.approx(3.0, abs=1e-14)


def test_hermitian_max_eig_rayleigh_cross_check():
    # Rayleigh quotients lower-bound the top eigenvalue; sampling half the
    # vectors near the power-iteration vector makes the bound sharp, so the
    # reported eigenvalue is pinched from both sides without trusting any
    # single eigensolver.
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = (raw + raw.conj().T) / 2.0
        reported = hermitian_max_eig(herm)

        shifted = herm + (np.linalg.norm(herm, 2) + 1.0) * np.eye(n)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in range(300):
            u = shifted @ u
            u = u / np.linalg.norm(u)

        global_samples = rng.standard_normal((5000, n)) + 1j * rng.standard_normal((5000, n))
        local_samples = u + 1e-4 * (
            rng.standard_normal((5000, n)) + 1j * rng.standard_normal((5000, n))
        )
        samples = np.vstack([global_samples, local_samples])
        samples = samples / np.linalg.norm(samples, axis=1)[:, None]
        rayleigh = np.einsum("ij,jk,ik->i", samples.conj(), herm, samples).real
        best = float(rayleigh.max())

        assert best <= reported + 1e-12
        assert reported - best <= 1e-6


def test_hermitian_part_of_a_near_maximal_matrix_does_not_overflow():
    assert hermitian_max_eig(_diag([1.5e308, -1.5e308])) == 1.5e308
    assert hermitian_max_eig(_diag([-1.5e308, -1.6e308])) == -1.5e308


def test_matrix_with_non_finite_entries_is_refused_at_the_boundary():
    # the kernels trust their arrays: a NaN or an infinity is refused where a matrix enters
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(NonFinite, match="non-finite matrix entries"):
            ComplexMatrix([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFinite, match="non-finite matrix entries"):
            _matrix({"rows": 1, "cols": 1, "data": [[bad.real, bad.imag]]})


def test_expm_pinned_values():
    np.testing.assert_allclose(_expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(_expm(_diag([math.log(2.0)])), [[2.0]], atol=1e-14)
    nilpotent = [[0.0, 1.0], [0.0, 0.0]]
    np.testing.assert_allclose(_expm(nilpotent), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_refuses_overflow_near_the_float_maximum():
    # the 1-norm 1e308 is finite, but e^A overflows; so would norm / 0.5 and 2**1025
    with pytest.raises(NonFinite):
        _expm([[5e307, 5e307], [-5e307, 5e307]])


_SUITE_TIMES = tuple(k / 10.0 for k in range(1, 21)) + (0.05,)


@pytest.mark.parametrize("n", [1, 2, 6, 32])
def test_expm_stack_is_bit_identical_to_one_matrix_at_a_time(n):
    # one Pade pass over the whole stack, each member scaled by its own power of two and
    # squared in a prefix ordered by squaring count, changes no bit: the suite times span
    # several squaring counts per generator, here also shuffled with zero members between
    # the others.  A one-member call performs one matrix's operations, so it is the oracle
    rng = np.random.default_rng(1300 + n)
    for scale in (1.0, 10.0, 1e-3, 1e-100, 1e-300):
        for kind in ("skew", "dissipative", "general"):
            A = _random_matrix(rng, n, scale)
            if kind == "skew":
                A = (A - A.conj().T) / 2.0
            elif kind == "dissipative":
                A = A - 2.0 * scale * n * np.eye(n)
            for times in (_SUITE_TIMES, rng.permutation((*_SUITE_TIMES, 0.0, 0.0, 0.0))):
                stack = np.asarray(times)[:, None, None] * A
                out, refusal = expm_stack(stack)
                assert refusal is None and out.shape == stack.shape
                for member, single in zip(out, stack):
                    assert np.array_equal(member, _expm(single)), (kind, scale)


def test_expm_stack_makes_one_solve_for_the_suite_times(monkeypatch):
    # however many squaring counts the times span, the Pade diagonal is evaluated once
    shapes = []
    unpatched = np.linalg.solve

    def counting_solve(*args):
        shapes.append(args[0].shape)
        return unpatched(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    A = _random_matrix(np.random.default_rng(1302), 6)
    stack = np.asarray(_SUITE_TIMES)[:, None, None] * A
    squarings = {math.ceil(math.log2(np.abs(M).sum(axis=0).max() / 0.5)) for M in stack}
    _, refusal = expm_stack(stack)
    assert refusal is None and len(squarings) > 3
    assert shapes == [(21, 6, 6)]
    # with no member to evaluate, nothing is solved
    expm_stack(np.zeros((2, 6, 6), dtype=np.complex128))
    expm_stack(np.array([[[np.inf]], [[1.0]]], dtype=np.complex128))
    assert shapes == [(21, 6, 6)]


def test_expm_stack_judges_each_member():
    rng = np.random.default_rng(1301)
    A = _random_matrix(rng, 3)
    # a zero member is the exact identity, wherever it sits in the stack
    out, refusal = expm_stack(np.stack([A, np.zeros((3, 3)), 2.0 * A]))
    assert refusal is None
    assert np.array_equal(out[1], np.eye(3)) and np.array_equal(out[2], _expm(2.0 * A))
    # e^{-1e6} underflows to zero legitimately, beside a member that does not
    out, refusal = expm_stack(np.array([[[-1e6]], [[1.0]]], dtype=np.complex128))
    assert refusal is None and out[0, 0, 0] == 0.0 and out[1, 0, 0] == _expm([[1.0]])[0, 0]
    # a finite member whose 1-norm overflows is refused; the members before it are
    # computed, none after it
    huge = np.array([[1e308, 0.0], [1e308, 0.0]])
    out, refusal = expm_stack(np.array([A[:2, :2], huge, A[:2, :2]], dtype=np.complex128))
    assert isinstance(refusal, NonFinite) and "1-norm" in str(refusal)
    assert out.shape == (1, 2, 2) and np.array_equal(out[0], _expm(A[:2, :2]))
    # an overflowing member and an overscaled zero are refused in stack order
    overflow = [[5e307, 5e307], [-5e307, 5e307]]
    overscaled = 0.05 * np.array([[-200.0, 1e160], [0.0, -200.0]])
    for first, second, text in (
        (overflow, overscaled, "non-finite matrix exponential"),
        (overscaled, overflow, "overscaled it to zero"),
    ):
        out, refusal = expm_stack(np.array([A[:2, :2], first, second], dtype=np.complex128))
        assert isinstance(refusal, NonFinite) and text in str(refusal)
        assert out.shape == (1, 2, 2) and np.array_equal(out[0], _expm(A[:2, :2]))
    # a refused first member leaves nothing to compute, and an empty stack nothing to refuse
    out, refusal = expm_stack(np.array([huge, A[:2, :2]], dtype=np.complex128))
    assert isinstance(refusal, NonFinite) and "1-norm" in str(refusal) and out.shape == (0, 2, 2)
    out, refusal = expm_stack(np.empty((0, 3, 3), dtype=np.complex128))
    assert refusal is None and out.shape == (0, 3, 3)
    # a stack of zero members is a stack of identities
    out, refusal = expm_stack(np.zeros((2, 3, 3), dtype=np.complex128))
    assert refusal is None and np.array_equal(out, np.broadcast_to(np.eye(3), (2, 3, 3)))
    # a real stack, with a zero member and tied squaring counts, is taken as complex
    real = rng.standard_normal((3, 3))
    out, refusal = expm_stack(np.stack([real, np.zeros((3, 3)), real, -real]))
    assert refusal is None and out.dtype == np.complex128
    assert np.array_equal(out[1], np.eye(3)) and np.array_equal(out[0], out[2])
    for member, single in zip(out, (real, np.zeros((3, 3)), real, -real)):
        assert np.array_equal(member, _expm(single))
    assert expm_stack(np.array([[[1.0]]]))[0][0, 0, 0] == _expm([[1.0]])[0, 0]
    # only a (k, n, n) stack with n >= 1 is taken
    for shape in ((3, 3), (2, 3, 4), (2, 0, 0), (1, 2, 2, 2)):
        with pytest.raises(ValueError, match="stack must be"):
            expm_stack(np.zeros(shape))


def test_expm_inverse_residual():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        M = _random_matrix(rng, n)
        if two_norm(M) > 10.0:
            M = M * (10.0 / two_norm(M))
        product = _expm(M) @ _expm(-M)
        assert np.max(np.abs(product - np.eye(n))) <= 1e-10


def test_expm_similarity_invariance():
    # e^{S M S^{-1}} = S e^M S^{-1} for well-conditioned S.
    rng = np.random.default_rng(13)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        M = _random_matrix(rng, n)
        S = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert np.linalg.cond(S) <= 100.0
        lhs = _expm(S @ M @ np.linalg.inv(S))
        rhs = S @ _expm(M) @ np.linalg.inv(S)
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


def test_expm_semigroup_law():
    rng = np.random.default_rng(14)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        M = _random_matrix(rng, n, scale=0.5)
        s, t = rng.uniform(0.1, 2.0, size=2)
        lhs = _expm((s + t) * M)
        rhs = _expm(s * M) @ _expm(t * M)
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


def test_rank_pinned_and_unitary_invariance():
    assert rank(_diag([1.0] * 5), DEFAULT_TOL) == 5
    assert rank(_diag([0.0] * 4), DEFAULT_TOL) == 0
    u = np.array([1.0, 2.0j, -1.0])
    v = np.array([0.5, 1.0, 1.0j])
    assert rank(np.outer(u, v.conj()), DEFAULT_TOL) == 1

    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(0, n + 1))
        base = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        ) if r else np.zeros((n, n), dtype=complex)
        Q = _random_unitary(rng, n)
        assert rank(Q @ base, DEFAULT_TOL) == rank(base, DEFAULT_TOL)
        assert rank(base @ Q, DEFAULT_TOL) == rank(base, DEFAULT_TOL)


def test_rank_of_a_stack_is_the_rank_of_each_member():
    # planted ranks 0..5, and singular values on either side of the cutoff 1e-10 s_max
    rng = np.random.default_rng(18)
    members = [np.zeros((5, 5), dtype=complex), _diag([1.0, 1e-9, 1e-11, 0.0, 0.0])]
    for r in range(6):
        Q, W = _random_unitary(rng, 5), _random_unitary(rng, 5)
        members.append(Q @ _diag([3.0] * r + [0.0] * (5 - r)) @ W)
    stack = np.stack(members)
    ranks = _rank_of(np.linalg.svd(stack, compute_uv=False), DEFAULT_TOL)
    assert ranks.tolist() == [rank(M, DEFAULT_TOL) for M in members]
    assert ranks.tolist()[:2] == [0, 2]
    assert _rank_of(np.zeros((0, 5)), DEFAULT_TOL).shape == (0,)


def test_null_space_basis_matches_rank():
    M = np.ones((2, 2), dtype=np.complex128)
    kernel = null_space_basis(M)
    assert kernel.shape == (2, 1)
    assert np.max(np.abs(M @ kernel)) <= 1e-12


def test_overflowing_singular_values_are_refused():
    # invertible, with both singular values 1.5e308 * sqrt(2) past the float range;
    # read as inf they would give rank 0 and a kernel spanning the whole space
    A = np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]], dtype=np.complex128)
    for kernel in (rank, two_norm, null_space_basis):
        with pytest.raises(NonFinite):
            kernel(A)


def test_spectral_data_sanity():
    M = _diag([3.0, -5.0])
    assert spectral_radius(M) == pytest.approx(5.0, abs=1e-8)
    # equal-modulus pair and a defective block: no dominant eigenvector to iterate on
    assert spectral_radius(_diag([1.0, -1.0])) == pytest.approx(1.0, abs=1e-12)
    jordan = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]], dtype=np.complex128)
    assert spectral_radius(jordan) == pytest.approx(0.5, abs=1e-12)
    assert two_norm(M) == pytest.approx(5.0, abs=1e-12)


def test_empty_matrix_is_refused():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        ComplexMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        _matrix({"rows": 0, "cols": 0, "data": []})


def test_computed_matrices_are_read_only():
    # the checked records and every matrix the package hands out are read-only arrays
    M = ComplexMatrix([[0.0, 1.0], [-1.0, 0.5]])
    S = SemigroupSpec(M)
    V = cogenerator(S)
    computed = (
        M.array,
        _matrix({"rows": 2, "cols": 2, "data": [[0, 0], [1, 0], [-1, 0], [0.5, 0]]}).array,
        V.array,
        inverse_cayley(V).array,
        quasicontractive_rescale(S, 0.5).generator.array,
        evolve(S, 0.5),
        evolve(S, 0.0),
        to_dense_matrix(Dense(M)),
        to_dense_matrix(DirectSum((Dense(M), Dense(M)))),  # assembled block by block
        analytic_toeplitz_trunc(PowerSeries((1.0, 0.5j)), 3),
    )
    for arr in computed:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.complex128
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_matrix_json_round_trip():
    M = ComplexMatrix([[1.0 + 2.0j, 0.0], [3.0, -1.0j]])
    again = _matrix(json.loads(_write(_matrix_json(M))))
    np.testing.assert_array_equal(again.array, M.array)
    with pytest.raises(ValueError):
        _matrix({"rows": 2, "cols": 3, "data": [[0.0, 0.0]] * 6})
