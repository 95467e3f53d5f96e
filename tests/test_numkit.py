"""Dense linear-algebra kernel tests: eigenvalue bounds, expm, solve, rank."""

import math

import numpy as np
import pytest

from shiftmodels.config import DEFAULT_TOL
from shiftmodels.errors import NonFinite, Singular
from shiftmodels.numkit import (
    ComplexMatrix,
    eigenvalues,
    expm,
    hermitian_max_eig,
    hermitian_min_eig,
    null_space_basis,
    orthonormal_range_basis,
    rank,
    solve,
    spectral_radius,
    two_norm,
)


def _random_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> ComplexMatrix:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ComplexMatrix(scale * raw)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_hermitian_max_eig_pinned_values():
    assert hermitian_max_eig(ComplexMatrix.identity(3)) == pytest.approx(1.0, abs=1e-14)
    assert hermitian_max_eig(ComplexMatrix.zeros(2)) == pytest.approx(0.0, abs=1e-14)
    assert hermitian_max_eig(ComplexMatrix.diagonal([-2.0, 5.0])) == pytest.approx(5.0, abs=1e-12)
    assert hermitian_min_eig(ComplexMatrix.diagonal([-2.0, 5.0])) == pytest.approx(-2.0, abs=1e-12)


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
        reported = hermitian_max_eig(ComplexMatrix(herm))

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


def test_hermitian_max_eig_rejects_nonfinite():
    with pytest.raises(NonFinite):
        hermitian_max_eig(ComplexMatrix.from_rows([[np.nan, 0.0], [0.0, 1.0]]))


def test_expm_pinned_values():
    np.testing.assert_allclose(expm(ComplexMatrix.zeros(3)).array, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(
        expm(ComplexMatrix.diagonal([math.log(2.0)])).array, [[2.0]], atol=1e-14
    )
    nilpotent = ComplexMatrix.from_rows([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(expm(nilpotent).array, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_inverse_residual():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        M = _random_matrix(rng, n)
        if two_norm(M) > 10.0:
            M = ComplexMatrix(M.array * (10.0 / two_norm(M)))
        product = expm(M).array @ expm(ComplexMatrix(-M.array)).array
        assert np.max(np.abs(product - np.eye(n))) <= 1e-10


def test_expm_similarity_invariance():
    # expm(S M S^{-1}) = S expm(M) S^{-1} for well-conditioned S.
    rng = np.random.default_rng(13)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        M = _random_matrix(rng, n).array
        S = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert np.linalg.cond(S) <= 100.0
        lhs = expm(ComplexMatrix(S @ M @ np.linalg.inv(S))).array
        rhs = S @ expm(ComplexMatrix(M)).array @ np.linalg.inv(S)
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


def test_expm_semigroup_law():
    rng = np.random.default_rng(14)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        M = _random_matrix(rng, n, scale=0.5).array
        s, t = rng.uniform(0.1, 2.0, size=2)
        lhs = expm(ComplexMatrix((s + t) * M)).array
        rhs = expm(ComplexMatrix(s * M)).array @ expm(ComplexMatrix(t * M)).array
        assert np.max(np.abs(lhs - rhs)) <= DEFAULT_TOL.residual_tol * max(1.0, np.max(np.abs(rhs)))


def test_solve_pinned_and_random():
    v = np.array([1.0 + 2.0j, -0.5j])
    np.testing.assert_allclose(solve(ComplexMatrix.identity(2), v), v, atol=1e-14)
    np.testing.assert_allclose(
        solve(ComplexMatrix.diagonal([2.0, 4.0]), np.array([2.0, 4.0])), [1.0, 1.0], atol=1e-14
    )
    rng = np.random.default_rng(15)
    for _ in range(10):
        M = np.eye(8) + 0.4 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        x0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x = solve(ComplexMatrix(M), M @ x0)
        assert np.max(np.abs(x - x0)) <= 1e-10


def test_solve_rejects_singular():
    with pytest.raises(Singular):
        solve(ComplexMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


def test_rank_pinned_and_unitary_invariance():
    assert rank(ComplexMatrix.identity(5), DEFAULT_TOL) == 5
    assert rank(ComplexMatrix.zeros(4), DEFAULT_TOL) == 0
    u = np.array([1.0, 2.0j, -1.0])
    v = np.array([0.5, 1.0, 1.0j])
    assert rank(ComplexMatrix(np.outer(u, v.conj())), DEFAULT_TOL) == 1

    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(0, n + 1))
        base = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        ) if r else np.zeros((n, n), dtype=complex)
        Q = _random_unitary(rng, n)
        assert rank(ComplexMatrix(Q @ base), DEFAULT_TOL) == rank(ComplexMatrix(base), DEFAULT_TOL)
        assert rank(ComplexMatrix(base @ Q), DEFAULT_TOL) == rank(ComplexMatrix(base), DEFAULT_TOL)


def test_orthonormal_range_basis():
    eye_basis = orthonormal_range_basis(ComplexMatrix.identity(3))
    assert eye_basis.shape == (3, 3)
    np.testing.assert_allclose(eye_basis.conj().T @ eye_basis, np.eye(3), atol=1e-12)

    assert orthonormal_range_basis(ComplexMatrix.zeros(3)).shape == (3, 0)

    ones = orthonormal_range_basis(ComplexMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]]))
    assert ones.shape == (2, 1)
    direction = ones[:, 0] / ones[0, 0]
    np.testing.assert_allclose(direction, [1.0, 1.0], atol=1e-12)


def test_null_space_basis_matches_rank():
    M = ComplexMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]])
    kernel = null_space_basis(M)
    assert kernel.shape == (2, 1)
    assert np.max(np.abs(M.array @ kernel)) <= 1e-12


def test_spectral_data_sanity():
    M = ComplexMatrix.diagonal([3.0, -5.0])
    assert spectral_radius(M) == pytest.approx(5.0, abs=1e-8)
    # equal-modulus pair and a defective block: no dominant eigenvector to iterate on
    assert spectral_radius(ComplexMatrix.diagonal([1.0, -1.0])) == pytest.approx(1.0, abs=1e-12)
    jordan = ComplexMatrix.from_rows([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    assert spectral_radius(jordan) == pytest.approx(0.5, abs=1e-12)
    assert two_norm(M) == pytest.approx(5.0, abs=1e-12)
    eigs = sorted(eigenvalues(M).real)
    assert eigs == pytest.approx([-5.0, 3.0], abs=1e-12)


def test_empty_matrix_is_refused():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        ComplexMatrix.zeros(0)
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        ComplexMatrix.from_json({"rows": 0, "cols": 0, "data": []})
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        hermitian_max_eig(np.zeros((0, 0)))


def test_matrix_json_round_trip():
    M = ComplexMatrix.from_rows([[1.0 + 2.0j, 0.0], [3.0, -1.0j]])
    again = ComplexMatrix.from_json(M.to_json())
    np.testing.assert_array_equal(again.array, M.array)
    with pytest.raises(ValueError):
        ComplexMatrix.from_json({"rows": 2, "cols": 3, "data": [[0.0, 0.0]] * 6})
