import numpy as np
import pytest

from dekm.errors import ConvergenceError, DimensionError, NumericError
from dekm.linalg import sym_eig

import conftest


def reconstruction_residual(s, ts):
    return np.max(np.abs(ts.v.T @ np.diag(ts.eigenvalues) @ ts.v - s))


def test_dense_kernel_basics(rng):
    # numpy is the dense-kernel substrate; pin the contracts we rely on
    a = rng.normal(size=(3, 4))
    assert np.array_equal(np.eye(3) @ a, a)
    assert np.array_equal(a.T.T, a)
    assert np.array_equal(
        np.array([[1.0, 2.0], [3.0, 4.0]]) @ np.array([[5.0], [6.0]]),
        np.array([[17.0], [39.0]]),
    )
    with pytest.raises(ValueError):
        np.zeros((2, 3)) @ np.zeros((2, 3))


def test_identity():
    ts = sym_eig(np.eye(2))
    assert np.allclose(ts.eigenvalues, [1.0, 1.0])
    assert np.max(np.abs(ts.v @ ts.v.T - np.eye(2))) < 1e-8


def test_diagonal_is_sorted_permutation():
    ts = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(ts.eigenvalues, [1.0, 2.0, 3.0])
    # rows must be a signed permutation of the identity
    assert np.allclose(np.abs(ts.v), np.eye(3)[[1, 2, 0]])


def test_random_reconstruction(rng):
    a = rng.normal(size=(5, 5))
    s = a + a.T
    ts = sym_eig(s)
    assert reconstruction_residual(s, ts) < 1e-8


def test_orthonormality_and_order_fuzz(rng):
    for _ in range(50):
        e = int(rng.integers(1, 17))
        a = rng.normal(size=(e, e)) * rng.uniform(0.1, 10)
        s = a + a.T
        ts = sym_eig(s)
        assert np.max(np.abs(ts.v @ ts.v.T - np.eye(e))) < 1e-8
        assert reconstruction_residual(s, ts) < 1e-8 * (1.0 + np.max(np.abs(s)))
        assert np.all(np.diff(ts.eigenvalues) >= 0.0)
        d = ts.v @ s @ ts.v.T
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-8 * max(1.0, np.max(np.abs(s)))
        assert abs(np.trace(d) - np.trace(s)) < 1e-8 * max(1.0, abs(np.trace(s)))


def test_near_symmetric_input_is_symmetrized(rng):
    a = rng.normal(size=(4, 4))
    s = a + a.T
    ts = sym_eig(s + 1e-10 * rng.normal(size=(4, 4)))
    assert reconstruction_residual(0.5 * (s + s.T), ts) < 1e-6


def test_sign_convention_deterministic(rng):
    a = rng.normal(size=(6, 6))
    s = a + a.T
    t1, t2 = sym_eig(s), sym_eig(s.copy())
    assert np.array_equal(t1.v, t2.v)
    for row in t1.v:
        assert row[np.argmax(np.abs(row))] > 0


def test_zero_matrix():
    ts = sym_eig(np.zeros((3, 3)))
    assert np.allclose(ts.eigenvalues, 0.0)
    assert np.max(np.abs(ts.v @ ts.v.T - np.eye(3))) < 1e-12


def test_errors():
    with pytest.raises(NumericError):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        sym_eig(np.zeros((2, 3)))
    with pytest.raises((DimensionError, ValueError)):
        sym_eig(np.zeros(3))


def test_convergence_error_is_reachable(monkeypatch):
    # the Jacobi oracle's sweep limit
    monkeypatch.setattr(conftest, "MAX_SWEEPS", 0)
    a = np.random.default_rng(0).normal(size=(6, 6))
    with pytest.raises(ConvergenceError):
        conftest.jacobi_eig(a + a.T)


def test_lapack_failure_raises_convergence_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        sym_eig(np.eye(3))


def test_eigenvectors_match_jacobi_oracle(rng):
    # criterion 2 compares eigenvalues with the oracle; this compares the
    # eigenvectors, up to sign, where the spectrum is well separated
    for _ in range(20):
        e = int(rng.integers(1, 33))
        a = rng.normal(size=(e, e))
        s = a @ a.T  # positive semi-definite, like a scatter matrix
        ts = sym_eig(s)
        values, vectors = conftest.jacobi_eig(s)
        scale = 1.0 + np.max(np.abs(s))
        gaps = np.diff(values)
        for i in range(e):
            left = gaps[i - 1] if i > 0 else np.inf
            right = gaps[i] if i < e - 1 else np.inf
            if min(left, right) > 1e-3 * scale:
                assert abs(abs(ts.v[i] @ vectors[i]) - 1.0) < 1e-6
