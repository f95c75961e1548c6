"""Symmetric eigendecomposition by LAPACK ``eigh`` (``np.linalg.eigh``).

All matrices are dense float64 numpy arrays. The result is put in a fixed
form (eigenvectors as rows, ascending eigenvalues, a deterministic sign per
eigenvector) so that callers do not depend on LAPACK's conventions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, NumericError


@dataclass(frozen=True)
class TransformState:
    """Orthonormal transform from an eigendecomposition.

    ``v`` holds eigenvectors as rows, ordered by ascending eigenvalue, so
    ``v @ s @ v.T`` is diagonal with ``eigenvalues`` on the diagonal.
    """

    v: np.ndarray
    eigenvalues: np.ndarray


def sym_eig(s: np.ndarray) -> TransformState:
    """Eigendecompose a symmetric matrix.

    The input is symmetrized by averaging with its transpose first. Raises
    NumericError on non-finite entries and ConvergenceError if LAPACK fails
    to converge.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NumericError("matrix contains non-finite entries")
    try:
        eigenvalues, vecs = np.linalg.eigh(0.5 * (s + s.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    return _finalize(eigenvalues, vecs.T)


def _finalize(eigenvalues: np.ndarray, v: np.ndarray) -> TransformState:
    """Sort eigenpairs ascending and fix eigenvector signs; ``v`` holds the
    eigenvectors as rows."""
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    v = v[order]
    # Deterministic sign: first component of largest magnitude made positive.
    for i in range(v.shape[0]):
        row = v[i]
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0.0:
            v[i] = -row
    return TransformState(v=v, eigenvalues=eigenvalues)
