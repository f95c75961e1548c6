"""Lloyd's K-means with k-means++ seeding and the within-class scatter
matrix of a clustering.

Determinism rules: distance ties go to the lowest cluster index; an empty
cluster is repaired by moving the point currently farthest from its own
centroid into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError, DimensionError, NumericError,
    check_array, check_int, check_matrix, check_real,
)


@dataclass
class ClusterResult:
    assignments: np.ndarray  # (n,) int cluster indices
    centroids: np.ndarray  # (k, e)
    inertia: float  # sum of squared distances to assigned centroids
    iterations_run: int
    inertia_trace: list[float] = field(default_factory=list)


def _row_norms(h: np.ndarray) -> np.ndarray:
    return np.sum(h * h, axis=1)


def _sq_dists(h: np.ndarray, centroids: np.ndarray, h_norms: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances; ``h_norms`` is ``_row_norms(h)``,
    computed once by callers that reuse one ``h`` across many calls."""
    # ||h||^2 - 2 h.c + ||c||^2, clipped against tiny negative round-off;
    # one buffer, filled in the order of the out-of-place expression
    d = h @ centroids.T
    d *= 2.0
    np.subtract(h_norms[:, None], d, out=d)
    d += _row_norms(centroids)
    return np.maximum(d, 0.0, out=d)


def _check_points(h, k) -> np.ndarray:
    """``h`` as a non-empty finite float64 matrix of at least ``k`` >= 1
    rows."""
    h = check_matrix("h", h)
    if h.size == 0:
        raise ConfigurationError("empty input")
    check_int("k", k, 1)
    if k > h.shape[0]:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k}, n={h.shape[0]}")
    if not np.isfinite(h).all():
        raise NumericError("embedding contains non-finite values")
    return h


def kmeanspp_init(h: np.ndarray, k: int, seed) -> np.ndarray:
    """D^2-weighted seeding: first centroid uniform, each next proportional
    to squared distance from the nearest chosen one. ``seed`` may be an int
    >= 0 or a numpy Generator, which ``default_rng`` returns unaltered.
    Non-finite ``h`` is a NumericError."""
    h = _check_points(h, k)
    if not isinstance(seed, np.random.Generator):
        check_int("seed", seed, 0)
    n = h.shape[0]
    rng = np.random.default_rng(seed)

    h_norms = _row_norms(h)
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)  # min(inf, d) is d: the first update sets it
    for _ in range(1, k):
        np.minimum(d2, _sq_dists(h, h[chosen[-1:]], h_norms)[:, 0], out=d2)
        total = d2.sum()
        if total > 0.0:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            chosen.append(min(idx, n - 1))
        else:
            chosen.append(int(rng.integers(n)))  # all mass on chosen points (duplicates)
    return h[chosen]


def _repair_empty(h, assignments, centroids, counts):
    """Move the globally farthest-from-its-centroid point into each cluster
    empty on entry. ``counts`` is ``bincount(assignments, minlength=k)``; it
    and ``assignments`` are updated in place, ``centroids`` is only read."""
    for j in np.flatnonzero(counts == 0):
        dist = np.sum((h - centroids[assignments]) ** 2, axis=1)
        # never steal a singleton, that would just move the hole; while one
        # cluster is empty, n >= k leaves another with two or more members.
        # The mask also hides each moved donor, now cluster j's one member.
        dist[counts[assignments] <= 1] = -1.0
        donor = int(np.argmax(dist))
        counts[assignments[donor]] -= 1
        counts[j] += 1
        assignments[donor] = j


def _means(h, assignments, counts):
    """Member means of clusters that are all non-empty, from one stable
    sort: cluster j's rows are one slice of the sorted rows, in the order
    ``h[assignments == j]`` has them. Summing that slice with ``add.reduce``
    and dividing by the count is what ``h[assignments == j].mean(axis=0)``
    does, so the result is bit-identical to it."""
    centroids = np.empty((len(counts), h.shape[1]))
    # 8- or 16-bit keys (k < 65536): numpy's stable sort is a radix sort
    keys = assignments.astype(np.min_scalar_type(len(counts)))
    hs = np.take(h, np.argsort(keys, kind="stable"), axis=0)
    lo = 0
    for j, c in enumerate(counts.tolist()):
        np.add.reduce(hs[lo : lo + c], axis=0, out=centroids[j])
        lo += c
    centroids /= counts[:, None]
    return centroids


def _inertia(h, centroids, assignments) -> float:
    diff = np.take(centroids, assignments, axis=0)
    np.subtract(h, diff, out=diff)
    return float(np.square(diff, out=diff).sum())


def lloyd(
    h: np.ndarray,
    k: int,
    init_centroids: np.ndarray,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> ClusterResult:
    """Alternate nearest-centroid assignment and mean updates until the
    relative inertia improvement is at most ``tol`` (>= 0) or ``max_iter``
    is hit. Assignments that repeat give bit-identical means and inertia,
    so they always stop it. Non-finite ``h`` is a NumericError."""
    h = _check_points(h, k)
    centroids = check_matrix("init_centroids", init_centroids, k, h.shape[1])
    check_int("max_iter", max_iter, 1)
    check_real("tol", tol, positive=False)

    h_norms = _row_norms(h)
    trace: list[float] = []
    for i in range(max_iter):
        # argmin takes the lowest index on ties
        assignments = np.argmin(_sq_dists(h, centroids, h_norms), axis=1)
        counts = np.bincount(assignments, minlength=k)
        _repair_empty(h, assignments, centroids, counts)
        centroids = _means(h, assignments, counts)
        trace.append(_inertia(h, centroids, assignments))
        if i and np.isfinite(trace[-2]) and trace[-2] - trace[-1] <= tol * max(trace[-2], 1e-300):
            break
    return ClusterResult(
        assignments=assignments,
        centroids=centroids,
        inertia=trace[-1],
        iterations_run=len(trace),
        inertia_trace=trace,
    )


def assigned_centroids(h: np.ndarray, r: ClusterResult) -> tuple[np.ndarray, np.ndarray]:
    """``h`` checked against ``r`` (one row per assignment, as wide as the
    centroids) and each row's centroid ``r.centroids[r.assignments]``.
    Assignments must be a 1-D integer array (DimensionError if not 1-D)
    with values in [0, k) (ConfigurationError)."""
    centroids = check_matrix("centroids", r.centroids)
    a = check_array("assignments", r.assignments)
    if a.ndim != 1:
        raise DimensionError(f"assignments must be 1-D, got shape {a.shape}")
    h = check_matrix("h", h, len(a), centroids.shape[1])
    if a.dtype.kind not in "iu" or a.size and not (a.min() >= 0 and a.max() < len(centroids)):
        raise ConfigurationError(f"assignments must be integers in [0, {len(centroids)})")
    return h, centroids[a]


def within_class_scatter(h: np.ndarray, r: ClusterResult) -> np.ndarray:
    """S_w = sum over clusters of (h - mu)(h - mu)^T; trace equals inertia.
    The rows are centred in the centroid gather itself."""
    h, centered = assigned_centroids(h, r)
    np.subtract(h, centered, out=centered)
    return centered.T @ centered
