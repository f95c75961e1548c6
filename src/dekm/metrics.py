"""Clustering evaluation: NMI, accuracy under the best Hungarian label
mapping, and the entropy diagnostics used to motivate the greedy update.

All entropies use natural logarithms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConfigurationError, NumericError, check_array, check_int, check_labels, check_matrix,
)


def _count_table(g, c):
    """Joint counts of the distinct g (rows) and c (cols) labels, after
    checking that both are label vectors of one non-zero length; also
    returns those labels and c's indices into them."""
    g = check_labels(g)
    c = check_labels(c, len(g))
    if len(g) == 0:
        raise ConfigurationError("empty label vectors")
    g_vals, gi = np.unique(g, return_inverse=True)
    c_vals, ci = np.unique(c, return_inverse=True)
    cells = np.bincount(gi * len(c_vals) + ci, minlength=len(g_vals) * len(c_vals))
    return cells.reshape(len(g_vals), len(c_vals)), g_vals, c_vals, ci


def contingency(g, c) -> np.ndarray:
    """Joint count matrix, rows indexed by distinct g labels, cols by c."""
    return _count_table(g, c)[0]


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def nmi(g, c) -> float:
    """2 I(G;C) / (H(G) + H(C)) from the empirical joint distribution.

    Both partitions trivial (single cluster each) is defined as 1.
    """
    joint = contingency(g, c) / len(g)
    pg = joint.sum(axis=1)
    pc = joint.sum(axis=0)
    hg, hc = _entropy(pg), _entropy(pc)
    if hg + hc == 0.0:
        return 1.0
    outer = pg[:, None] * pc[None, :]
    mask = joint > 0
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    return 2.0 * mi / (hg + hc)


def _assign(cost: np.ndarray) -> np.ndarray:
    """The column matched to each row of ``cost`` (r <= c) in a matching of
    minimal total cost.

    Shortest augmenting paths (Jonker & Volgenant, Computing 1987; Crouse,
    IEEE TAES 2016): row reduction matches each row to its first minimum
    column while that column is free; each row left over runs one Dijkstra
    over reduced costs, with deferred potential updates, and augments along
    the path found.
    """
    r, c = cost.shape
    u, v = cost.min(axis=1), np.zeros(c)
    col4row, row4col = np.full(r, -1), np.full(c, -1)
    first_min = cost.argmin(axis=1)
    _, winners = np.unique(first_min, return_index=True)
    col4row[winners] = first_min[winners]
    row4col[first_min[winners]] = winners
    for start in np.flatnonzero(col4row < 0):
        # A scanned column's shortest distance is final: it leaves ``dist``
        # (set to inf) and its reduced cost is kept at inf through ``v_open``.
        dist, path, v_open = np.full(c, np.inf), np.empty(c, dtype=np.intp), v.copy()
        free = row4col < 0
        i, lowest, scanned, settled = start, 0.0, [], []
        while True:
            reduced = cost[i] - v_open
            reduced += lowest - u[i]
            closer = reduced < dist
            np.copyto(dist, reduced, where=closer)
            path[closer] = i
            j = dist.argmin()
            lowest = dist[j]
            if not free[j]:
                # A free column ends the search: on tables that are mostly
                # zeros, taking the first tie instead walks nearly every column.
                tied_free = (dist == lowest) & free
                if tied_free.any():
                    j = tied_free.argmax()
            scanned.append(j)
            settled.append(lowest)
            if free[j]:
                break
            dist[j], v_open[j] = np.inf, -np.inf
            i = row4col[j]
        # deferred potential updates; the sink's own change is zero
        scanned, gain = np.array(scanned), lowest - np.array(settled)
        u[start] += lowest
        u[row4col[scanned[:-1]]] += gain[:-1]
        v[scanned] -= gain
        while True:  # augment: flip the path's edges back to start
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimal-cost matching of min(r, c) rows to distinct columns. Returns
    (rows ascending, their columns, total cost of the matched pairs)."""
    cost = check_matrix("cost", cost)
    if not np.all(np.isfinite(cost)):
        raise NumericError("cost matrix contains non-finite entries")
    r, c = cost.shape
    if min(r, c) == 0:
        rows = cols = np.zeros(0, dtype=np.intp)
    elif r <= c:
        rows, cols = np.arange(r), _assign(cost)
    else:
        row4col = _assign(cost.T)
        cols = np.argsort(row4col)
        rows = row4col[cols]
    return rows, cols, float(cost[rows, cols].sum())


def matched(g, c) -> int:
    """How many points agree under the best one-to-one mapping between the
    labels of ``c`` and those of ``g``."""
    table = contingency(g, c)  # rows g, cols c
    _, _, total = hungarian(-table.astype(np.float64).T)  # maximize matches
    return int(-total)  # a sum of counts below 2**53, so exact


def acc(g, c) -> float:
    """Clustering accuracy: matched fraction under the best one-to-one
    mapping between cluster labels and ground-truth labels."""
    return matched(g, c) / len(g)


def _unused(n: int, used: np.ndarray) -> np.ndarray:
    """``np.setdiff1d(np.arange(n), used)`` without its ``np.unique``,
    which imports ``numpy.ma``."""
    free = np.ones(n, dtype=bool)
    free[used[(used >= 0) & (used < n)]] = False
    return np.flatnonzero(free)


def align_labels(reference, labels) -> np.ndarray:
    """Relabel ``labels`` by the Hungarian matching that maximizes agreement
    with ``reference``. Unmatched cluster labels get fresh labels in label
    order: consecutive ones past the reference's largest label, or, where
    those would not fit in int64, the smallest labels from 0 that the
    reference does not use."""
    table, ref_vals, lab_vals, li = _count_table(reference, labels)
    rows, cols, _ = hungarian(-table.astype(np.float64).T)
    out_map = np.empty(len(lab_vals), dtype=ref_vals.dtype)
    out_map[rows] = ref_vals[cols]
    unmatched = _unused(len(lab_vals), rows)
    if ref_vals.max() <= np.iinfo(np.int64).max - len(unmatched):
        fresh = ref_vals.max() + np.arange(1, len(unmatched) + 1)  # no overflow when empty
    else:  # of len(ref_vals) + len(unmatched) labels, enough are free
        fresh = _unused(len(ref_vals) + len(unmatched), ref_vals)
    out_map[unmatched] = fresh[: len(unmatched)]
    return out_map[li]


def gaussian_entropy(variances) -> float:
    """Differential entropy of an axis-aligned Gaussian,
    (1/2) ln(2 pi e * prod of variances)."""
    v = check_array("variances", variances)
    if (v.dtype.kind not in "biuf" or v.size == 0
            or not (np.isfinite(v).all() and (v > 0).all())):
        raise ConfigurationError(f"variances must be finite and positive, got {variances}")
    return float(0.5 * np.log(2.0 * np.pi * np.e * np.prod(v, dtype=np.float64)))


def uniform_entropy(n: int) -> float:
    """Entropy of a uniform distribution over n outcomes, ln(n); ``math.log``
    takes an integer of any size."""
    check_int("n", n, 1)
    return math.log(n)
