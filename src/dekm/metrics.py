"""Clustering evaluation: NMI, accuracy under the best Hungarian label
mapping, and the entropy diagnostics used to motivate the greedy update.

All entropies use natural logarithms.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError, DimensionError, NumericError


def _as_labels(v) -> np.ndarray:
    a = np.asarray(v)
    if a.ndim != 1:
        raise DimensionError(f"label vector must be 1-D, got shape {a.shape}")
    if a.dtype.kind == "f":
        # |a| < 2**63 also rejects nan and inf, and keeps the int64 cast exact
        if not (np.all(np.abs(a) < 2.0**63) and np.array_equal(a, np.trunc(a))):
            raise ConfigurationError("labels must be 64-bit integers")
    return a.astype(int)


def _check_pair(g, c) -> tuple[np.ndarray, np.ndarray]:
    g, c = _as_labels(g), _as_labels(c)
    if len(g) != len(c):
        raise DimensionError(f"label lengths differ: {len(g)} vs {len(c)}")
    if len(g) == 0:
        raise ConfigurationError("empty label vectors")
    return g, c


def _count_table(g: np.ndarray, c: np.ndarray):
    """Joint counts of the distinct g (rows) and c (cols) labels; also
    returns those labels and c's indices into them."""
    g_vals, gi = np.unique(g, return_inverse=True)
    c_vals, ci = np.unique(c, return_inverse=True)
    table = np.zeros((len(g_vals), len(c_vals)), dtype=np.int64)
    np.add.at(table, (gi, ci), 1)
    return table, g_vals, c_vals, ci


def contingency(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Joint count matrix, rows indexed by distinct g labels, cols by c."""
    return _count_table(g, c)[0]


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def nmi(g, c) -> float:
    """2 I(G;C) / (H(G) + H(C)) from the empirical joint distribution.

    Both partitions trivial (single cluster each) is defined as 1.
    """
    g, c = _check_pair(g, c)
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


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimal-cost matching of min(r, c) rows to distinct columns. Returns
    (rows, cols, total cost of the matched pairs)."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise DimensionError(f"cost must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise NumericError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(cost)
    return rows, cols, float(cost[rows, cols].sum())


def acc(g, c) -> float:
    """Clustering accuracy: matched fraction under the best one-to-one
    mapping between cluster labels and ground-truth labels."""
    g, c = _check_pair(g, c)
    table = contingency(g, c)  # rows g, cols c
    _, _, total = hungarian(-table.astype(np.float64).T)  # maximize matches
    return -total / len(g)


def align_labels(reference, labels) -> np.ndarray:
    """Relabel ``labels`` by the Hungarian matching that maximizes agreement
    with ``reference``. Unmatched cluster labels get fresh labels in label
    order: consecutive ones past the reference's largest label, or, where
    those would not fit in int64, the smallest labels from 0 that the
    reference does not use."""
    reference, labels = _check_pair(reference, labels)
    table, ref_vals, lab_vals, li = _count_table(reference, labels)
    rows, cols, _ = hungarian(-table.astype(np.float64).T)
    out_map = np.empty(len(lab_vals), dtype=ref_vals.dtype)
    out_map[rows] = ref_vals[cols]
    unmatched = np.setdiff1d(np.arange(len(lab_vals)), rows)
    if ref_vals.max() <= np.iinfo(np.int64).max - len(unmatched):
        fresh = ref_vals.max() + 1 + np.arange(len(unmatched))
    else:  # of len(ref_vals) + len(unmatched) labels, enough are free
        fresh = np.setdiff1d(np.arange(len(ref_vals) + len(unmatched)), ref_vals)
    out_map[unmatched] = fresh[: len(unmatched)]
    return out_map[li]


def gaussian_entropy(variances) -> float:
    """Differential entropy of an axis-aligned Gaussian,
    (1/2) ln(2 pi e * prod of variances)."""
    v = np.asarray(variances, dtype=np.float64)
    if v.size == 0 or np.any(v <= 0):
        raise ConfigurationError(f"variances must be positive, got {variances}")
    return float(0.5 * np.log(2.0 * np.pi * np.e * np.prod(v)))


def uniform_entropy(n: int) -> float:
    """Entropy of a uniform distribution over n outcomes, ln(n)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return float(np.log(n))
