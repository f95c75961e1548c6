"""Shared oracles: independent brute-force / finite-difference / Jacobi
references the fast paths are checked against."""

import itertools

import numpy as np
import pytest

import dekm.autoencoder as ae
from dekm.errors import ConvergenceError

MAX_SWEEPS = 100
OFFDIAG_TOL = 1e-10


def param_views(model, encoder_only=False):
    """The parameter (or gradient) views of ``model`` in the order they are
    laid out in ``model.flat``; with ``encoder_only``, those of
    ``model.encoder_flat``."""
    views = model.enc_w + model.enc_b
    return views if encoder_only else views + model.dec_w + model.dec_b


def empty_gradient(model):
    """A gradient for ``model``: a model of the same dims, uninitialised."""
    return ae.AutoencoderModel(list(model.dims), np.empty_like(model.flat))


def relu_pattern(model, x, encoder_only=False):
    """Concatenated ReLU on/off masks for the network at input x. Used to
    detect finite-difference steps that cross an activation kink, where the
    loss is not differentiable and central differences are meaningless."""
    masks = []
    a = np.asarray(x, dtype=np.float64)
    chains = [(model.enc_w, model.enc_b)]
    if not encoder_only:
        chains.append((model.dec_w, model.dec_b))
    for ws, bs in chains:
        for i, (w, b) in enumerate(zip(ws, bs)):
            z = a @ w + b
            if i < len(ws) - 1:
                masks.append((z > 0.0).ravel())
                a = np.maximum(z, 0.0)
            else:
                a = z
    return np.concatenate(masks) if masks else np.zeros(0, dtype=bool)


def finite_difference_grads(loss_fn, params, step=1e-5, pattern_fn=None):
    """Central finite differences of loss_fn() w.r.t. each entry of each
    array in params (perturbed in place). Entries whose perturbation flips
    the pattern_fn() snapshot (a ReLU kink crossing) come back as NaN."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            old = p[i]
            p[i] = old + step
            lp = loss_fn()
            pat_p = pattern_fn() if pattern_fn else None
            p[i] = old - step
            lm = loss_fn()
            pat_m = pattern_fn() if pattern_fn else None
            p[i] = old
            if pattern_fn is not None and not np.array_equal(pat_p, pat_m):
                g[i] = np.nan
            else:
                g[i] = (lp - lm) / (2.0 * step)
        grads.append(g)
    return grads


def max_gradient_rel_error(analytic, numeric, loss_value):
    """Worst per-entry relative error between two gradient sets, ignoring
    NaN entries in the numeric set (kink crossings).

    The denominator is floored at 1e-5 * (1 + |loss|): central differences
    of a float64 loss carry cancellation noise of order eps * loss / step,
    so entries far below that scale cannot be compared relatively.
    """
    floor = 1e-5 * (1.0 + abs(loss_value))
    worst = 0.0
    for a, n in zip(analytic, numeric):
        valid = np.isfinite(n)
        if not np.any(valid):
            continue
        a, n = a[valid], n[valid]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def brute_force_kmeans(h, k):
    """Globally optimal k-means objective by enumerating all assignments
    with no empty cluster. Only viable for tiny n."""
    n = h.shape[0]
    best = (np.inf, None)
    for assign in itertools.product(range(k), repeat=n):
        assign = np.array(assign)
        if len(np.unique(assign)) < k:
            continue
        inertia = 0.0
        for j in range(k):
            members = h[assign == j]
            inertia += float(np.sum((members - members.mean(axis=0)) ** 2))
        if inertia < best[0]:
            best = (inertia, assign)
    return best


def brute_force_acc(g, c):
    """Best label-mapping accuracy by enumerating all permutations."""
    g = np.asarray(g)
    c = np.asarray(c)
    g_vals = np.unique(g)
    c_vals = np.unique(c)
    size = max(len(g_vals), len(c_vals))
    best = 0
    for perm in itertools.permutations(range(size)):
        matched = 0
        for j, cv in enumerate(c_vals):
            if perm[j] < len(g_vals):
                matched += int(np.sum((c == cv) & (g == g_vals[perm[j]])))
        best = max(best, matched)
    return best / len(g)


def brute_force_matching(cost):
    """Minimal-cost perfect matching by enumerating all permutations."""
    k = cost.shape[0]
    best = (np.inf, None)
    for perm in itertools.permutations(range(k)):
        total = sum(cost[i, perm[i]] for i in range(k))
        if total < best[0]:
            best = (total, perm)
    return best


def _jacobi_rotate(a, v, p, q):
    """Zero out a[p, q] with a Givens rotation, accumulating into v."""
    apq = a[p, q]
    if apq == 0.0:
        return
    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
    # Smaller-magnitude root of t^2 + 2*theta*t - 1 = 0 for stability.
    t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0)) if theta != 0.0 else 1.0
    c = 1.0 / np.hypot(t, 1.0)
    s = t * c

    rot = np.array([[c, s], [-s, c]])
    rows = a[[p, q], :]
    a[[p, q], :] = rot.T @ rows
    cols = a[:, [p, q]]
    a[:, [p, q]] = cols @ rot
    a[p, q] = 0.0
    a[q, p] = 0.0

    v[[p, q], :] = rot.T @ v[[p, q], :]


def _offdiag_norm(a):
    return float(np.sqrt(np.sum(np.square(a - np.diag(np.diag(a))))))


def jacobi_eig(s):
    """Cyclic-Jacobi eigendecomposition of a symmetric matrix, an oracle
    independent of LAPACK. Returns (ascending eigenvalues, eigenvectors as
    rows). Raises ConvergenceError if the off-diagonal mass does not shrink
    below ``OFFDIAG_TOL * ||s||_F`` within ``MAX_SWEEPS`` sweeps."""
    a = 0.5 * (s + s.T)
    e = a.shape[0]
    v = np.eye(e)
    tol = OFFDIAG_TOL * float(np.linalg.norm(a))
    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(a) <= tol:
            break
        for p in range(e - 1):
            for q in range(p + 1, e):
                _jacobi_rotate(a, v, p, q)
    else:
        residual = _offdiag_norm(a)
        if residual > tol:
            raise ConvergenceError(
                f"Jacobi sweeps exhausted; off-diagonal residual {residual:.3e} "
                f"exceeds tolerance {tol:.3e}"
            )
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order], v[order]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
