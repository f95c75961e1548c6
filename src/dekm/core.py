"""The alternating optimization loop: encode, cluster, eigendecompose the
within-class scatter, build greedy targets along the chosen dimension(s),
and update the encoder only.

Strategy tags follow the ablation surface:
  last_dim_Y    replace the last coordinate of y = V h with the centroid's
  random_dim_Y  same, on a dimension redrawn once per outer iteration
  all_dims_Y    full centroid target in the transformed space
  random_dim_H  one dimension of h toward the centroid, no transform
  all_dims_H    full centroid target in the embedding space
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autoencoder as ae
from . import kmeans as km
from . import metrics
from .errors import ConfigurationError, DimensionError, DivergenceError, check_int, check_real
from .linalg import TransformState, sym_eig

STRATEGIES = ("last_dim_Y", "random_dim_Y", "all_dims_Y", "random_dim_H", "all_dims_H")
BATCH_MODES = ("mini_batch", "full_batch")


@dataclass
class DekmConfig:
    k: int
    max_outer_iters: int = 20
    inner_batch_size: int = 256
    inner_steps: int = 1  # passes over the data per outer iteration
    strategy: str = "last_dim_Y"
    batch_mode: str = "mini_batch"
    stop_fraction: float = 0.001
    seed: int = 0
    lr: float = 0.001
    kmeans_max_iter: int = 300
    kmeans_tol: float = 1e-6

    def __post_init__(self):
        for name, minimum in (
            ("k", 1),
            ("max_outer_iters", 0),
            ("inner_batch_size", 1),
            ("inner_steps", 0),
            ("seed", 0),
            ("kmeans_max_iter", 1),
        ):
            check_int(name, getattr(self, name), minimum)
        check_real("lr", self.lr, positive=True)
        check_real("kmeans_tol", self.kmeans_tol, positive=False)
        check_real("stop_fraction", self.stop_fraction, positive=True)
        if self.stop_fraction >= 1.0:
            raise ConfigurationError(
                f"stop_fraction must be in (0, 1), got {self.stop_fraction}"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.batch_mode not in BATCH_MODES:
            raise ConfigurationError(
                f"unknown batch mode {self.batch_mode!r}; expected one of {BATCH_MODES}"
            )


@dataclass
class IterationRecord:
    iter: int
    inertia: float
    l4: float | None
    changed_fraction: float | None
    acc: float | None
    nmi: float | None
    seconds: float


@dataclass
class RunHistory:
    records: list[IterationRecord] = field(default_factory=list)
    stopped_early: bool = False
    # the final pass's embedding, which its clustering was computed on
    embedding: np.ndarray | None = field(default=None, repr=False, compare=False)

    def as_dicts(self) -> list[dict]:
        return [asdict(r) for r in self.records]


def build_transform(s_w: np.ndarray) -> TransformState:
    """Eigendecompose the within-class scatter; the last row of the result
    is the least-informative direction (largest scatter)."""
    return sym_eig(s_w)


def greedy_targets(
    h: np.ndarray,
    t: TransformState,
    r: km.ClusterResult,
    strategy: str,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, str]:
    """Build per-sample regression targets in the space the strategy works
    in. Returns (targets, space) with space "Y" or "H". Random-dimension
    strategies draw their dimension once, from ``rng``."""
    h = np.asarray(h, dtype=np.float64)
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    if len(r.assignments) != h.shape[0]:
        raise DimensionError("cluster result inconsistent with embeddings")
    e = h.shape[1]

    if strategy.endswith("_Y"):
        points = h @ t.v.T
        cents = r.centroids @ t.v.T
        space = "Y"
    else:
        points = h
        cents = r.centroids
        space = "H"
    per_point_cent = cents[r.assignments]

    if strategy.startswith("all_dims"):
        return per_point_cent, space
    if strategy.startswith("last_dim"):
        dim = e - 1
    else:
        if rng is None:
            raise ConfigurationError(f"strategy {strategy!r} needs an rng")
        dim = int(rng.integers(e))
    targets = points.copy()
    targets[:, dim] = per_point_cent[:, dim]
    return targets, space


def greedy_loss(h: np.ndarray, t: TransformState, targets: np.ndarray, space: str) -> float:
    """Current value of the greedy objective for targets built by
    ``greedy_targets``."""
    points = h @ t.v.T if space == "Y" else h
    diff = points - targets
    return float(np.sum(diff * diff))


def representation_step(
    model: ae.AutoencoderModel,
    x_batch: np.ndarray,
    targets_batch: np.ndarray,
    adam: ae.AdamState,
) -> float:
    """One Adam step on the encoder minimizing ||f(x) - target||^2 against
    embedding-space targets. The decoder is untouched."""
    grad = np.empty_like(model.encoder_flat)
    _, loss = ae.backprop_embedding(model, x_batch, targets_batch, out=grad)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite representation loss")
    ae.adam_step([model.encoder_flat], [grad], adam)
    return loss


def changed_fraction(prev_assignments, assignments) -> float:
    """Fraction of samples whose cluster changed, after Hungarian alignment
    so a pure relabeling counts as zero change."""
    prev = np.asarray(prev_assignments)
    cur = np.asarray(assignments)
    if len(prev) != len(cur):
        raise DimensionError(f"assignment lengths differ: {len(prev)} vs {len(cur)}")
    aligned = metrics.align_labels(prev, cur)
    return float(np.mean(aligned != prev))


def run_dekm(
    model: ae.AutoencoderModel,
    x: np.ndarray,
    config: DekmConfig,
    labels=None,
) -> tuple[km.ClusterResult, ae.AutoencoderModel, RunHistory]:
    """Alternate clustering and encoder updates (the outer loop).

    Per outer iteration: encode, run K-means, record metrics, then hold the
    transform, centroids and targets fixed while the encoder takes one
    epoch of Adam steps (or a single full-batch step). Stops when the
    aligned label-change fraction drops below ``stop_fraction`` or the
    iteration budget runs out. The last record has ``l4=None`` and holds
    the returned clustering: after a stop, that of the stopping pass, which
    is not encoded or clustered again.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < config.k:
        raise ConfigurationError(f"{x.shape[0]} samples for k={config.k}")
    rng = np.random.default_rng(config.seed)
    adam = ae.AdamState.for_params([model.encoder_flat], lr=config.lr)
    history = RunHistory()
    prev_assign = None
    n = x.shape[0]

    for it in range(config.max_outer_iters + 1):
        final = history.stopped_early or it == config.max_outer_iters
        t0 = time.perf_counter()
        if not history.stopped_early:  # else the encoder and h are unchanged
            h = ae.encode(model, x)
            init = km.kmeanspp_init(h, config.k, rng)
            result = km.lloyd(h, config.k, init, config.kmeans_max_iter, config.kmeans_tol)
        l4 = None
        if not final:
            transform = build_transform(km.within_class_scatter(h, result))
            targets, space = greedy_targets(h, transform, result, config.strategy, rng)
            l4 = greedy_loss(h, transform, targets, space)
            if space == "Y":
                # V is orthonormal: ||V f(x) - y'||^2 = ||f(x) - V^T y'||^2
                targets = targets @ transform.v

        changed = None if prev_assign is None else changed_fraction(prev_assign, result.assignments)
        history.records.append(
            IterationRecord(
                iter=it,
                inertia=result.inertia,
                l4=l4,
                changed_fraction=changed,
                acc=None if labels is None else metrics.acc(labels, result.assignments),
                nmi=None if labels is None else metrics.nmi(labels, result.assignments),
                seconds=time.perf_counter() - t0,
            )
        )
        if final:
            history.embedding = h
            break
        if changed is not None and changed < config.stop_fraction:
            # the final record repeats this clustering with l4=None
            history.stopped_early = True
            continue
        prev_assign = result.assignments

        if config.batch_mode == "full_batch":
            for _ in range(config.inner_steps):
                representation_step(model, x, targets, adam)
        else:
            for _ in range(config.inner_steps):
                order = rng.permutation(n)
                for start in range(0, n, config.inner_batch_size):
                    idx = order[start : start + config.inner_batch_size]
                    representation_step(model, x[idx], targets[idx], adam)
    return result, model, history
