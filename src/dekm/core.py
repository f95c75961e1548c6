"""The alternating optimization loop: encode, cluster, eigendecompose the
within-class scatter, build greedy targets along the chosen dimension(s),
and update the encoder only.

Strategy tags follow the ablation surface:
  last_dim_Y    move h toward its centroid along the least-informative
                eigenvector only (the last coordinate of y = V h)
  random_dim_Y  same, along an eigenvector redrawn once per outer iteration
  random_dim_H  one coordinate of h toward the centroid, no transform
  all_dims_H    full centroid target in the embedding space

V is orthonormal, so a full centroid target in y = V h would be the
``all_dims_H`` objective: ||V h - V c||^2 = ||h - c||^2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autoencoder as ae
from . import kmeans as km
from . import metrics
from .errors import (
    ConfigurationError, ConvergenceError, DimensionError, NumericError,
    check_int, check_matrix, check_real,
)

STRATEGIES = ("last_dim_Y", "random_dim_Y", "random_dim_H", "all_dims_H")
BATCH_MODES = ("mini_batch", "full_batch")
PHASES = ("encode", "kmeans", "transform", "targets", "update", "metrics")


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
    updates: int = field(default=0, compare=False)  # passes that trained the encoder
    # seconds per PHASES entry, summed over the run
    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)

    def as_dicts(self) -> list[dict]:
        return [asdict(r) for r in self.records]


@dataclass(frozen=True)
class TransformState:
    """Orthonormal transform from an eigendecomposition.

    ``v`` holds eigenvectors as rows, ordered by ascending eigenvalue, so
    ``v @ s @ v.T`` is diagonal with ``eigenvalues`` on the diagonal.
    """

    v: np.ndarray
    eigenvalues: np.ndarray


def build_transform(s_w: np.ndarray) -> TransformState:
    """Eigendecompose the within-class scatter by LAPACK ``eigh``, after
    averaging it with its transpose. The last row of ``v`` is the
    least-informative direction (largest scatter). Each row's first entry
    of largest magnitude is positive, so the signs do not depend on LAPACK.
    Raises NumericError on non-finite entries and ConvergenceError if
    LAPACK fails to converge."""
    s = np.asarray(s_w, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.size == 0:
        raise DimensionError(f"expected a non-empty square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise NumericError("matrix contains non-finite entries")
    try:
        eigenvalues, vecs = np.linalg.eigh(0.5 * (s + s.T))  # ascending
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    v = np.ascontiguousarray(vecs.T)  # eigenvectors as rows
    pivots = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)]
    v[pivots < 0.0] *= -1.0
    return TransformState(v=v, eigenvalues=eigenvalues)


def greedy_targets(
    h: np.ndarray,
    t: TransformState,
    r: km.ClusterResult,
    strategy: str,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-sample embedding-space regression targets. A Y strategy moves h
    toward its centroid c along the eigenvector u = ``t.v[dim]`` only:
    h + ((c - h) . u) u, which replaces coordinate ``dim`` of y = V h since V
    is orthonormal. Random-dimension strategies draw ``dim`` once, from
    ``rng``. The targets are built in the centroid gather, in the operation
    order of that expression, so they are bit-identical to it."""
    h, targets = km.assigned_centroids(h, r)
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    if strategy == "all_dims_H":
        return targets
    if strategy == "last_dim_Y":
        dim = h.shape[1] - 1
    else:
        if rng is None:
            raise ConfigurationError(f"strategy {strategy!r} needs an rng")
        dim = int(rng.integers(h.shape[1]))
    if strategy == "random_dim_H":
        column = targets[:, dim].copy()
        targets[...] = h
        targets[:, dim] = column
        return targets
    u = t.v[dim]
    targets -= h
    np.multiply((targets @ u)[:, None], u, out=targets)  # np.outer's product
    targets += h
    return targets


def greedy_loss(h: np.ndarray, targets: np.ndarray) -> float:
    """Current value of the greedy objective, sum ||h - target||^2."""
    h = check_matrix("h", h)
    diff = h - check_matrix("targets", targets, *h.shape)
    return float(np.sum(np.multiply(diff, diff, out=diff)))


def representation_step(
    model: ae.AutoencoderModel,
    x_batch: np.ndarray,
    targets_batch: np.ndarray,
    adam: ae.AdamState,
    grad: ae.AutoencoderModel,
) -> float:
    """One Adam step on the encoder minimizing ||f(x) - target||^2 against
    embedding-space targets, with the gradient written into ``grad`` (a
    model of the same dims). The decoder is untouched."""
    loss = ae.backprop_embedding(model, x_batch, targets_batch, grad)
    ae.adam_step([model.encoder_flat], [grad.encoder_flat], adam)
    return loss


def changed_fraction(prev_assignments, assignments) -> float:
    """Fraction of samples whose cluster changed, after Hungarian alignment
    so a pure relabeling counts as zero change: the points outside the best
    one-to-one matching of clusters, counted without relabelling any."""
    same = metrics.matched(prev_assignments, assignments)
    n = len(prev_assignments)
    return (n - same) / n


class _PhaseClock:
    """Adds the time since the last ``lap`` (or since it was made) to one of
    the PHASES in ``seconds``."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._last
        self._last = now


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
    the returned clustering; after a stop it copies the stopping pass's
    record (next ``iter``, ``seconds=0.0``) and no further pass runs.
    The history also counts the encoder updates and the seconds per phase.
    Non-finite ``x`` and ``labels`` not one per row are rejected up front.
    """
    if not isinstance(config, DekmConfig):
        raise ConfigurationError(f"config must be a DekmConfig, got {type(config).__name__}")
    x = check_matrix("x", x, cols=model.input_dim)
    if x.shape[0] < config.k:
        raise ConfigurationError(f"{x.shape[0]} samples for k={config.k}")
    if not np.isfinite(x).all():
        raise NumericError("input contains non-finite values")
    if labels is not None and np.shape(labels) != (x.shape[0],):
        raise DimensionError(f"labels must have shape ({x.shape[0]},), got {np.shape(labels)}")
    rng = np.random.default_rng(config.seed)
    adam = ae.AdamState.for_params([model.encoder_flat], lr=config.lr)
    grad = ae.AutoencoderModel(model.dims, np.empty_like(model.flat))
    history = RunHistory()
    prev_assign = None
    clock = _PhaseClock()

    for it in range(config.max_outer_iters + 1):
        t0 = time.perf_counter()
        h = ae.encode(model, x)
        clock.lap("encode")
        init = km.kmeanspp_init(h, config.k, rng)
        result = km.lloyd(h, config.k, init, config.kmeans_max_iter, config.kmeans_tol)
        clock.lap("kmeans")
        l4 = None
        if it < config.max_outer_iters:
            transform = build_transform(km.within_class_scatter(h, result))
            clock.lap("transform")
            targets = greedy_targets(h, transform, result, config.strategy, rng)
            l4 = greedy_loss(h, targets)
            clock.lap("targets")

        changed = None if prev_assign is None else changed_fraction(prev_assign, result.assignments)
        record = IterationRecord(
            iter=it,
            inertia=result.inertia,
            l4=l4,
            changed_fraction=changed,
            acc=None if labels is None else metrics.acc(labels, result.assignments),
            nmi=None if labels is None else metrics.nmi(labels, result.assignments),
            seconds=time.perf_counter() - t0,
        )
        history.records.append(record)
        clock.lap("metrics")
        if it == config.max_outer_iters:
            break
        if changed is not None and changed < config.stop_fraction:
            # the final record repeats this clustering with l4=None
            history.stopped_early = True
            history.records.append(replace(record, iter=it + 1, l4=None, seconds=0.0))
            break
        prev_assign = result.assignments
        ae.train(lambda xb, tb: representation_step(model, xb, tb, adam, grad), [x, targets],
                 config.inner_steps, config.inner_batch_size,
                 None if config.batch_mode == "full_batch" else rng)
        history.updates += 1
        clock.lap("update")
        del h, targets  # not read again, so the next encode runs without them
    history.embedding = h
    history.phase_seconds = clock.seconds
    return result, model, history
