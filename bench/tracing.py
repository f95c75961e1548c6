"""Span tracing from outside the program.

``Tracer`` swaps module attributes (``ae.encode``, ``km.lloyd``,
``core.build_transform`` ...) for timing wrappers and puts the originals back
on exit. The package calls its layers through module attributes, so every
call made inside ``core``/``cli`` goes through the wrapper while it is
installed. Spans stay in memory as ``[name, start, end, parent]`` rows; a
layer's self time is its span's duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from dekm import autoencoder as ae
from dekm import cli, core, data, metrics
from dekm import kmeans as km


def _matmul_sum(dims) -> int:
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


# Observers turn a call's bound arguments and result into counts. FLOP counts
# are computed from shapes: per layer, 2*b*in*out for the forward product and
# twice that for the two backward products (weight gradient, input delta).
def _obs_backprop_embedding(a, out):
    return {"flop": 6 * a["x"].shape[0] * _matmul_sum(a["m"].dims)}


def _obs_backprop_reconstruction(a, out):
    # encoder chain plus the mirrored decoder chain
    return {"flop": 12 * a["x"].shape[0] * _matmul_sum(a["m"].dims)}


def _obs_adam_step(a, out):
    return {"params": sum(p.size for p in a["params"])}


def _obs_pretrain(a, out):
    return {"samples": a["epochs"] * len(a["x"])}


def _obs_run_dekm(a, out):
    history = out[2]
    outer = len(history.records) - 1  # the last record is the final encode+cluster
    updated = outer - int(history.stopped_early)
    return {
        "samples": updated * a["config"].inner_steps * len(a["x"]),
        "outer_iters": outer,
        "stopped_early": int(history.stopped_early),
    }


def _obs_lloyd(a, out):
    return {"iterations": out.iterations_run}


def _obs_build_transform(a, out):
    return {"dim": a["s_w"].shape[0]}


@dataclass(frozen=True)
class Target:
    module: object
    attr: str
    span: str
    observe: Callable | None = None  # (bound arguments, result) -> counts


# The two calls every run times: ``pretrain_s`` and ``cluster_s``.
TOP = (
    Target(ae, "pretrain", "autoencoder.pretrain", _obs_pretrain),
    Target(core, "run_dekm", "core.run_dekm", _obs_run_dekm),
)

# Every layer boundary the traced run records.
LAYERS = TOP + (
    Target(ae, "backprop_embedding", "autoencoder.backprop_embedding", _obs_backprop_embedding),
    Target(ae, "backprop_reconstruction", "autoencoder.backprop_reconstruction",
           _obs_backprop_reconstruction),
    Target(ae, "adam_step", "autoencoder.adam_step", _obs_adam_step),
    Target(ae, "encode", "autoencoder.encode"),
    Target(km, "kmeanspp_init", "kmeans.kmeanspp_init"),
    Target(km, "lloyd", "kmeans.lloyd", _obs_lloyd),
    Target(km, "within_class_scatter", "kmeans.within_class_scatter"),
    # Timed at the core call site so that a new eigensolver keeps the name.
    Target(core, "build_transform", "linalg.build_transform", _obs_build_transform),
    Target(core, "representation_step", "core.representation_step"),
    Target(core, "greedy_targets", "core.greedy_targets"),
    Target(core, "greedy_loss", "core.greedy_loss"),
    Target(core, "changed_fraction", "core.changed_fraction"),
    Target(metrics, "acc", "metrics.acc"),
    Target(metrics, "nmi", "metrics.nmi"),
    Target(metrics, "hungarian", "metrics.hungarian"),
    Target(metrics, "align_labels", "metrics.align_labels"),
    Target(data, "gen_synthetic", "data.gen_synthetic"),
    Target(data, "load_csv", "data.load_csv"),
    Target(cli, "main", "cli.main"),
)


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Context manager that installs timing wrappers on ``targets`` and
    restores the original attributes on exit, also when the body raises."""

    def __init__(self, targets=LAYERS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.overhead_s = 0.0  # wrapper time outside the calls it times
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for t in self.targets:
                original = getattr(t.module, t.attr)
                self._saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self._wrap(original, t))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """A span for a block of benchmark code, such as one whole operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, target: Target):
        sig = inspect.signature(fn) if target.observe else None
        name, observe = target.span, target.observe

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in observe(bound.arguments, out).items():
                    self.counts[f"{name}.{key}"] += value
            _, start, end, _ = self.spans[idx]
            self.overhead_s += time.perf_counter() - entered - (end - start)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def stats(self) -> dict[str, SpanStats]:
        """Calls, inclusive seconds and self seconds per span name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for (name, start, end, _), covered in zip(self.spans, child_s):
            st = out[name]
            st.calls += 1
            st.s += end - start
            st.self_s += end - start - covered
        return out
