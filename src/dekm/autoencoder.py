"""MLP autoencoder: Xavier init, ReLU hidden layers, Adam, and the
squared-error backprop engine shared by pretraining and the clustering-phase
encoder updates.

Conventions: data is n x d with samples as rows; layer ``i`` computes
``a @ w[i] + b[i]``. The embedding layer and the reconstruction output layer
are linear, every other layer is ReLU. Losses are sums over all samples and
coordinates (not means).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, DivergenceError, FormatError

CHECKPOINT_VERSION = 1


def _param_groups(dims) -> list[list[tuple[int, ...]]]:
    """Parameter shapes of enc_w, enc_b, dec_w and dec_b; ``all_params()``
    order is their concatenation. The decoder mirrors ``dims``."""
    mirror = dims[::-1]
    return [
        list(zip(dims[:-1], dims[1:])),
        [(n,) for n in dims[1:]],
        list(zip(mirror[:-1], mirror[1:])),
        [(n,) for n in mirror[1:]],
    ]


def _size(groups) -> int:
    return sum(math.prod(shape) for shapes in groups for shape in shapes)


def _split(flat: np.ndarray, groups) -> list[list[np.ndarray]]:
    """Reshaped views of consecutive slices of ``flat``, nested like
    ``groups``."""
    out, lo = [], 0
    for shapes in groups:
        views = []
        for shape in shapes:
            hi = lo + math.prod(shape)
            views.append(flat[lo:hi].reshape(shape))
            lo = hi
        out.append(views)
    return out


@dataclass
class AutoencoderModel:
    """All parameters live in one C-contiguous float64 vector ``flat``, in
    ``all_params()`` order. ``enc_w``/``enc_b``/``dec_w``/``dec_b`` are
    reshaped views into it, and ``encoder_flat`` is the prefix holding the
    encoder's parameters, so one Adam step walks a single array."""

    dims: list[int]  # encoder widths, input .. embedding; decoder mirrors them
    flat: np.ndarray
    enc_w: list[np.ndarray] = field(init=False, repr=False)
    enc_b: list[np.ndarray] = field(init=False, repr=False)
    dec_w: list[np.ndarray] = field(init=False, repr=False)
    dec_b: list[np.ndarray] = field(init=False, repr=False)
    encoder_flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        groups = _param_groups(self.dims)
        f = self.flat
        if not (f.dtype == np.float64 and f.shape == (_size(groups),) and f.flags.c_contiguous):
            raise DimensionError(
                f"dims {self.dims} need a C-contiguous float64 vector of "
                f"{_size(groups)} parameters, got {f.dtype} {f.shape}"
            )
        self.enc_w, self.enc_b, self.dec_w, self.dec_b = _split(f, groups)
        self.encoder_flat = f[: _size(groups[:2])]

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def embedding_dim(self) -> int:
        return self.dims[-1]

    def encoder_params(self) -> list[np.ndarray]:
        return self.enc_w + self.enc_b

    def all_params(self) -> list[np.ndarray]:
        return self.enc_w + self.enc_b + self.dec_w + self.dec_b

    def copy(self) -> "AutoencoderModel":
        return AutoencoderModel(list(self.dims), self.flat.copy())


def xavier_init(dims: list[int], seed: int) -> AutoencoderModel:
    """Build a mirrored autoencoder with Xavier-uniform weights, zero biases."""
    if len(dims) < 2:
        raise ConfigurationError(f"need at least input and embedding widths, got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigurationError(f"layer widths must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    m = AutoencoderModel(list(dims), np.zeros(_size(_param_groups(dims))))
    for w in m.enc_w + m.dec_w:
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return m


def _layer(a, w, b, relu):
    """One layer, ``a @ w + b`` then ReLU if ``relu``, in a single output
    buffer (same bits as the out-of-place expression)."""
    z = a @ w
    z += b
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def _forward(ws, bs, x):
    """Forward through one MLP chain (linear last layer). Returns the list of
    post-activation values, a[0] being the input."""
    acts = [x]
    last = len(ws) - 1
    for i, (w, b) in enumerate(zip(ws, bs)):
        acts.append(_layer(acts[-1], w, b, i != last))
    return acts


def _output(ws, bs, x):
    """The last activation of ``_forward``; each intermediate is dropped as
    soon as the next layer has been computed from it."""
    last = len(ws) - 1
    for i, (w, b) in enumerate(zip(ws, bs)):
        x = _layer(x, w, b, i != last)
    return x


def _backward(ws, acts, delta, gw, gb):
    """Backprop ``delta`` (dL/d output) through one chain, writing each
    layer's weight/bias gradient into ``gw[i]``/``gb[i]``; returns dL/dz0 at
    the first layer's pre-activation. dL/d input is ``dz0 @ ws[0].T``, left
    to the callers that need it."""
    last = len(ws) - 1
    for i in range(last, -1, -1):
        if i != last:
            delta = delta @ ws[i + 1].T
            delta *= acts[i + 1] > 0.0
        np.matmul(acts[i].T, delta, out=gw[i])
        delta.sum(axis=0, out=gb[i])
    return delta


def _check_input(m: AutoencoderModel, x: np.ndarray, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionError(f"{what} must be n x {dim}, got shape {x.shape}")
    return x


def encode(m: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    x = _check_input(m, x, m.input_dim, "input")
    return _output(m.enc_w, m.enc_b, x)


def decode(m: AutoencoderModel, h: np.ndarray) -> np.ndarray:
    h = _check_input(m, h, m.embedding_dim, "embedding")
    return _output(m.dec_w, m.dec_b, h)


def reconstruct(m: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    return decode(m, encode(m, x))


def reconstruction_loss(m: AutoencoderModel, x: np.ndarray) -> float:
    x = _check_input(m, x, m.input_dim, "input")
    diff = reconstruct(m, x) - x
    return float(np.sum(diff * diff))


def backprop_reconstruction(m: AutoencoderModel, x: np.ndarray, out=None):
    """Gradients of sum ||x - g(f(x))||^2 w.r.t. all parameters.

    Returns (grads, loss) with grads ordered like ``all_params()``: views of
    ``out``, a vector laid out like ``m.flat`` (allocated when omitted).
    """
    x = _check_input(m, x, m.input_dim, "input")
    out = np.empty_like(m.flat) if out is None else out
    egw, egb, dgw, dgb = _split(out, _param_groups(m.dims))
    enc_acts = _forward(m.enc_w, m.enc_b, x)
    dec_acts = _forward(m.dec_w, m.dec_b, enc_acts[-1])
    diff = dec_acts[-1] - x
    loss = float(np.sum(diff * diff))
    dz0 = _backward(m.dec_w, dec_acts, 2.0 * diff, dgw, dgb)
    _backward(m.enc_w, enc_acts, dz0 @ m.dec_w[0].T, egw, egb)
    return egw + egb + dgw + dgb, loss


def backprop_embedding(m: AutoencoderModel, x: np.ndarray, targets: np.ndarray, out=None):
    """Gradients of sum ||f(x) - targets||^2 w.r.t. encoder parameters only.

    Returns (grads, loss) with grads ordered like ``encoder_params()``: views
    of ``out``, a vector laid out like ``m.encoder_flat`` (allocated when
    omitted).
    """
    x = _check_input(m, x, m.input_dim, "input")
    targets = _check_input(m, targets, m.embedding_dim, "targets")
    if targets.shape[0] != x.shape[0]:
        raise DimensionError(
            f"targets rows {targets.shape[0]} != input rows {x.shape[0]}"
        )
    out = np.empty_like(m.encoder_flat) if out is None else out
    gw, gb = _split(out, _param_groups(m.dims)[:2])
    acts = _forward(m.enc_w, m.enc_b, x)
    diff = acts[-1] - targets
    loss = float(np.sum(diff * diff))
    _backward(m.enc_w, acts, 2.0 * diff, gw, gb)
    return gw + gb, loss


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    # adam_step's two ADAM_CHUNK-long scratch rows, allocated on first use
    work: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def for_params(cls, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            t=0,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


# Elements per Adam chunk: slices of p, g, m, v plus the two work rows
# (6 x 256 KiB in float64) stay resident in a 2 MiB L2 cache.
ADAM_CHUNK = 1 << 15


def adam_step(params, grads, state: AdamState):
    """One Adam update with bias correction. Mutates params/state in place
    and returns them.

    Walks each parameter's flat view in ADAM_CHUNK slices with in-place
    ufuncs, in the operation order of the textbook expression
    ``p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)``, so the result is
    bit-identical to it. Parameters and moments must be C-contiguous: a
    flat view of anything else would be a copy, and the update would be
    lost."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionError("params, grads and Adam state lengths differ")
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not p.shape == g.shape == m.shape == v.shape:
            raise DimensionError(
                f"param {p.shape}, grad {g.shape} and Adam moments {m.shape}/{v.shape} differ"
            )
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise DimensionError("Adam needs C-contiguous params and moments")
    if state.work is None:
        state.work = np.empty((2, ADAM_CHUNK))  # pages are touched only as used
    work_a, work_b = state.work
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    c1, c2 = 1.0 - b1, 1.0 - b2
    b1t = 1.0 - b1 ** state.t
    b2t = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
        for lo in range(0, p.size, ADAM_CHUNK):
            hi = lo + ADAM_CHUNK
            pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            a, b = work_a[: pc.size], work_b[: pc.size]
            mc *= b1
            np.multiply(c1, gc, out=a)
            mc += a
            vc *= b2
            np.multiply(gc, gc, out=a)
            np.multiply(c2, a, out=a)
            vc += a
            np.divide(mc, b1t, out=a)
            np.multiply(lr, a, out=a)
            np.divide(vc, b2t, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            pc -= a
    return params, state


def pretrain(
    m: AutoencoderModel,
    x: np.ndarray,
    epochs: int = 200,
    batch_size: int = 256,
    seed: int = 0,
    lr: float = 0.001,
):
    """Mini-batch Adam on the reconstruction loss.

    Shuffles per epoch with a generator seeded by ``seed``. Returns the model
    (trained in place) and the per-epoch summed losses.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    x = _check_input(m, x, m.input_dim, "input")
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    grad = np.empty_like(m.flat)
    adam = AdamState.for_params([m.flat], lr=lr)
    epoch_losses = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            batch = x[order[start : start + batch_size]]
            _, loss = backprop_reconstruction(m, batch, out=grad)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            total += loss
            adam_step([m.flat], [grad], adam)
        epoch_losses.append(total)
    return m, epoch_losses


def save_checkpoint(path, m: AutoencoderModel, meta: dict | None = None) -> None:
    """Write the model as versioned JSON; parameters round-trip bit-exactly
    via base64-encoded little-endian float64 buffers."""

    def pack(a: np.ndarray):
        return {
            "shape": list(a.shape),
            "data": base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode(),
        }

    doc = {
        "version": CHECKPOINT_VERSION,
        "dims": m.dims,
        "enc_w": [pack(a) for a in m.enc_w],
        "enc_b": [pack(a) for a in m.enc_b],
        "dec_w": [pack(a) for a in m.dec_w],
        "dec_b": [pack(a) for a in m.dec_b],
        "meta": meta or {},
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_checkpoint(path) -> tuple[AutoencoderModel, dict]:
    """Read a checkpoint written by ``save_checkpoint``. A file that cannot
    be opened is a ``ConfigurationError``; one that is not a well-formed
    checkpoint, or whose arrays do not fit its ``dims`` or hold nan/inf, is a
    ``FormatError``."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigurationError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path}: not a JSON checkpoint: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version!r}")

    def unpack(entry):
        a = np.frombuffer(base64.b64decode(entry["data"], validate=True), dtype="<f8")
        return a.reshape(entry["shape"])

    keys = ("enc_w", "enc_b", "dec_w", "dec_b")
    try:  # binascii.Error is a ValueError
        dims = [int(d) for d in doc["dims"]]
        params = [[unpack(e) for e in doc[key]] for key in keys]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint: {exc!r}") from exc
    shapes = [[a.shape for a in group] for group in params]
    if len(dims) < 2 or min(dims) < 1 or shapes != _param_groups(dims):
        raise FormatError(
            f"{path}: parameter shapes {dict(zip(keys, shapes))} do not fit dims {dims}"
        )
    flat = np.concatenate([a.ravel() for group in params for a in group], dtype=np.float64)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite parameter values")
    return AutoencoderModel(dims, flat), doc.get("meta", {})
