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

from .data import open_input, write_text
from .errors import (
    ConfigurationError, DimensionError, DivergenceError, FormatError, NumericError,
    check_int, check_matrix, check_real, check_size,
)

CHECKPOINT_VERSION = 1


def _param_groups(dims) -> list[list[tuple[int, ...]]]:
    """Parameter shapes of enc_w, enc_b, dec_w and dec_b, in the order they
    are laid out in ``flat``. The decoder mirrors ``dims``."""
    mirror = dims[::-1]
    return [
        list(zip(dims[:-1], dims[1:])),
        [(n,) for n in dims[1:]],
        list(zip(mirror[:-1], mirror[1:])),
        [(n,) for n in mirror[1:]],
    ]


def _size(groups) -> int:
    return sum(math.prod(shape) for shapes in groups for shape in shapes)


def _check_dims(dims) -> None:
    """ConfigurationError unless ``dims`` is a list or tuple of >= 2 integer
    widths >= 1 whose parameters numpy can hold in one array."""
    if not isinstance(dims, (list, tuple)) or len(dims) < 2:
        raise ConfigurationError(f"need a list of two or more layer widths, got {dims!r}")
    for i, d in enumerate(dims):
        check_int(f"layer width {i}", d, 1)
    check_size(f"a model of layer widths {list(dims)}", _size(_param_groups(dims)))


@dataclass
class AutoencoderModel:
    """All parameters live in one C-contiguous float64 vector ``flat``:
    encoder weights, encoder biases, decoder weights, decoder biases.
    ``enc_w``/``enc_b``/``dec_w``/``dec_b`` are reshaped views into it, and
    ``encoder_flat`` is the prefix holding the encoder's parameters, so one
    Adam step walks a single array. A gradient is a model of the same
    ``dims``: ``backprop_*`` write into its views, and keep their per-batch
    buffers in its ``work`` (see ``_work``)."""

    dims: list[int]  # encoder widths, input .. embedding; decoder mirrors them
    flat: np.ndarray
    enc_w: list[np.ndarray] = field(init=False, repr=False)
    enc_b: list[np.ndarray] = field(init=False, repr=False)
    dec_w: list[np.ndarray] = field(init=False, repr=False)
    dec_b: list[np.ndarray] = field(init=False, repr=False)
    encoder_flat: np.ndarray = field(init=False, repr=False)
    work: dict | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_dims(self.dims)
        groups = _param_groups(self.dims)
        f = self.flat
        if not isinstance(f, np.ndarray):
            raise DimensionError(f"flat must be a numpy array, got {type(f).__name__}")
        if not (f.dtype == np.float64 and f.shape == (_size(groups),) and f.flags.c_contiguous):
            raise DimensionError(
                f"dims {self.dims} need a C-contiguous float64 vector of "
                f"{_size(groups)} parameters, got {f.dtype} {f.shape}"
            )
        views, lo = [], 0  # reshaped views of consecutive slices, nested like groups
        for shapes in groups:
            views.append([])
            for shape in shapes:
                views[-1].append(f[lo : lo + math.prod(shape)].reshape(shape))
                lo += math.prod(shape)
        self.enc_w, self.enc_b, self.dec_w, self.dec_b = views
        self.encoder_flat = f[: _size(groups[:2])]

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def embedding_dim(self) -> int:
        return self.dims[-1]

    def copy(self) -> "AutoencoderModel":
        return AutoencoderModel(list(self.dims), self.flat.copy())


def xavier_init(dims: list[int], seed: int) -> AutoencoderModel:
    """Build a mirrored autoencoder with Xavier-uniform weights, zero biases."""
    _check_dims(dims)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    m = AutoencoderModel(list(dims), np.zeros(_size(_param_groups(dims))))
    for w in m.enc_w + m.dec_w:
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return m


def _forward(ws, bs, x, outs):
    """Forward through one MLP chain, writing layer i's output, ``a @ w[i] +
    b[i]`` then ReLU except at the last layer, into ``outs[i]`` (same bits as
    the out-of-place expression). The one place a layer is computed. Returns
    the list of post-activation values, a[0] being the input."""
    acts = [x]
    last = len(ws) - 1
    for i, (w, b, z) in enumerate(zip(ws, bs, outs)):
        np.matmul(acts[-1], w, out=z)
        z += b
        if i != last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


# Activation bytes one block of a full-data forward pass may hold in its
# widest layer; 1048 rows at the paper's 2000-wide layer.
FORWARD_BLOCK_BYTES = 16 << 20
# Rows one block may hold however narrow the layers: a 64-wide encoder
# would otherwise take 32768 rows, and so the whole data set, at once.
FORWARD_BLOCK_ROWS = 2048


def _output(ws, bs, x):
    """The last activation of ``_forward`` over all rows of ``x``.

    The rows go through ``_forward`` in blocks (FORWARD_BLOCK_BYTES of the
    widest activation, and at most FORWARD_BLOCK_ROWS rows), so memory does
    not grow with the row count. Each hidden layer has one block-sized
    buffer, shared by all blocks, and the last layer writes straight into
    the result's rows. Each block's rows equal ``_forward`` on that slice;
    since BLAS results depend on the row count, they may differ from an
    unblocked pass by a few ulp."""
    n, widest = x.shape[0], max(w.shape[1] for w in ws)
    rows = max(1, min(n, FORWARD_BLOCK_ROWS, FORWARD_BLOCK_BYTES // (8 * widest)))
    out = np.empty((n, ws[-1].shape[1]))
    hidden = [np.empty((rows, w.shape[1])) for w in ws[:-1]]
    for lo in range(0, n, rows):
        block = x[lo : lo + rows]
        _forward(ws, bs, block, [a[: len(block)] for a in hidden] + [out[lo : lo + rows]])
    return out


def _backward(ws, acts, mask, gw, gb):
    """Backprop through one chain whose ``acts[-1]`` holds dL/d output,
    writing each layer's weight/bias gradient into ``gw[i]``/``gb[i]``;
    returns dL/dz0 at the first layer's pre-activation. dL/d input is
    ``dz0 @ ws[0].T``, left to the callers that need it.

    Each hidden layer's delta overwrites its output in ``acts`` once the
    ReLU mask has been read from it into the flat bool buffer ``mask``, so
    nothing is allocated (same bits as the out-of-place expressions)."""
    last = len(ws) - 1
    delta = acts[-1]
    for i in range(last, -1, -1):
        if i != last:
            a = acts[i + 1]
            on = np.greater(a, 0.0, out=mask[: a.size].reshape(a.shape))
            delta = np.matmul(delta, ws[i + 1].T, out=a)
            delta *= on
        np.matmul(acts[i].T, delta, out=gw[i])
        delta.sum(axis=0, out=gb[i])
    return delta


def encode(m: AutoencoderModel, x: np.ndarray) -> np.ndarray:
    x = check_matrix("input", x, cols=m.input_dim)
    return _output(m.enc_w, m.enc_b, x)


def decode(m: AutoencoderModel, h: np.ndarray) -> np.ndarray:
    h = check_matrix("embedding", h, cols=m.embedding_dim)
    return _output(m.dec_w, m.dec_b, h)


def reconstruction_loss(m: AutoencoderModel, x: np.ndarray) -> float:
    x = check_matrix("input", x, cols=m.input_dim)
    diff = decode(m, encode(m, x)) - x
    return float(np.sum(diff * diff))


def _squared_error(out: np.ndarray, target: np.ndarray, diff: np.ndarray) -> float:
    """sum((out - target)**2), the training loss of both ``backprop_*``,
    with ``out - target`` written into ``diff`` and then dL/d out,
    ``2 * diff``, into ``out``. A non-finite loss is a DivergenceError before
    any gradient or update is made from it."""
    np.subtract(out, target, out=diff)
    loss = float(np.sum(np.multiply(diff, diff, out=out)))
    if not math.isfinite(loss):
        raise DivergenceError("non-finite training loss")
    np.multiply(2.0, diff, out=out)
    return loss


def _check_grad(m: AutoencoderModel, grad: AutoencoderModel) -> None:
    if grad.dims != m.dims:
        raise DimensionError(f"gradient dims {grad.dims} != model dims {m.dims}")


def _work(grad: AutoencoderModel, chain: str, rows: int):
    """The first ``rows`` rows of the buffers backprop through ``chain``
    ("enc" or "dec") writes: one per layer output, then the loss difference;
    and the flat ReLU mask that both chains share. They live in
    ``grad.work``, built for the largest batch seen and row-sliced for a
    shorter one, so a step after the first allocates no activation."""
    work = grad.work
    if work is None or work["rows"] < rows:
        widest = max(grad.dims[1:-1], default=0)  # of the ReLU layers
        work = grad.work = {"rows": rows, "mask": np.empty(rows * widest, dtype=bool)}
    if chain not in work:
        widths = [w.shape[1] for w in (grad.enc_w if chain == "enc" else grad.dec_w)]
        work[chain] = [np.empty((work["rows"], n)) for n in widths + widths[-1:]]
    return [a[:rows] for a in work[chain]], work["mask"]


def backprop_reconstruction(m: AutoencoderModel, x: np.ndarray, grad: AutoencoderModel) -> float:
    """Gradient of sum ||x - g(f(x))||^2 w.r.t. all parameters, written into
    ``grad`` (a model of the same dims); returns the loss."""
    x = check_matrix("input", x, cols=m.input_dim)
    _check_grad(m, grad)
    (*enc, _), mask = _work(grad, "enc", x.shape[0])
    (*dec, diff), _ = _work(grad, "dec", x.shape[0])
    enc_acts = _forward(m.enc_w, m.enc_b, x, enc)
    dec_acts = _forward(m.dec_w, m.dec_b, enc_acts[-1], dec)
    loss = _squared_error(dec_acts[-1], x, diff)
    dz0 = _backward(m.dec_w, dec_acts, mask, grad.dec_w, grad.dec_b)
    np.matmul(dz0, m.dec_w[0].T, out=enc_acts[-1])  # the decoder has read the embedding
    _backward(m.enc_w, enc_acts, mask, grad.enc_w, grad.enc_b)
    return loss


def backprop_embedding(
    m: AutoencoderModel, x: np.ndarray, targets: np.ndarray, grad: AutoencoderModel
) -> float:
    """Gradient of sum ||f(x) - targets||^2 w.r.t. the encoder's parameters,
    written into ``grad.encoder_flat`` (``grad`` is a model of the same dims;
    its decoder part is left as it was); returns the loss."""
    x = check_matrix("input", x, cols=m.input_dim)
    targets = check_matrix("targets", targets, x.shape[0], m.embedding_dim)
    _check_grad(m, grad)
    (*enc, diff), mask = _work(grad, "enc", x.shape[0])
    acts = _forward(m.enc_w, m.enc_b, x, enc)
    loss = _squared_error(acts[-1], targets, diff)
    _backward(m.enc_w, acts, mask, grad.enc_w, grad.enc_b)
    return loss


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


def train(step, arrays, epochs: int, batch_size: int, rng) -> list[float]:
    """The one mini-batch loop. Per epoch, ``step(*batch)`` on each
    ``batch_size`` slice of ``rng.permutation``, gathering the same rows of
    every array; with ``rng`` None, one ``step(*arrays)`` on the arrays
    themselves. Returns each epoch's summed loss."""
    losses = []
    for _ in range(epochs):
        if rng is None:
            losses.append(step(*arrays))
            continue
        order, total = rng.permutation(len(arrays[0])), 0.0
        for start in range(0, len(order), batch_size):
            total += step(*[a[order[start : start + batch_size]] for a in arrays])
        losses.append(total)
    return losses


def pretrain(
    m: AutoencoderModel,
    x: np.ndarray,
    epochs: int = 200,
    batch_size: int = 256,
    seed: int = 0,
    lr: float = 0.001,
):
    """Mini-batch Adam on the reconstruction loss, through ``train``.

    Shuffles per epoch with a generator seeded by ``seed``. Returns the model
    (trained in place) and the per-epoch summed losses. Bad arguments and
    non-finite ``x`` are rejected before the first batch.
    """
    check_int("epochs", epochs, 0)
    check_int("batch_size", batch_size, 1)
    check_int("seed", seed, 0)
    check_real("lr", lr, positive=True)
    x = check_matrix("input", x, cols=m.input_dim)
    if not np.isfinite(x).all():
        raise NumericError("input contains non-finite values")
    grad = AutoencoderModel(m.dims, np.empty_like(m.flat))
    adam = AdamState.for_params([m.flat], lr=lr)

    def step(batch):
        loss = backprop_reconstruction(m, batch, grad)
        adam_step([m.flat], [grad.flat], adam)
        return loss

    return m, train(step, [x], epochs, batch_size, np.random.default_rng(seed))


def save_checkpoint(path, m: AutoencoderModel, meta: dict | None = None) -> None:
    """Write the model as versioned JSON; parameters round-trip bit-exactly
    via base64-encoded little-endian float64 buffers. A ``meta`` that JSON
    cannot encode is a ConfigurationError, and nothing is written."""

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
    try:
        text = json.dumps(doc)
    except (TypeError, ValueError) as exc:  # ValueError: a circular reference
        raise ConfigurationError(f"checkpoint meta is not JSON-encodable: {exc}") from exc
    write_text(path, text)


def load_checkpoint(path) -> tuple[AutoencoderModel, dict]:
    """Read a checkpoint written by ``save_checkpoint``. A file that cannot
    be opened is a ``ConfigurationError``; one that is not a well-formed
    checkpoint, or whose arrays do not fit its ``dims`` or hold nan/inf, is a
    ``FormatError``."""
    with open_input(path, what="checkpoint") as f:
        try:
            doc = json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"{str(path)!r}: not a JSON checkpoint: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version!r}")

    def unpack(entry):
        a = np.frombuffer(base64.b64decode(entry["data"], validate=True), dtype="<f8")
        return a.reshape(entry["shape"])

    keys = ("enc_w", "enc_b", "dec_w", "dec_b")
    try:  # binascii.Error is a ValueError
        dims = list(doc["dims"])
        _check_dims(dims)
        params = [[unpack(e) for e in doc[key]] for key in keys]
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise FormatError(f"{str(path)!r}: malformed checkpoint: {exc!r}") from exc
    shapes = [[a.shape for a in group] for group in params]
    if shapes != _param_groups(dims):
        raise FormatError(
            f"{str(path)!r}: parameter shapes {dict(zip(keys, shapes))} do not fit dims {dims}"
        )
    flat = np.concatenate([a.ravel() for group in params for a in group], dtype=np.float64)
    if not np.isfinite(flat).all():
        raise FormatError(f"{str(path)!r}: non-finite parameter values")
    return AutoencoderModel(dims, flat), doc.get("meta", {})
