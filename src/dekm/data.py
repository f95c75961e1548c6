"""Dataset ingestion: MNIST-style IDX files, numeric CSV, and a seeded
synthetic cluster generator for desk-scale experiments."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FormatError, check_int, check_real

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    x: np.ndarray  # (n, d) float64
    labels: np.ndarray | None = None
    name: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _open_input(path, *args, **kwargs):
    """``open`` for an input file: one that cannot be opened is a
    ``ConfigurationError``."""
    try:
        return open(path, *args, **kwargs)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def text_lines(path):
    """Yield ``(line number, line)`` for each line of a UTF-8 text file.
    Undecodable bytes are a ``FormatError`` naming the file."""
    with _open_input(path, encoding="utf-8") as f:
        try:
            yield from enumerate(f, start=1)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_exact(f, count, path):
    buf = f.read(count)
    if len(buf) != count:
        raise FormatError(f"{path}: truncated, wanted {count} bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-layout IDX image/label pair. Pixels are flattened
    row-major and scaled into [0, 1]."""
    with _open_input(images_path, "rb") as f:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad magic 0x{magic:08x}")
        raw = _read_exact(f, n * rows * cols, images_path)
    with _open_input(labels_path, "rb") as f:
        magic, n_lab = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad magic 0x{magic:08x}")
        raw_labels = _read_exact(f, n_lab, labels_path)
    if n != n_lab:
        raise FormatError(f"image count {n} != label count {n_lab}")
    x = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols).astype(np.float64)
    x /= 255.0  # in place: one float64 copy alive, not two
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(int)
    return Dataset(
        x=x,
        labels=labels,
        name="idx",
        meta={"image_shape": [rows, cols], "images_path": str(images_path)},
    )


def load_csv(path, has_labels_column: bool = False) -> Dataset:
    """Load a rectangular numeric CSV, optionally with a final integer label
    column. No normalization is applied; nan and inf cells are rejected."""
    rows: list[list[float]] = []
    linenos: list[int] = []
    label_cells: list[str] = []
    width = None
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(
                f"{path}:{lineno}: ragged row, {len(cells)} cells, expected {width}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            bad = next(i for i, c in enumerate(cells) if not _is_number(c))
            raise FormatError(f"{path}:{lineno}: column {bad + 1}: {exc}") from exc
        linenos.append(lineno)
        label_cells.append(cells[-1])
    if not rows:
        raise FormatError(f"{path}: no data rows")
    a = np.array(rows, dtype=np.float64)
    nonfinite = np.argwhere(~np.isfinite(a))
    if nonfinite.size:
        i, j = nonfinite[0]
        raise FormatError(
            f"{path}:{linenos[i]}: column {j + 1}: non-finite value {float(a[i, j])}"
        )
    if has_labels_column:
        if a.shape[1] < 2:
            raise FormatError(f"{path}: label column requested but only one column present")
        labels = [int64_label(c) for c in label_cells]
        if None in labels:
            i = labels.index(None)
            raise FormatError(
                f"{path}:{linenos[i]}: column {a.shape[1]}: "
                f"label {float(a[i, -1])} is not a 64-bit integer"
            )
        return Dataset(x=a[:, :-1], labels=np.array(labels, dtype=np.int64), name="csv")
    return Dataset(x=a, name="csv")


def int64_label(cell: str) -> int | None:
    """The 64-bit integer a label cell holds, read exactly (not through a
    float): an integer literal, or a number with an integral value such as
    ``1.0``. None for any other number; ``ValueError`` if ``cell`` is not a
    number."""
    try:
        v = int(cell)
    except ValueError:
        f = float(cell)
        if not f.is_integer():  # also nan and inf
            return None
        v = int(f)
    return v if abs(v) < 2**63 else None


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def save_csv(path, x: np.ndarray, labels=None, header: str = "") -> None:
    """Write ``header`` verbatim, then features (repr-precision floats)
    with an optional trailing integer label column."""
    with open(path, "w") as f:
        f.write(header)
        for i in range(x.shape[0]):
            cells = [repr(float(v)) for v in x[i]]
            if labels is not None:
                cells.append(str(int(labels[i])))
            f.write(",".join(cells) + "\n")


def check_synthetic(k, per_cluster_n, latent_dim, ambient_dim, separation, seed) -> None:
    """Raise ``ConfigurationError`` unless the ``gen_synthetic`` arguments
    are valid: positive integer sizes, ``ambient_dim >= latent_dim``, a
    finite ``separation > 0`` and an integer ``seed >= 0``."""
    for name, value in (
        ("k", k),
        ("per_cluster_n", per_cluster_n),
        ("latent_dim", latent_dim),
        ("ambient_dim", ambient_dim),
    ):
        check_int(name, value, 1)
    check_real("separation", separation, positive=True)
    check_int("seed", seed, 0)
    if ambient_dim < latent_dim:
        raise ConfigurationError(
            f"ambient_dim {ambient_dim} must be >= latent_dim {latent_dim}"
        )


def gen_synthetic(
    k: int,
    per_cluster_n: int,
    latent_dim: int,
    ambient_dim: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Seeded cluster mixture: k unit-variance isotropic Gaussians whose
    latent centroids are at least ``separation`` apart, lifted to the
    ambient space by a fixed random affine map plus tanh squashing, then
    min-max scaled into [0, 1]. Latent coordinates are kept in metadata."""
    check_synthetic(k, per_cluster_n, latent_dim, ambient_dim, separation, seed)
    rng = np.random.default_rng(seed)

    centroids = rng.normal(size=(k, latent_dim))
    if k > 1:
        diffs = centroids[:, None, :] - centroids[None, :, :]
        dists = np.sqrt(np.sum(diffs * diffs, axis=2))
        min_dist = dists[~np.eye(k, dtype=bool)].min()
        centroids *= separation / max(min_dist, 1e-12)

    labels = np.repeat(np.arange(k), per_cluster_n)
    latent = centroids[labels] + rng.normal(size=(k * per_cluster_n, latent_dim))

    lift = rng.normal(size=(latent_dim, ambient_dim)) / np.sqrt(latent_dim)
    offset = rng.normal(size=ambient_dim)
    # in place, in the order of tanh(latent @ lift * 0.25 + offset)
    x = latent @ lift
    x *= 0.25
    x += offset
    np.tanh(x, out=x)

    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    x -= lo
    x /= span
    return Dataset(
        x=x,
        labels=labels,
        name="synthetic",
        meta={
            "k": k,
            "per_cluster_n": per_cluster_n,
            "latent_dim": latent_dim,
            "ambient_dim": ambient_dim,
            "separation": separation,
            "seed": seed,
            "latent": latent,
        },
    )
