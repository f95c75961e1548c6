"""Dataset ingestion: MNIST-style IDX files, numeric CSV, and a seeded
synthetic cluster generator for desk-scale experiments."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError, FormatError, check_int, check_labels, check_matrix, check_real, check_size,
)

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


def _check_path(path, what):
    """Raise ``ConfigurationError`` unless ``path`` is a ``str`` or an
    ``os.PathLike``: ``open`` would take an int or a bool as a file
    descriptor, and read, write or close it."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigurationError(f"{what} must be a path, got {type(path).__name__}")


def open_input(path, mode="r", what="file"):
    """``open`` for a file the package reads, as UTF-8 unless ``mode`` is
    binary. One that is not a path or cannot be opened (missing, a
    directory, a NUL byte in it) is a ``ConfigurationError`` naming it by
    its ``repr``, as ``open_output`` and ``output_dir`` do, so a NUL reads ``\\x00``."""
    _check_path(path, what)
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise ConfigurationError(f"cannot read {what} {str(path)!r}: {exc}") from exc


def open_output(path):
    """``open(path, "w")`` for an output file: one that is not a path or
    cannot be opened (a directory in its place, say) is a ``ConfigurationError``."""
    _check_path(path, "output file")
    try:
        return open(path, "w")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; a ``text`` that is not a string is a
    ``ConfigurationError``, raised before the file is opened."""
    if not isinstance(text, str):
        raise ConfigurationError(f"text must be a string, got {type(text).__name__}")
    with open_output(path) as f:
        f.write(text)


def output_dir(path, *names) -> Path:
    """Create the output directory ``path`` and check that each file in
    ``names`` can be written there, creating or truncating none. A fault (a
    file or directory in the way, a NUL byte, not a path) is a ``ConfigurationError``."""
    _check_path(path, "output directory")
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise ConfigurationError(f"cannot create output directory {str(path)!r}: {exc}") from exc
    for file in (path / name for name in names):
        if file.is_dir():
            raise ConfigurationError(f"cannot write {str(file)!r}: a directory is in its place")
        if not os.access(file if file.exists() else path, os.W_OK):
            raise ConfigurationError(f"cannot write {str(file)!r}: permission denied")
    return path


def _text_lines(path):
    """Yield ``(line number, line)`` for each line of a UTF-8 text file.
    Undecodable bytes are a ``FormatError`` naming the file."""
    with open_input(path) as f:
        try:
            yield from enumerate(f, start=1)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{str(path)!r}: not UTF-8 text: {exc}") from exc


def _read_exact(f, count, path):
    buf = f.read(count)
    if len(buf) != count:
        raise FormatError(f"{str(path)!r}: truncated, wanted {count} bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-layout IDX image/label pair. Pixels are flattened
    row-major and scaled into [0, 1]."""
    with open_input(images_path, "rb") as f, open_input(labels_path, "rb") as g:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"{str(images_path)!r}: bad magic 0x{magic:08x}")
        raw = _read_exact(f, n * rows * cols, images_path)
        magic, n_lab = struct.unpack(">II", _read_exact(g, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"{str(labels_path)!r}: bad magic 0x{magic:08x}")
        raw_labels = _read_exact(g, n_lab, labels_path)
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
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(
                f"{str(path)!r}:{lineno}: ragged row, {len(cells)} cells, expected {width}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:  # parse again, cell by cell, to name the first bad one
            for col, c in enumerate(cells, start=1):
                try:
                    float(c)
                except ValueError as exc:
                    raise FormatError(f"{str(path)!r}:{lineno}: column {col}: {exc}") from exc
        linenos.append(lineno)
        label_cells.append(cells[-1])
    if not rows:
        raise FormatError(f"{str(path)!r}: no data rows")
    a = np.array(rows, dtype=np.float64)
    nonfinite = np.argwhere(~np.isfinite(a))
    if nonfinite.size:
        i, j = nonfinite[0]
        raise FormatError(
            f"{str(path)!r}:{linenos[i]}: column {j + 1}: non-finite value {float(a[i, j])}"
        )
    if has_labels_column:
        if a.shape[1] < 2:
            raise FormatError(f"{str(path)!r}: label column requested but only one column present")
        where = [f"{str(path)!r}:{lineno}: column {a.shape[1]}" for lineno in linenos]
        labels = [_int64_label(c, w) for c, w in zip(label_cells, where)]
        return Dataset(x=a[:, :-1], labels=np.array(labels, dtype=np.int64), name="csv")
    return Dataset(x=a, name="csv")


def _int64_label(cell: str, where: str) -> int:
    """The 64-bit integer a label cell holds, read exactly (not through a
    float): an integer literal, or a number with an integral value such as
    ``1.0``. Any other cell is a ``FormatError`` that starts with ``where``."""
    try:
        v = int(cell)
    except ValueError:
        try:
            f = float(cell)
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
        v = int(f) if f.is_integer() else None  # nan and inf are not integers
    if v is None or abs(v) >= 2**63:
        raise FormatError(f"{where}: label {float(cell)} is not a 64-bit integer")
    return v


def load_labels(path) -> np.ndarray:
    """Read a label file: the first cell of each non-blank line, one 64-bit
    integer each, read as ``load_csv`` reads its label column."""
    labels = [
        _int64_label(line.split(",")[0].strip(), f"{str(path)!r}:{lineno}")
        for lineno, line in _text_lines(path)
        if line.strip()
    ]
    if not labels:
        raise ConfigurationError(f"{str(path)!r}: no labels")
    return np.array(labels, dtype=int)


# Cells that save_csv formats at once: its Python floats and text stay a few
# MiB however large the array.
CSV_BLOCK_CELLS = 1 << 16


def save_csv(path, x: np.ndarray, labels=None, header: str = "") -> None:
    """Write ``header`` verbatim, then features (repr-precision floats)
    with an optional trailing integer label column, formatted from
    ``tolist()`` and written a block of rows at a time. ``x`` must be a
    real matrix, ``labels`` one integer per row (``check_matrix``,
    ``check_labels``) and ``header`` a string, all checked before the file
    is opened."""
    x = check_matrix("x", x)
    if not isinstance(header, str):
        raise ConfigurationError(f"header must be a string, got {type(header).__name__}")
    labels = None if labels is None else check_labels(labels, x.shape[0])
    rows = max(1, CSV_BLOCK_CELLS // max(1, x.shape[1]))
    with open_output(path) as f:
        f.write(header)
        for lo in range(0, x.shape[0], rows):
            block = x[lo : lo + rows].tolist()
            if labels is not None:
                for row, label in zip(block, labels[lo : lo + rows], strict=True):
                    row.append(int(label))
            f.write("".join(",".join(map(repr, row)) + "\n" for row in block))


def check_synthetic(k, per_cluster_n, latent_dim, ambient_dim, separation, seed) -> None:
    """Raise ``ConfigurationError`` unless the ``gen_synthetic`` arguments
    are valid: positive integer sizes, ``ambient_dim >= latent_dim``, a
    finite ``separation > 0``, an integer ``seed >= 0``, and no array larger
    than numpy can hold."""
    for name, value in (
        ("k", k),
        ("per_cluster_n", per_cluster_n),
        ("latent_dim", latent_dim),
        ("ambient_dim", ambient_dim),
    ):
        check_int(name, value, 1)
    check_real("separation", separation)
    check_int("seed", seed, 0)
    if ambient_dim < latent_dim:
        raise ConfigurationError(
            f"ambient_dim {ambient_dim} must be >= latent_dim {latent_dim}"
        )
    check_size(  # its largest float64 arrays
        "a (k * per_cluster_n, ambient_dim) or (k, k, latent_dim) array",
        int(k) * max(int(per_cluster_n) * int(ambient_dim), int(k) * int(latent_dim)),
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
    min-max scaled into [0, 1]. ``meta`` holds the six arguments only; the
    latent points are not kept, and ``seed`` replays them."""
    check_synthetic(k, per_cluster_n, latent_dim, ambient_dim, separation, seed)
    rng = np.random.default_rng(seed)

    centroids = rng.normal(size=(k, latent_dim))
    if k > 1:
        diffs = centroids[:, None, :] - centroids[None, :, :]
        dists = np.sqrt(np.sum(diffs * diffs, axis=2))
        min_dist = dists[~np.eye(k, dtype=bool)].min()
        centroids *= separation / max(min_dist, 1e-12)

    labels = np.repeat(np.arange(k), per_cluster_n)
    latent = rng.normal(size=(k * per_cluster_n, latent_dim))
    latent += centroids[labels]  # the noise plus its centroid, which commutes

    lift = rng.normal(size=(latent_dim, ambient_dim)) / np.sqrt(latent_dim)
    offset = rng.normal(size=ambient_dim)
    # in place, in the order of tanh(latent @ lift * 0.25 + offset)
    x = latent @ lift
    del latent
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
        },
    )


# the keys each dataset type reads besides "type"; any other key is a typo
_SPEC_KEYS = {
    "synthetic": ("k", "per_cluster_n", "latent_dim", "ambient_dim", "separation", "seed"),
    "csv": ("path", "has_labels"),
    "idx": ("images", "labels"),
}
_SYNTHETIC_DEFAULTS = {"per_cluster_n": 500, "latent_dim": 2, "ambient_dim": 10, "separation": 5.0}


def dataset_loader(spec: dict, k, seed):
    """Check a dataset spec and return the zero-argument call that loads it.
    Its ``type`` (synthetic, csv or idx) decides the keys it may hold, and
    ``k`` and ``seed`` are a synthetic spec's fallbacks. Any fault is a
    ``ConfigurationError``."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"a dataset spec must be a mapping, got {spec!r}")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ConfigurationError(f"type must be synthetic, csv or idx, got {kind!r}")
    unknown = set(spec) - {"type", *_SPEC_KEYS[kind]}
    if unknown:
        raise ConfigurationError(f"unknown keys for type {kind}: {sorted(unknown, key=str)}")
    if kind == "synthetic":
        args = {"k": k, **_SYNTHETIC_DEFAULTS, "seed": seed, **spec}
        del args["type"]
        check_synthetic(**args)
        return lambda: gen_synthetic(**args)
    for key in _SPEC_KEYS[kind]:
        if key != "has_labels" and not isinstance(spec.get(key), str):
            raise ConfigurationError(
                f"type {kind} needs {key} as a path string, got {spec.get(key)!r}"
            )
    if kind == "idx":
        images, labels = spec["images"], spec["labels"]
        return lambda: load_idx(images, labels)
    path, has_labels = spec["path"], spec.get("has_labels", False)
    if not isinstance(has_labels, bool):
        raise ConfigurationError(f"has_labels must be true or false, got {has_labels!r}")
    return lambda: load_csv(path, has_labels)
