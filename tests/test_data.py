import ast
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dekm import data, kmeans as km, metrics
from dekm.errors import ConfigurationError, FormatError


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, n) + bytes(labels))
    return img_path, lab_path


def test_load_idx_two_image_fixture(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[1, 27, 27] = 128
    img, lab = write_idx_pair(tmp_path, images, [3, 7])
    ds = data.load_idx(img, lab)
    assert ds.x.shape == (2, 784)
    assert ds.x[0, 0] == 1.0
    assert ds.x[1, 783] == pytest.approx(128 / 255)
    assert np.all((ds.x >= 0.0) & (ds.x <= 1.0))
    assert np.array_equal(ds.labels, [3, 7])
    assert ds.meta["image_shape"] == [28, 28]


def test_load_idx_all_zero_image(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 4, 4), dtype=np.uint8), [0])
    ds = data.load_idx(img, lab)
    assert np.array_equal(ds.x, np.zeros((1, 16)))


def test_load_idx_scales_in_place(tmp_path):
    # 40 images make a 245 KiB float64 array, below the 256 KiB from which
    # numpy reuses an expression's temporary on its own
    images = np.random.default_rng(0).integers(0, 256, size=(40, 28, 28), dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, [i % 10 for i in range(40)])
    tracemalloc.start()
    try:
        ds = data.load_idx(img, lab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.x, images.reshape(40, 784).astype(np.float64) / 255.0)
    # the pixel bytes plus one float64 copy (9/8 of it); a second copy is 17/8
    assert peak < 1.5 * ds.x.nbytes


def test_load_idx_bad_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    lab.write_bytes(struct.pack(">II", 0x999, 1) + b"\x00")
    with pytest.raises(FormatError):
        data.load_idx(img, lab)


def test_load_idx_count_mismatch(tmp_path):
    img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    lab = tmp_path / "short.idx"
    lab.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    with pytest.raises(FormatError):
        data.load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    img.write_bytes(img.read_bytes()[:-3])
    with pytest.raises(FormatError):
        data.load_idx(img, lab)


def test_load_csv_with_labels(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,0\n3,4,1\n")
    ds = data.load_csv(p, has_labels_column=True)
    assert np.array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.labels, [0, 1])


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        data.load_csv(p)


def test_load_csv_ragged_and_non_numeric(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(FormatError, match="ragged"):
        data.load_csv(p)
    p.write_text("1,2\n3,abc\n")
    with pytest.raises(FormatError, match="column 2"):
        data.load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    p = tmp_path / "n.csv"
    # the blank line must not shift the reported line number
    p.write_text(f"1.0,2.0,0\n\n{cell},3.0,1\n")
    with pytest.raises(FormatError, match=rf"n\.csv':3: column 1: non-finite value {cell}"):
        data.load_csv(p, has_labels_column=True)
    p.write_text(f"1.0,2.0,0\n4.0,3.0,{cell}\n")
    with pytest.raises(FormatError, match="n.csv':2: column 3"):
        data.load_csv(p, has_labels_column=True)


def test_csv_roundtrip_bit_exact(tmp_path, rng):
    x = rng.normal(size=(1000, 5))
    labels = rng.integers(4, size=1000)
    p = tmp_path / "rt.csv"
    data.save_csv(p, x, labels)
    ds = data.load_csv(p, has_labels_column=True)
    assert np.array_equal(ds.x, x)
    assert np.array_equal(ds.labels, labels)


@st.composite
def _datasets(draw):
    n, d = draw(st.integers(1, 20)), draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and -0.0 too
    x = draw(arrays(np.float64, (n, d), elements=finite))
    labels = draw(st.none() | arrays(np.int64, n, elements=st.integers(-(2**63) + 1, 2**63 - 1)))
    return x, labels


@settings(max_examples=50, deadline=None)
@given(case=_datasets())
def test_csv_roundtrip_property(case):
    x, labels = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        data.save_csv(path, x, labels)
        ds = data.load_csv(path, has_labels_column=labels is not None)
    assert ds.x.tobytes() == x.tobytes()
    if labels is None:
        assert ds.labels is None
    else:
        assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, labels)


def test_labels_are_read_exactly(tmp_path):
    # 2**53 + 1 has no float64; 2**63 - 1 is the largest int64
    p = tmp_path / "big.csv"
    p.write_text("0.5,9007199254740993\n0.25,9223372036854775807\n0.0,-3.0\n")
    labels = data.load_csv(p, has_labels_column=True).labels
    assert labels.tolist() == [2**53 + 1, 2**63 - 1, -3]
    p.write_text("0.5,9223372036854775808\n")
    with pytest.raises(FormatError, match="big.csv':1: column 2"):
        data.load_csv(p, has_labels_column=True)


def _replay_synthetic(k, per_cluster_n, latent_dim, ambient_dim, separation, seed):
    """Replay ``gen_synthetic``'s draws out of place: the centroids scaled to
    ``separation``, the latent points (centroid plus noise), the lift and
    the offset."""
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(k, latent_dim))
    if k > 1:
        diffs = centroids[:, None, :] - centroids[None, :, :]
        dists = np.sqrt(np.sum(diffs * diffs, axis=2))
        centroids = centroids * (separation / dists[~np.eye(k, dtype=bool)].min())
    labels = np.repeat(np.arange(k), per_cluster_n)
    latent = centroids[labels] + rng.normal(size=(k * per_cluster_n, latent_dim))
    lift = rng.normal(size=(latent_dim, ambient_dim)) / np.sqrt(latent_dim)
    offset = rng.normal(size=ambient_dim)
    return latent, lift, offset


def test_gen_synthetic_latent_oracle_clustering():
    kw = dict(k=4, per_cluster_n=100, latent_dim=2, ambient_dim=10, separation=20.0, seed=0)
    ds = data.gen_synthetic(**kw)
    latent, _, _ = _replay_synthetic(**kw)
    res = km.lloyd(latent, 4, km.kmeanspp_init(latent, 4, 0))
    assert metrics.acc(ds.labels, res.assignments) >= 0.99


def test_gen_synthetic_basics():
    ds = data.gen_synthetic(
        k=3, per_cluster_n=50, latent_dim=2, ambient_dim=6, separation=4.0, seed=5
    )
    assert ds.x.shape == (150, 6)
    assert np.all((ds.x >= 0.0) & (ds.x <= 1.0))
    assert np.array_equal(np.bincount(ds.labels), [50, 50, 50])
    ds1 = data.gen_synthetic(k=1, per_cluster_n=10, latent_dim=2, ambient_dim=4, separation=1.0, seed=0)
    assert np.all(ds1.labels == 0)


def test_gen_synthetic_deterministic():
    kw = dict(k=3, per_cluster_n=20, latent_dim=2, ambient_dim=5, separation=3.0, seed=9)
    a = data.gen_synthetic(**kw)
    b = data.gen_synthetic(**kw)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.labels, b.labels)


def test_gen_synthetic_rejects_bad_dims():
    with pytest.raises(ConfigurationError):
        data.gen_synthetic(k=2, per_cluster_n=10, latent_dim=5, ambient_dim=3, separation=1.0, seed=0)
    with pytest.raises(ConfigurationError):
        data.gen_synthetic(k=0, per_cluster_n=10, latent_dim=2, ambient_dim=3, separation=1.0, seed=0)


def test_gen_synthetic_matches_out_of_place_formula():
    kw = dict(k=5, per_cluster_n=40, latent_dim=3, ambient_dim=12, separation=2.5, seed=11)
    ds = data.gen_synthetic(**kw)
    latent, lift, offset = _replay_synthetic(**kw)
    x = np.tanh(latent @ lift * 0.25 + offset)
    lo = x.min(axis=0)
    span = np.where(x.max(axis=0) - lo > 0, x.max(axis=0) - lo, 1.0)
    assert np.array_equal(ds.x, (x - lo) / span)
    assert np.array_equal(ds.labels, np.repeat(np.arange(5), 40))


def test_gen_synthetic_meta_holds_the_spec_only():
    kw = dict(k=3, per_cluster_n=20, latent_dim=2, ambient_dim=5, separation=3.0, seed=9)
    meta = data.gen_synthetic(**kw).meta
    assert not any(isinstance(v, np.ndarray) for v in meta.values())
    assert meta == kw
    assert json.loads(json.dumps(meta)) == kw


def test_gen_synthetic_builds_x_in_place():
    # x is the only (n, ambient_dim) array; a second one would reach 2x,
    # and the out-of-place formula held three at once
    tracemalloc.start()
    try:
        ds = data.gen_synthetic(
            k=4, per_cluster_n=2000, latent_dim=2, ambient_dim=100, separation=5.0, seed=0
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ds.x.nbytes


@pytest.mark.parametrize(
    "key, value",
    [
        ("k", True),
        ("k", 2.0),
        ("per_cluster_n", "10"),
        ("per_cluster_n", 0),
        ("latent_dim", 0),
        ("ambient_dim", -1),
        ("separation", "x"),
        ("separation", float("inf")),
        ("separation", float("nan")),
        ("separation", 0.0),
        ("seed", -1),
        ("seed", 1.5),
        pytest.param("k", 10**400, id="k-10**400"),
        pytest.param("per_cluster_n", 2**62, id="per_cluster_n-2**62"),
        pytest.param("ambient_dim", 2**62, id="ambient_dim-2**62"),
    ],
)
def test_gen_synthetic_rejects_bad_values(key, value):
    kw = dict(k=2, per_cluster_n=10, latent_dim=2, ambient_dim=3, separation=1.0, seed=0)
    kw[key] = value
    with pytest.raises(ConfigurationError, match=key):
        data.gen_synthetic(**kw)


def test_load_csv_rejects_non_integral_labels(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("1.0,2.0,0\n\n3.0,4.0,1.5\n")
    with pytest.raises(FormatError, match=r"l\.csv':3: column 3: label 1\.5 is not a 64-bit"):
        data.load_csv(p, has_labels_column=True)
    p.write_text("1.0,2.0,0\n3.0,4.0,1e300\n")
    with pytest.raises(FormatError, match=r"l\.csv':2: column 3: label 1e\+300"):
        data.load_csv(p, has_labels_column=True)
    p.write_text("1.0,2.0,0.0\n3.0,4.0,1.0\n")
    assert np.array_equal(data.load_csv(p, has_labels_column=True).labels, [0, 1])


def test_only_data_touches_the_filesystem():
    # every path is opened, created and checked in dekm.data, so a bad path
    # fails one way wherever it comes from
    calls = []
    for path in Path(data.__file__).parent.glob("*.py"):
        if path.name == "data.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (
                (isinstance(f, ast.Name) and f.id == "open")
                or (isinstance(f, ast.Attribute) and f.attr == "mkdir")
                or (isinstance(f, ast.Attribute) and f.attr == "access"
                    and isinstance(f.value, ast.Name) and f.value.id == "os")
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
