import struct

import numpy as np
import pytest

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
    with pytest.raises(FormatError, match=rf"n\.csv:3: column 1: non-finite value {cell}"):
        data.load_csv(p, has_labels_column=True)
    p.write_text(f"1.0,2.0,0\n4.0,3.0,{cell}\n")
    with pytest.raises(FormatError, match="n.csv:2: column 3"):
        data.load_csv(p, has_labels_column=True)


def test_csv_roundtrip_bit_exact(tmp_path, rng):
    x = rng.normal(size=(1000, 5))
    labels = rng.integers(4, size=1000)
    p = tmp_path / "rt.csv"
    data.save_csv(p, x, labels)
    ds = data.load_csv(p, has_labels_column=True)
    assert np.array_equal(ds.x, x)
    assert np.array_equal(ds.labels, labels)


def test_gen_synthetic_latent_oracle_clustering():
    ds = data.gen_synthetic(
        k=4, per_cluster_n=100, latent_dim=2, ambient_dim=10, separation=20.0, seed=0
    )
    latent = ds.meta["latent"]
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


def test_load_csv_rejects_non_integral_labels(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("1.0,2.0,0\n\n3.0,4.0,1.5\n")
    with pytest.raises(FormatError, match=r"l\.csv:3: column 3: label 1\.5 is not a 64-bit"):
        data.load_csv(p, has_labels_column=True)
    p.write_text("1.0,2.0,0\n3.0,4.0,1e300\n")
    with pytest.raises(FormatError, match=r"l\.csv:2: column 3: label 1e\+300"):
        data.load_csv(p, has_labels_column=True)
    p.write_text("1.0,2.0,0.0\n3.0,4.0,1.0\n")
    assert np.array_equal(data.load_csv(p, has_labels_column=True).labels, [0, 1])
