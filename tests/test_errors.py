import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

from dekm import autoencoder as ae, config, core, data, kmeans as km, metrics
from dekm.errors import (
    ConfigurationError, DimensionError, FormatError, NumericError, check_matrix, check_real,
)

H = np.arange(15.0).reshape(5, 3) ** 1.5  # 5 distinct points in 3-D
RAGGED = [[0], [0, 1]]  # two labels, one of them a pair


def _clustering():
    return km.lloyd(H, 2, km.kmeanspp_init(H, 2, np.random.default_rng(0)))


def _transform():
    return core.build_transform(km.within_class_scatter(H, _clustering()))


def _assigned(assignments):
    """The two-cluster clustering of H with other assignments, as given."""
    return dataclasses.replace(_clustering(), assignments=assignments)


def test_check_matrix_returns_a_float64_matrix_as_it_is():
    assert check_matrix("h", H, 5, 3) is H
    assert check_matrix("h", [[1, 2]]).dtype == np.float64


@pytest.mark.parametrize("a, rows, cols", [
    (H[0], None, None),
    (H[None], None, None),
    (H, 4, None),
    (H, None, 2),
    (H, 5, 4),
])
def test_check_matrix_rejects_other_shapes(a, rows, cols):
    with pytest.raises(DimensionError):
        check_matrix("h", a, rows, cols)


CASES = {
    "lloyd_float_k": (ConfigurationError, lambda: km.lloyd(H, 4.0, H[:4])),
    "lloyd_k_above_n": (ConfigurationError, lambda: km.lloyd(H[:2], 3, H[[0, 1, 1]])),
    "kmeanspp_1d_h": (
        DimensionError, lambda: km.kmeanspp_init(H[:, 0], 2, np.random.default_rng(0)),
    ),
    "lloyd_1d_h": (DimensionError, lambda: km.lloyd(H[:, 0], 2, H[:2, :1])),
    "scatter_1d_h": (DimensionError, lambda: km.within_class_scatter(H[:, 0], _clustering())),
    "targets_1d_h": (
        DimensionError,
        lambda: core.greedy_targets(H[:, 0], _transform(), _clustering(), "last_dim_Y"),
    ),
    "targets_narrow_h": (
        DimensionError,
        lambda: core.greedy_targets(H[:, :2], _transform(), _clustering(), "last_dim_Y"),
    ),
    "kmeanspp_nan_h": (
        NumericError,
        lambda: km.kmeanspp_init(np.where(H > 20, np.nan, H), 2, np.random.default_rng(0)),
    ),
    "loss_1d_targets": (DimensionError, lambda: core.greedy_loss(H, H[0])),
    "loss_short_targets": (DimensionError, lambda: core.greedy_loss(H, H[:4])),
    "gaussian_nan_variance": (ConfigurationError, lambda: metrics.gaussian_entropy([1.0, np.nan])),
    "gaussian_inf_variance": (ConfigurationError, lambda: metrics.gaussian_entropy([np.inf])),
    "gaussian_strings": (ConfigurationError, lambda: metrics.gaussian_entropy("ab")),
    "gaussian_ragged": (DimensionError, lambda: metrics.gaussian_entropy([[1.0], [1.0, 2.0]])),
    "gaussian_complex": (ConfigurationError, lambda: metrics.gaussian_entropy([1j, 2])),
    "uniform_fractional_n": (ConfigurationError, lambda: metrics.uniform_entropy(2.5)),
    "uniform_bool_n": (ConfigurationError, lambda: metrics.uniform_entropy(True)),
    "xavier_negative_seed": (ConfigurationError, lambda: ae.xavier_init([3, 2], seed=-1)),
    "xavier_too_wide": (ConfigurationError, lambda: ae.xavier_init([4, 10**30, 3], 0)),
    "model_dims_too_wide": (
        ConfigurationError, lambda: ae.AutoencoderModel([4, 2**63], np.zeros(3)),
    ),
    "kmeanspp_int_seed": (ConfigurationError, lambda: km.kmeanspp_init(H, 2, 0)),
    "kmeanspp_random_state": (
        ConfigurationError, lambda: km.kmeanspp_init(H, 2, np.random.RandomState(0)),
    ),
    "matrix_ragged": (DimensionError, lambda: check_matrix("h", [[1.0, 2.0], [3.0]])),
    "matrix_strings": (ConfigurationError, lambda: check_matrix("h", [["1", "2"]])),
    "matrix_complex": (ConfigurationError, lambda: check_matrix("h", H + 1j)),
    "encode_ragged": (
        DimensionError, lambda: ae.encode(ae.xavier_init([2, 1], 0), [[1.0], [1.0, 2.0]]),
    ),
    "loss_complex_targets": (ConfigurationError, lambda: core.greedy_loss(H, H + 0j)),
    "transform_strings": (
        ConfigurationError, lambda: core.build_transform([["1", "0"], ["0", "1"]]),
    ),
    "transform_ragged": (DimensionError, lambda: core.build_transform([[1.0, 0.0], [1.0]])),
    "transform_complex": (ConfigurationError, lambda: core.build_transform(np.eye(2) + 1j)),
    "scatter_assignment_k": (
        ConfigurationError, lambda: km.within_class_scatter(H, _assigned([0, 1, 2, 0, 1])),
    ),
    "scatter_assignment_negative": (
        ConfigurationError, lambda: km.within_class_scatter(H, _assigned([0, 1, -1, 0, 1])),
    ),
    "scatter_float_assignments": (
        ConfigurationError, lambda: km.within_class_scatter(H, _assigned([0.0, 1, 1, 0, 1])),
    ),
    "scatter_2d_assignments": (
        DimensionError, lambda: km.within_class_scatter(H, _assigned([[0, 1, 1, 0, 1]])),
    ),
    "targets_assignment_k": (
        ConfigurationError,
        lambda: core.greedy_targets(H, _transform(), _assigned([0, 1, 2, 0, 1]), "all_dims_H"),
    ),
    "targets_assignment_negative": (
        ConfigurationError,
        lambda: core.greedy_targets(H, _transform(), _assigned([0, 1, -1, 0, 1]), "all_dims_H"),
    ),
    "scatter_ragged_assignments": (
        DimensionError, lambda: km.within_class_scatter(H, _assigned([[0], [0, 1], 1, 0, 1])),
    ),
    "targets_ragged_assignments": (
        DimensionError,
        lambda: core.greedy_targets(H, _transform(), _assigned([[0], [0, 1]]), "all_dims_H"),
    ),
    "acc_ragged": (DimensionError, lambda: metrics.acc(RAGGED, [0, 1])),
    "acc_ragged_second": (DimensionError, lambda: metrics.acc([0, 1], RAGGED)),
    "nmi_ragged": (DimensionError, lambda: metrics.nmi(RAGGED, [0, 1])),
    "changed_fraction_ragged": (DimensionError, lambda: core.changed_fraction(RAGGED, [0, 1])),
    "align_labels_ragged": (DimensionError, lambda: metrics.align_labels([0, 1], RAGGED)),
    "run_dekm_ragged_labels": (
        DimensionError,
        lambda: core.run_dekm(ae.xavier_init([3, 2], 0), H, core.DekmConfig(k=2),
                              labels=[[0], [0, 1], 1, 1, 0]),
    ),
    "contingency_strings": (ConfigurationError, lambda: metrics.contingency(["a", "b"], [0, 1])),
    "contingency_fraction": (ConfigurationError, lambda: metrics.contingency([0, 1], [0.5, 1])),
    "contingency_complex": (ConfigurationError, lambda: metrics.contingency([0, 1j], [0, 1])),
    "contingency_unequal": (DimensionError, lambda: metrics.contingency([0, 1, 1], [0, 1])),
    "contingency_ragged": (DimensionError, lambda: metrics.contingency(RAGGED, [0, 1])),
    "run_dekm_config_not_a_dekm_config": (
        ConfigurationError, lambda: core.run_dekm(ae.xavier_init([3, 2], 0), H, {"k": 2}),
    ),
    "model_flat_a_list": (DimensionError, lambda: ae.AutoencoderModel([3, 2], [0.0] * 17)),
    "model_dims_none": (ConfigurationError, lambda: ae.AutoencoderModel(None, np.zeros(17))),
    "model_dims_an_int": (ConfigurationError, lambda: ae.AutoencoderModel(5, np.zeros(17))),
    "adam_unequal_lengths": (
        DimensionError,
        lambda: ae.adam_step([np.zeros(2)], [], ae.AdamState.for_params([np.zeros(2)])),
    ),
    "experiment_config_dekm_a_list": (ConfigurationError, lambda: config.ExperimentConfig(dekm=[1])),
    "acc_empty": (ConfigurationError, lambda: metrics.acc([], [])),
    "config_array_strategy": (
        ConfigurationError,
        lambda: core.DekmConfig(k=2, strategy=np.array(["last_dim_Y", "all_dims_H"])),
    ),
    "config_array_batch_mode": (
        ConfigurationError, lambda: core.DekmConfig(k=2, batch_mode=np.ones(2)),
    ),
    "targets_array_strategy": (
        ConfigurationError,
        lambda: core.greedy_targets(H, _transform(), _clustering(),
                                    np.array(["last_dim_Y", "all_dims_H"])),
    ),
    "targets_int_rng": (
        ConfigurationError,
        lambda: core.greedy_targets(H, _transform(), _clustering(), "random_dim_Y", 5),
    ),
    "targets_random_state_rng": (
        ConfigurationError,
        lambda: core.greedy_targets(H, _transform(), _clustering(), "random_dim_H",
                                    np.random.RandomState(0)),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_arguments_fail_at_the_boundary(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()


def test_check_real_takes_a_finite_number_above_zero():
    for value in (5e-324, 1, 0.5, np.float64(2.0), sys.float_info.max, np.float32(5.0),
                  np.int64(3)):
        check_real("x", value)


# 0.0 passed when Lloyd's tol was a setting; nothing takes zero now
@pytest.mark.parametrize(
    "value", [0.0, -1.0, float("nan"), float("inf"), True, "1", 10**400, np.float32("inf"),
              np.float32("nan"), np.longdouble("1e400")],
    ids=["zero", "negative", "nan", "inf", "bool", "str", "10**400", "float32_inf",
         "float32_nan", "longdouble_1e400"],
)
def test_check_real_rejects_all_else(value):
    with pytest.raises(ConfigurationError, match="x must be a finite number > 0"):
        check_real("x", value)


@pytest.mark.parametrize("n", [2**64, 10**400], ids=["2**64", "10**400"])
def test_uniform_entropy_takes_an_integer_of_any_size(n):
    assert metrics.uniform_entropy(n) == math.log(n)


SAVE_CSV_CASES = {
    "fractional_labels": (ConfigurationError, np.ones((3, 2)), [0.5, 1.7, 2.2]),
    "short_labels": (DimensionError, np.ones((3, 2)), [0, 1]),
    "string_labels": (ConfigurationError, np.ones((3, 2)), ["a", "b", "c"]),
    "complex_x": (ConfigurationError, np.ones((3, 2)) + 1j, [0, 1, 2]),
    "vector_x": (DimensionError, np.ones(3), [0, 1, 2]),
}


@pytest.mark.parametrize("case", SAVE_CSV_CASES)
def test_save_csv_rejects_bad_arguments_before_writing(tmp_path, case):
    error, x, labels = SAVE_CSV_CASES[case]
    path = tmp_path / "out.csv"
    with pytest.raises(error):
        data.save_csv(path, x, labels)
    assert not path.exists()


WRITERS_KEEP_THE_FILE = {
    "save_csv_bytes_header": lambda path: data.save_csv(path, np.ones((2, 2)), header=b"x"),
    "save_checkpoint_array_meta": lambda path: ae.save_checkpoint(
        path, ae.xavier_init([3, 2], 0), meta=np.ones(2)
    ),
    # JSON encodes these, but a checkpoint's meta is a mapping
    **{
        f"save_checkpoint_{name}_meta": lambda path, meta=meta: ae.save_checkpoint(
            path, ae.xavier_init([3, 2], 0), meta=meta
        )
        for name, meta in (("bool", True), ("int", -1), ("str", "x"))
    },
    "write_text_none": lambda path: data.write_text(path, None),
}


@pytest.mark.parametrize("case", WRITERS_KEEP_THE_FILE)
def test_writers_reject_bad_arguments_before_opening_the_file(tmp_path, case):
    path = tmp_path / "out"
    path.write_text("keep me")
    with pytest.raises(ConfigurationError):
        WRITERS_KEEP_THE_FILE[case](path)
    assert path.read_text() == "keep me"


# each reader on contents it rejects, and a writer given a directory: the
# error, the file's bytes, and the call on its path
BAD_FILES = {
    "idx_images_bad_magic": (
        FormatError, bytes(16), lambda path: data.load_idx(path, path),
    ),
    "csv_label_column_alone": (
        FormatError, b"0\n1\n", lambda path: data.load_csv(path, True),
    ),
    "labels_blank": (ConfigurationError, b"\n \n", data.load_labels),
    "write_text_onto_a_directory": (
        ConfigurationError, b"", lambda path: data.write_text(path.parent, "x"),
    ),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_bad_files_fail_at_the_boundary(tmp_path, case):
    error, contents, call = BAD_FILES[case]
    path = tmp_path / "file"
    path.write_bytes(contents)
    with pytest.raises(error):
        call(path)


def test_load_checkpoint_rejects_a_meta_that_is_not_an_object(tmp_path):
    path = tmp_path / "model.json"
    ae.save_checkpoint(path, ae.xavier_init([3, 2], 0))
    doc = json.loads(path.read_text())
    doc["meta"] = True
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="meta"):
        ae.load_checkpoint(path)


@contextlib.contextmanager
def _pipe():
    """A pipe's (read, write) ends. On exit each end that is still this
    pipe's is closed; one the code under test closed is left alone, since
    its number may have been reused."""
    ends = {fd: os.fstat(fd) for fd in os.pipe()}
    try:
        yield tuple(ends)
    finally:
        for fd, stat in ends.items():
            if _is_open(fd, stat):
                os.close(fd)


def _is_open(fd, stat):
    try:
        return os.path.samestat(os.fstat(fd), stat)
    except OSError:
        return False


# each function that takes a path to read, and one to write
READ_PATHS = {
    "load_csv": data.load_csv,
    "load_labels": data.load_labels,
    "load_idx": lambda path: data.load_idx(path, "labels.idx"),
    "load_checkpoint": ae.load_checkpoint,
    "load_config": lambda path: config.load_config(path, {}),
}
WRITE_PATHS = {
    "save_csv": lambda path: data.save_csv(path, np.ones((2, 2))),
    "write_text": lambda path: data.write_text(path, "x"),
    "output_dir": data.output_dir,
    "save_checkpoint": lambda path: ae.save_checkpoint(path, ae.xavier_init([3, 2], 0)),
}


@pytest.mark.parametrize("case", READ_PATHS)
def test_a_file_descriptor_is_not_a_path_to_read(case):
    with _pipe() as (r, w):
        os.write(w, b"1,2\n")  # so a read of the pipe cannot block
        os.close(w)
        stat = os.fstat(r)
        with pytest.raises(ConfigurationError, match="must be a path"):
            READ_PATHS[case](r)
        assert _is_open(r, stat) and os.read(r, 16) == b"1,2\n"
    with pytest.raises(ConfigurationError, match="must be a path"):
        READ_PATHS[case](2**63)


@pytest.mark.parametrize("case", WRITE_PATHS)
def test_a_file_descriptor_is_not_a_path_to_write(case):
    with _pipe() as (r, w):
        stat = os.fstat(w)
        with pytest.raises(ConfigurationError, match="must be a path"):
            WRITE_PATHS[case](w)
        assert _is_open(w, stat)
        os.close(w)
        assert os.read(r, 16) == b""
    for path in (2**63, None):
        with pytest.raises(ConfigurationError, match="must be a path"):
            WRITE_PATHS[case](path)
