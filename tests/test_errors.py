import dataclasses

import numpy as np
import pytest

from dekm import autoencoder as ae, core, kmeans as km, metrics
from dekm.errors import ConfigurationError, DimensionError, NumericError, check_matrix

H = np.arange(15.0).reshape(5, 3) ** 1.5  # 5 distinct points in 3-D


def _clustering():
    return km.lloyd(H, 2, km.kmeanspp_init(H, 2, 0))


def _transform():
    return core.build_transform(km.within_class_scatter(H, _clustering()))


def _assigned(assignments):
    """The two-cluster clustering of H with other assignments."""
    return dataclasses.replace(_clustering(), assignments=np.asarray(assignments))


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
    "kmeanspp_1d_h": (DimensionError, lambda: km.kmeanspp_init(H[:, 0], 2, 0)),
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
    "kmeanspp_nan_h": (NumericError, lambda: km.kmeanspp_init(np.where(H > 20, np.nan, H), 2, 0)),
    "loss_1d_targets": (DimensionError, lambda: core.greedy_loss(H, H[0])),
    "loss_short_targets": (DimensionError, lambda: core.greedy_loss(H, H[:4])),
    "gaussian_nan_variance": (ConfigurationError, lambda: metrics.gaussian_entropy([1.0, np.nan])),
    "gaussian_inf_variance": (ConfigurationError, lambda: metrics.gaussian_entropy([np.inf])),
    "uniform_fractional_n": (ConfigurationError, lambda: metrics.uniform_entropy(2.5)),
    "uniform_bool_n": (ConfigurationError, lambda: metrics.uniform_entropy(True)),
    "xavier_negative_seed": (ConfigurationError, lambda: ae.xavier_init([3, 2], seed=-1)),
    "kmeanspp_negative_seed": (ConfigurationError, lambda: km.kmeanspp_init(H, 2, -1)),
    "matrix_ragged": (DimensionError, lambda: check_matrix("h", [[1.0, 2.0], [3.0]])),
    "matrix_strings": (ConfigurationError, lambda: check_matrix("h", [["1", "2"]])),
    "matrix_complex": (ConfigurationError, lambda: check_matrix("h", H + 1j)),
    "encode_ragged": (
        DimensionError, lambda: ae.encode(ae.xavier_init([2, 1], 0), [[1.0], [1.0, 2.0]]),
    ),
    "loss_complex_targets": (ConfigurationError, lambda: core.greedy_loss(H, H + 0j)),
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
    "run_dekm_config_not_a_dekm_config": (
        ConfigurationError, lambda: core.run_dekm(ae.xavier_init([3, 2], 0), H, {"k": 2}),
    ),
    "model_flat_a_list": (DimensionError, lambda: ae.AutoencoderModel([3, 2], [0.0] * 17)),
    "model_dims_none": (ConfigurationError, lambda: ae.AutoencoderModel(None, np.zeros(17))),
    "model_dims_an_int": (ConfigurationError, lambda: ae.AutoencoderModel(5, np.zeros(17))),
    "lr_beyond_float_range": (ConfigurationError, lambda: core.DekmConfig(k=2, lr=10**400)),
}


@pytest.mark.parametrize("case", CASES)
def test_bad_arguments_fail_at_the_boundary(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()
