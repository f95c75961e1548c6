import copy
import dataclasses
import inspect
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dekm.autoencoder as ae
from dekm import core, data, kmeans as km, metrics
from dekm.config import ExperimentConfig, load_config
from dekm.errors import ConfigurationError, DimensionError, DivergenceError, NumericError
from dekm.core import TransformState

from conftest import (
    empty_gradient, finite_difference_grads, max_gradient_rel_error, param_views, relu_pattern,
)


def cluster(h, k, seed=0):
    return km.lloyd(h, k, km.kmeanspp_init(h, k, np.random.default_rng(seed)))


def make_state(rng, n=30, e=4, k=3):
    h = rng.normal(size=(n, e))
    res = cluster(h, k)
    ts = core.build_transform(km.within_class_scatter(h, res))
    return h, res, ts


def test_config_validation():
    with pytest.raises(ConfigurationError):
        core.DekmConfig(k=0)
    with pytest.raises(ConfigurationError):
        core.DekmConfig(k=2, strategy="bogus")
    with pytest.raises(ConfigurationError):
        core.DekmConfig(k=2, batch_mode="bogus")


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_outer_iters", -1),
        ("k", "2"),
        ("k", True),
        ("inner_steps", 1.5),
        ("inner_batch_size", 0),
    ],
)
def test_dekm_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        core.DekmConfig(**{"k": 2, field: value})


@pytest.mark.parametrize("field", ["kmeans_max_iter", "kmeans_tol"])
def test_dekm_config_has_no_lloyd_settings(field):
    # Lloyd's cap and tolerance are kmeans.lloyd's constants, not settings
    with pytest.raises(TypeError, match=field):
        core.DekmConfig(**{"k": 2, field: 1})


def test_dekm_config_has_no_stop_fraction():
    # the stop threshold is the constant core.STOP_FRACTION, DEC's 0.1%
    with pytest.raises(TypeError, match="stop_fraction"):
        core.DekmConfig(k=2, stop_fraction=0.1)
    assert core.STOP_FRACTION == 0.001
    names = [f.name for f in dataclasses.fields(core.DekmConfig)]
    assert names == ["k", "max_outer_iters", "inner_batch_size", "inner_steps",
                     "strategy", "batch_mode", "seed"]


def test_run_dekm_runs_lloyd_to_its_default_cap_and_tolerance(monkeypatch):
    calls = []
    lloyd = km.lloyd

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return lloyd(*args, **kwargs)

    monkeypatch.setattr(km, "lloyd", spy)
    ds = data.gen_synthetic(k=2, per_cluster_n=10, latent_dim=2, ambient_dim=4,
                            separation=10.0, seed=0)
    model = ae.xavier_init([4, 8, 2], seed=0)
    core.run_dekm(model, ds.x, core.DekmConfig(k=2, max_outer_iters=2), ds.labels)
    assert calls and all(c == (3, {}) for c in calls)
    assert list(inspect.signature(lloyd).parameters) == ["h", "k", "init_centroids"]
    assert (km.MAX_ITER, km.TOL) == (300, 1e-6)


def test_iteration_record_holds_no_timing():
    # results.json timing and RunHistory.phase_seconds hold the run's timing
    names = [f.name for f in dataclasses.fields(core.IterationRecord)]
    assert names == ["iter", "inertia", "l4", "changed_fraction", "acc", "nmi"]


def test_dekm_config_overrides_are_validated():
    cfg = ExperimentConfig(dekm={"k": 2, "strategy": "all_dims_H"})
    dc = cfg.dekm_config(3, batch_mode="full_batch")
    assert (dc.seed, dc.strategy, dc.batch_mode) == (3, "all_dims_H", "full_batch")
    assert cfg.dekm_config(3, strategy="last_dim_Y").strategy == "last_dim_Y"
    with pytest.raises(ConfigurationError):
        cfg.dekm_config(3, strategy="bogus")
    with pytest.raises(ConfigurationError, match="top-level seed"):
        ExperimentConfig(dekm={"k": 2, "seed": 5})


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_dekm_fields = st.fixed_dictionaries(
    {"k": st.integers(1, 50)},
    optional={
        "max_outer_iters": st.integers(0, 100),
        "inner_batch_size": st.integers(1, 1024),
        "inner_steps": st.integers(0, 5),
        "strategy": st.sampled_from(core.STRATEGIES),
        "batch_mode": st.sampled_from(core.BATCH_MODES),
    },
)
# one mapping of each valid dataset type, with only the keys that type reads
_datasets = (
    st.just({})
    | st.fixed_dictionaries(
        {"type": st.just("synthetic")},
        optional={
            "k": st.integers(1, 50),
            "per_cluster_n": st.integers(1, 1000),
            "latent_dim": st.integers(1, 4),
            "ambient_dim": st.integers(4, 64),
            "separation": _positive,
            "seed": st.integers(0, 2**63),
        },
    )
    | st.fixed_dictionaries(
        {"type": st.just("csv"), "path": st.text()}, optional={"has_labels": st.booleans()}
    )
    | st.fixed_dictionaries({"type": st.just("idx"), "images": st.text(), "labels": st.text()})
)
_experiment_configs = st.builds(
    ExperimentConfig,
    dataset=_datasets,
    hidden_dims=st.lists(st.integers(1, 4096), max_size=4),
    embedding_dim=st.none() | st.integers(1, 64),
    pretrain_epochs=st.integers(0, 1000),
    pretrain_batch_size=st.integers(1, 4096),
    checkpoint=st.none() | st.text(),
    dekm=st.just({}) | _dekm_fields,
    repeats=st.integers(1, 20),
    out=st.text(),
    seed=st.integers(0, 2**63),
)


@settings(max_examples=50, deadline=None)
@given(cfg=_experiment_configs)
def test_config_to_dict_reloads_to_an_equal_config(cfg):
    assert ExperimentConfig(**cfg.to_dict()) == cfg
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(str(path), {}) == cfg


def test_build_transform_diagonal():
    ts = core.build_transform(np.diag([4.0, 1.0]))
    assert np.allclose(ts.eigenvalues, [1.0, 4.0])
    # last row is the direction of largest scatter (eigenvalue 4)
    assert np.allclose(np.abs(ts.v[-1]), [1.0, 0.0])


def test_build_transform_zero_scatter():
    ts = core.build_transform(np.zeros((3, 3)))
    assert np.allclose(ts.eigenvalues, 0.0)
    assert np.max(np.abs(ts.v @ ts.v.T - np.eye(3))) < 1e-12


def test_build_transform_random_psd(rng):
    a = rng.normal(size=(5, 5))
    s = a @ a.T
    ts = core.build_transform(s)
    d = ts.v @ s @ ts.v.T
    assert np.max(np.abs(d - np.diag(np.diag(d)))) < 1e-8 * np.max(np.abs(s))
    assert np.all(np.diff(np.diag(d)) >= -1e-8)


def test_greedy_targets_point_at_centroid_contributes_zero(rng):
    h, res, ts = make_state(rng)
    h2 = res.centroids[res.assignments].copy()  # move every point onto its centroid
    res2 = km.lloyd(h2, 3, res.centroids)
    for strategy in core.STRATEGIES:
        targets = core.greedy_targets(h2, ts, res2, strategy, rng)
        assert core.greedy_loss(h2, targets) == pytest.approx(0.0, abs=1e-16)


def test_greedy_targets_identity_transform_hand_case():
    h = np.array([[3.0, 4.0]])
    res = km.ClusterResult(
        assignments=np.array([0]),
        centroids=np.array([[0.0, 0.0]]),
        inertia=25.0,
        iterations_run=1,
    )
    ts = TransformState(v=np.eye(2), eigenvalues=np.array([0.0, 0.0]))
    targets = core.greedy_targets(h, ts, res, "last_dim_Y")
    assert np.array_equal(targets, np.array([[3.0, 0.0]]))
    assert core.greedy_loss(h, targets) == pytest.approx(16.0)


def test_all_dims_Y_loss_equals_inertia(rng):
    # the retired all_dims_Y objective ||V h - V c||^2, written out here: V
    # is orthonormal, so it is the all_dims_H loss and the inertia
    h, res, ts = make_state(rng)
    d = (h - res.centroids[res.assignments]) @ ts.v.T
    assert float(np.sum(d * d)) == pytest.approx(res.inertia, abs=1e-8)
    targets = core.greedy_targets(h, ts, res, "all_dims_H")
    assert core.greedy_loss(h, targets) == pytest.approx(res.inertia, abs=1e-8)


def test_last_dim_Y_loss_is_last_coordinate_residual(rng):
    h, res, ts = make_state(rng)
    targets = core.greedy_targets(h, ts, res, "last_dim_Y")
    y = h @ ts.v.T
    m = res.centroids @ ts.v.T
    residual = float(np.sum((y[:, -1] - m[res.assignments, -1]) ** 2))
    assert core.greedy_loss(h, targets) == pytest.approx(residual, abs=1e-12)
    # the target moves h along the last eigenvector only: no component along
    # the others, up to the rounding of h + s * v[-1]
    off_axis = (targets - h) @ ts.v[:-1].T
    assert np.max(np.abs(off_axis)) <= 1e-12 * np.max(np.abs(h))


def test_all_dims_H_targets_are_centroids(rng):
    h, res, ts = make_state(rng)
    targets = core.greedy_targets(h, ts, res, "all_dims_H")
    assert np.array_equal(targets, res.centroids[res.assignments])


@pytest.mark.parametrize("seed", range(1, 9))
def test_greedy_loss_is_the_scatter_the_strategy_targets(seed):
    # The paper's eigenvalue claim: a Y target moves h along eigenvector u
    # only, so l4 = sum ((c - h) . u)^2 = u^T S_w u, the eigenvalue of u.
    # random_dim_H gives S_w[dim, dim]; all_dims_H gives trace S_w, the
    # inertia, summed in the same order. Worst relative gaps measured over
    # these seeds: 2.0e-15 (last_dim_Y), 2.0e-15 (random_dim_Y) and 4.0e-16
    # (random_dim_H) on OpenBLAS's SkylakeX kernel, 4.7e-15 and 5.3e-15 for
    # random_dim_Y under Haswell and Prescott. 1e-13 stays under n * eps.
    ds = data.gen_synthetic(
        k=4, per_cluster_n=200, latent_dim=3, ambient_dim=12, separation=4.0, seed=seed
    )
    model, _ = ae.pretrain(ae.xavier_init([12, 16, 4], seed), ds.x, epochs=3,
                           batch_size=64, seed=seed)
    h = ae.encode(model, ds.x)
    res = cluster(h, 4, seed)
    s_w = km.within_class_scatter(h, res)
    ts = core.build_transform(s_w)
    rng = np.random.default_rng(seed)
    dim = int(copy.deepcopy(rng).integers(h.shape[1]))  # the draw greedy_targets makes
    expected = {
        "last_dim_Y": ts.eigenvalues[-1],
        "random_dim_Y": ts.eigenvalues[dim],
        "random_dim_H": s_w[dim, dim],
    }
    for strategy, value in expected.items():
        targets = core.greedy_targets(h, ts, res, strategy, copy.deepcopy(rng))
        assert core.greedy_loss(h, targets) == pytest.approx(value, rel=1e-13, abs=0.0)
    assert core.greedy_loss(h, core.greedy_targets(h, ts, res, "all_dims_H")) == res.inertia


def test_random_dim_draw_is_seeded(rng):
    h, res, ts = make_state(rng)
    t1 = core.greedy_targets(h, ts, res, "random_dim_Y", np.random.default_rng(5))
    t2 = core.greedy_targets(h, ts, res, "random_dim_Y", np.random.default_rng(5))
    assert np.array_equal(t1, t2)


def test_greedy_targets_rejects_bad_strategy(rng):
    h, res, ts = make_state(rng)
    with pytest.raises(ConfigurationError):
        core.greedy_targets(h, ts, res, "nope", rng)


def _y_space_rule(h, ts, res, strategy, rng):
    """The earlier target rule, kept as the reference: a Y strategy projects
    into y = V h, replaces coordinate ``dim`` with the centroid's, takes l4
    in Y and pulls the targets back with ``@ v``."""
    if strategy.endswith("_Y"):
        points, cents = h @ ts.v.T, res.centroids @ ts.v.T
    else:
        points, cents = h, res.centroids
    per_point_cent = cents[res.assignments]
    if strategy == "all_dims_H":
        targets = per_point_cent
    else:
        dim = h.shape[1] - 1 if strategy == "last_dim_Y" else int(rng.integers(h.shape[1]))
        targets = points.copy()
        targets[:, dim] = per_point_cent[:, dim]
    diff = points - targets
    l4 = float(np.sum(diff * diff))
    return (targets @ ts.v if strategy.endswith("_Y") else targets), l4


def _oracle_clusterings(case):
    rng = np.random.default_rng(1100)
    for _ in range(40):
        e, k = int(rng.integers(1, 33)), int(rng.integers(1, 9))
        n = k if case == "k_equals_n" else int(rng.integers(k, 60))
        if case == "e_is_1":
            e = 1
        h = rng.normal(size=(n, e)) * rng.uniform(0.1, 10.0)
        if case == "rank_deficient":
            rank = int(rng.integers(0, e))  # rank 0: every point at the origin
            h = h[:, :rank] @ rng.normal(size=(rank, e))
        res = km.lloyd(h, k, km.kmeanspp_init(h, k, rng))
        yield h, res, core.build_transform(km.within_class_scatter(h, res))


@pytest.mark.parametrize("case", ["random", "rank_deficient", "e_is_1", "k_equals_n"])
def test_greedy_targets_match_the_y_space_rule(case):
    for h, res, ts in _oracle_clusterings(case):
        scale = max(np.max(np.abs(h)), np.max(np.abs(res.centroids)))
        for i, strategy in enumerate(core.STRATEGIES):
            targets = core.greedy_targets(h, ts, res, strategy, np.random.default_rng(i))
            l4 = core.greedy_loss(h, targets)
            ref, ref_l4 = _y_space_rule(h, ts, res, strategy, np.random.default_rng(i))
            if strategy.endswith("_H"):
                assert np.array_equal(targets, ref)
                assert l4 == ref_l4
            else:
                assert np.max(np.abs(targets - ref)) <= 1e-13 * scale
                assert abs(l4 - ref_l4) <= max(1e-13 * ref_l4, 1e-12 * res.inertia)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _reference_targets(h, res, ts, strategy, rng):
    """Targets and l4 by the out-of-place formulas the in-place pass
    replaced."""
    per_point_cent = res.centroids[res.assignments]
    if strategy == "all_dims_H":
        targets = per_point_cent
    else:
        dim = h.shape[1] - 1 if strategy == "last_dim_Y" else int(rng.integers(h.shape[1]))
        if strategy == "random_dim_H":
            targets = h.copy()
            targets[:, dim] = per_point_cent[:, dim]
        else:
            u = ts.v[dim]
            targets = h + np.outer((per_point_cent - h) @ u, u)
    diff = h - targets
    return targets, float(np.sum(diff * diff))


def test_pass_matches_out_of_place_formulas_bit_for_bit(rng):
    # -0.0 entries in h and the centroids, and Fortran-ordered h
    for trial in range(16):
        n, e, k = int(rng.integers(2, 300)), int(rng.integers(1, 33)), int(rng.integers(1, 12))
        h = rng.normal(size=(n, e)) * rng.uniform(0.1, 10.0)
        h[rng.random(size=h.shape) < 0.1] = -0.0
        c = rng.normal(size=(k, e))
        c[rng.random(size=c.shape) < 0.2] = -0.0
        if trial % 2:
            h = np.asfortranarray(h)
        res = km.ClusterResult(rng.integers(k, size=n), c.copy(), 0.0, 1)
        s_w = km.within_class_scatter(h, res)
        centered = h - c[res.assignments]
        assert np.array_equal(_bits(s_w), _bits(centered.T @ centered))
        ts = core.build_transform(s_w)
        for i, strategy in enumerate(core.STRATEGIES):
            targets = core.greedy_targets(h, ts, res, strategy, np.random.default_rng(i))
            ref, ref_l4 = _reference_targets(h, res, ts, strategy, np.random.default_rng(i))
            assert np.array_equal(_bits(targets), _bits(ref))
            assert core.greedy_loss(h, targets) == ref_l4
        assert np.array_equal(_bits(res.centroids), _bits(c))  # the gathers are copies


def test_pass_keeps_at_most_two_embedding_sized_arrays(monkeypatch):
    # scatter, targets and loss each work in the one centroid gather; the
    # out-of-place forms held three (n, e) arrays at once
    n, e = 6400, 32
    h = np.random.default_rng(0).normal(size=(n, e))
    monkeypatch.setattr(km, "MAX_ITER", 3)
    res = km.lloyd(h, e, h[:e].copy())
    tracemalloc.start()
    try:
        ts = core.build_transform(km.within_class_scatter(h, res))
        core.greedy_loss(h, core.greedy_targets(h, ts, res, "last_dim_Y"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * e * 8


def test_run_dekm_drops_the_last_pass_arrays_before_it_encodes():
    # each pass drops the last pass's embedding and targets once the update
    # is done: a measured peak of 3.6 (n, e) arrays, against 4.9 when both
    # were held through the next pass's encode and k-means (5.5 when the
    # stopping rule's first call also imported numpy.ma)
    n, e = 6400, 32
    ds = data.gen_synthetic(k=e, per_cluster_n=n // e, latent_dim=8, ambient_dim=e,
                            separation=10.0, seed=1)
    model = ae.xavier_init([e, 64, 64, e], seed=1)
    tracemalloc.start()
    try:
        core.run_dekm(model, ds.x, core.DekmConfig(k=e, max_outer_iters=2, seed=1), ds.labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * e * 8


def test_representation_step_zero_loss_keeps_params(rng):
    model = ae.xavier_init([6, 5, 4], seed=0)
    x = rng.normal(size=(10, 6))
    h = ae.encode(model, x)
    adam = ae.AdamState.for_params([model.encoder_flat])
    before = [p.copy() for p in param_views(model, encoder_only=True)]
    loss = core.representation_step(model, x, h.copy(), adam, empty_gradient(model))
    assert loss == 0.0
    for p, b in zip(param_views(model, encoder_only=True), before):
        assert np.array_equal(p, b)


def test_representation_step_linear_closed_form(rng):
    model = ae.xavier_init([3, 2], seed=4)
    x = rng.normal(size=(5, 3))
    targets = rng.normal(size=(5, 2))
    ts = TransformState(v=np.eye(2), eigenvalues=np.zeros(2))
    grad = empty_gradient(model)
    ae.backprop_embedding(model, x, targets @ ts.v, grad)
    resid = x @ model.enc_w[0] + model.enc_b[0] - targets
    assert np.allclose(grad.enc_w[0], 2.0 * x.T @ resid)


@pytest.mark.parametrize("seed", range(4))
def test_y_space_gradient_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    model = ae.xavier_init([5, 6, 3], seed=seed)
    x = rng.normal(size=(8, 5))
    h = ae.encode(model, x)
    res = cluster(h, 2, seed=seed)
    ts = core.build_transform(km.within_class_scatter(h, res))
    targets = core.greedy_targets(h, ts, res, "last_dim_Y")

    def loss_fn():  # the greedy loss written in Y = V h
        d = (ae.encode(model, x) - targets) @ ts.v.T
        return float(np.sum(d * d))

    grad = empty_gradient(model)
    loss = ae.backprop_embedding(model, x, targets, grad)
    grads = param_views(grad, encoder_only=True)
    fd = finite_difference_grads(
        loss_fn, param_views(model, encoder_only=True), pattern_fn=lambda: relu_pattern(model, x, encoder_only=True)
    )
    assert max_gradient_rel_error(grads, fd, loss) < 1e-4


def test_representation_step_divergence_leaves_the_model_and_adam_as_they_were(rng):
    model = ae.xavier_init([4, 3, 2], seed=0)
    model.enc_w[0][:] = np.inf
    before = model.flat.copy()
    adam = ae.AdamState.for_params([model.encoder_flat])
    x, targets = rng.normal(size=(5, 4)), np.zeros((5, 2))
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
        core.representation_step(model, x, targets, adam, empty_gradient(model))
    assert model.flat.tobytes() == before.tobytes()
    assert adam.t == 0 and not adam.m[0].any() and not adam.v[0].any()


def test_representation_step_leaves_decoder_untouched(rng):
    model = ae.xavier_init([6, 5, 3], seed=1)
    x = rng.normal(size=(12, 6))
    dec_before = [p.copy() for p in model.dec_w + model.dec_b]
    adam = ae.AdamState.for_params([model.encoder_flat])
    h = ae.encode(model, x)
    res = cluster(h, 2)
    ts = core.build_transform(km.within_class_scatter(h, res))
    targets = core.greedy_targets(h, ts, res, "last_dim_Y")
    grad = empty_gradient(model)
    for _ in range(5):
        core.representation_step(model, x, targets, adam, grad)
    for p, b in zip(model.dec_w + model.dec_b, dec_before):
        assert np.array_equal(p, b)


def test_should_stop():
    # run_dekm's stopping rule: changed_fraction(prev, cur) < STOP_FRACTION
    a = np.array([0, 1, 0, 1])
    assert core.changed_fraction(a, a) < 0.001
    assert core.changed_fraction(a, 1 - a) < 0.001  # pure relabeling, zero changes
    assert not core.changed_fraction(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) < 0.3
    with pytest.raises(DimensionError):
        core.changed_fraction(np.array([0, 1]), np.array([0, 1, 1]))


def test_should_stop_threshold_arithmetic(rng):
    n = 10000
    prev = rng.integers(4, size=n)
    for changes, expected in ((9, True), (11, False)):
        cur = prev.copy()
        idx = rng.choice(n, size=changes, replace=False)
        cur[idx] = (cur[idx] + 1) % 4
        assert (core.changed_fraction(prev, cur) < 0.001) is expected


def synthetic_fixture(seed=42):
    return data.gen_synthetic(
        k=4, per_cluster_n=120, latent_dim=2, ambient_dim=10, separation=5.0, seed=seed
    )


def pretrained_model(ds, seed):
    model = ae.xavier_init([ds.d, 16, 16, 4], seed=seed)
    model, _ = ae.pretrain(model, ds.x, epochs=30, batch_size=64, seed=seed)
    return model


def test_run_dekm_zero_iters_is_baseline():
    ds = synthetic_fixture()
    model = pretrained_model(ds, 0)
    cfg = core.DekmConfig(k=4, max_outer_iters=0, seed=0)
    before = [p.copy() for p in param_views(model)]
    result, model, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
    # no representation updates: parameters untouched, single final record
    for p, b in zip(param_views(model), before):
        assert np.array_equal(p, b)
    assert len(history.records) == 1
    h = ae.encode(model, ds.x)
    baseline = km.lloyd(h, 4, km.kmeanspp_init(h, 4, np.random.default_rng(0)))
    assert baseline.inertia == pytest.approx(result.inertia)


def test_run_dekm_improves_synthetic_acc():
    ds = synthetic_fixture()
    model = pretrained_model(ds, 1)
    cfg = core.DekmConfig(k=4, max_outer_iters=10, seed=1)
    _, _, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
    assert history.records[-1].acc >= history.records[0].acc


def test_run_dekm_eq3_identity_each_iteration():
    # replay the outer loop by hand and assert the transform-invariance of
    # the clustering objective at every iteration
    ds = synthetic_fixture()
    model = pretrained_model(ds, 2)
    adam = ae.AdamState.for_params([model.encoder_flat])
    grad = empty_gradient(model)
    rng = np.random.default_rng(2)
    for _ in range(3):
        h = ae.encode(model, ds.x)
        res = km.lloyd(h, 4, km.kmeanspp_init(h, 4, rng))
        ts = core.build_transform(km.within_class_scatter(h, res))
        y = h @ ts.v.T
        my = res.centroids @ ts.v.T
        inertia_y = float(np.sum((y - my[res.assignments]) ** 2))
        assert inertia_y == pytest.approx(res.inertia, abs=1e-8)
        targets = core.greedy_targets(h, ts, res, "last_dim_Y")
        core.representation_step(model, ds.x, targets, adam, grad)


def test_run_dekm_decoder_frozen_and_deterministic():
    ds = synthetic_fixture()
    model = pretrained_model(ds, 3)
    dec_before = [p.copy() for p in model.dec_w + model.dec_b]
    cfg = core.DekmConfig(k=4, max_outer_iters=4, seed=3)
    res1, m1, h1 = core.run_dekm(model.copy(), ds.x, cfg, labels=ds.labels)
    res2, m2, h2 = core.run_dekm(model.copy(), ds.x, cfg, labels=ds.labels)
    for p, b in zip(m1.dec_w + m1.dec_b, dec_before):
        assert np.array_equal(p, b)
    assert h1.as_dicts() == h2.as_dicts()
    assert np.array_equal(res1.assignments, res2.assignments)
    for a, b in zip(param_views(m1), param_views(m2)):
        assert np.array_equal(a, b)


def test_run_dekm_stopping_rule_triggers(monkeypatch):
    ds = synthetic_fixture()
    model = pretrained_model(ds, 4)
    monkeypatch.setattr(core, "STOP_FRACTION", 0.9)
    cfg = core.DekmConfig(k=4, max_outer_iters=50, seed=4)
    _, _, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
    # a near-1 threshold stops as soon as a change fraction is available
    assert history.stopped_early
    assert len(history.records) <= 4


def test_run_dekm_returns_the_pass_that_stopped(monkeypatch):
    ds = synthetic_fixture()
    model = pretrained_model(ds, 4)
    encodes, results = [], []
    encode, lloyd = ae.encode, km.lloyd
    monkeypatch.setattr(ae, "encode", lambda *a: encodes.append(encode(*a)) or encodes[-1])
    monkeypatch.setattr(km, "lloyd", lambda *a: results.append(lloyd(*a)) or results[-1])
    monkeypatch.setattr(core, "STOP_FRACTION", 0.9)
    cfg = core.DekmConfig(k=4, max_outer_iters=50, seed=4)
    result, model, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
    # the rule fires at pass s = 1, the first with a change fraction: s + 1
    # encodes, and the final record repeats the stopping pass's clustering
    *_, stop, final = history.records
    assert history.stopped_early and stop.iter == 1 and final.iter == 2
    assert stop.changed_fraction < core.STOP_FRACTION and stop.l4 is not None
    assert len(encodes) == len(results) == stop.iter + 1
    assert result is results[-1] and history.embedding is encodes[-1]
    for name in ("inertia", "changed_fraction", "acc", "nmi"):
        assert getattr(final, name) == getattr(stop, name)
    assert final.l4 is None


def test_run_dekm_scores_each_clustering_once(monkeypatch):
    ds = synthetic_fixture()
    model = pretrained_model(ds, 4)
    calls = []
    for module, name in ((metrics, "acc"), (metrics, "nmi"), (core, "changed_fraction")):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    monkeypatch.setattr(core, "STOP_FRACTION", 0.9)
    cfg = core.DekmConfig(k=4, max_outer_iters=50, seed=4)
    _, _, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
    *_, stop, final = history.records
    assert history.stopped_early and stop.iter == 1
    # s + 1 clusterings for a stop at pass s, each scored once; no pass re-scores
    assert calls.count("acc") == calls.count("nmi") == stop.iter + 1
    assert calls.count("changed_fraction") == stop.iter
    assert final == dataclasses.replace(stop, iter=stop.iter + 1, l4=None)


@pytest.mark.parametrize(
    "cfg, stop_fraction, stops",
    [
        (core.DekmConfig(k=4, max_outer_iters=50, seed=4), 0.9, True),
        (core.DekmConfig(k=4, max_outer_iters=3, strategy="all_dims_H", seed=3), 0.001, False),
        (core.DekmConfig(k=4, max_outer_iters=0, seed=4), 0.001, False),
    ],
    ids=["stops", "spends_the_budget", "no_updates"],
)
def test_run_dekm_records_one_more_pass_than_encoder_updates(
    monkeypatch, cfg, stop_fraction, stops
):
    # the layout the benchmark counts encoder updates from, the count the
    # history reports, and its phase times
    monkeypatch.setattr(core, "STOP_FRACTION", stop_fraction)
    ds = synthetic_fixture()
    model = pretrained_model(ds, 4)
    steps, trains = [], []
    step, train = core.representation_step, ae.train
    monkeypatch.setattr(core, "representation_step", lambda *a: steps.append(1) or step(*a))
    monkeypatch.setattr(ae, "train", lambda *a: trains.append(1) or train(*a))
    t0 = time.perf_counter()
    _, _, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
    wall = time.perf_counter() - t0
    assert history.stopped_early == stops
    batches_per_pass = cfg.inner_steps * -(-len(ds.x) // cfg.inner_batch_size)
    assert len(steps) % batches_per_pass == 0
    updates = len(steps) // batches_per_pass
    assert updates == len(history.records) - 1 - history.stopped_early
    assert history.updates == len(trains) == updates
    phases = history.phase_seconds
    assert list(phases) == ["encode", "kmeans", "transform", "targets", "update", "metrics"]
    assert all(s >= 0.0 for s in phases.values())
    assert sum(phases.values()) <= wall


def test_run_dekm_full_batch_mode_runs():
    ds = synthetic_fixture()
    model = pretrained_model(ds, 5)
    cfg = core.DekmConfig(k=4, max_outer_iters=3, batch_mode="full_batch", seed=5)
    _, _, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
    assert len(history.records) >= 2


def test_run_dekm_full_batch_steps_on_x_itself_inner_steps_times_per_pass(monkeypatch):
    ds = synthetic_fixture()
    model = pretrained_model(ds, 5)
    batches = []
    step = core.representation_step
    monkeypatch.setattr(core, "representation_step", lambda *a: batches.append(a[1]) or step(*a))
    cfg = core.DekmConfig(k=4, max_outer_iters=3, inner_steps=3, batch_mode="full_batch", seed=5)
    _, _, history = core.run_dekm(model, ds.x, cfg)
    updates = len(history.records) - 1 - history.stopped_early
    assert updates >= 1 and len(batches) == 3 * updates
    assert all(xb is ds.x for xb in batches)


def test_run_dekm_rejects_too_few_samples():
    model = ae.xavier_init([3, 2], seed=0)
    with pytest.raises(ConfigurationError):
        core.run_dekm(model, np.zeros((1, 3)), core.DekmConfig(k=2))


@pytest.mark.parametrize("batch_mode", core.BATCH_MODES)
def test_run_dekm_builds_one_gradient_per_run(monkeypatch, batch_mode):
    ds = synthetic_fixture()
    model = pretrained_model(ds, 6)
    grads = []
    step = core.representation_step

    def recording(model, x_batch, targets_batch, adam, grad):
        grads.append(grad)
        return step(model, x_batch, targets_batch, adam, grad)

    monkeypatch.setattr(core, "representation_step", recording)
    cfg = core.DekmConfig(k=4, max_outer_iters=3, batch_mode=batch_mode, seed=6)
    core.run_dekm(model, ds.x, cfg)
    assert len(grads) >= 2 and all(g is grads[0] for g in grads)
    assert grads[0].dims == model.dims and not np.shares_memory(grads[0].flat, model.flat)


def _counting_encodes(monkeypatch):
    calls = []
    encode = ae.encode
    monkeypatch.setattr(ae, "encode", lambda *a: calls.append(a) or encode(*a))
    return calls


@pytest.mark.parametrize(
    "labels",
    [np.zeros(59, dtype=int), np.zeros(61, dtype=int), np.zeros((60, 1), dtype=int), [0] * 59, 3],
)
def test_run_dekm_rejects_labels_not_one_per_row_before_encoding(monkeypatch, rng, labels):
    calls = _counting_encodes(monkeypatch)
    model = ae.xavier_init([5, 3], seed=0)
    with pytest.raises(DimensionError, match="labels"):
        core.run_dekm(model, rng.normal(size=(60, 5)), core.DekmConfig(k=3), labels=labels)
    assert calls == []


@pytest.mark.parametrize(
    "labels",
    [np.array(["a", "b", "c"] * 20), np.arange(60) + 0.5, np.arange(60) + 1j],
    ids=["strings", "non-integral floats", "complex"],
)
def test_run_dekm_rejects_labels_that_are_not_integers_before_encoding(monkeypatch, rng, labels):
    calls = _counting_encodes(monkeypatch)
    model = ae.xavier_init([5, 3], seed=0)
    with pytest.raises(ConfigurationError, match="labels must be 64-bit integers"):
        core.run_dekm(model, rng.normal(size=(60, 5)), core.DekmConfig(k=3), labels=labels)
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_dekm_rejects_non_finite_input_before_encoding(monkeypatch, rng, bad):
    calls = _counting_encodes(monkeypatch)
    model = ae.xavier_init([5, 3], seed=0)
    x = rng.normal(size=(60, 5))
    x[7, 2] = bad
    with pytest.raises(NumericError, match="non-finite"):
        core.run_dekm(model, x, core.DekmConfig(k=3), labels=np.zeros(60, dtype=int))
    assert calls == []


def test_run_dekm_accepts_a_label_list(rng):
    model = ae.xavier_init([5, 3], seed=0)
    x = rng.normal(size=(60, 5))
    labels = [i % 3 for i in range(60)]
    cfg = core.DekmConfig(k=3, max_outer_iters=1)
    _, _, history = core.run_dekm(model.copy(), x, cfg, labels=labels)
    _, _, ref = core.run_dekm(model.copy(), x, cfg, labels=np.array(labels))
    assert [r.acc for r in history.records] == [r.acc for r in ref.records]
