"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured margin (visible with ``pytest -s`` or in captured output on
failure). Criteria 9 and 10 need user-supplied MNIST IDX files; point
DEKM_MNIST_DIR at a directory containing train-images-idx3-ubyte and
train-labels-idx1-ubyte (or the dotted variants), otherwise they skip.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import dekm.autoencoder as ae
from dekm import cli, core, data, kmeans as km, metrics
from dekm.core import build_transform

from conftest import (
    brute_force_acc,
    brute_force_kmeans,
    empty_gradient,
    finite_difference_grads,
    jacobi_eig,
    max_gradient_rel_error,
    param_views,
    relu_pattern,
)


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_entropy_golden_values():
    u = metrics.uniform_entropy(400)
    g1 = metrics.gaussian_entropy([1.0, 1.0])
    g2 = metrics.gaussian_entropy([0.25, 0.25])
    assert u == pytest.approx(5.992, abs=0.001)
    assert g1 == pytest.approx(1.419, abs=0.001)
    assert g2 == pytest.approx(0.033, abs=0.001)
    report(1, f"entropies {u:.4f}, {g1:.4f}, {g2:.4f}")


def test_criterion_2_eigensolver_suite():
    rng = np.random.default_rng(2024)
    worst_orth = worst_recon = worst_oracle = 0.0
    for _ in range(200):
        e = int(rng.integers(1, 17))
        a = rng.normal(size=(e, e)) * rng.uniform(0.1, 10)
        s = a + a.T
        ts = build_transform(s)
        scale = 1.0 + np.max(np.abs(s))
        worst_orth = max(worst_orth, float(np.max(np.abs(ts.v @ ts.v.T - np.eye(e)))))
        recon = np.max(np.abs(ts.v.T @ np.diag(ts.eigenvalues) @ ts.v - s))
        worst_recon = max(worst_recon, float(recon / scale))
        oracle = np.max(np.abs(ts.eigenvalues - jacobi_eig(s)[0]))
        worst_oracle = max(worst_oracle, float(oracle / scale))
        assert np.all(np.diff(ts.eigenvalues) >= 0.0)
    assert worst_orth < 1e-8
    assert worst_recon < 1e-8
    assert worst_oracle < 1e-8
    report(
        2,
        f"200 matrices, orth {worst_orth:.2e}, recon {worst_recon:.2e}, "
        f"vs Jacobi {worst_oracle:.2e}",
    )


def test_criterion_3_trace_transform_identity():
    rng = np.random.default_rng(3)
    worst_inertia = worst_trace = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 40))
        e = int(rng.integers(2, 8))
        k = int(rng.integers(2, min(5, n)))
        h = rng.normal(size=(n, e)) * rng.uniform(0.5, 3)
        res = km.lloyd(h, k, km.kmeanspp_init(h, k, rng))
        sw = km.within_class_scatter(h, res)
        v = build_transform(sw).v
        y = h @ v.T
        my = res.centroids @ v.T
        inertia_y = float(np.sum((y - my[res.assignments]) ** 2))
        worst_inertia = max(worst_inertia, abs(inertia_y - res.inertia))
        worst_trace = max(worst_trace, abs(float(np.trace(sw)) - res.inertia))
    assert worst_inertia < 1e-8
    assert worst_trace < 1e-9
    report(3, f"100 instances, |dInertia| {worst_inertia:.2e}, |dTrace| {worst_trace:.2e}")


def test_criterion_4_kmeans_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        e = int(rng.integers(1, 3))
        h = rng.normal(size=(n, e))
        best_inertia, best_assign = brute_force_kmeans(h, 2)
        init = np.stack([h[best_assign == j].mean(axis=0) for j in range(2)])
        res = km.lloyd(h, 2, init)
        assert res.inertia == pytest.approx(best_inertia, abs=1e-9)
        assert all(
            b <= a + 1e-9 for a, b in zip(res.inertia_trace, res.inertia_trace[1:])
        )
        # a fresh seeded run is also monotone and never beats the optimum
        res2 = km.lloyd(h, 2, km.kmeanspp_init(h, 2, rng))
        assert res2.inertia >= best_inertia - 1e-9
        assert all(
            b <= a + 1e-9 for a, b in zip(res2.inertia_trace, res2.inertia_trace[1:])
        )
    report(4, "50 fixtures, Lloyd-from-optimum exact, inertia monotone")


def test_criterion_5_hungarian_acc_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(4, 25))
        g = rng.integers(int(rng.integers(1, 7)), size=n)
        c = rng.integers(int(rng.integers(1, 7)), size=n)
        assert metrics.acc(g, c) == brute_force_acc(g, c)
    assert metrics.nmi([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0
    assert metrics.nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0
    report(5, "100 label pairs match brute force; NMI endpoints exact")


def test_criterion_6_gradient_checks():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(600 + trial)
        dims = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 4)))]
        model = ae.xavier_init(dims, seed=trial)
        x = rng.normal(size=(int(rng.integers(2, 17)), dims[0]))

        if trial % 2 == 0:
            grad = empty_gradient(model)
            loss = ae.backprop_reconstruction(model, x, grad)
            grads = param_views(grad)
            fd = finite_difference_grads(
                lambda: ae.reconstruction_loss(model, x),
                param_views(model),
                pattern_fn=lambda: relu_pattern(model, x),
            )
        else:
            h = ae.encode(model, x)
            k = min(2, x.shape[0])
            res = km.lloyd(h, k, km.kmeanspp_init(h, k, rng))
            ts = core.build_transform(km.within_class_scatter(h, res))
            targets = core.greedy_targets(h, ts, res, "last_dim_Y")

            def loss_fn():  # the greedy loss written in Y = V h
                d = (ae.encode(model, x) - targets) @ ts.v.T
                return float(np.sum(d * d))

            grad = empty_gradient(model)
            loss = ae.backprop_embedding(model, x, targets, grad)
            grads = param_views(grad, encoder_only=True)
            fd = finite_difference_grads(
                loss_fn,
                param_views(model, encoder_only=True),
                pattern_fn=lambda: relu_pattern(model, x, encoder_only=True),
            )
        worst = max(worst, max_gradient_rel_error(grads, fd, loss))
    assert worst < 1e-4
    report(6, f"20 networks, worst FD relative error {worst:.2e}")


def test_criterion_7_greedy_objective_identities():
    rng = np.random.default_rng(7)
    worst_all = worst_last = 0.0
    for _ in range(20):
        n, e, k = int(rng.integers(10, 40)), int(rng.integers(2, 8)), 3
        h = rng.normal(size=(n, e))
        res = km.lloyd(h, k, km.kmeanspp_init(h, k, rng))
        ts = core.build_transform(km.within_class_scatter(h, res))

        targets = core.greedy_targets(h, ts, res, "all_dims_H")
        y = h @ ts.v.T
        my = res.centroids @ ts.v.T
        d = y - my[res.assignments]  # all dims in Y: V is orthonormal
        worst_all = max(
            worst_all,
            abs(core.greedy_loss(h, targets) - res.inertia),
            abs(float(np.sum(d * d)) - res.inertia),
        )

        targets = core.greedy_targets(h, ts, res, "last_dim_Y")
        residual = float(np.sum((y[:, -1] - my[res.assignments, -1]) ** 2))
        worst_last = max(worst_last, abs(core.greedy_loss(h, targets) - residual))
    assert worst_all < 1e-8
    assert worst_last < 1e-12
    report(7, f"all-dims vs inertia {worst_all:.2e}, last-dim residual {worst_last:.2e}")


def test_criterion_8_synthetic_end_to_end_improvement():
    ds = data.gen_synthetic(
        k=4, per_cluster_n=500, latent_dim=2, ambient_dim=10, separation=5.0, seed=42
    )
    initial_accs, final_accs = [], []
    for seed in (7, 8, 9):  # base seed and two derived
        model = ae.xavier_init([10, 32, 32, 4], seed=seed)
        model, _ = ae.pretrain(model, ds.x, epochs=50, batch_size=256, seed=seed)
        dec_before = [p.copy() for p in model.dec_w + model.dec_b]
        cfg = core.DekmConfig(k=4, max_outer_iters=15, seed=seed)
        _, model, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
        initial_accs.append(history.records[0].acc)
        final_accs.append(history.records[-1].acc)
        for p, b in zip(model.dec_w + model.dec_b, dec_before):
            assert np.array_equal(p, b)
    gain = float(np.mean(final_accs) - np.mean(initial_accs))
    assert gain >= 0.02
    report(
        8,
        f"mean ACC {np.mean(initial_accs):.4f} -> {np.mean(final_accs):.4f} "
        f"(+{gain:.4f}), decoder frozen",
    )


def _mnist_paths():
    root = os.environ.get("DEKM_MNIST_DIR")
    if not root:
        return None
    root = Path(root)
    for img, lab in (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
    ):
        if (root / img).exists() and (root / lab).exists():
            return root / img, root / lab
    return None


def _mnist_subset(classes=(0, 1, 2, 3), per_class=500):
    paths = _mnist_paths()
    if paths is None:
        pytest.skip("set DEKM_MNIST_DIR to a directory with MNIST IDX files")
    ds = data.load_idx(*paths)
    idx = np.concatenate(
        [np.flatnonzero(ds.labels == c)[:per_class] for c in classes]
    )
    return ds.x[idx], np.searchsorted(classes, ds.labels[idx])


def _mnist_run(x, labels, seed, strategy="last_dim_Y", iters=20):
    model = ae.xavier_init([x.shape[1], 256, 64, 4], seed=seed)
    model, _ = ae.pretrain(model, x, epochs=50, batch_size=256, seed=seed)
    cfg = core.DekmConfig(k=4, max_outer_iters=iters, strategy=strategy, seed=seed)
    _, _, history = core.run_dekm(model, x, cfg, labels=labels)
    return history


def test_criterion_9_mnist_subset_direction():
    x, labels = _mnist_subset()
    improved = 0
    pairs = []
    for seed in (1, 2, 3):
        history = _mnist_run(x, labels, seed)
        first, last = history.records[0], history.records[-1]
        pairs.append((first.acc, first.nmi, last.acc, last.nmi))
        improved += last.acc > first.acc and last.nmi > first.nmi
    # reference trajectory in the source experiments: (92.0, 79.9) -> (97.0, 89.8);
    # the reproducible claim is the direction of change, not the absolute numbers
    assert improved >= 2
    report(9, f"ACC/NMI improved in {improved}/3 runs: {pairs}")


def test_criterion_10_ablation_ordering():
    x, labels = _mnist_subset()
    last_dim, all_h = [], []
    for seed in (1, 2, 3):
        last_dim.append(_mnist_run(x, labels, seed, "last_dim_Y").records[-1].acc)
        all_h.append(_mnist_run(x, labels, seed, "all_dims_H").records[-1].acc)
    assert np.mean(last_dim) >= np.mean(all_h)
    report(10, f"last_dim_Y {np.mean(last_dim):.4f} >= all_dims_H {np.mean(all_h):.4f}")


def test_criterion_11_cli_determinism(tmp_path):
    cfg = {
        "dataset": {
            "type": "synthetic",
            "k": 4,
            "per_cluster_n": 80,
            "latent_dim": 2,
            "ambient_dim": 8,
            "separation": 5.0,
            "seed": 42,
        },
        "hidden_dims": [12, 12],
        "pretrain_epochs": 10,
        "dekm": {"k": 4, "max_outer_iters": 3},
        "repeats": 2,
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for out in ("r1", "r2"):
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
    a = json.loads((tmp_path / "r1" / "results.json").read_text())
    b = json.loads((tmp_path / "r2" / "results.json").read_text())
    a.pop("timing"), b.pop("timing")
    b["config"]["out"] = a["config"]["out"]
    assert a == b
    report(11, "results.json byte-identical outside the timing section")
