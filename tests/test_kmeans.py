import hashlib
import tracemalloc

import numpy as np
import pytest

from dekm import data, kmeans as km
from dekm.errors import ConfigurationError, DimensionError, NumericError
from dekm.core import build_transform

from conftest import brute_force_kmeans


def lloyd_pp(h, k, seed, **kw):
    return km.lloyd(h, k, km.kmeanspp_init(h, k, seed), **kw)


def test_kmeanspp_k_equals_n_is_permutation(rng):
    h = rng.normal(size=(6, 2))
    cents = km.kmeanspp_init(h, 6, 0)
    # D^2 weighting forces distinct points
    assert {tuple(c) for c in cents} == {tuple(p) for p in h}


def test_kmeanspp_k1_picks_a_point(rng):
    h = rng.normal(size=(5, 3))
    cents = km.kmeanspp_init(h, 1, 7)
    assert any(np.array_equal(cents[0], p) for p in h)


def test_kmeanspp_rejects_k_gt_n():
    with pytest.raises(ConfigurationError):
        km.kmeanspp_init(np.zeros((2, 2)), 3, 0)


def test_kmeanspp_spreads_over_separated_pairs():
    # two tight pairs far apart; D^2 seeding should almost always take one
    # centroid from each pair
    h = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
    hits = 0
    for seed in range(1000):
        cents = km.kmeanspp_init(h, 2, seed)
        sides = {c[0] > 50.0 for c in cents}
        hits += len(sides) == 2
    assert hits >= 990


def test_lloyd_distinct_points_zero_inertia():
    h = np.array([[0.0], [5.0], [9.0]])
    res = km.lloyd(h, 3, h.copy())
    assert res.inertia == 0.0
    assert res.iterations_run <= 2


def test_lloyd_two_pairs_fixture():
    h = np.array([[0.0], [1.0], [9.0], [10.0]])
    res = lloyd_pp(h, 2, seed=3)
    assert res.inertia == pytest.approx(1.0)
    assert sorted(res.centroids.ravel()) == [0.5, 9.5]
    assert res.assignments[0] == res.assignments[1]
    assert res.assignments[2] == res.assignments[3]


@pytest.mark.parametrize("k", [3.5, "3", True])
def test_kmeanspp_rejects_a_k_that_is_not_an_integer(k):
    with pytest.raises(ConfigurationError, match="k must be an integer"):
        km.kmeanspp_init(np.arange(10.0).reshape(5, 2), k, 0)


@pytest.mark.parametrize("max_iter", [2.5, "2", True, 0])
def test_lloyd_rejects_a_max_iter_that_is_not_a_positive_integer(max_iter):
    h = np.arange(10.0).reshape(5, 2)
    with pytest.raises(ConfigurationError, match="max_iter must be an integer"):
        km.lloyd(h, 2, h[:2], max_iter=max_iter)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lloyd_rejects_a_non_finite_embedding(bad):
    h = np.arange(12.0).reshape(6, 2)
    h[3, 1] = bad
    with pytest.raises(NumericError):
        km.lloyd(h, 2, h[:2])


def test_lloyd_empty_input():
    with pytest.raises(ConfigurationError):
        km.lloyd(np.zeros((0, 2)), 1, np.zeros((1, 2)))


def test_lloyd_inertia_never_below_brute_force(rng):
    for _ in range(20):
        n = int(rng.integers(4, 9))
        h = rng.normal(size=(n, int(rng.integers(1, 3))))
        best_inertia, _ = brute_force_kmeans(h, 2)
        res = lloyd_pp(h, 2, seed=int(rng.integers(1 << 30)))
        assert res.inertia >= best_inertia - 1e-9


def test_lloyd_from_oracle_optimum_stays_optimal(rng):
    for _ in range(20):
        n = int(rng.integers(4, 9))
        h = rng.normal(size=(n, 2))
        best_inertia, best_assign = brute_force_kmeans(h, 2)
        init = np.stack([h[best_assign == j].mean(axis=0) for j in range(2)])
        res = km.lloyd(h, 2, init)
        assert res.inertia == pytest.approx(best_inertia, abs=1e-9)


def test_lloyd_inertia_monotone(rng):
    for _ in range(10):
        h = rng.normal(size=(60, 3))
        res = lloyd_pp(h, 4, seed=int(rng.integers(1 << 30)))
        assert all(b <= a + 1e-9 for a, b in zip(res.inertia_trace, res.inertia_trace[1:]))


def test_lloyd_centroids_are_member_means(rng):
    h = rng.normal(size=(40, 2))
    res = lloyd_pp(h, 3, seed=0)
    for j in range(3):
        members = h[res.assignments == j]
        assert len(members) > 0
        assert np.max(np.abs(res.centroids[j] - members.mean(axis=0))) < 1e-9


def test_empty_cluster_repair():
    # centroids placed so one starts empty
    h = np.array([[0.0], [0.1], [0.2], [10.0]])
    init = np.array([[0.05], [0.15], [100.0]])
    res = km.lloyd(h, 3, init)
    assert set(res.assignments.tolist()) == {0, 1, 2}


def _sha256(a, dtype):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


def _uncached_sq_dists(h, c, h_norms):
    # the distance formula before the row norms were cached: recomputes
    # ||h||^2 and scales h, not h @ c.T, by 2
    del h_norms
    return np.maximum(
        np.sum(h * h, 1)[:, None] - 2.0 * h @ c.T + np.sum(c * c, 1)[None, :], 0.0
    )


def _pinned_input():
    ds = data.gen_synthetic(
        k=32, per_cluster_n=25, latent_dim=8, ambient_dim=16, separation=3.0, seed=2109
    )
    return ds.x


def test_kmeans_trajectory_is_pinned():
    # Digests of a k=32 seeding and Lloyd run from the uncached distance
    # formula: reordering the float arithmetic in either changes them. The
    # GEMM summation order belongs to the BLAS kernel, so they hold for the
    # BLAS build they were recorded with (OpenBLAS, x86-64);
    # test_kmeans_trajectory_matches_uncached_distances checks the same
    # property on any BLAS.
    x = _pinned_input()
    seeds = km.kmeanspp_init(x, 32, 15149)
    res = km.lloyd(x, 32, seeds)
    assert _sha256(seeds, "<f8") == (
        "f1a1ba0b1c634f38505dd9558156f3ad07b9a03ecda2384b57555963b0e60a84"
    )
    assert _sha256(res.assignments, "<i8") == (
        "027be8d55629280a02375b9dd48479263d2e6cb1296f54a2fe7057bd967add5e"
    )
    assert _sha256(res.centroids, "<f8") == (
        "097d423dd1c3d284a4e4649d992babdafa4be02c01b4e33e19ad09c103aadaf2"
    )
    assert _sha256(res.inertia_trace, "<f8") == (
        "cefd9e365cf6177ea70830fbd5b9ebeb2176a6b076043816a6401bc31fafbccd"
    )
    assert res.iterations_run == 16


def test_kmeans_trajectory_matches_uncached_distances(monkeypatch):
    x = _pinned_input()
    seeds = km.kmeanspp_init(x, 32, 15149)
    res = km.lloyd(x, 32, seeds)
    monkeypatch.setattr(km, "_sq_dists", _uncached_sq_dists)
    ref_seeds = km.kmeanspp_init(x, 32, 15149)
    ref = km.lloyd(x, 32, ref_seeds)
    assert np.array_equal(seeds, ref_seeds)
    assert np.array_equal(res.assignments, ref.assignments)
    assert np.array_equal(res.centroids, ref.centroids)
    assert res.inertia_trace == ref.inertia_trace
    assert res.iterations_run == ref.iterations_run


def test_sq_dists_cached_norms_are_bit_identical(rng):
    h = rng.normal(size=(300, 7)) * 3.0
    c = rng.normal(size=(11, 7))
    cached = km._sq_dists(h, c, km._row_norms(h))
    assert np.array_equal(cached, _uncached_sq_dists(h, c, None))


def _reference_sq_dists(h, c, h_norms):
    return np.maximum(h_norms[:, None] - 2.0 * (h @ c.T) + np.sum(c * c, axis=1)[None, :], 0.0)


def _reference_repair_empty(h, assignments, centroids, k):
    for j in range(k):
        if np.any(assignments == j):
            continue
        dist = np.sum((h - centroids[assignments]) ** 2, axis=1)
        counts = np.bincount(assignments, minlength=k)
        dist[counts[assignments] <= 1] = -1.0
        donor = int(np.argmax(dist))
        assignments[donor] = j
        centroids[j] = h[donor]


def _reference_means(h, assignments, k, fallback):
    centroids = fallback.copy()
    for j in range(k):
        mask = assignments == j
        if mask.any():
            centroids[j] = h[mask].mean(axis=0)
    return centroids


@pytest.mark.parametrize("e", [1, 3, 10, 32])
def test_lloyd_steps_match_out_of_place_formulas_bit_for_bit(rng, e):
    # The in-place distance buffer, the sort-based means and the in-place
    # inertia against the per-cluster-mask and whole-array forms they
    # replace, with empty clusters, Fortran-ordered input and -0.0 entries.
    for trial in range(12):
        n, k = int(rng.integers(40, 400)), int(rng.integers(2, 40))
        h = rng.normal(size=(n, e)) * rng.uniform(0.1, 10.0)
        h[rng.random(size=h.shape) < 0.1] = -0.0
        if trial % 3 == 0:
            h[:, 0] = -0.0  # a column whose means are all -0.0
        if trial % 2:
            h = np.asfortranarray(h)
        c = rng.normal(size=(k, e))
        norms = km._row_norms(h)
        assert np.array_equal(km._sq_dists(h, c, norms), _reference_sq_dists(h, c, norms))

        # draw from a subset of the clusters so that some are empty
        used = rng.choice(k, size=max(1, k - int(rng.integers(0, k))), replace=False)
        a = used[rng.integers(len(used), size=n)]
        ref_a, ref_c = a.copy(), c.copy()
        _reference_repair_empty(h, ref_a, ref_c, k)
        counts = np.bincount(a, minlength=k)
        km._repair_empty(h, a, c, counts)
        assert np.array_equal(a, ref_a) and np.array_equal(c, ref_c)
        assert np.array_equal(counts, np.bincount(a, minlength=k))

        # means with empty clusters left in (they keep the fallback row)
        sub = used[rng.integers(len(used), size=n)]
        means = km._means(h, sub, np.bincount(sub, minlength=k), c)
        ref = _reference_means(h, sub, k, c)
        assert np.array_equal(means, ref)
        assert np.array_equal(np.signbit(means), np.signbit(ref))
        assert km._inertia(h, ref, sub) == float(np.sum((h - ref[sub]) ** 2))


def test_lloyd_keeps_no_full_size_temporaries():
    # One (n, k) distance buffer at a time; the out-of-place expressions
    # held two (n, k) or two (n, e) arrays at once.
    n, k = 6400, 32
    h = np.random.default_rng(0).normal(size=(n, k))
    init = h[:k].copy()
    tracemalloc.start()
    try:
        km.lloyd(h, k, init, max_iter=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * k * 8


def test_within_class_scatter_zero_when_points_are_centroids():
    h = np.array([[1.0, 2.0], [3.0, 4.0]])
    res = km.lloyd(h, 2, h.copy())
    assert np.array_equal(km.within_class_scatter(h, res), np.zeros((2, 2)))


def test_within_class_scatter_hand_value():
    h = np.array([[0.0], [1.0], [9.0], [10.0]])
    res = lloyd_pp(h, 2, seed=0)
    sw = km.within_class_scatter(h, res)
    assert sw == pytest.approx(np.array([[1.0]]))


def test_scatter_trace_equals_inertia(rng):
    for _ in range(20):
        h = rng.normal(size=(30, 4)) * rng.uniform(0.5, 5)
        res = lloyd_pp(h, 3, seed=int(rng.integers(1 << 30)))
        sw = km.within_class_scatter(h, res)
        assert np.trace(sw) == pytest.approx(res.inertia, abs=1e-9)
        # S_w is symmetric PSD
        assert np.array_equal(sw, sw.T)
        assert np.min(build_transform(sw).eigenvalues) >= -1e-10


def test_scatter_rejects_inconsistent_result(rng):
    h = rng.normal(size=(10, 2))
    res = lloyd_pp(h, 2, seed=0)
    with pytest.raises(DimensionError):
        km.within_class_scatter(h[:5], res)


def test_transform_invariance(rng):
    # inertia is invariant under the orthonormal transform from build_transform
    for _ in range(10):
        h = rng.normal(size=(25, 5))
        res = lloyd_pp(h, 3, seed=int(rng.integers(1 << 30)))
        v = build_transform(km.within_class_scatter(h, res)).v
        y = h @ v.T
        my = res.centroids @ v.T
        inertia_y = float(np.sum((y - my[res.assignments]) ** 2))
        assert inertia_y == pytest.approx(res.inertia, abs=1e-8)


@pytest.mark.parametrize("tol", [-1e-6, float("nan"), float("inf")])
def test_lloyd_rejects_a_tol_that_is_negative_or_not_finite(rng, tol):
    # the stop rule is what ends a run whose assignments repeat, so it must
    # be able to fire
    h = rng.normal(size=(10, 2))
    with pytest.raises(ConfigurationError):
        km.lloyd(h, 2, h[:2], tol=tol)
