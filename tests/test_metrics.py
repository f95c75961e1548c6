import itertools
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import dekm
from dekm import core, metrics
from dekm.errors import ConfigurationError, DimensionError, NumericError

from conftest import brute_force_acc, brute_force_matching


def test_nmi_identical():
    assert metrics.nmi([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)


def test_nmi_relabeled():
    assert metrics.nmi([0, 0, 1, 1], [5, 5, 2, 2]) == pytest.approx(1.0)


def test_nmi_independent_partitions():
    assert metrics.nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)


def test_nmi_trivial_partitions():
    assert metrics.nmi([0, 0, 0], [1, 1, 1]) == 1.0


def test_nmi_length_mismatch():
    with pytest.raises(DimensionError):
        metrics.nmi([0, 1], [0, 1, 2])


def test_acc_identical_and_relabeled():
    assert metrics.acc([0, 1, 2], [0, 1, 2]) == 1.0
    assert metrics.acc([0, 1, 2], [2, 0, 1]) == 1.0


def test_acc_matches_brute_force(rng):
    for _ in range(100):
        n = int(rng.integers(4, 30))
        kg = int(rng.integers(1, 7))
        kc = int(rng.integers(1, 7))
        g = rng.integers(kg, size=n)
        c = rng.integers(kc, size=n)
        assert metrics.acc(g, c) == pytest.approx(brute_force_acc(g, c), abs=1e-12)


def test_metric_ranges_fuzz(rng):
    for _ in range(50):
        n = int(rng.integers(2, 40))
        g = rng.integers(1, 6, size=1).item()
        g = rng.integers(g, size=n)
        c = rng.integers(int(rng.integers(1, 6)), size=n)
        for v in (metrics.nmi(g, c), metrics.acc(g, c)):
            assert -1e-12 <= v <= 1.0 + 1e-12


def test_acc_pigeonhole_on_balanced_classes(rng):
    for _ in range(20):
        k = int(rng.integers(2, 5))
        g = np.repeat(np.arange(k), 10)
        c = rng.integers(k, size=len(g))
        assert metrics.acc(g, c) >= 1.0 / k - 1e-12


def test_hungarian_diagonal():
    cost = np.full((3, 3), 5.0) - 4.0 * np.eye(3)
    rows, cols, total = metrics.hungarian(cost)
    assert np.array_equal(rows, [0, 1, 2]) and np.array_equal(cols, [0, 1, 2])
    assert total == pytest.approx(3.0)


def test_hungarian_two_by_two():
    rows, cols, total = metrics.hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(rows, [0, 1]) and np.array_equal(cols, [1, 0])
    assert total == pytest.approx(3.0)


def test_hungarian_matches_brute_force(rng):
    for _ in range(100):
        k = int(rng.integers(2, 8))
        cost = rng.uniform(0, 10, size=(k, k))
        _, _, total = metrics.hungarian(cost)
        best_total, _ = brute_force_matching(cost)
        assert total == pytest.approx(best_total, abs=1e-9)


def _brute_force_rectangular(cost):
    """Minimal total over every injective map of the shorter side into the
    longer one."""
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    r, c = cost.shape
    return min(
        sum(cost[i, j] for i, j in enumerate(cols))
        for cols in itertools.permutations(range(c), r)
    )


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (1, 4), (4, 1)])
def test_hungarian_rectangular_matches_the_shorter_side(rng, shape):
    for _ in range(20):
        cost = rng.normal(size=shape)
        rows, cols, total = metrics.hungarian(cost)
        assert len(rows) == len(cols) == min(shape)
        assert len(set(rows.tolist())) == len(set(cols.tolist())) == min(shape)
        assert total == pytest.approx(float(cost[rows, cols].sum()), abs=1e-12)
        assert total == pytest.approx(_brute_force_rectangular(cost), abs=1e-12)


# The square-padding matching that ``hungarian`` used before it matched
# rectangular costs directly, with the ``acc`` and ``align_labels`` built on
# it: the reference the rectangular versions must reproduce bit for bit.


def _padded_hungarian(cost):
    r, c = cost.shape
    size = max(r, c)
    padded = np.zeros((size, size))
    padded[:r, :c] = cost
    _, assignment = linear_sum_assignment(padded)
    real = np.flatnonzero(assignment[:r] < c)
    return assignment, float(cost[real, assignment[real]].sum())


def _padded_acc(g, c):
    _, total = _padded_hungarian(-metrics.contingency(g, c).astype(np.float64).T)
    return -total / len(g)


def _padded_changed_fraction(prev, cur):
    table, ref_vals, lab_vals, li = metrics._count_table(prev, cur)
    assignment, _ = _padded_hungarian(-table.astype(np.float64).T)
    match = assignment[: len(lab_vals)]
    matched = match < len(ref_vals)
    out_map = np.empty(len(lab_vals), dtype=ref_vals.dtype)
    out_map[matched] = ref_vals[match[matched]]
    out_map[~matched] = ref_vals.max() + 1 + np.arange(np.count_nonzero(~matched))
    return float(np.mean(out_map[li] != prev))


def test_rectangular_matching_keeps_acc_and_changed_fraction_bits(rng):
    for _ in range(300):
        n = int(rng.integers(1, 60))
        g = rng.integers(int(rng.integers(1, 9)), size=n)
        c = rng.integers(int(rng.integers(1, 9)), size=n) * int(rng.integers(1, 4))
        assert 1 <= len(np.unique(g)) <= 8 and 1 <= len(np.unique(c)) <= 8
        assert metrics.acc(g, c) == _padded_acc(g, c)
        assert core.changed_fraction(g, c) == _padded_changed_fraction(g, c)


def _assignment_costs(rng):
    """Random float costs, small-integer costs heavy with ties, and negated
    contingency-like tables that are 95% zeros, in both orientations and up
    to 64 on a side; then the empty and 1x1 shapes."""
    for _ in range(60):
        shape = tuple(int(s) for s in rng.integers(1, 65, size=2))
        yield rng.normal(size=shape)
        yield rng.integers(0, 3, size=shape).astype(np.float64)
        counts = rng.integers(1, 400, size=shape) * (rng.random(shape) < 0.05)
        yield -counts.astype(np.float64)
    for shape in [(0, 5), (5, 0), (0, 0), (1, 1)]:
        yield rng.normal(size=shape)


def test_hungarian_matches_scipy_linear_sum_assignment(rng):
    for cost in _assignment_costs(rng):
        rows, cols, total = metrics.hungarian(cost)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        r, c = cost.shape
        assert len(rows) == len(cols) == min(r, c)
        assert np.all(np.diff(rows) > 0) and len(set(cols.tolist())) == len(cols)
        if r <= c:  # every row is matched
            assert np.array_equal(rows, np.arange(r))
        else:  # every column is matched
            assert np.array_equal(np.sort(cols), np.arange(c))
        assert total == float(cost[rows, cols].sum())
        assert total == pytest.approx(float(cost[ref_rows, ref_cols].sum()), abs=1e-9)


def test_importing_the_cli_loads_no_scipy():
    code = "import dekm.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(dekm.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_a_labelled_run_and_align_labels_import_no_numpy_ma():
    # np.unique without indices, which np.setdiff1d calls (and np.isin on a
    # wide label range), imports numpy.ma: about 1 MiB in every dekm process
    code = textwrap.dedent("""
        import sys
        from dekm import autoencoder as ae, core, data, metrics
        ds = data.gen_synthetic(k=3, per_cluster_n=20, latent_dim=2, ambient_dim=4,
                                separation=5.0, seed=0)
        model = ae.xavier_init([4, 8, 3], seed=0)
        core.run_dekm(model, ds.x, core.DekmConfig(k=3, max_outer_iters=2), ds.labels)
        metrics.align_labels([5, 5, 7, 7, 7, 7], [2, 2, 0, 0, 1, 3])
        metrics.align_labels([2**63 - 1, 2**63 - 1, -2**63, -2**63], [0, 0, 1, 2])
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(dekm.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def test_hungarian_rejects_nonfinite():
    with pytest.raises(NumericError):
        metrics.hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_align_labels_counts_real_changes():
    prev = np.array([0, 0, 1, 1, 2, 2])
    cur = np.array([2, 2, 0, 0, 1, 1])  # pure relabeling
    assert np.array_equal(metrics.align_labels(prev, cur), prev)
    cur2 = np.array([2, 1, 0, 0, 1, 1])  # one genuine move
    assert int(np.sum(metrics.align_labels(prev, cur2) != prev)) == 1


def test_gaussian_entropy_golden_values():
    assert metrics.gaussian_entropy([1.0, 1.0]) == pytest.approx(1.419, abs=1e-3)
    assert metrics.gaussian_entropy([0.25, 0.25]) == pytest.approx(0.033, abs=1e-3)
    # product 1/(2 pi e) makes the log argument 1
    assert metrics.gaussian_entropy([1.0 / (2.0 * np.pi * np.e)]) == pytest.approx(0.0)


def test_gaussian_entropy_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        metrics.gaussian_entropy([1.0, 0.0])


def test_uniform_entropy():
    assert metrics.uniform_entropy(1) == 0.0
    assert metrics.uniform_entropy(400) == pytest.approx(5.992, abs=1e-3)
    assert metrics.uniform_entropy(3) == pytest.approx(np.log(3.0))
    with pytest.raises(ConfigurationError):
        metrics.uniform_entropy(0)


def test_align_labels_gives_unmatched_clusters_fresh_labels():
    reference = np.array([5, 5, 7, 7, 7, 7])
    labels = np.array([2, 2, 0, 0, 1, 3])
    # 2 -> 5 and 0 -> 7 are matched; 1 and 3 get 8 and 9 in label order
    assert np.array_equal(metrics.align_labels(reference, labels), [5, 5, 7, 7, 8, 9])


def test_align_labels_does_not_overflow_past_the_largest_int64():
    reference = np.array([2**63 - 1, 2**63 - 1, -(2**63), -(2**63)])
    labels = np.array([0, 0, 1, 2])  # one of clusters 1 and 2 is unmatched
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aligned = metrics.align_labels(reference, labels)
        assert core.changed_fraction(reference, labels) == 0.25
    assert int(np.sum(~np.isin(aligned, reference))) == 1


def _relabelled_changed_fraction(prev, cur):
    return float(np.mean(metrics.align_labels(prev, cur) != np.asarray(prev)))


INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "prev, cur",
    [
        ([0, 0, 1, 1, 2, 2], [2, 2, 0, 0, 1, 1]),  # a pure relabelling
        ([0, 0, 1, 1, 2, 2], [2, 1, 0, 0, 1, 3]),  # an unmatched cluster
        ([5, 5, 7, 7, 7, 7], [2, 2, 0, 0, 1, 3]),  # more clusters than labels
        ([0, 1, 2, 3, 4, 5], [0, 0, 0, 1, 1, 1]),  # fewer clusters than labels
        ([-7, -7, 3, 10**12, 10**12, -7], [4, 4, 4, -1, -1, 9]),  # negative, far apart
        ([INT64.max, INT64.max, INT64.min, INT64.min], [0, 0, 1, 2]),  # no room past the max
        ([INT64.max, 0, 0], [1, 0, 0]),  # every cluster matched at the largest label
        ([INT64.min, INT64.max, 0, 1], [3, 3, 3, 3]),
        ([3], [-3]),
    ],
)
def test_changed_fraction_counts_what_relabelling_counts(prev, cur):
    assert core.changed_fraction(prev, cur).hex() == _relabelled_changed_fraction(prev, cur).hex()


def _label_vectors(n):
    extremes = st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max])
    alphabets = st.lists(st.integers(-3, 12) | extremes | st.integers(INT64.min, INT64.max),
                         min_size=1, max_size=10, unique=True)
    return alphabets.flatmap(lambda vals: st.lists(st.sampled_from(vals), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=st.integers(1, 60).flatmap(lambda n: st.tuples(_label_vectors(n), _label_vectors(n))))
def test_changed_fraction_matches_relabelling_on_drawn_labels(pair):
    prev, cur = pair
    assert core.changed_fraction(prev, cur).hex() == _relabelled_changed_fraction(prev, cur).hex()


def test_non_integral_labels_are_rejected():
    with pytest.raises(ConfigurationError, match="integers"):
        metrics.acc([0.0, 1.0, 1.0], [0.7, 1.2, 1.9])
    for bad in (np.nan, np.inf, 1e300):
        with pytest.raises(ConfigurationError, match="integers"):
            metrics.nmi([0.0, bad], [0, 1])
    # integral floats are labels
    assert metrics.acc([0.0, 1.0, 1.0], [1.0, 0.0, 0.0]) == 1.0
    # strings (numeric ones too), objects and complex numbers are not labels
    for bad in (["a", "b", "a"], ["1", "0", "1"], [None, 1, 2], [1 + 0j, 0j, 1 + 1j]):
        with pytest.raises(ConfigurationError, match="integers"):
            metrics.acc(bad, [0, 1, 0])
        with pytest.raises(ConfigurationError, match="integers"):
            metrics.nmi([0, 1, 0], bad)
