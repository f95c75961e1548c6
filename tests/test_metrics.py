import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

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


def test_non_integral_labels_are_rejected():
    with pytest.raises(ConfigurationError, match="integers"):
        metrics.acc([0.0, 1.0, 1.0], [0.7, 1.2, 1.9])
    for bad in (np.nan, np.inf, 1e300):
        with pytest.raises(ConfigurationError, match="integers"):
            metrics.nmi([0.0, bad], [0, 1])
    # integral floats are labels
    assert metrics.acc([0.0, 1.0, 1.0], [1.0, 0.0, 0.0]) == 1.0
