import pytest

from stats import covered, median, percentile, self_times, tail


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 99) == 99
    assert percentile(xs, 100) == 100
    assert percentile([7.0], 99.9) == 7.0
    assert percentile(list(range(1, 11)), 95) == 10
    with pytest.raises(ValueError):
        percentile(xs, 0)


@pytest.mark.parametrize("n, label", [
    (10_000, "p99.9"),   # 10 samples beyond p99.9
    (9_999, "p99"),      # only 9 beyond p99.9
    (1_000, "p99"),
    (200, "p95"),
    (100, "p90"),
    (40, "p75"),
    (20, "p50"),
    (19, "max"),
    (1, "max"),
])
def test_tail_keeps_ten_samples_beyond(n, label):
    got, value = tail(list(range(1, n + 1)))
    assert got == label
    if label == "max":
        assert value == n
    else:
        assert n - value >= 10


def test_covered_merges_and_clips():
    assert covered([], 0.0, 5.0) == 0.0
    assert covered([(1.0, 2.0), (3.0, 4.0)], 0.0, 5.0) == 2.0
    assert covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 5.0) == 3.0
    assert covered([(-1.0, 1.0), (4.0, 9.0)], 0.0, 5.0) == 2.0
    assert covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 5.0) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, 0.0, 10.0),    # root
        (1, 0, 1.0, 4.0),        # child
        (2, 1, 2.0, 3.0),        # grandchild: counts against 1, not 0
        (3, 0, 5.0, 6.0),        # second child
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [(0, None, 0.0, 10.0), (1, 0, 1.0, 5.0), (2, 0, 3.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(4.0)
