"""Unit tests for repro.obs.histogram and the MetricsRegistry."""

import pytest

from repro.cluster.metrics import Series
from repro.obs.histogram import (FixedBucketHistogram, LogBucketHistogram,
                                 MetricsRegistry)


def test_fixed_bucket_basic_stats():
    hist = FixedBucketHistogram("depth", bounds=[1, 2, 5, 10])
    for value in (0.5, 1.5, 1.5, 4.0, 20.0):
        hist.record(value)
    assert hist.count == 5
    assert hist.sum == pytest.approx(27.5)
    assert hist.min == 0.5
    assert hist.max == 20.0
    assert hist.mean == pytest.approx(5.5)


def test_fixed_bucket_requires_bounds():
    with pytest.raises(ValueError):
        FixedBucketHistogram("empty", bounds=[])


def test_fixed_bucket_overflow_bucket():
    hist = FixedBucketHistogram("x", bounds=[1.0])
    hist.record(100.0)
    assert hist.max == 100.0
    assert hist.percentile(99) == pytest.approx(100.0)


def test_log_bucket_relative_error_bound():
    hist = LogBucketHistogram("lat", subbuckets_per_octave=8)
    values = [0.01 * (1.1 ** i) for i in range(100)]
    for value in values:
        hist.record(value)
    true = sorted(values)
    # growth per bucket = 2^(1/8) ≈ 1.09: percentiles within ~9 %
    for q in (50, 95, 99):
        exact = true[min(int(q / 100.0 * len(true)), len(true) - 1)]
        assert hist.percentile(q) == pytest.approx(exact, rel=0.15)


def test_log_bucket_zero_and_negative_values():
    hist = LogBucketHistogram("z")
    hist.record(0.0)
    hist.record(-1.0)
    hist.record(2.0)
    assert hist.count == 3
    assert hist.min == -1.0
    assert hist.p50 <= 0.0
    assert hist.max == 2.0


def test_log_bucket_rejects_bad_octave():
    with pytest.raises(ValueError):
        LogBucketHistogram("bad", subbuckets_per_octave=0)


def test_percentiles_match_series_percentile():
    """Histogram percentiles track Series.percentile within bucket error."""
    values = [float(v) for v in range(1, 201)]
    series = Series("ref")
    hist = LogBucketHistogram("h", subbuckets_per_octave=16)
    for v in values:
        series.append(0.0, v)
        hist.record(v)
    for q in (50, 90, 95, 99):
        assert hist.percentile(q) == pytest.approx(series.percentile(q),
                                                   rel=0.06)


def test_percentile_clamped_to_min_max():
    hist = LogBucketHistogram("clamp")
    hist.record(3.0)
    assert hist.percentile(0) == 3.0
    assert hist.percentile(100) == 3.0
    assert hist.p50 == 3.0


def test_empty_histogram_stats_are_zero():
    hist = LogBucketHistogram("empty")
    assert hist.count == 0
    assert hist.min == 0.0
    assert hist.max == 0.0
    assert hist.mean == 0.0
    assert hist.percentile(99) == 0.0
    assert hist.cumulative_buckets() == []


def test_cumulative_buckets_monotonic():
    hist = FixedBucketHistogram("c", bounds=[1, 2, 4, 8])
    for value in (0.5, 1.5, 3.0, 3.5, 7.0, 9.0):
        hist.record(value)
    buckets = hist.cumulative_buckets()
    counts = [count for _, count in buckets]
    assert counts == sorted(counts)
    assert counts[-1] == hist.count


def test_snapshot_is_deterministic():
    def build():
        hist = LogBucketHistogram("s")
        for v in (1.0, 2.0, 10.0, 0.4):
            hist.record(v)
        return hist.snapshot()

    assert build() == build()


def test_registry_is_a_collector():
    registry = MetricsRegistry()
    registry.increment("a")
    registry.record("s", 1.0, 2.0)
    assert registry.counter("a") == 1.0
    assert registry.series("s").values() == [2.0]


def test_registry_histogram_get_or_create():
    registry = MetricsRegistry()
    first = registry.histogram("lat")
    second = registry.histogram("lat")
    assert first is second
    assert isinstance(first, LogBucketHistogram)
    fixed = registry.histogram("depth", bounds=[1, 2, 3])
    assert isinstance(fixed, FixedBucketHistogram)
    assert registry.histogram_names() == ["depth", "lat"]
    assert registry.has_histogram("lat")
    assert not registry.has_histogram("nope")


def test_registry_observe_shortcut():
    registry = MetricsRegistry()
    registry.observe("lat", 5.0)
    registry.observe("lat", 7.0)
    assert registry.histogram("lat").count == 2
    assert registry.histograms()["lat"].sum == pytest.approx(12.0)
