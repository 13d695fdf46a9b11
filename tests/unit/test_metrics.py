"""Unit tests for the metrics registry's counters and series, the shared
percentile, and table formatting."""

import pytest

from repro.cluster.metrics import Series, format_table, percentile
from repro.obs.histogram import MetricsRegistry


def test_counter_increment():
    metrics = MetricsRegistry()
    metrics.increment("x")
    metrics.increment("x", 2.5)
    assert metrics.counter("x") == 3.5
    assert metrics.counter("missing") == 0.0


def test_series_record_and_stats():
    metrics = MetricsRegistry()
    for t, v in [(0, 1.0), (1, 3.0), (2, 2.0)]:
        metrics.record("s", t, v)
    series = metrics.series("s")
    assert series.mean() == 2.0
    assert series.max() == 3.0
    assert series.min() == 1.0
    assert len(series) == 3


def test_empty_series_stats_are_zero():
    series = Series("empty")
    assert series.mean() == 0.0
    assert series.max() == 0.0
    assert series.percentile(99) == 0.0


def test_percentile_interpolates():
    series = Series("p")
    for i in range(1, 101):
        series.append(float(i), float(i))
    assert series.percentile(0) == 1.0
    assert series.percentile(100) == 100.0
    assert series.percentile(50) == pytest.approx(50.5)


def test_percentile_single_point():
    series = Series("p")
    series.append(0.0, 7.0)
    assert series.percentile(99) == 7.0


def test_series_percentile_is_the_shared_function():
    values = [3.0, 0.5, 9.25, 4.0, 1.0, 7.5]
    series = Series("p")
    for i, value in enumerate(values):
        series.append(float(i), value)
    ordered = sorted(values)
    for q in (0, 12.5, 50, 90, 95, 99, 100):
        assert series.percentile(q) == percentile(ordered, q)
    assert percentile([], 50) == 0.0


def test_resample_buckets_means():
    series = Series("r")
    series.append(0.0, 1.0)
    series.append(5.0, 3.0)
    series.append(12.0, 10.0)
    assert series.resample(10.0) == [(0.0, 2.0), (10.0, 10.0)]


def test_resample_negative_times_floor_to_lower_edge():
    # Regression: bucket starts must floor toward -inf, not truncate
    # toward zero — a point at t=-2.5 belongs to the [-10, 0) bucket.
    series = Series("neg")
    series.append(-2.5, 4.0)
    series.append(-12.0, 2.0)
    series.append(1.0, 6.0)
    assert series.resample(10.0) == [(-20.0, 2.0), (-10.0, 4.0), (0.0, 6.0)]


def test_resample_non_multiple_start_alignment():
    series = Series("off")
    series.append(7.0, 1.0)
    series.append(13.0, 3.0)
    series.append(19.9, 5.0)
    assert series.resample(10.0) == [(0.0, 1.0), (10.0, 4.0)]


def test_resample_fractional_step():
    series = Series("frac")
    series.append(0.2, 1.0)
    series.append(0.7, 3.0)
    assert series.resample(0.5) == [(0.0, 1.0), (0.5, 3.0)]


def test_series_names_and_has_series():
    metrics = MetricsRegistry()
    metrics.record("b", 0, 0)
    metrics.record("a", 0, 0)
    assert metrics.series_names() == ["a", "b"]
    assert metrics.has_series("a")
    assert not metrics.has_series("c")


def test_format_table_alignment():
    table = format_table(["name", "value"],
                         [["x", 1], ["longer-name", 22]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    assert all(len(line) <= len(max(lines, key=len)) for line in lines)
