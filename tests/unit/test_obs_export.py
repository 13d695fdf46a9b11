"""Unit tests for repro.obs.export: JSONL round-trips, Prometheus text."""

import io

from repro.obs.export import (dump_trace_jsonl, dumps_trace,
                              load_trace_jsonl, prometheus_text)
from repro.obs.histogram import MetricsRegistry
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_tracer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    span = tracer.start_span("sched.decision", kind="request")
    clock.now = 0.25
    tracer.event("mark", n=3)
    clock.now = 1.0
    tracer.end_span(span, machine=2, rack=1, cluster=0)
    return tracer


def test_dumps_trace_one_json_line_per_record():
    text = dumps_trace(build_tracer())
    lines = text.splitlines()
    assert len(lines) == 2
    assert text.endswith("\n")
    # keys sorted, compact separators
    assert lines[0].startswith('{"attrs":')
    assert ", " not in lines[0]


def test_dumps_empty_trace_is_empty_string():
    clock = FakeClock()
    assert dumps_trace(Tracer(clock=clock)) == ""


def test_jsonl_round_trip_path(tmp_path):
    tracer = build_tracer()
    path = tmp_path / "trace.jsonl"
    count = dump_trace_jsonl(tracer, str(path))
    assert count == 2
    assert load_trace_jsonl(str(path)) == tracer.records()


def test_jsonl_round_trip_file_object():
    tracer = build_tracer()
    buffer = io.StringIO()
    dump_trace_jsonl(tracer, buffer)
    buffer.seek(0)
    assert load_trace_jsonl(buffer) == tracer.records()


def test_export_is_byte_identical_across_builds():
    assert dumps_trace(build_tracer()) == dumps_trace(build_tracer())


def test_prometheus_counters_and_series():
    registry = MetricsRegistry()
    registry.increment("fm.requests", 3)
    registry.record("fm.schedule_ms", 0.0, 1.0)
    registry.record("fm.schedule_ms", 1.0, 3.0)
    text = prometheus_text(registry)
    assert "# TYPE fm_requests counter" in text
    assert "fm_requests 3" in text
    assert "# TYPE fm_schedule_ms gauge" in text
    assert 'fm_schedule_ms{stat="count"} 2' in text
    assert 'fm_schedule_ms{stat="mean"} 2' in text
    assert 'fm_schedule_ms{stat="max"} 3' in text


def test_prometheus_histogram_cumulative_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("depth", bounds=[1.0, 2.0])
    for value in (0.5, 1.5, 5.0):
        hist.record(value)
    text = prometheus_text(registry)
    assert "# TYPE depth histogram" in text
    assert 'depth_bucket{le="+Inf"} 3' in text
    assert "depth_sum 7" in text
    assert "depth_count 3" in text
    # cumulative counts never decrease down the exposition
    counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
              if line.startswith("depth_bucket")]
    assert counts == sorted(counts)


def test_prometheus_name_sanitization():
    registry = MetricsRegistry()
    registry.increment("health.m-0")
    text = prometheus_text(registry)
    assert "health_m_0 1" in text


def test_prometheus_plain_collector_has_no_histogram_section():
    registry = MetricsRegistry()
    registry.increment("a")
    text = prometheus_text(registry)
    assert "histogram" not in text


def test_prometheus_empty_registry_is_empty():
    assert prometheus_text(MetricsRegistry()) == ""
