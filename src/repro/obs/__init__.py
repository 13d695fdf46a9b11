"""Observability layer: structured tracing, histograms, and exporters.

The simulator's evaluation claims are all observations of internal
behaviour (per-request scheduling latency, failover timelines, utilization
curves).  This package provides the instruments:

- :mod:`repro.obs.tracer` — spans and one-shot events keyed on *simulated*
  time, with a zero-overhead :class:`NullTracer` for the tracing-off path;
- :mod:`repro.obs.histogram` — fixed-bucket and HDR-style log-bucket
  histograms, and :class:`MetricsRegistry`, the one metrics store
  (counters, series, histograms);
- :mod:`repro.obs.export` — the one JSONL codec every artifact kind is
  written and read with (trace, violation trace, timeseries feed, flight
  dump, chaos corpus) and a Prometheus-text-format metrics dump;
- :mod:`repro.obs.summary` — trace summarisation for the CLI (top spans,
  failover timelines, per-locality-level decision counts);
- :mod:`repro.obs.hooks` — event-loop instrumentation (callback wall-time
  sampling, queue depth) feeding the registry, installed beside the
  loop's other hooks;
- :mod:`repro.obs.live` — the streaming plane: periodic cluster snapshot
  sampler, ring-buffered :class:`TimeSeriesStore`, per-subsystem
  profiling attribution;
- :mod:`repro.obs.recorder` — the flight recorder: a bounded ring of
  recent events dumped on invariant violation or crash;
- :mod:`repro.obs.report` — static self-contained HTML reports from
  timeseries / trace / flight JSONL artifacts.

Everything written into a trace is deterministic for a fixed seed: span
ids are sequence numbers, timestamps are simulated seconds, and attribute
values are counts — never wall-clock readings.
"""

from repro.obs.export import (dump_trace_jsonl, dumps_trace, load_trace_jsonl,
                              prometheus_text)
from repro.obs.histogram import (FixedBucketHistogram, Histogram,
                                 LogBucketHistogram, MetricsRegistry)
from repro.obs.hooks import attach_loop_metrics
from repro.obs.live import (ClusterSampler, SubsystemProfiler,
                            TimeSeriesStore, classify_callback)
from repro.obs.recorder import FlightRecorder
from repro.obs.report import load_any, render_html, write_report
from repro.obs.summary import render_summary, summarize_trace
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, TraceEvent, Tracer

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "TraceEvent",
    "Histogram", "FixedBucketHistogram", "LogBucketHistogram",
    "MetricsRegistry",
    "dumps_trace", "dump_trace_jsonl", "load_trace_jsonl",
    "prometheus_text",
    "summarize_trace", "render_summary",
    "attach_loop_metrics",
    "TimeSeriesStore", "ClusterSampler", "SubsystemProfiler",
    "classify_callback", "FlightRecorder",
    "load_any", "render_html", "write_report",
]
