"""Deterministic exporters: the one JSONL codec and Prometheus-text metrics.

Every JSONL artifact — trace, violation trace, timeseries feed, flight
dump, chaos corpus — is written and read by :func:`dumps_jsonl` /
:func:`write_jsonl` / :func:`read_jsonl`.  Records are emitted in creation
order with sorted keys, and every number is a simulated timestamp or a
count, so the same seeded run exports byte-identical files.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable, List, Optional, Union

from repro.obs.histogram import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


# --------------------------------------------------------------------- #
# the JSONL codec
# --------------------------------------------------------------------- #

def dumps_jsonl(records: Iterable[dict], header: Optional[dict] = None) -> str:
    """The header (if any), then the records, one compact JSON object per
    line; nothing to write gives the empty string."""
    lines = records if header is None else [header, *records]
    return "".join(json.dumps(record, sort_keys=True, separators=(",", ":"))
                   + "\n" for record in lines)


def write_jsonl(target: Union[str, IO[str]], records: List[dict],
                header: Optional[dict] = None) -> int:
    """Write :func:`dumps_jsonl` text to a path or a file object; returns
    the number of records (the header not counted)."""
    text = dumps_jsonl(records, header)
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
            handle.write(text)
    return len(records)


def read_jsonl(source: Union[str, IO[str]]) -> List[dict]:
    """Every non-blank line of a path or a file object, parsed."""
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as handle:  # type: ignore[arg-type]
            text = handle.read()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# --------------------------------------------------------------------- #
# traces
# --------------------------------------------------------------------- #

def dumps_trace(tracer) -> str:
    """The whole trace as JSONL text; an empty trace is the empty string."""
    return dumps_jsonl(tracer.records())


def dump_trace_jsonl(tracer, target: Union[str, IO[str]]) -> int:
    """Write the trace to a path or file object; returns the record count."""
    return write_jsonl(target, tracer.records())


def dump_violation_trace(tracer, target: Union[str, IO[str]],
                         context: dict) -> int:
    """Write a trace with a leading ``violation`` context record.

    Used by the chaos harness: when an invariant trips, the full obs trace
    of the run is captured with one extra first line describing what broke
    (invariant name, simulated time, seed, schedule spec, ...), so the
    evidence and the repro recipe travel in one file.  Returns the record
    count including the header.
    """
    return 1 + write_jsonl(target, tracer.records(),
                           header={"kind": "violation", **context})


def load_trace_jsonl(source: Union[str, IO[str]]) -> List[dict]:
    """Read a JSONL trace back into a list of record dicts."""
    return read_jsonl(source)


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #

def _metric_name(name: str) -> str:
    """Sanitize a dotted metric name for the Prometheus text format."""
    sanitized = _NAME_RE.sub("_", name.replace(".", "_"))
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Dump a registry in the Prometheus exposition format.

    - counters → ``counter`` samples;
    - series → ``summary``-flavoured gauges (count / mean / p50 / p95 /
      p99 / max over the recorded points);
    - histograms → native ``histogram`` with cumulative ``_bucket`` lines
      plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for name in sorted(metrics.counters()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(metrics.counter(name))}")
    for name in metrics.series_names():
        series = metrics.series(name)
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f'{metric}{{stat="count"}} {_fmt(float(len(series)))}')
        lines.append(f'{metric}{{stat="mean"}} {_fmt(series.mean())}')
        lines.append(f'{metric}{{stat="p50"}} {_fmt(series.percentile(50))}')
        lines.append(f'{metric}{{stat="p95"}} {_fmt(series.percentile(95))}')
        lines.append(f'{metric}{{stat="p99"}} {_fmt(series.percentile(99))}')
        lines.append(f'{metric}{{stat="max"}} {_fmt(series.max())}')
    for name, histogram in sorted(metrics.histograms().items()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for upper, cumulative in histogram.cumulative_buckets():
            lines.append(
                f'{metric}_bucket{{le="{_fmt(upper)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_fmt(histogram.sum)}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + ("\n" if lines else "")
