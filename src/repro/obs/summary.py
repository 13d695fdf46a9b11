"""Trace summarisation for the ``fuxi-sim trace`` CLI.

Works on the plain record dicts of :meth:`repro.obs.tracer.Tracer.records`
/ :func:`~repro.obs.export.load_trace_jsonl`, so it can summarize a live
tracer or a file equally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.metrics import format_table

#: locality-level attribute keys written by the scheduler's decision spans
LOCALITY_LEVELS = ("machine", "rack", "cluster")


@dataclass
class SpanAggregate:
    """Roll-up of every span sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class FailoverTimeline:
    """One ``master.failover`` span with the events recorded under it."""

    master: str
    start: float
    end: Optional[float]
    attrs: Dict[str, object] = field(default_factory=dict)
    events: List[Tuple[float, str, dict]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class TraceSummary:
    """Everything ``fuxi-sim trace`` prints."""

    span_count: int = 0
    event_count: int = 0
    aggregates: Dict[str, SpanAggregate] = field(default_factory=dict)
    top_spans: List[dict] = field(default_factory=list)
    locality_counts: Dict[str, int] = field(default_factory=dict)
    decision_count: int = 0
    failovers: List[FailoverTimeline] = field(default_factory=list)
    event_counts: Dict[str, int] = field(default_factory=dict)


def summarize_trace(records: List[dict], top: int = 10) -> TraceSummary:
    """Aggregate a trace: per-name span stats, the ``top`` longest spans,
    per-locality-level scheduling-decision counts, failover timelines."""
    summary = TraceSummary()
    spans_by_id: Dict[int, dict] = {}
    for record in records:
        if record.get("kind") == "span":
            spans_by_id[record["id"]] = record
            summary.span_count += 1
        elif record.get("kind") == "event":
            summary.event_count += 1
            name = record.get("name", "")
            summary.event_counts[name] = summary.event_counts.get(name, 0) + 1

    finished = []
    for record in spans_by_id.values():
        name = record.get("name", "")
        aggregate = summary.aggregates.setdefault(name, SpanAggregate(name))
        aggregate.count += 1
        if record.get("end") is not None:
            duration = record["end"] - record["start"]
            aggregate.total += duration
            aggregate.max = max(aggregate.max, duration)
            finished.append((duration, record))
        attrs = record.get("attrs", {})
        if name == "sched.decision":
            summary.decision_count += 1
            for level in LOCALITY_LEVELS:
                summary.locality_counts[level] = (
                    summary.locality_counts.get(level, 0)
                    + int(attrs.get(level, 0)))
    finished.sort(key=lambda pair: (-pair[0], pair[1]["id"]))
    summary.top_spans = [record for _, record in finished[:top]]

    failover_spans = {record["id"]: record for record in spans_by_id.values()
                      if record.get("name") == "master.failover"}
    timelines: Dict[int, FailoverTimeline] = {}
    for span_id, record in failover_spans.items():
        timelines[span_id] = FailoverTimeline(
            master=str(record.get("attrs", {}).get("master", "?")),
            start=record["start"], end=record.get("end"),
            attrs=dict(record.get("attrs", {})))
    for record in records:
        if record.get("kind") != "event":
            continue
        parent = record.get("parent")
        if parent in timelines:
            timelines[parent].events.append(
                (record["time"], record.get("name", ""),
                 record.get("attrs", {})))
    for span_id in sorted(timelines):
        timeline = timelines[span_id]
        timeline.events.sort(key=lambda item: item[0])
        summary.failovers.append(timeline)
    return summary


def render_summary(summary: TraceSummary, max_events: int = 12) -> str:
    """Human-readable report of a :class:`TraceSummary`."""
    parts: List[str] = [
        f"trace: {summary.span_count} spans, {summary.event_count} events"
    ]
    if summary.aggregates:
        rows = [
            [a.name, a.count, f"{a.total:.3f}", f"{a.mean:.4f}",
             f"{a.max:.4f}"]
            for a in sorted(summary.aggregates.values(),
                            key=lambda a: (-a.total, a.name))
        ]
        parts.append(format_table(
            ["span", "count", "total s", "mean s", "max s"], rows,
            title="spans by total duration"))
    if summary.top_spans:
        rows = [
            [f"#{r['id']}", r["name"], f"{r['start']:.3f}",
             f"{r['end'] - r['start']:.4f}",
             _short_attrs(r.get("attrs", {}))]
            for r in summary.top_spans
        ]
        parts.append(format_table(
            ["id", "span", "start s", "duration s", "attrs"], rows,
            title="longest individual spans"))
    if summary.decision_count:
        total = max(sum(summary.locality_counts.values()), 1)
        rows = [
            [level, summary.locality_counts.get(level, 0),
             f"{100.0 * summary.locality_counts.get(level, 0) / total:.1f}%"]
            for level in LOCALITY_LEVELS
        ]
        parts.append(format_table(
            ["locality level", "units granted", "share"], rows,
            title=f"scheduling decisions: {summary.decision_count} "
                  f"(units granted by locality level)"))
    for index, timeline in enumerate(summary.failovers, start=1):
        status = ("complete" if timeline.complete else "IN PROGRESS")
        lines = [f"failover #{index}: master={timeline.master} "
                 f"start={timeline.start:.3f}s "
                 f"duration={timeline.duration:.3f}s [{status}]"]
        shown = timeline.events[:max_events]
        for time, name, attrs in shown:
            lines.append(f"  {time:9.3f}s  {name}  {_short_attrs(attrs)}")
        hidden = len(timeline.events) - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more events")
        parts.append("\n".join(lines))
    if summary.event_counts:
        rows = [[name, count]
                for name, count in sorted(summary.event_counts.items())]
        parts.append(format_table(["event", "count"], rows,
                                  title="events by name"))
    return "\n\n".join(parts)


def _short_attrs(attrs: dict, limit: int = 60) -> str:
    text = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return text if len(text) <= limit else text[:limit - 3] + "..."
