"""Static self-contained HTML reports from run artifacts.

``fuxi-sim report run.trace.jsonl -o report.html`` turns any of the three
JSONL artifact kinds the simulator emits into one dependency-free HTML
file (inline SVG charts, inline CSS — opens from a CI artifact tab or a
mailbox without a web server):

- a **timeseries** feed (``fuxi-sim top --out`` or ``TimeSeriesStore``
  exports) becomes line charts per metric group — resources, queue depth
  by locality tier, heartbeat staleness, jobs, event-loop rates;
- an **obs trace** (``--trace-out``) becomes the span/failover summary
  plus an events-over-time chart;
- a **flight-recorder dump** becomes the violation context and the tail
  of recorded events.

Everything here is plain string assembly over already-deterministic
inputs, so the report for a fixed seed is itself reproducible.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.export import read_jsonl
from repro.obs.summary import render_summary, summarize_trace

#: line colors cycled across series in one chart
_PALETTE = ("#2563eb", "#dc2626", "#16a34a", "#d97706", "#9333ea",
            "#0891b2", "#be185d", "#4d7c0f")

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 72rem; color: #1f2937; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.meta { color: #6b7280; font-size: 0.85rem; }
.chart { border: 1px solid #e5e7eb; border-radius: 6px; padding: 0.5rem;
         margin: 0.75rem 0; }
.legend span { margin-right: 1rem; font-size: 0.8rem; }
.swatch { display: inline-block; width: 0.7rem; height: 0.7rem;
          border-radius: 2px; margin-right: 0.3rem; vertical-align: middle; }
table { border-collapse: collapse; font-size: 0.85rem; }
td, th { border: 1px solid #e5e7eb; padding: 0.25rem 0.6rem; text-align: left; }
pre { background: #f9fafb; border: 1px solid #e5e7eb; border-radius: 6px;
      padding: 0.75rem; overflow-x: auto; font-size: 0.8rem; }
"""


# --------------------------------------------------------------------- #
# input detection
# --------------------------------------------------------------------- #

def load_any(path: str) -> dict:
    """Load a JSONL artifact and classify it.

    Returns ``{"kind": "timeseries"|"flight"|"trace", ...}``: timeseries
    and flight dumps are identified by their header line; anything else
    parseable as JSONL is treated as an obs trace.
    """
    records = read_jsonl(path)
    if not records:
        raise ValueError(f"{path}: empty file")
    head = records[0]
    kind = head.get("kind") if isinstance(head, dict) else None
    body = {"timeseries": "rows", "flight": "entries"}.get(kind)
    if body is not None:
        return {**head, body: records[1:]}
    # violation traces lead with a {"kind": "violation"} context record
    context: Optional[dict] = None
    if kind == "violation":
        context = head
        records = records[1:]
    return {"kind": "trace", "context": context, "records": records}


# --------------------------------------------------------------------- #
# SVG chart assembly
# --------------------------------------------------------------------- #

def svg_line_chart(series: Dict[str, List[Tuple[float, float]]],
                   width: int = 640, height: int = 200) -> str:
    """Inline SVG with one polyline per named series, shared axes."""
    points = [p for pts in series.values() for p in pts]
    if not points:
        return "<p class='meta'>(no data)</p>"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo > 0:
        y_lo = 0.0
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pad = 34

    def sx(x: float) -> float:
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad + (y_lo - y) / y_span * (height - 2 * pad)

    parts = [f"<svg viewBox='0 0 {width} {height}' "
             f"width='{width}' height='{height}' role='img'>"]
    parts.append(f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
                 f"y2='{height - pad}' stroke='#9ca3af'/>")
    parts.append(f"<line x1='{pad}' y1='{pad}' x2='{pad}' "
                 f"y2='{height - pad}' stroke='#9ca3af'/>")
    parts.append(f"<text x='{pad}' y='{height - 10}' font-size='10' "
                 f"fill='#6b7280'>{x_lo:g}</text>")
    parts.append(f"<text x='{width - pad}' y='{height - 10}' font-size='10' "
                 f"text-anchor='end' fill='#6b7280'>{x_hi:g}</text>")
    parts.append(f"<text x='4' y='{height - pad}' font-size='10' "
                 f"fill='#6b7280'>{y_lo:g}</text>")
    parts.append(f"<text x='4' y='{pad}' font-size='10' "
                 f"fill='#6b7280'>{y_hi:g}</text>")
    for i, (name, pts) in enumerate(series.items()):
        if not pts:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f"<polyline fill='none' stroke='{color}' "
                     f"stroke-width='1.5' points='{coords}'/>")
    parts.append("</svg>")
    legend = "".join(
        f"<span><span class='swatch' style='background:"
        f"{_PALETTE[i % len(_PALETTE)]}'></span>{html.escape(name)}</span>"
        for i, name in enumerate(series))
    return (f"<div class='chart'>{''.join(parts)}"
            f"<div class='legend'>{legend}</div></div>")


def _chart_groups(columns: Sequence[str]) -> List[Tuple[str, List[str]]]:
    """Partition timeseries columns into titled chart groups."""
    groups: List[Tuple[str, List[str]]] = [
        ("Resources (free / allocated)",
         [c for c in columns if c.startswith(("free_", "alloc_"))]),
        ("Queue depth by locality tier",
         [c for c in columns
          if c in ("queue_machine", "queue_rack", "queue_anywhere",
                   "queue_total")]),
        ("Heartbeats and blacklist",
         [c for c in columns
          if c in ("hb_stale_max", "hb_stale_mean", "blacklisted",
                   "machines_disabled")]),
        ("Jobs",
         [c for c in columns if c.startswith("jobs_")]),
        ("Event loop",
         [c for c in columns
          if c in ("events_per_sim_s", "pending",
                   "wall_ms_per_sim_s", "wall_events_per_s")]),
    ]
    covered = {c for _, cols in groups for c in cols}
    covered.update(("time", "machines", "agents_seen", "events"))
    leftovers = [c for c in columns if c not in covered]
    if leftovers:
        groups.append(("Other metrics", leftovers))
    return [(title, cols) for title, cols in groups if cols]


def _timeseries_sections(doc: dict) -> List[str]:
    rows = doc.get("rows", [])
    columns: List[str] = sorted({k for row in rows for k in row})
    sections: List[str] = []
    meta = dict(doc.get("meta", {}))
    meta["rows"] = len(rows)
    meta["dropped"] = doc.get("dropped", 0)
    sections.append(f"<p class='meta'>{html.escape(json.dumps(meta, sort_keys=True))}</p>")
    for title, cols in _chart_groups(columns):
        series: Dict[str, List[Tuple[float, float]]] = {}
        for col in cols:
            pts = [(row["time"], row[col]) for row in rows
                   if col in row and "time" in row]
            if pts:
                series[col] = pts
        if series:
            sections.append(f"<h2>{html.escape(title)}</h2>")
            sections.append(svg_line_chart(series))
    return sections


def _trace_sections(doc: dict) -> List[str]:
    records = doc.get("records", [])
    sections: List[str] = []
    context = doc.get("context")
    if context:
        sections.append("<h2>Violation context</h2>")
        sections.append("<pre>"
                        + html.escape(json.dumps(context, indent=2,
                                                 sort_keys=True))
                        + "</pre>")
    summary = summarize_trace(records)
    sections.append("<h2>Trace summary</h2>")
    sections.append("<pre>" + html.escape(render_summary(summary)) + "</pre>")
    # events-over-time: bucketed counts of span starts + one-shot events
    times = [r.get("start", r.get("time")) for r in records]
    times = [t for t in times if isinstance(t, (int, float))]
    if times:
        lo, hi = min(times), max(times)
        buckets = 60
        span = (hi - lo) or 1.0
        counts = [0] * buckets
        for t in times:
            counts[min(int((t - lo) / span * buckets), buckets - 1)] += 1
        pts = [(lo + (i + 0.5) * span / buckets, float(n))
               for i, n in enumerate(counts)]
        sections.append("<h2>Trace records over simulated time</h2>")
        sections.append(svg_line_chart({"records_per_bucket": pts}))
    return sections


def _flight_sections(doc: dict) -> List[str]:
    sections: List[str] = ["<h2>Context</h2>"]
    sections.append("<pre>"
                    + html.escape(json.dumps(doc.get("context", {}),
                                             indent=2, sort_keys=True))
                    + "</pre>")
    entries = doc.get("entries", [])
    sections.append(f"<h2>Last {len(entries)} recorded events</h2>")
    head = "<tr><th>t</th><th>seq</th><th>callback / marker</th><th>args</th></tr>"
    body = []
    for entry in entries:
        if "marker" in entry:
            detail = {k: v for k, v in entry.items() if k != "marker"}
            body.append(
                f"<tr><td></td><td></td>"
                f"<td><b>{html.escape(str(entry['marker']))}</b></td>"
                f"<td>{html.escape(json.dumps(detail, sort_keys=True))}</td></tr>")
        else:
            body.append(
                f"<tr><td>{entry.get('t', '')}</td>"
                f"<td>{entry.get('seq', '')}</td>"
                f"<td>{html.escape(str(entry.get('fn', '')))}</td>"
                f"<td>{html.escape(', '.join(map(str, entry.get('args', []))))}"
                f"</td></tr>")
    sections.append(f"<table>{head}{''.join(body)}</table>")
    return sections


def render_html(doc: dict, title: str = "fuxi-sim report") -> str:
    """Render a loaded artifact (see :func:`load_any`) as one HTML page."""
    kind = doc.get("kind", "trace")
    if kind == "timeseries":
        sections = _timeseries_sections(doc)
    elif kind == "flight":
        sections = _flight_sections(doc)
    else:
        sections = _trace_sections(doc)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f"<p class='meta'>artifact kind: {html.escape(str(kind))}</p>"
        + "".join(sections)
        + "</body></html>\n")


def write_report(input_path: str, output_path: str,
                 title: Optional[str] = None) -> str:
    """Load ``input_path``, render, write ``output_path``; returns the kind."""
    doc = load_any(input_path)
    text = render_html(doc, title=title or f"fuxi-sim report — {input_path}")
    with open(output_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return str(doc.get("kind"))
