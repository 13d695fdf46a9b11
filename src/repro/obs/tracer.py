"""Structured tracing keyed on simulated time.

A :class:`Tracer` records two kinds of telemetry:

- **spans** — named intervals with a start and end time, parent links and
  ``key=value`` attributes.  Spans opened via the :meth:`Tracer.span`
  context manager nest on an implicit stack; long-lived spans that cross
  event-loop callbacks (e.g. a master failover) are opened *detached* so
  they never corrupt the stack discipline;
- **events** — one-shot points in time with attributes, parented to the
  innermost open span.

Timestamps come from an injected ``clock`` callable (normally
``lambda: loop.now``), so everything recorded is simulated time and the
trace of a seeded run is byte-for-byte reproducible.  Wall-clock readings
must never be written into a trace — they belong in the metrics registry.

When tracing is off, components hold a :class:`NullTracer` (the shared
:data:`NULL_TRACER`): every method is a no-op and hot paths pay only an
``enabled`` attribute lookup.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    """One named interval in simulated time."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attributes")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start: float, attributes: Dict[str, Any]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes = attributes

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attrs)
        return self

    def to_record(self) -> dict:
        """Serializable form (one JSONL line of the trace export)."""
        return {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        when = (f"[{self.start:.3f}, {self.end:.3f}]" if self.finished
                else f"[{self.start:.3f}, ...)")
        return f"<Span #{self.span_id} {self.name} {when}>"


class TraceEvent:
    """A one-shot structured event."""

    __slots__ = ("event_id", "parent_id", "name", "time", "attributes")

    def __init__(self, event_id: int, parent_id: Optional[int], name: str,
                 time: float, attributes: Dict[str, Any]):
        self.event_id = event_id
        self.parent_id = parent_id
        self.name = name
        self.time = time
        self.attributes = attributes

    def to_record(self) -> dict:
        return {
            "kind": "event",
            "id": self.event_id,
            "parent": self.parent_id,
            "name": self.name,
            "time": self.time,
            "attrs": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent #{self.event_id} {self.name} t={self.time:.3f}>"


class Tracer:
    """Collects spans and events against a simulated clock."""

    enabled = True

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._ids = itertools.count(1)
        self._spans: List[Span] = []
        self._events: List[TraceEvent] = []
        self._stack: List[Span] = []

    # ----------------------------- spans ----------------------------- #

    def start_span(self, name: str, parent: Optional[Span] = None,
                   detached: bool = False, **attrs: Any) -> Span:
        """Open a span.

        ``parent`` overrides the implicit parent (innermost open span on
        the stack).  ``detached=True`` keeps the span off the stack: use it
        for intervals that end in a *different* event-loop callback than
        the one that opened them.
        """
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        elif self._stack:
            parent_id = self._stack[-1].span_id
        else:
            parent_id = None
        span = Span(next(self._ids), parent_id, name, self._clock(), attrs)
        self._spans.append(span)
        if not detached:
            self._stack.append(span)
        return span

    def end_span(self, span: Span, **attrs: Any) -> None:
        """Close a span (idempotent), attaching any final attributes."""
        span.attributes.update(attrs)
        if span.end is None:
            span.end = self._clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with tracer.span("name", k=v) as s:`` — nests on the stack."""
        span = self.start_span(name, **attrs)
        try:
            yield span
        finally:
            self.end_span(span)

    # ----------------------------- events ---------------------------- #

    def event(self, name: str, parent: Optional[Span] = None,
              **attrs: Any) -> TraceEvent:
        """Record a one-shot event under the innermost open span.

        ``parent`` overrides the implicit parent — needed to attach events
        to a *detached* span, which never sits on the stack.
        """
        return self.event_at(self._clock(), name, parent, **attrs)

    def event_at(self, time: float, name: str,
                 parent: Optional[Span] = None, **attrs: Any) -> TraceEvent:
        """:meth:`event`, stamped ``time`` instead of the clock's reading:
        a roll-up that handles occurrences of several instants together
        stamps each with its own."""
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        else:
            parent_id = self._stack[-1].span_id if self._stack else None
        event = TraceEvent(next(self._ids), parent_id, name, time, attrs)
        self._events.append(event)
        return event

    # --------------------------- inspection --------------------------- #

    def spans(self, name: Optional[str] = None) -> List[Span]:
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def events(self, name: Optional[str] = None) -> List[TraceEvent]:
        if name is None:
            return list(self._events)
        return [e for e in self._events if e.name == name]

    def records(self) -> List[dict]:
        """All spans and events as dicts, in creation (id) order."""
        merged = [s.to_record() for s in self._spans]
        merged.extend(e.to_record() for e in self._events)
        merged.sort(key=lambda r: r["id"])
        return merged

    def clear(self) -> None:
        self._spans = []
        self._events = []
        self._stack = []

    def __len__(self) -> int:
        return len(self._spans) + len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tracer spans={len(self._spans)} events={len(self._events)} "
                f"open={len(self._stack)}>")


class _NullSpan:
    """Inert span handed out by :class:`NullTracer`."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""
    start = 0.0
    end: Optional[float] = None
    attributes: Dict[str, Any] = {}
    finished = False
    duration = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def to_record(self) -> dict:  # pragma: no cover - never exported
        return {}


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every operation is a no-op.

    Components test ``tracer.enabled`` before doing any attribute
    computation, so the disabled path costs one attribute lookup.
    """

    enabled = False

    def start_span(self, name: str, parent: Optional[Span] = None,
                   detached: bool = False, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, span: Any, **attrs: Any) -> None:
        return None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_NullSpan]:
        yield _NULL_SPAN

    def event(self, name: str, parent: Optional[Span] = None,
              **attrs: Any) -> None:
        return None

    def event_at(self, time: float, name: str,
                 parent: Optional[Span] = None, **attrs: Any) -> None:
        return None

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def events(self, name: Optional[str] = None) -> List[TraceEvent]:
        return []

    def records(self) -> List[dict]:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTracer>"


#: Shared tracing-off instance; safe because NullTracer is stateless.
NULL_TRACER = NullTracer()
