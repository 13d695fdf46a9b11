"""Heap-based discrete-event loop with a simulated clock.

The loop is the single source of time for the whole simulation.  Events are
callbacks scheduled at absolute simulated times; ties are broken by a
monotonically increasing sequence number so execution order is deterministic
for equal timestamps.

Bookkeeping is O(1) per operation: a live-event counter backs
:meth:`EventLoop.pending` (no heap scans), and the heap is compacted when
cancelled entries outnumber live ones, so long-running simulations with
heavy timer churn stay bounded in memory.  Heap entries are plain
``(time, seq, event)`` tuples: the ``seq`` tie-break is unique, so heap
ordering is decided entirely by C-level tuple comparison and the
:class:`Event` object itself is never compared on the hot path.

An **Event freelist** (``call_at(..., recycle=True)``) keeps the
periodic-timer tier (heartbeats, housekeeping, health probes) and message
deliveries from allocating an Event per firing: the loop reuses the Event
object after the callback fires.  Callers opting in MUST NOT retain the
returned handle past the firing (a recycled handle may already belong to a
different scheduled event); it is safe for fire-and-forget deliveries and
self-re-arming periodic timers that replace their handle inside the
callback.

A second path serves *runs* of occurrences that would otherwise each be an
event of their own (agents' first beats, delivery runs): an
:class:`EventSeries` (``call_series``) rides one re-arming heap event and
hands its consumer every occurrence that sorts before the loop's next other
event, so each occurrence is still processed at its own position in the
global ``(time, seq)`` order.  Occurrences handled inside another event's
callback are counted in :attr:`EventLoop.events_absorbed`;
:attr:`EventLoop.events_executed` stays the number of loop steps.

For observability the loop supports per-event hooks
(:meth:`EventLoop.add_hook` / :meth:`EventLoop.remove_hook`): every
``sample_every``-th executed event is timed with the wall clock and
reported together with the loop state.  Multiple hooks with independent
sampling intervals coexist — the obs layer samples wall time while the
flight recorder logs every event and the chaos harness checks invariants;
removing one leaves the others installed — and with no hook installed the
execution path pays a single truthiness check.
Hooks run before the fired event is recycled, so they always observe a
coherent Event.
"""

from __future__ import annotations

import heapq
import time as _time
from bisect import bisect_left, bisect_right
from typing import Any, Callable, List, Optional, Sequence

#: below this heap size compaction is pointless (rebuild cost > scan cost)
_COMPACT_MIN = 64

#: recycled Event objects kept around at most
_FREELIST_MAX = 4096


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class LoopHook:
    """Handle for one installed per-event hook (see :meth:`EventLoop.add_hook`)."""

    __slots__ = ("callback", "every", "timed")

    def __init__(self, callback: Callable[["EventLoop", "Event", float], None],
                 every: int, timed: bool = True):
        self.callback = callback
        self.every = every
        self.timed = timed


class Event:
    """A scheduled callback.

    Events are returned by :meth:`EventLoop.call_at` / :meth:`EventLoop.call_after`
    and can be cancelled.  A cancelled event stays in the heap but is skipped
    when popped (and reclaimed wholesale when the loop compacts).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "done",
                 "recycle", "_loop")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple, loop: Optional["EventLoop"] = None,
                 recycle: bool = False):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = False
        self.recycle = recycle
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call more than once,
        and a no-op once the event has already executed."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        if self._loop is not None:
            self._loop._on_cancel()

    def __lt__(self, other: "Event") -> bool:
        # Kept for external sorting convenience; the loop's heap orders
        # plain (time, seq, event) tuples and never calls this.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.done
                 else "cancelled" if self.cancelled else "pending")
        return f"<Event t={self.time:.6f} seq={self.seq} {state} {self.callback!r}>"


class EventSeries:
    """A sorted run of occurrences that share one re-arming loop event.

    Created by :meth:`EventLoop.call_series`.  Each invocation reads the key
    of the loop's next other event and calls ``consume(start, end)`` for the
    occurrences ``[start, end)`` that sort strictly before it (ties on time
    broken by the reserved sequence numbers) and no later than the bound of
    the ``run_until`` in progress; it then re-arms under the key of the
    first occurrence left, so that one is popped exactly where an event of
    its own would have been.

    ``consume`` handles at least occurrence ``start`` and returns the index
    it stopped at.  ``loop.now`` is ``times[start]`` on entry.  A call may
    schedule only events that sort after every occurrence it handles — a
    call that handles one meets this whatever it schedules, since a new
    event takes a later sequence number; a batch of same-instant sends
    meets it because every delivery lies in the future.  A call that
    handles more than one occurrence must neither cancel events nor read
    the clock for the later ones (the bound was taken before the call).  An
    occurrence that needs more is therefore handled by a call of its own.
    After every call the bound is read again, so whatever a call scheduled
    inside the rest of the run is honoured.  After an invocation
    ``loop.now`` is the time of the last occurrence consumed.

    The consumer is kept as ``callback`` so that profilers unwrap a series
    the way they unwrap a periodic-timer chain.
    """

    __slots__ = ("_loop", "times", "seqs", "pos", "callback")

    def __init__(self, loop: "EventLoop", times: Sequence[float],
                 seqs: Sequence[int], consume: Callable[[int, int], int]):
        self._loop = loop
        self.times = times
        self.seqs = seqs
        self.pos = 0
        self.callback = consume

    def __call__(self) -> None:
        loop = self._loop
        times = self.times
        seqs = self.seqs
        consume = self.callback
        total = len(times)
        first = pos = self.pos
        until = loop._until
        while pos < total and not (loop._stopped and pos > first):
            head = loop._peek()
            if head is None:
                end = total
            else:
                when, seq = head[0], head[1]
                end = bisect_left(times, when, pos, total)
                while end < total and times[end] == when and seqs[end] < seq:
                    end += 1
            if end > pos and times[end - 1] > until:
                end = bisect_right(times, until, pos, end)
            if end <= pos:
                break
            loop._now = times[pos]
            pos = consume(pos, end)
            loop._now = times[pos - 1]
        self.pos = pos
        loop.events_absorbed += pos - first - 1
        if pos < total:
            loop._call_reserved(times[pos], seqs[pos], self)


class EventLoop:
    """Deterministic discrete-event scheduler.

    Typical use::

        loop = EventLoop()
        loop.call_after(1.0, my_callback, arg1)
        loop.run_until(100.0)

    The clock only moves when :meth:`run`, :meth:`run_until` or :meth:`step`
    execute events; there is no wall-clock coupling.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        # heap of (time, seq, event): unique seq => pure tuple comparison
        self._heap: List[tuple] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        #: loop steps: one per executed callback (what hooks, the profiler,
        #: the flight recorder and ``run(max_events=)`` count)
        self.events_executed = 0
        #: occurrences handled inside another event's callback: the members
        #: a heartbeat cohort fires beyond the first, the occurrences an
        #: :class:`EventSeries` invocation consumes beyond the first.
        #: ``events_executed + events_absorbed`` is what a run with one
        #: event per occurrence would have executed.
        self.events_absorbed = 0
        # the bound of the run_until in progress (an EventSeries invocation
        # must not consume occurrences beyond it)
        self._until = float("inf")
        # live/cancelled counters: pending() must be O(1) and compaction
        # needs to know when the heap is mostly garbage.
        self._live = 0
        self._cancelled = 0
        self._free: List[Event] = []
        # optional instrumentation (see add_hook / remove_hook)
        self._hooks: List[LoopHook] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any,
                wheel: bool = False, recycle: bool = False) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        With ``recycle=True`` the returned handle is reused after the
        callback fires and must not be retained past that point.  ``wheel``
        is accepted and ignored: it selected a timer-wheel tier that priced
        no better than the heap, and the layered benchmark's micro-ops
        still pass it.

        :meth:`repro.cluster.network.MessageBus.send` carries a copy of the
        ``recycle=True`` path, the one every message takes; a change to how
        an entry is made here must be made there too.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = when
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.done = False
            event.recycle = recycle
            event._loop = self
        else:
            event = Event(when, seq, callback, args, loop=self,
                          recycle=recycle)
        heapq.heappush(self._heap, (when, seq, event))
        self._live += 1
        return event

    def reserve_seqs(self, count: int) -> int:
        """Take ``count`` consecutive tie-break sequence numbers; returns
        the first.  For :meth:`call_series`: an occurrence that is not an
        event of its own still needs its place among equal timestamps."""
        first = self._seq
        self._seq = first + count
        return first

    def call_series(self, times: Sequence[float], seqs: Sequence[int],
                    consume: Callable[[int, int], int]) -> "EventSeries":
        """Schedule a run of occurrences behind one re-arming event.

        Occurrence ``i`` happens at ``(times[i], seqs[i])``; both sequences
        are sorted by that key and the sequence numbers come from
        :meth:`reserve_seqs`.  See :class:`EventSeries` for the contract of
        ``consume``.
        """
        series = EventSeries(self, times, seqs, consume)
        if times:
            self._call_reserved(times[0], seqs[0], series)
        return series

    def _call_reserved(self, when: float, seq: int,
                       callback: Callable[[], Any]) -> None:
        """Heap-schedule ``callback`` under an already reserved ``seq``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self._now}"
            )
        # A fresh Event, recycled after it fires: this runs once per series
        # invocation, not once per occurrence.
        event = Event(when, seq, callback, (), loop=self, recycle=True)
        heapq.heappush(self._heap, (when, seq, event))
        self._live += 1

    def call_after(self, delay: float, callback: Callable[..., Any], *args: Any,
                   wheel: bool = False, recycle: bool = False) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback, *args,
                            recycle=recycle)

    def stop(self) -> None:
        """Make the currently running :meth:`run` loop return after this event."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # cancellation bookkeeping
    # ------------------------------------------------------------------ #

    def _on_cancel(self) -> None:
        """Called by :meth:`Event.cancel`; compacts the heap when mostly garbage."""
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled * 2 > len(self._heap)
                and len(self._heap) >= _COMPACT_MIN):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (amortised O(1) per cancel)."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #

    def add_hook(self, hook: Callable[["EventLoop", Event, float], None],
                 sample_every: int = 1, timed: bool = True) -> LoopHook:
        """Install a per-event hook alongside any already installed.

        Every ``sample_every``-th executed event is timed and
        ``hook(loop, event, wall_seconds)`` is invoked right after its
        callback returns.  Which events are sampled depends only on the
        deterministic execution count, so a seeded run samples the same
        events every time (the wall-time *values* are of course not
        reproducible).  Every loop step passes through :meth:`_execute`,
        so a hook sees the uniform event stream regardless of how an
        event was scheduled.  ``timed=False`` skips the ``perf_counter``
        pair when only untimed hooks are due (the hook then receives
        ``0.0`` as the wall time) — the cheap tier for per-event
        observers like the flight recorder that want the event, not its
        cost.  Returns a handle for :meth:`remove_hook`.
        """
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        handle = LoopHook(hook, int(sample_every), timed=timed)
        self._hooks.append(handle)
        return handle

    def remove_hook(self, handle: LoopHook) -> None:
        """Uninstall one hook previously returned by :meth:`add_hook`."""
        try:
            self._hooks.remove(handle)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if nothing is pending."""
        entry = self._peek()
        if entry is None:
            return False
        self._execute(entry)
        return True

    def _peek(self) -> Optional[tuple]:
        """Next runnable ``(time, seq, event)``, skipping cancelled heads.

        The entry is left on the heap; :meth:`_execute` pops it.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    def _execute(self, entry: tuple) -> None:
        """Consume and run ``entry``, the head :meth:`_peek` just returned."""
        heapq.heappop(self._heap)
        event = entry[2]
        event.done = True
        self._live -= 1
        self._now = event.time
        self.events_executed += 1
        hooks = self._hooks
        if hooks:
            count = self.events_executed
            due = [h for h in hooks if count % h.every == 0]
            if due:
                if any(h.timed for h in due):
                    started = _time.perf_counter()
                    event.callback(*event.args)
                    wall = _time.perf_counter() - started
                else:
                    event.callback(*event.args)
                    wall = 0.0
                for handle in due:
                    handle.callback(self, event, wall)
            else:
                event.callback(*event.args)
        else:
            event.callback(*event.args)
        if event.recycle:
            free = self._free
            if len(free) < _FREELIST_MAX:
                event.callback = None
                event.args = ()
                event._loop = None
                free.append(event)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, :meth:`stop` is called, or ``max_events`` fire."""
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False

    def run_until(self, until: float) -> None:
        """Run events with ``time <= until``, then set the clock to ``until``."""
        if until < self._now:
            raise SimulationError(f"cannot run until {until}, already at {self._now}")
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        self._stopped = False
        self._until = until
        try:
            while not self._stopped:
                entry = self._peek()
                if entry is None or entry[0] > until:
                    break
                self._execute(entry)
        finally:
            self._running = False
            self._until = float("inf")
        if self._now < until:
            self._now = until

    def pending(self) -> int:
        """Number of non-cancelled events still scheduled (O(1))."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventLoop now={self._now:.3f} pending={self.pending()}>"
