"""The job plane's phase grid: periodic timers that share their instants.

Paper §4.3 has every TaskWorker report its status to its JobMaster, and
every application master heartbeat FuxiMaster, at a fixed period; it gives
no phase.  :meth:`repro.sim.actor.Actor.set_grid_timer` supplies one: a
timer of period ``interval`` fires at the instants ``phase + k * interval``
only, the first of them at least one full interval after it was armed.
Timers armed at scattered instants then fire in a handful of shared ones.

A :class:`PhaseGrid` (one per message bus) fires each shared instant from
one loop event, as :class:`repro.core.heartbeat.HeartbeatCohort` fires the
agents' beats.  Every timer due at an instant is an occurrence of that
instant's :class:`InstantRun` — an :class:`~repro.sim.events.EventSeries`
at one time — under the sequence number its own event would have taken
when it was armed, so each fires exactly where a timer event of its own
would have fired, in the loop's ``(time, seq)`` order.  While an instant
fires, the bus holds the messages its timers send
(:meth:`repro.cluster.network.MessageBus.hold`): they leave as one
delivery run, and their destinations fold the arrivals that change
nothing (``absorb_message``).  DESIGN.md, "The job plane: grid, cohorts,
roll-up", has the argument that this is exact.
"""

from __future__ import annotations

from math import ceil
from typing import Any, Callable, Dict, List

#: the offset of the job masters' grid: half a second away from the whole
#: seconds the agents built at t = 0 beat on, so the job plane's deliveries
#: do not land among theirs
GRID_PHASE = 0.5


def grid_instant(now: float, interval: float,
                 phase: float = GRID_PHASE) -> float:
    """The first instant ``phase + k * interval`` at least one full
    interval after ``now``."""
    when = phase + ceil((now + interval - phase) / interval) * interval
    if when < now + interval:
        when += interval
    return when


class InstantRun:
    """Occurrences at one instant, each under the sequence number an event
    of its own would have taken: the items of one
    :class:`~repro.sim.events.EventSeries`, added until it fires.

    :meth:`add` takes the item's sequence number where ``call_at(when,
    ...)`` would have taken it; the first item schedules the series.
    Subclasses handle the items in :meth:`consume`, under the series'
    contract.
    """

    __slots__ = ("loop", "when", "items", "times", "seqs")

    def __init__(self, loop: Any, when: float):
        self.loop = loop
        self.when = when
        self.items: List[Any] = []
        self.times: List[float] = []
        self.seqs: List[int] = []

    def add(self, item: Any) -> None:
        loop = self.loop
        self.items.append(item)
        self.times.append(self.when)
        self.seqs.append(loop.reserve_seqs(1))
        if len(self.items) == 1:
            loop.call_series(self.times, self.seqs, self.consume)

    def consume(self, start: int, end: int) -> int:  # pragma: no cover
        raise NotImplementedError


class GridTimer:
    """One periodic timer on the grid: what ``Actor._timers`` holds for it.

    Like the :class:`~repro.sim.events.Event` a periodic timer used to
    hold, it is cancelled with :meth:`cancel`, and a cancelled one lets go
    of its actor and callbacks at once.  One object serves every firing.
    """

    __slots__ = ("owner", "key", "phase", "callback")

    def __init__(self, owner: Any, key: str, phase: float,
                 callback: Callable[[], None]):
        self.owner = owner
        self.key = key
        self.phase = phase
        self.callback = callback

    def cancel(self) -> None:
        self.owner = None
        self.callback = None


class _GridInstant(InstantRun):
    """The timers due at one grid instant, in sequence-number order."""

    __slots__ = ("grid",)

    def __init__(self, grid: "PhaseGrid", when: float):
        super().__init__(grid.loop, when)
        self.grid = grid

    def consume(self, start: int, end: int) -> int:
        """Fire the timers ``[start, end)`` in order, each as
        ``_PeriodicChain.__call__`` fires a periodic timer: take the timer
        out of its actor's books, run it, and re-arm it at the next grid
        instant if the actor still wants it.

        The bus holds what the timers send, and sends it when the chunk
        is done, as one delivery run.  A cancelled timer fires nothing:
        its occurrence is taken back from ``events_absorbed``, as a
        cancelled event is never executed.
        """
        grid = self.grid
        loop, bus = grid.loop, grid.bus
        timers = self.items
        when = self.when
        #: (interval, phase) -> the instant its timers re-arm at
        next_runs: Dict[tuple, InstantRun] = {}
        cancelled = 0
        bus.hold()
        try:
            for index in range(start, end):
                timer = timers[index]
                owner = timer.owner
                if owner is None:
                    cancelled += 1
                    continue
                key = timer.key
                books = owner._timers
                books.pop(key, None)
                timer.callback()
                interval = owner._periodic.get(key)
                if (interval is not None and owner.alive
                        and key not in books):
                    books[key] = timer
                    slot = (interval, timer.phase)
                    run = next_runs.get(slot)
                    if run is None:
                        run = next_runs[slot] = grid.instant(
                            grid_instant(when, interval, timer.phase))
                    run.add(timer)
        finally:
            bus.release()
        if cancelled:
            loop.events_absorbed -= cancelled
        if end == len(timers):
            # the instant is over: nothing joins it any more (a timer armed
            # now fires one interval out at the earliest)
            del grid.instants[when]
        return end


class PhaseGrid:
    """The pending grid instants of one message bus, by time."""

    __slots__ = ("loop", "bus", "instants")

    def __init__(self, loop: Any, bus: Any):
        self.loop = loop
        self.bus = bus
        self.instants: Dict[float, _GridInstant] = {}

    def instant(self, when: float) -> InstantRun:
        run = self.instants.get(when)
        if run is None:
            run = self.instants[when] = _GridInstant(self, when)
        return run

    def arm(self, owner: Any, key: str, interval: float, phase: float,
            callback: Callable[[], None]) -> GridTimer:
        """A timer firing ``callback`` on ``interval``'s ``phase`` grid,
        first at the first instant one full interval from now."""
        timer = GridTimer(owner, key, phase, callback)
        self.instant(grid_instant(self.loop.now, interval, phase)).add(timer)
        return timer
