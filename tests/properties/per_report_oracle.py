"""The job plane on the phase grid as it was before its instants were
fired as cohorts: the oracle ``test_job_plane_differential.py`` drives the
grid instants, held sends and roll-ups against.

At that commit every grid timer — a worker's ``report``, an application
master's ``am-heartbeat`` and ``retransmit``, a JobMaster's
``housekeeping`` — was a periodic timer event of its own, re-armed by a
``_PeriodicChain`` at the next grid instant, and every report and AM
heartbeat a message with a delivery event of its own, handled by
``handle_message``.  The bodies below are that commit's, kept verbatim:

- :class:`_PeriodicChain`, :func:`grid_instant` and ``GRID_PHASE``
  (``repro/sim/actor.py``);
- ``set_grid_timer`` (:class:`PerTimerGrid`, ``Actor``'s method then);
- ``TaskWorker._report`` (:class:`PerReportWorker`) and
  ``ApplicationMaster._send_heartbeat`` (:class:`PerTimerJobMaster`,
  :class:`PerTimerServiceMaster`).

Slow and obviously per-timer.  Do not "tidy" the copied bodies; their
value is that they are the old code.
"""

from __future__ import annotations

import contextlib
from math import ceil
from typing import Callable, Iterator, Optional

import repro._runtime as runtime
import repro.jobs.service as service
from repro.core import messages as msg
from repro.jobs.jobmaster import DagJobMaster
from repro.jobs.service import ServiceMaster
from repro.jobs.worker import TaskWorker, WorkerStatusReport
from repro.sim.actor import EMPTY

#: the offset of the job plane's phase grid: a timer armed with
#: :meth:`Actor.set_grid_timer` fires at ``phase + k * interval``.  The job
#: masters' timers take this one: half a second away from the whole seconds
#: the agents built at t = 0 beat on, so the job plane's deliveries do not
#: land among theirs (DESIGN.md, "The job plane: grid, cohorts, roll-up").
GRID_PHASE = 0.5


def grid_instant(now: float, interval: float,
                 phase: float = GRID_PHASE) -> float:
    """The first instant ``phase + k * interval`` at least one full
    interval after ``now``."""
    when = phase + ceil((now + interval - phase) / interval) * interval
    if when < now + interval:
        when += interval
    return when


class _PeriodicChain:
    """Re-arming callback for one periodic-timer registration.

    A plain object rather than a self-referential closure: a closure that
    re-schedules itself stays alive through its own cell — a cycle only the
    cyclic GC can reclaim.  One such cycle per timer of every finished
    actor made dead job graphs un-freeable by reference counting and grew
    the gen-2 collection pause that paper-scale p100 latency measured.
    This object participates only in cycles that run through the actor's
    ``_timers`` dict, which :meth:`Actor.cancel_all_timers` breaks.
    """

    __slots__ = ("owner", "key", "callback", "phase")

    def __init__(self, owner: "Actor", key: str,
                 callback: Callable[[], None],
                 phase: Optional[float] = None):
        self.owner = owner
        self.key = key
        self.callback = callback
        #: the phase grid it re-arms on (Actor.set_grid_timer), or None
        self.phase = phase

    def __call__(self) -> None:
        owner = self.owner
        timers = owner._timers
        key = self.key
        timers.pop(key, None)
        self.callback()
        interval = owner._periodic.get(key)
        # ``key not in timers``: the callback may have re-registered the
        # timer (new chain, possibly new interval) — that chain wins.
        if interval is not None and owner.alive and key not in timers:
            loop = owner.loop
            when = (loop.now + interval if self.phase is None
                    else grid_instant(loop.now, interval, self.phase))
            timers[key] = loop.call_at(when, self, recycle=True)


class PerTimerGrid:
    """``Actor.set_grid_timer`` with a timer event per grid timer."""

    def set_grid_timer(self, key: str, interval: float,
                       callback: Callable[[], None],
                       phase: float = GRID_PHASE) -> None:
        """:meth:`set_periodic_timer` on a phase grid: the first firing is
        the first instant ``phase + k * interval`` at least one interval
        from now, and every firing after it is the next grid instant.
        Paper §4.3 gives the job plane's periodic traffic a period, not a
        phase; a shared phase lets every timer of one interval fire in the
        same instant."""
        timers = self._timers
        if timers is EMPTY:
            timers = self._make_timer_books()
        self._periodic[key] = interval
        previous = timers.pop(key, None)
        if previous is not None:
            previous.cancel()
        timers[key] = self.loop.call_at(
            grid_instant(self.loop.now, interval, phase),
            _PeriodicChain(self, key, callback, phase), recycle=True)


class PerReportWorker(PerTimerGrid, TaskWorker):
    """TaskWorker whose every report is a timer and a message."""

    def _report(self) -> None:
        running_for = 0.0
        if self.current_instance is not None:
            running_for = self.loop.now - self.instance_started_at
        self.send(self.master_address, WorkerStatusReport(
            self.worker_id, self.machine, self.current_instance,
            running_for, self.last_completed))


class PerTimerJobMaster(PerTimerGrid, DagJobMaster):
    """DagJobMaster whose every grid timer is an event of its own."""

    def _send_heartbeat(self) -> None:
        if not self.finished:
            self.send(self.config.master_address, msg.AppHeartbeat(self.app_id))


class PerTimerServiceMaster(PerTimerGrid, ServiceMaster):
    """ServiceMaster whose every grid timer is an event of its own."""

    def _send_heartbeat(self) -> None:
        if not self.finished:
            self.send(self.config.master_address, msg.AppHeartbeat(self.app_id))


@contextlib.contextmanager
def per_report_plane() -> Iterator[None]:
    """Clusters built inside the block run the classes above: workers,
    job masters and service masters with a timer event per grid timer."""
    swaps = [(runtime, "TaskWorker", PerReportWorker),
             (runtime, "DagJobMaster", PerTimerJobMaster),
             (service, "ServiceMaster", PerTimerServiceMaster)]
    originals = [(module, name, getattr(module, name))
                 for module, name, _ in swaps]
    for module, name, oracle in swaps:
        setattr(module, name, oracle)
    try:
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
