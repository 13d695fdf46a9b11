"""Generational-GC isolation for latency-sensitive simulation runs.

At paper scale (5,000 machines) the simulator's heap holds millions of
long-lived objects — machine books, shape indexes, actor state.  CPython's
generation-2 collections scan all of them and take hundreds of milliseconds,
and whichever scheduling decision such a pause lands inside inherits it:
the ``schedule_ms`` p100 measured a GC stall, not scheduling work.

Two helpers, for the two phases of a run:

- **Set-up** (:func:`paused_gc`).  Building a cluster allocates its whole
  heap at once and frees almost nothing, so every automatic collection on
  the way re-scans a heap that only grew: about 0.5 s of a 20,000-machine
  build and warm-up.  ``ClusterBuilder.build`` and ``FuxiCluster.warm_up``
  therefore run with automatic collection paused and restore whatever
  state the collector was in.  Nothing is frozen: a cluster that is built
  and then dropped without ever running (the layered harness builds
  several per run) is still reclaimed by the next collection.
- **The run** (:func:`deferred_gc`).  The timed window freezes the heap it
  starts with (``gc.freeze``) into the permanent generation, so no
  collection re-scans it, and disables automatic collection for the
  window; the driver calls :func:`collect_young` *between* event-loop
  slices, reclaiming young cyclic garbage at a moment nobody is timing.
  On exit the heap is thawed and collected in full.

Dead acyclic objects — the overwhelming bulk of per-event garbage — are
refcount-freed immediately regardless, and that includes every reaped
job: ``reap_job`` disposes the job master, whose cancelled timers drop
their callbacks at once, so the whole job graph is freed by reference
counting at the reap (``tests/unit/test_reaped_job.py``).  Only cyclic
garbage that survives two young collections promotes and waits for the
full collection on exit, so a job graph that needed the cyclic
collector would stay in memory for the rest of the window.

GC scheduling has no effect on simulation results: event order and rng
draws are independent of when memory is reclaimed.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause automatic collection for the block, then restore the
    collector's prior enabled state.  Also usable as a decorator."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def deferred_gc(enabled: bool = True) -> Iterator[None]:
    """Freeze the current heap and defer automatic collection.

    On exit the collector is restored to its prior enabled state, the
    permanent generation is thawed, and a full collection reclaims
    everything the run deferred.
    """
    if not enabled:
        yield
        return
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()
        gc.collect()


def collect_young() -> None:
    """Collect the young generations (0 and 1) only.

    Call between event-loop slices: it reclaims fresh cyclic garbage in a
    few milliseconds without touching the old generation, keeping memory
    flat while never stalling a timed code path.
    """
    gc.collect(1)
