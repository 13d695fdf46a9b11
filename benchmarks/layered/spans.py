"""Span tracing from outside the program: wrappers at the layer boundaries.

``LayerTracer.install()`` replaces the layers' entry points (class
attributes, so it must run before the cluster is built: actors bind timer
callbacks at construction) with wrappers that keep a span stack.  A span
is name, layer, start, end and parent; a boundary's **self time** is its
duration minus the time of the spans it called.  Everything a boundary
runs that is not itself wrapped counts as that boundary's self time, so
the layers' self times add up to the traced wall.

Hot boundaries (the event loop's ``step`` fires a million times a run)
are only aggregated, per boundary and per caller->callee edge.  The
boundaries of ``KEPT_LAYERS`` / ``KEPT_NAMES`` fire at most a few
ten-thousand times a run; their individual spans are kept in memory and
written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro._runtime import _ClusterServices
from repro.cluster.network import MessageBus
from repro.core.agent import FuxiAgent
from repro.core.appmaster import ApplicationMaster
from repro.core.grant import AllocationLedger
from repro.core.health import HealthMonitor
from repro.core.locality import LocalityTree
from repro.core.master import FuxiMaster
from repro.core.pool import FreeResourcePool
from repro.core.protocol import StreamHub
from repro.core.scheduler import FuxiScheduler
from repro.jobs.jobmaster import DagJobMaster
from repro.jobs.worker import TaskWorker
from repro.kernels.heartbeat import NumpyTimeColumn, PyTimeColumn
from repro.sim.actor import Actor
from repro.sim.events import EventLoop

import driver

LAYERS = ("sim", "network", "agent", "master", "protocol", "scheduler",
          "locality", "pool", "ledger", "health", "jobs", "driver")

#: layer -> [(class, method names)]: the boundaries that get a wrapper
BOUNDARIES: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "sim": [
        (EventLoop, ("run_until", "step", "call_at")),
        (Actor, ("set_timer", "set_periodic_timer", "cancel_timer",
                 "cancel_all_timers")),
    ],
    "network": [(MessageBus, ("send", "_deliver"))],
    "agent": [(FuxiAgent, ("handle_message", "_send_heartbeat",
                           "_finish_launch", "_apply_allocation_delta",
                           "_apply_allocation_full"))],
    "master": [(FuxiMaster, ("handle_message", "submit_job",
                             "_check_liveness", "_renew",
                             "_apply_app_payload", "_apply_app_full_state",
                             "_become_primary", "_finish_recovery",
                             "on_crash"))],
    "protocol": [(StreamHub, ("send_delta", "send_full", "on_envelope",
                              "on_ack", "retransmit_pending", "drop_peer"))],
    "scheduler": [(FuxiScheduler, (
        "apply_request_delta", "return_resource", "machine_event",
        "schedule_all_machines", "unregister_app", "add_machine",
        "remove_machine", "restore_allocation", "define_unit"))],
    "locality": [(LocalityTree, ("index", "remove",
                                 "candidates_for_machine"))],
    "pool": [(FreeResourcePool, ("allocate", "release", "max_units",
                                 "best_fit_machines", "add_machine",
                                 "remove_machine"))],
    "ledger": [(AllocationLedger, (
        "apply", "set_count", "count", "total_units", "machine_digest",
        "drop_app", "drop_machine", "entries_for_app",
        "entries_for_machine"))],
    "health": [
        (HealthMonitor, ("record_sample", "unavailable_machines")),
        (NumpyTimeColumn, ("set", "pop", "stale", "elapsed_at_least")),
        (PyTimeColumn, ("set", "pop", "stale", "elapsed_at_least")),
    ],
    "jobs": [
        (ApplicationMaster, ("handle_message", "_send_heartbeat",
                             "_periodic_full_sync", "_flush_coalesced",
                             "_apply_grant_delta", "_apply_grant_full")),
        (DagJobMaster, ("_housekeeping", "_schedule_ready_tasks")),
        (TaskWorker, ("handle_message", "_finish", "_report")),
        (_ClusterServices, ("handle_message",)),
    ],
    "driver": [(driver.ClosedLoop, ("_slice", "_reap", "_submit_owed",
                                    "_collect"))],
}

#: generator entry points: every resumption is one piece of the span
GENERATORS = {"LocalityTree.candidates_for_machine",
              "AllocationLedger.entries_for_app",
              "AllocationLedger.entries_for_machine"}

#: boundaries whose individual spans are kept (cold: < ~50 k calls a run)
KEPT_LAYERS = {"scheduler", "driver"}
KEPT_NAMES = {"FuxiMaster._become_primary", "FuxiMaster._finish_recovery",
              "FuxiMaster.on_crash", "FuxiMaster._check_liveness"}

_MAX_DEPTH = 512
perf = time.perf_counter


class Boundary:
    """Aggregate of one wrapped entry point."""

    __slots__ = ("index", "name", "layer", "calls", "self_s", "total_s",
                 "callers")

    def __init__(self, index: int, name: str, layer: str):
        self.index = index
        self.name = name
        self.layer = layer
        #: caller boundary index (-1 = the harness) -> [calls, seconds]
        self.callers: Dict[int, list] = {}
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.callers.clear()  # in place: the wrappers hold this dict


class LayerTracer:
    """Installs the wrappers, holds the span stack and the aggregates."""

    def __init__(self) -> None:
        self.boundaries: List[Boundary] = []
        self.spans: List[tuple] = []
        self._originals: List[Tuple[type, str, Callable]] = []
        # per stack depth: seconds spent in child spans / boundary index /
        # id of the kept span open at that depth (0 = none)
        self._child = [0.0] * _MAX_DEPTH
        self._who = [-1] * _MAX_DEPTH
        self._kept = [0] * _MAX_DEPTH
        self._depth = [0]
        self._next_id = [1]
        #: sim-time probes for master.failover_sim_s_max
        self.primary_crashed_at: Optional[float] = None
        self.failover_sim_s: List[float] = []

    # ------------------------------------------------------------------ #

    def install(self) -> None:
        for layer, entries in BOUNDARIES.items():
            for cls, names in entries:
                for name in names:
                    original = cls.__dict__[name]
                    label = f"{cls.__name__}.{name}"
                    boundary = Boundary(len(self.boundaries), label, layer)
                    self.boundaries.append(boundary)
                    keep = layer in KEPT_LAYERS or label in KEPT_NAMES
                    if label in GENERATORS:
                        wrapper = self._wrap_generator(original, boundary)
                    else:
                        wrapper = self._wrap(original, boundary, keep)
                    wrapper.__name__ = name
                    self._originals.append((cls, name, original))
                    setattr(cls, name, wrapper)
        self._probe_failovers()

    def uninstall(self) -> None:
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)

    def reset(self) -> None:
        """Forget what set-up recorded; the window starts from zero."""
        for boundary in self.boundaries:
            boundary.reset()
        self.spans.clear()
        self._child[0] = 0.0
        self.failover_sim_s.clear()

    # ------------------------------------------------------------------ #

    def _wrap(self, fn: Callable, boundary: Boundary, keep: bool) -> Callable:
        child, who, kept = self._child, self._who, self._kept
        depth, next_id, spans = self._depth, self._next_id, self.spans
        index = boundary.index
        callers = boundary.callers

        def wrapper(*args, **kwargs):
            d = depth[0] + 1
            depth[0] = d
            child[d] = 0.0
            who[d] = index
            if keep:
                span_id = next_id[0]
                next_id[0] = span_id + 1
                parent = kept[d - 1]
                kept[d] = span_id
            else:
                kept[d] = kept[d - 1]
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                depth[0] = d - 1
                spent = end - start
                boundary.calls += 1
                boundary.self_s += spent - child[d]
                boundary.total_s += spent
                child[d - 1] += spent
                edge = callers.get(who[d - 1])
                if edge is None:
                    callers[who[d - 1]] = [1, spent]
                else:
                    edge[0] += 1
                    edge[1] += spent
                if keep:
                    spans.append((span_id, parent, index, who[d - 1],
                                  start, end))

        return wrapper

    def _wrap_generator(self, fn: Callable, boundary: Boundary) -> Callable:
        child, who, kept = self._child, self._who, self._kept
        depth = self._depth
        index = boundary.index
        callers = boundary.callers

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            boundary.calls += 1
            edge = callers.setdefault(who[depth[0]], [0, 0.0])
            edge[0] += 1
            while True:
                d = depth[0] + 1
                depth[0] = d
                child[d] = 0.0
                who[d] = index
                kept[d] = kept[d - 1]
                start = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    spent = perf() - start
                    depth[0] = d - 1
                    boundary.self_s += spent - child[d]
                    boundary.total_s += spent
                    child[d - 1] += spent
                    edge[1] += spent
                yield item

        return wrapper

    def _probe_failovers(self) -> None:
        """Time each failover in simulated seconds: from the primary's
        crash to the end of the new primary's recovery window."""
        tracer = self
        crash = FuxiMaster.on_crash
        recovered = FuxiMaster._finish_recovery

        def on_crash(master):
            if master.role == "primary":
                tracer.primary_crashed_at = master.loop.now
            return crash(master)

        def _finish_recovery(master):
            result = recovered(master)
            if tracer.primary_crashed_at is not None:
                tracer.failover_sim_s.append(
                    master.loop.now - tracer.primary_crashed_at)
                tracer.primary_crashed_at = None
            return result

        FuxiMaster.on_crash = on_crash
        FuxiMaster._finish_recovery = _finish_recovery

    # ------------------------------------------------------------------ #

    @property
    def traced_s(self) -> float:
        """Seconds inside top-level spans since the last reset."""
        return self._child[0]

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for boundary in self.boundaries:
            row = out[boundary.layer]
            row["calls"] += boundary.calls
            row["self_s"] += boundary.self_s
        return out

    def calls(self, label: str) -> int:
        return sum(b.calls for b in self.boundaries if b.name == label)

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, the per-boundary and per-edge aggregates, then
        every kept span (times relative to the first kept span)."""
        names = [b.name for b in self.boundaries]
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"kind": "header", **header}) + "\n")
            for b in self.boundaries:
                if not b.calls:
                    continue
                out.write(json.dumps({
                    "kind": "boundary", "name": b.name, "layer": b.layer,
                    "calls": b.calls, "self_s": round(b.self_s, 6),
                    "total_s": round(b.total_s, 6)}) + "\n")
                for caller, (calls, seconds) in sorted(b.callers.items()):
                    out.write(json.dumps({
                        "kind": "edge",
                        "caller": names[caller] if caller >= 0 else "harness",
                        "callee": b.name, "calls": calls,
                        "total_s": round(seconds, 6)}) + "\n")
            for span_id, parent, index, caller, start, end in self.spans:
                b = self.boundaries[index]
                out.write(json.dumps({
                    "kind": "span", "id": span_id, "parent": parent or None,
                    "name": b.name, "layer": b.layer,
                    "caller": names[caller] if caller >= 0 else "harness",
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7)}) + "\n")
