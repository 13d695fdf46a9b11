"""Comparator policies on the Fuxi substrate (paper §6 + PAPERS.md).

Each class here is a :class:`repro.core.policy.SchedulerPolicy` running on
the *same* fit-indexed pool, ledger, digest sync and event-loop substrate
as Fuxi itself — only the decision surface differs, so the arena benchmark
(``benchmarks/bench_arena.py``) compares policies, not bookkeeping
implementations.  The design ablations drive these same classes through
:class:`~repro.core.scheduler.FuxiScheduler`; there is no second
implementation of any comparator.

Every policy is deterministic: its soft state is a pure function of the
grant/revoke/return stream, which itself is a pure function of (spec,
seed), so same-seed runs are byte-identical per policy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.policy import SchedulerPolicy, register_policy
from repro.core.request import WaitingDemand
from repro.core.resources import ResourceVector
from repro.core.units import ScheduleUnit


@register_policy
class YarnPolicy(SchedulerPolicy):
    """YARN-like: heartbeat-paced allocation over one global request list.

    Requests are never placed on arrival — they wait until a node
    heartbeat offers that node's free space (the YARN NodeManager
    heartbeat allocation cycle).  No locality tree (all demand is
    "anywhere"), no preemption.  Time-to-allocation therefore carries at
    least one heartbeat period, which is exactly the latency gap the
    paper's incremental scheduling closes.
    """

    name = "yarn"
    use_hints = False
    place_on_request = False
    heartbeat_paced = True
    enable_preemption = False


@register_policy
class MesosPolicy(SchedulerPolicy):
    """Mesos-like: two-level exclusive resource offers in fair turns.

    Each node heartbeat is an *offer*: the first framework (application)
    to take from it owns the rest of that offer round
    (``exclusive_event``).  Offers visit frameworks in
    least-currently-held order — the dominant-share rotation of the DRF
    allocator, tracked from the grant/revoke stream — so a framework
    that hoards falls to the back of the offer queue.
    """

    name = "mesos"
    use_hints = False
    place_on_request = False
    heartbeat_paced = True
    exclusive_event = True
    enable_preemption = False

    def __init__(self) -> None:
        super().__init__()
        self._held: Dict[str, int] = {}

    def effective_priority(self, unit: ScheduleUnit,
                           demand: WaitingDemand) -> int:
        # Fewest units currently held → first offer (FIFO tie-break via
        # the queue's submit_seq).
        return self._held.get(unit.app_id, 0)

    def on_grant(self, unit: ScheduleUnit, machine: str, count: int) -> None:
        self._held[unit.app_id] = self._held.get(unit.app_id, 0) + count

    def on_revoke(self, unit: ScheduleUnit, machine: str, count: int) -> None:
        self._held[unit.app_id] = max(0, self._held.get(unit.app_id, 0) - count)

    def on_return(self, unit: ScheduleUnit, machine: str, count: int) -> None:
        self.on_revoke(unit, machine, count)

    def on_app_exit(self, app_id: str) -> None:
        self._held.pop(app_id, None)


@register_policy
class Hadoop10Policy(SchedulerPolicy):
    """Hadoop-1.0-like: single-master global recompute, name-order first fit.

    "A naive approach of delegating every decision to a single master":
    every free-up rescans *every* machine's queues
    (``global_recompute``), and cluster-wide placement walks machines in
    name order taking the first fit instead of consulting the best-fit
    index.  Correct, locality-blind, and a pass over every machine per
    event — the cost model the paper's incremental design is measured
    against (ablation B).
    """

    name = "hadoop10"
    use_hints = False
    global_recompute = True
    enable_preemption = False

    def rank_anywhere(self, unit: ScheduleUnit, wanted: int,
                      budget: int) -> Iterable[Tuple[str, int]]:
        pool = self.scheduler.pool
        out: List[Tuple[str, int]] = []
        for machine in pool.schedulable_machines():
            units = pool.max_units(machine, unit.resources)
            if units > 0:
                out.append((machine, units))
                if len(out) >= budget:
                    break
        return out


@register_policy
class SizeBasedPolicy(SchedulerPolicy):
    """HFSP-style size-based scheduling: shortest remaining work first.

    After *Practical Size-based Scheduling for MapReduce Workloads*
    (PAPERS.md): a job's size is unknown at submit, so each app starts in
    a fixed-priority *training* tier until ``sample_min`` of its
    instances have completed; from then on its estimated remaining work
    (outstanding demand + still-running units, log2-bucketed) sets its
    rank — small jobs overtake large ones.  A deterministic aging credit
    (one bucket per ``aging_events`` scheduling events the app has
    waited through) bounds starvation of the large jobs.
    """

    name = "size-based"
    enable_preemption = False

    #: completed instances needed before the size estimate is trusted
    sample_min = 3
    #: rank of the not-yet-estimated training tier (between the buckets
    #: of small (<64 units) and large jobs, as HFSP's training queue sits
    #: mid-band)
    training_priority = 56
    #: scheduling events per one-bucket aging credit
    aging_events = 256

    def __init__(self) -> None:
        super().__init__()
        self._completed: Dict[str, int] = {}   # finished instances per app
        self._live: Dict[str, int] = {}        # granted, still running
        self._first_seen: Dict[str, int] = {}  # logical clock at first rank
        self._clock = 0                        # grant/return/revoke events

    def effective_priority(self, unit: ScheduleUnit,
                           demand: WaitingDemand) -> int:
        app = unit.app_id
        self._first_seen.setdefault(app, self._clock)
        if self._completed.get(app, 0) < self.sample_min:
            base = self.training_priority
        else:
            remaining = demand.total + self._live.get(app, 0)
            base = max(remaining, 1).bit_length() * 8
        age = self._clock - self._first_seen[app]
        return max(0, base - age // self.aging_events)

    def on_grant(self, unit: ScheduleUnit, machine: str, count: int) -> None:
        self._clock += 1
        app = unit.app_id
        self._live[app] = self._live.get(app, 0) + count

    def on_return(self, unit: ScheduleUnit, machine: str, count: int) -> None:
        self._clock += 1
        app = unit.app_id
        self._live[app] = max(0, self._live.get(app, 0) - count)
        self._completed[app] = self._completed.get(app, 0) + count

    def on_revoke(self, unit: ScheduleUnit, machine: str, count: int) -> None:
        # Revoked (not finished) units return to the remaining-work side.
        self._clock += 1
        app = unit.app_id
        self._live[app] = max(0, self._live.get(app, 0) - count)

    def on_app_exit(self, app_id: str) -> None:
        self._completed.pop(app_id, None)
        self._live.pop(app_id, None)
        self._first_seen.pop(app_id, None)


@register_policy
class FractionalPolicy(SchedulerPolicy):
    """DFRS-style fractional allocation: time-shared CPU, hard memory.

    After *Dynamic Fractional Resource Scheduling vs. Batch Scheduling*
    (PAPERS.md): instances time-share the CPU instead of reserving whole
    cores, so each unit's CPU demand is booked at ``cpu_share`` of its
    nominal request while memory — which cannot be oversubscribed — stays
    the hard constraint.  At the paper's instance shape ({0.5 core,
    2 GB}) this makes memory strictly binding on every machine, raising
    packing density at the cost of CPU contention the simulator charges
    nowhere (the optimistic end of the DFRS trade-off).
    """

    name = "fractional"
    enable_preemption = False

    #: booked fraction of each unit's nominal CPU request
    cpu_share = 0.5

    def transform_unit(self, unit: ScheduleUnit) -> ScheduleUnit:
        dims = unit.resources.as_dict()
        cpu = dims.get("cpu", 0.0)
        if cpu <= 0:
            return unit
        dims["cpu"] = round(cpu * self.cpu_share, 6)
        return ScheduleUnit(app_id=unit.app_id, slot_id=unit.slot_id,
                            resources=ResourceVector(dims),
                            priority=unit.priority,
                            max_count=unit.max_count)


__all__ = ["YarnPolicy", "MesosPolicy", "Hadoop10Policy",
           "SizeBasedPolicy", "FractionalPolicy"]
