"""The FuxiMaster scheduling core (paper §3).

:class:`FuxiScheduler` is a *synchronous, pure* object: it holds the free
resource pool, the locality tree, the allocation ledger, quota accounting and
the preemption planner, and turns supply/demand events into grant decisions.
It knows nothing about actors, messages or time — :class:`repro.core.master.
FuxiMaster` wraps it with the incremental protocol and failover.  Keeping the
core synchronous is what lets the Figure-9 benchmark time a scheduling
decision directly.

Event → work mapping (the incremental scheduling idea, §3.1):

- ``apply_request_delta`` — fold a demand delta in, then try to place only
  *that* demand;
- ``release`` / ``return`` — free resources on one machine, then consult only
  the three queues on that machine's locality path;
- machine add/remove — likewise machine-local.

No event ever recomputes the global assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Set, Tuple

from repro.config import ConfigBase, conf
from repro.core.grant import AllocationLedger, Grant
from repro.core.locality import PASS, REREAD, RESTART, LocalityTree
from repro.core.policy import SchedulerPolicy, create_policy
from repro.core.pool import FreeResourcePool
from repro.core.preemption import PreemptionPlanner
from repro.core.quota import DEFAULT_GROUP, QuotaManager
from repro.core.request import LocalityLevel, RequestDelta, WaitingDemand
from repro.core.resources import ResourceVector
from repro.core.units import ScheduleUnit, UnitKey, UnitRegistry
from repro.obs.tracer import NULL_TRACER


@dataclass(kw_only=True)
class SchedulerConfig(ConfigBase):
    """Knobs for the scheduling core (keyword-only, validated).

    Whether §3.4 preemption runs at all is the policy's decision
    (:attr:`SchedulerPolicy.enable_preemption`), not a knob here.

    Attributes:
        preemption_scan_limit: how many machines to consider as preemption
            sites for one starved request (bounds worst-case planning work).
        schedule_scan_limit: stop serving a machine's queues after passing
            over this many consecutive waiting entries the event cannot
            serve — no fit, at ``max_count`` or over quota (bounds per-event
            work under pathological unit-size mixes; demands at their
            ``max_count`` still count toward it, see DESIGN.md "Known
            defects").  A passed-over entry stays where it is queued; the
            waiting-shape census ends the walk as soon as nothing waiting
            fits what is free.
        place_scan_limit: cap on machines taken from the cluster-wide fit
            ranking for one placement decision.  ``wanted + len(avoid)``
            machines provably suffice for an exact result (every ranked
            machine fits ≥1 unit, so it either grants or a *global* limit —
            quota/max_count — has been hit), so the cap only clips
            pathological requests wanting more units than this in one delta;
            those pick their remaining units up from _schedule_machine as
            resources free.  Bounds the scheduling-latency tail (p100).
    """

    preemption_scan_limit: int = conf(
        20, min=1, help="machines considered as preemption sites per "
                        "starved request")
    schedule_scan_limit: int = conf(
        64, min=1, help="consecutive unservable waiting entries passed "
                        "over per machine event")
    place_scan_limit: int = conf(
        512, min=1, help="machines taken from the cluster-wide ranking "
                         "per placement decision")
    policy: str = conf(
        "fuxi", help="scheduling policy (a repro.core.policy registry "
                     "name; see known_policies())")


@dataclass
class ScheduleStats:
    """Counters the experiments read.

    ``machine_local`` / ``rack_local`` / ``cluster_wide`` break
    ``units_granted`` down by the locality level each grant was served at
    (paper §3.3's three queues) — the tracing layer exports the same split
    per decision span.  ``units_granted_by_app`` is the same total broken
    down per application (benchmark sampling reads it between steps).
    """

    decisions: int = 0
    grants_issued: int = 0
    units_granted: int = 0
    units_revoked: int = 0
    preemptions: int = 0
    machine_local: int = 0
    rack_local: int = 0
    cluster_wide: int = 0
    units_granted_by_app: Dict[str, int] = field(default_factory=dict)

    def copy(self) -> "ScheduleStats":
        """A detached snapshot: the nested counter dict is copied, so callers
        sampling stats mid-run can never alias live scheduler state.  (A
        plain dict() suffices — keys are strings, values ints; the generic
        deepcopy this replaces dominated benchmark sampling.)"""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["units_granted_by_app"] = dict(self.units_granted_by_app)
        return ScheduleStats(**data)


class FuxiScheduler:
    """Free pool + locality tree + quota + preemption, driven by events."""

    def __init__(self, config: Optional[SchedulerConfig] = None,
                 quota: Optional[QuotaManager] = None, tracer=None,
                 policy: Optional[SchedulerPolicy] = None):
        self.config = config or SchedulerConfig()
        self.policy = policy or create_policy(self.config.policy)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._decision_mark: Optional[Tuple[int, ...]] = None
        self.pool = FreeResourcePool()
        self.tree = LocalityTree()
        self.ledger = AllocationLedger()
        self.units = UnitRegistry()
        self.quota = quota or QuotaManager()
        self.stats = ScheduleStats()
        self._demands: Dict[UnitKey, WaitingDemand] = {}
        # app -> its waiting-demand keys (ordered set), so app exit walks
        # only the exiting app's demands instead of every app's
        self._demand_keys_of: Dict[str, Dict[UnitKey, None]] = {}
        self._rack_machines: Dict[str, List[str]] = {}
        self._machine_rack: Dict[str, str] = {}
        self._apps: Set[str] = set()
        self._seq = 0
        # Waiting-shape census: resource shape -> number of non-empty
        # waiting demands of that shape, and the shape each demand is
        # counted under.  Changed only by _count_waiting.  A machine event
        # whose free vector fits no census shape cannot grant anything.
        self._waiting_shapes: Dict[ResourceVector, int] = {}
        self._counted_shape: Dict[UnitKey, ResourceVector] = {}
        # The early exit skips pop/reject/re-push rounds, and the machine-
        # event walk passes over rejected entries instead of doing them:
        # both are no-ops only while a re-push cannot move an entry in its
        # queue, i.e. while the policy keeps the base effective_priority.
        self._exact_exit = (type(self.policy).effective_priority
                            is SchedulerPolicy.effective_priority)
        self._preemption = PreemptionPlanner(self.quota, self.units.get)
        self.policy.attach(self)
        # (group -> priority -> granted units) so the preemption pre-check
        # can tell in O(1) whether any lower-priority victim exists at all.
        self._granted_prio: Dict[str, Dict[int, int]] = {}

    # ------------------------------------------------------------------ #
    # decision tracing
    # ------------------------------------------------------------------ #

    def _begin_decision(self, kind: str, **attrs):
        """Open a ``sched.decision`` span (None when tracing is off).

        Decisions never nest (the scheduler is synchronous), so one saved
        stats mark is enough to compute the per-decision deltas at close.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return None
        stats = self.stats
        self._decision_mark = (stats.machine_local, stats.rack_local,
                               stats.cluster_wide, stats.units_granted,
                               stats.units_revoked, stats.preemptions)
        return tracer.start_span("sched.decision", kind=kind, **attrs)

    def _end_decision(self, span) -> None:
        if span is None:
            return
        m0, r0, c0, g0, v0, p0 = self._decision_mark
        stats = self.stats
        self.tracer.end_span(
            span,
            machine=stats.machine_local - m0,
            rack=stats.rack_local - r0,
            cluster=stats.cluster_wide - c0,
            granted=stats.units_granted - g0,
            revoked=stats.units_revoked - v0,
            preempted=stats.preemptions - p0,
        )

    # ------------------------------------------------------------------ #
    # supply side: machines
    # ------------------------------------------------------------------ #

    def add_machine(self, machine: str, rack: str, capacity: ResourceVector,
                    schedule: bool = True) -> List[Grant]:
        """Register a machine (or refresh capacity); schedules its free space.

        ``schedule=False`` registers without granting — used during failover
        rebuild, where the machine's space is already owned by processes
        whose allocations are about to be restored.
        """
        self.pool.add_machine(machine, capacity)
        self.tree.set_machine_rack(machine, rack)
        self._machine_rack[machine] = rack
        members = self._rack_machines.setdefault(rack, [])
        if machine not in members:
            members.append(machine)
        if not schedule:
            return []
        return self._schedule_machine(machine)

    def remove_machine(self, machine: str) -> List[Grant]:
        """Node down: drop the machine, revoking everything granted on it."""
        span = self._begin_decision("machine_down", target=machine)
        try:
            revocations = self.ledger.drop_machine(machine)
            for revocation in revocations:
                unit = self.units.get(revocation.unit_key)
                self.quota.refund(unit.app_id,
                                  unit.resources * (-revocation.count))
                self._track_units(unit, revocation.count)
                self.stats.units_revoked += -revocation.count
                self.policy.on_revoke(unit, machine, -revocation.count)
            rack = self._machine_rack.pop(machine, None)
            if rack is not None and machine in self._rack_machines.get(rack, ()):
                self._rack_machines[rack].remove(machine)
            self.pool.remove_machine(machine)
            return revocations
        finally:
            self._end_decision(span)

    def disable_machine(self, machine: str) -> None:
        """Blacklist: stop offering the machine without dropping its books."""
        self.pool.disable(machine)

    def enable_machine(self, machine: str) -> List[Grant]:
        """Lift a blacklist disable; the machine's free space is rescheduled."""
        self.pool.enable(machine)
        return self._schedule_machine(machine)

    def rack_of(self, machine: str) -> str:
        """Rack of ``machine``; empty string if unknown."""
        return self._machine_rack.get(machine, "")

    # ------------------------------------------------------------------ #
    # demand side: applications
    # ------------------------------------------------------------------ #

    def register_app(self, app_id: str, group: str = DEFAULT_GROUP) -> None:
        """Admit an application into a quota group (must precede define_unit)."""
        self._apps.add(app_id)
        self.quota.assign_app(app_id, group)

    def unregister_app(self, app_id: str) -> List[Grant]:
        """Application exit: drop demand and revoke all its grants."""
        span = self._begin_decision("app_exit", app=app_id)
        try:
            return self._unregister_app(app_id)
        finally:
            self._end_decision(span)

    def _unregister_app(self, app_id: str) -> List[Grant]:
        for unit_key in self._demand_keys_of.pop(app_id, ()):
            self._unindex(unit_key)
            del self._demands[unit_key]
        revocations = self.ledger.drop_app(app_id)
        decisions: List[Grant] = list(revocations)
        touched = []
        for revocation in revocations:
            unit = self.units.get(revocation.unit_key)
            freed = unit.resources * (-revocation.count)
            self.pool.release(revocation.machine, freed)
            self.quota.refund(app_id, freed)
            self._track_units(unit, revocation.count)
            self.stats.units_revoked += -revocation.count
            self.policy.on_revoke(unit, revocation.machine, -revocation.count)
            touched.append(revocation.machine)
        self.units.drop_app(app_id)
        self.quota.remove_app(app_id)
        self._apps.discard(app_id)
        self.policy.on_app_exit(app_id)
        for machine in sorted(set(touched)):
            decisions.extend(self._schedule_machine(machine))
        return decisions

    def define_unit(self, unit: ScheduleUnit) -> None:
        """Register (or redefine) one of an application's ScheduleUnits."""
        if unit.app_id not in self._apps:
            raise KeyError(f"unknown application {unit.app_id!r}")
        # Single entry point for unit shapes: a transform here (e.g. the
        # fractional policy's CPU scaling) is what the pool, ledger, quota
        # and restore paths all see consistently.
        unit = self.policy.transform_unit(unit)
        demand = self._demands.get(unit.key)
        reranked = (demand is not None and unit.key in self.units
                    and self.units.get(unit.key).priority != unit.priority)
        self.units.define(unit)
        if reranked:
            # Queue entries keep the priority they were pushed with, and
            # the early exit needs that to stay the unit's priority: a
            # re-ranked demand queues as a new submission, which retires
            # every entry pushed under its old sequence number.
            self._unindex(unit.key)
            self._seq += 1
            demand.submit_seq = self._seq
            self._reindex(unit.key, demand)
        elif unit.key in self._counted_shape:
            # the census follows the shape
            self._count_waiting(unit.key, unit.resources)

    def apply_request_delta(self, delta: RequestDelta) -> List[Grant]:
        """Fold a demand delta in and try to satisfy it immediately (§3.2.2)."""
        span = self._begin_decision("request", unit=str(delta.unit_key),
                                    delta=delta.cluster_delta)
        try:
            return self._apply_request_delta(delta)
        finally:
            self._end_decision(span)

    def _apply_request_delta(self, delta: RequestDelta) -> List[Grant]:
        self.stats.decisions += 1
        demand = self._demands.get(delta.unit_key)
        if demand is None:
            self._seq += 1
            demand = WaitingDemand(submit_seq=self._seq)
            self._demands[delta.unit_key] = demand
            self._demand_keys_of.setdefault(
                delta.unit_key.app_id, {})[delta.unit_key] = None
        demand.apply_delta(delta)
        if demand.is_empty():
            self._unindex(delta.unit_key)
            if (not demand.machine_hints and not demand.rack_hints
                    and not demand.avoid):
                # nothing worth remembering (an avoid list must survive
                # even while demand is momentarily zero)
                self._demands.pop(delta.unit_key, None)
                keys = self._demand_keys_of.get(delta.unit_key.app_id)
                if keys is not None:
                    keys.pop(delta.unit_key, None)
            return []
        decisions = self._place_demand(delta.unit_key, demand)
        self._reindex(delta.unit_key, demand)
        if not demand.is_empty() and self.policy.enable_preemption:
            decisions.extend(self._try_preemption(delta.unit_key, demand))
            self._reindex(delta.unit_key, demand)
        return decisions

    def return_resource(self, unit_key: UnitKey, machine: str, count: int) -> List[Grant]:
        """Application returns ``count`` granted units on ``machine`` (§3.1 step 5).

        Returns the *new* decisions triggered by the free-up (grants to
        waiting applications); the return itself is acknowledged implicitly.
        """
        if count <= 0:
            raise ValueError(f"return count must be positive, got {count}")
        held = self.ledger.count(unit_key, machine)
        if held < count:
            raise ValueError(
                f"app returns {count} of {unit_key!r} on {machine} but holds {held}"
            )
        span = self._begin_decision("return", unit=str(unit_key),
                                    target=machine, returned=count)
        try:
            unit = self.units.get(unit_key)
            freed = unit.resources * count
            self.ledger.apply(Grant(unit_key, machine, -count))
            self.pool.release(machine, freed)
            self.quota.refund(unit_key.app_id, freed)
            self._track_units(unit, -count)
            self.policy.on_return(unit, machine, count)
            if self.policy.global_recompute:
                # Hadoop-1.0 signature cost: every free-up rescans the
                # whole cluster instead of one machine's queue path.
                return self._schedule_all()
            return self._schedule_machine(machine)
        finally:
            self._end_decision(span)

    def demand_of(self, unit_key: UnitKey) -> Optional[WaitingDemand]:
        """The outstanding demand book for a unit, or None."""
        return self._demands.get(unit_key)

    def waiting_units_total(self) -> int:
        """Units wanted cluster-wide but not yet granted."""
        return sum(d.total for d in self._demands.values())

    def queue_depths(self) -> Dict[str, int]:
        """Waiting units broken down by the locality tier preferring them.

        Mirrors the three queues of §3.3: units covered by machine hints,
        units covered by rack hints (beyond the machine-hinted share), and
        the anywhere remainder.  ``total`` is :meth:`waiting_units_total`;
        the three tiers always sum to it.  Deterministic — counts only.
        """
        machine = rack = total = 0
        for demand in self._demands.values():
            outstanding = demand.total
            total += outstanding
            hinted = min(sum(demand.machine_hints.values()), outstanding)
            machine += hinted
            rack += min(sum(demand.rack_hints.values()),
                        outstanding - hinted)
        return {"machine": machine, "rack": rack,
                "anywhere": total - machine - rack, "total": total}

    # ------------------------------------------------------------------ #
    # failover support (used by FuxiMaster)
    # ------------------------------------------------------------------ #

    def restore_allocation(self, unit_key: UnitKey, machine: str,
                           count: int) -> int:
        """Install an allocation reported by a peer during failover rebuild.

        Unlike a normal grant this bypasses demand bookkeeping — the running
        processes already exist; only the books are being reconstructed.
        Reports can over-subscribe a machine when revocations were in flight
        at crash time; the count is clamped to what fits (the agent's
        capacity enforcement kills the excess processes, §2.2).  Returns the
        count actually installed.
        """
        unit = self.units.get(unit_key)
        previous = self.ledger.count(unit_key, machine)
        if previous:
            self.pool.release(machine, unit.resources * previous)
            self.quota.refund(unit_key.app_id, unit.resources * previous)
            self._track_units(unit, -previous)
        fit = unit.resources.max_units_in(self.pool.free(machine))
        count = min(count, fit)
        self.ledger.set_count(unit_key, machine, count)
        if previous:
            self.policy.on_revoke(unit, machine, previous)
        if count:
            amount = unit.resources * count
            self.pool.allocate(machine, amount)
            self.quota.charge(unit_key.app_id, amount)
            self._track_units(unit, count)
            self.policy.on_grant(unit, machine, count)
        return count

    def reinstall_demand(self, unit_key: UnitKey, demand: WaitingDemand,
                         place: bool = True) -> List[Grant]:
        """Adopt a demand an application re-sent wholesale (full sync,
        failover rebuild), replacing whatever was known for the unit.

        A unit already waiting keeps its FIFO position; a new one queues
        at the tail.  ``place=False`` only queues it — during a failover
        rebuild the free space may belong to allocations not yet restored.
        """
        existing = self._demands.get(unit_key)
        if existing is not None:
            demand.submit_seq = existing.submit_seq
        else:
            self._seq += 1
            demand.submit_seq = self._seq
        self._demands[unit_key] = demand
        self._demand_keys_of.setdefault(unit_key.app_id, {})[unit_key] = None
        self._unindex(unit_key)
        if demand.is_empty():
            return []
        decisions = self._place_demand(unit_key, demand) if place else []
        self._reindex(unit_key, demand)
        return decisions

    def schedule_all_machines(self) -> List[Grant]:
        """One pass over every machine's queues (used after failover rebuild)."""
        span = self._begin_decision("rebuild")
        try:
            return self._schedule_all()
        finally:
            self._end_decision(span)

    def _schedule_all(self) -> List[Grant]:
        decisions: List[Grant] = []
        for machine in self.pool.machines():
            decisions.extend(self._schedule_machine(machine))
        return decisions

    def machine_event(self, machine: str) -> List[Grant]:
        """A policy-paced machine event: serve the machine's queue path.

        The master raises this on agent heartbeats for ``heartbeat_paced``
        policies (YARN node-heartbeat allocation, Mesos offer rounds); for
        ``global_recompute`` policies it escalates to a full pass over
        every machine, reproducing the naive single-master cost model.
        """
        span = self._begin_decision("machine_event", target=machine)
        try:
            if self.policy.global_recompute:
                return self._schedule_all()
            return self._schedule_machine(machine)
        finally:
            self._end_decision(span)

    # ------------------------------------------------------------------ #
    # core placement machinery
    # ------------------------------------------------------------------ #

    def _track_units(self, unit: ScheduleUnit, delta: int) -> None:
        group = self.quota.group_of(unit.app_id)
        prios = self._granted_prio.setdefault(group, {})
        new = prios.get(unit.priority, 0) + delta
        if new > 0:
            prios[unit.priority] = new
        else:
            prios.pop(unit.priority, None)

    def _grant_limit(self, unit: ScheduleUnit, machine: str, wanted: int) -> int:
        """Units actually grantable: demand ∧ fit ∧ max_count ∧ quota cap."""
        if wanted <= 0:
            return 0
        fit = self.pool.max_units(machine, unit.resources)
        if fit <= 0:
            return 0
        cap = unit.max_count - self.ledger.total_units(unit.key)
        if cap <= 0:
            return 0
        return self._quota_limit(unit, min(wanted, fit, cap))

    def _quota_limit(self, unit: ScheduleUnit, allowed: int) -> int:
        """``allowed`` units, less any that would exceed the app's quota."""
        while allowed > 0 and not self.quota.within_max(
                unit.app_id, unit.resources * allowed):
            allowed -= 1
        return allowed

    def _apply_grant(self, unit: ScheduleUnit, demand: WaitingDemand,
                     machine: str, count: int,
                     level: LocalityLevel = LocalityLevel.CLUSTER) -> Grant:
        amount = unit.resources * count
        self.pool.allocate(machine, amount)
        self.ledger.apply(Grant(unit.key, machine, count))
        self.quota.charge(unit.app_id, amount)
        self._track_units(unit, count)
        demand.consume(machine, self.rack_of(machine), count)
        self.stats.grants_issued += 1
        self.stats.units_granted += count
        by_app = self.stats.units_granted_by_app
        by_app[unit.app_id] = by_app.get(unit.app_id, 0) + count
        if level is LocalityLevel.MACHINE:
            self.stats.machine_local += count
        elif level is LocalityLevel.RACK:
            self.stats.rack_local += count
        else:
            self.stats.cluster_wide += count
        self.policy.on_grant(unit, machine, count)
        return Grant(unit.key, machine, count)

    def _place_demand(self, unit_key: UnitKey, demand: WaitingDemand) -> List[Grant]:
        """Greedy immediate placement for one demand: hints first, then spread."""
        policy = self.policy
        if not policy.place_on_request:
            # Deferred policy (YARN/Mesos pacing): the demand stays queued
            # until a machine event serves it.  Covers the failover
            # reconcile path too — re-sent demands re-queue, then grants
            # flow again on the next heartbeats.
            return []
        unit = self.units.get(unit_key)
        grants: List[Grant] = []
        # 1. machine hints, most-wanted first.
        if policy.use_hints:
            for machine in sorted(demand.machine_hints,
                                  key=lambda m: (-demand.machine_hints[m], m)):
                if demand.is_empty():
                    break
                count = self._grant_limit(unit, machine,
                                          demand.wants_machine(machine))
                if count > 0:
                    grants.append(self._apply_grant(unit, demand, machine,
                                                    count,
                                                    LocalityLevel.MACHINE))
            # 2. rack hints: machines inside the hinted racks, most-free first.
            for rack in sorted(demand.rack_hints,
                               key=lambda r: (-demand.rack_hints[r], r)):
                if demand.is_empty():
                    break
                members = (m for m in self._rack_machines.get(rack, ())
                           if not self.pool.is_disabled(m)
                           and m not in demand.avoid)
                for machine, _ in self.pool.best_fit_machines(unit.resources,
                                                              members):
                    wanted = demand.wants_rack(rack)
                    if wanted <= 0:
                        break
                    count = self._grant_limit(unit, machine, wanted)
                    if count > 0:
                        grants.append(self._apply_grant(unit, demand, machine,
                                                        count,
                                                        LocalityLevel.RACK))
        # 3. anywhere in the cluster, most-free first — under a budget.
        # Every ranked machine fits ≥1 unit, so a scanned machine that
        # grants nothing means a *global* stop (max_count reached, quota
        # ceiling, or demand satisfied): ``wanted + len(avoid)`` machines
        # always suffice for the exact unlimited result.  The config cap on
        # top bounds the latency tail for pathologically wide requests.
        wanted = demand.wants_anywhere()
        if wanted > 0:
            cap = unit.max_count - self.ledger.total_units(unit_key)
            if cap > 0 and self.quota.within_max(unit.app_id, unit.resources):
                budget = min(self.config.place_scan_limit,
                             wanted + len(demand.avoid))
                for machine, _ in policy.rank_anywhere(unit, wanted, budget):
                    if demand.is_empty():
                        break
                    if machine in demand.avoid:
                        continue
                    count = self._grant_limit(unit, machine,
                                              demand.wants_anywhere())
                    if count > 0:
                        grants.append(self._apply_grant(unit, demand, machine,
                                                        count,
                                                        LocalityLevel.CLUSTER))
        return grants

    def _schedule_machine(self, machine: str) -> List[Grant]:
        """Resources freed up on ``machine``: serve its locality-path queues."""
        if not self.pool.has_machine(machine) or self.pool.is_disabled(machine):
            return []
        if self._exact_exit and not self._waiting_fits(self.pool.free(machine)):
            return []
        return self._walk_path(machine)

    def _walk_path(self, machine: str) -> List[Grant]:
        """Serve ``machine``'s machine, rack and cluster queues in §3.3
        order until its free space, the waiting demands or the scan
        budget run out.

        With fixed keys the walk is non-destructive: a demand this event
        cannot serve is passed over where it is queued, which is where
        popping and re-pushing it would have put it back (DESIGN.md §4).
        A policy with drifting keys walks destructively — a passed entry
        is consumed and re-indexed after the event, which is what
        re-ranks it.
        """
        pool = self.pool
        demands = self._demands
        destructive = not self._exact_exit
        # Rejected this event (cannot be served here now): passed over
        # for the rest of it.
        skip_keys: Set[UnitKey] = set()
        # Mesos-style exclusive offer: once an app takes from this event,
        # the rest of the event is its alone (None = not locked yet).
        exclusive = self.policy.exclusive_event
        locked_app: Optional[str] = None
        # A destructive walk consumes the entries it passes over, so it
        # re-indexes them after the event: the skipped demands, then those
        # turned away by the lock or their avoid list (insertion-ordered
        # dict, not a set, so that order never depends on hash salting).
        skipped: List[Tuple[UnitKey, WaitingDemand]] = []
        turned_away: Dict[UnitKey, None] = {}

        # Bound once: classify runs for every entry the walk passes, and
        # looking an enum member up on its class is slow on that path.
        cluster_level = LocalityLevel.CLUSTER
        machine_level = LocalityLevel.MACHINE

        def classify(unit_key: UnitKey, level: LocalityLevel,
                     name: str) -> int:
            if unit_key in skip_keys:
                return -1
            if locked_app is not None and unit_key.app_id != locked_app:
                if destructive:
                    turned_away[unit_key] = None
                return -1
            demand = demands.get(unit_key)
            if demand is None:
                return 0
            if machine in demand.avoid:
                if destructive:
                    turned_away[unit_key] = None
                return -1
            if level is cluster_level:
                return demand.total
            if level is machine_level:
                return demand.wants_machine(name)
            return demand.wants_rack(name)

        walk = self.tree.walk(machine, classify, destructive=destructive)
        totals = self.ledger.unit_totals()
        units = self.units.definitions()
        scan_limit = self.config.schedule_scan_limit
        grants: List[Grant] = []
        consecutive_skips = 0
        head = walk.send(None)
        while head is not None:
            unit_key, level, wanted = head
            unit = units[unit_key]
            # _grant_limit with the cap tested first — one probe of the
            # live totals, and no fit check for a demand at max_count
            # (the result is 0 in either order).
            cap = unit.max_count - totals.get(unit_key, 0)
            count = 0
            if cap > 0:
                fit = pool.max_units(machine, unit.resources)
                if fit > 0:
                    count = self._quota_limit(unit, min(wanted, fit, cap))
            if count <= 0:
                skip_keys.add(unit_key)
                if destructive:
                    skipped.append((unit_key, demands[unit_key]))
                consecutive_skips += 1
                if consecutive_skips >= scan_limit:
                    break
                head = walk.send(PASS)
                continue
            consecutive_skips = 0
            demand = demands[unit_key]
            grants.append(self._apply_grant(unit, demand, machine, count,
                                            level))
            self._reindex(unit_key, demand)
            free = pool.free(machine)
            if free.is_zero() or (not destructive
                                  and not self._waiting_fits(free)):
                # Nothing left that anyone waiting could take.
                break
            if exclusive and locked_app is None:
                locked_app = unit_key.app_id
                head = walk.send(RESTART)
            else:
                head = walk.send(REREAD)
        walk.close()
        if destructive:
            for unit_key, demand in skipped:
                self._reindex(unit_key, demand)
            for unit_key in turned_away:
                if unit_key not in skip_keys:
                    demand = demands.get(unit_key)
                    if demand is not None:
                        self._reindex(unit_key, demand)
        return grants

    def _waiting_fits(self, free: ResourceVector) -> bool:
        """Could ``free`` hold one unit of any waiting demand's shape?

        False means a machine event on that free vector grants nothing:
        ``_grant_limit`` starts from ``pool.max_units``, which is zero
        exactly when the unit's shape does not fit.
        """
        for shape in self._waiting_shapes:
            if shape.fits_in(free):
                return True
        return False

    def _count_waiting(self, unit_key: UnitKey,
                       shape: Optional[ResourceVector]) -> None:
        """Census choke point: count ``unit_key`` under ``shape`` (None:
        it no longer waits).  Keyed by shape only — not by ``max_count``
        or quota, which would need a census update on every grant."""
        counted = self._counted_shape.get(unit_key)
        if counted is shape:
            return
        census = self._waiting_shapes
        if counted is not None:
            left = census[counted] - 1
            if left:
                census[counted] = left
            else:
                del census[counted]
        if shape is None:
            del self._counted_shape[unit_key]
        else:
            census[shape] = census.get(shape, 0) + 1
            self._counted_shape[unit_key] = shape

    def _unindex(self, unit_key: UnitKey) -> None:
        """Take a demand out of every queue and out of the census."""
        self.tree.remove(unit_key)
        self._count_waiting(unit_key, None)

    def _reindex(self, unit_key: UnitKey, demand: WaitingDemand) -> None:
        """(Re-)register a demand in the queues and the census after any
        change to it; an empty demand leaves both."""
        if demand.is_empty():
            self._unindex(unit_key)
            return
        unit = self.units.get(unit_key)
        self._count_waiting(unit_key, unit.resources)
        policy = self.policy
        # Hint-blind policies index anywhere-only.
        if policy.use_hints:
            machine_hints, rack_hints = demand.machine_hints, demand.rack_hints
        else:
            machine_hints = rack_hints = {}
        if not self._exact_exit:
            # Drifting keys (fair-share counts, size estimates, aging): the
            # queues keep the priority an entry was *pushed* with — drop
            # and re-push so the new rank takes effect.  A fixed key is
            # already where a re-push would put it.
            self.tree.remove(unit_key)
        self.tree.index(unit_key, policy.effective_priority(unit, demand),
                        demand.submit_seq, machine_hints, rack_hints,
                        demand.total)

    # ------------------------------------------------------------------ #
    # preemption
    # ------------------------------------------------------------------ #

    def _try_preemption(self, unit_key: UnitKey, demand: WaitingDemand) -> List[Grant]:
        """Free space for a starved request via the two-level policy (§3.4)."""
        unit = self.units.get(unit_key)
        group = self.quota.group_of(unit.app_id)
        below_min = self.quota.below_min(group)
        prios = self._granted_prio.get(group, {})
        has_lower_victim = any(priority > unit.priority
                               for priority in prios)
        if not below_min and not has_lower_victim:
            # No permissible victim can exist; skip the machine scans.
            return []
        decisions: List[Grant] = []
        sites = self._preemption_sites(demand)
        for machine in sites:
            if demand.is_empty():
                break
            if machine in demand.avoid or self.pool.is_disabled(machine):
                continue
            plan = self._preemption.plan(
                machine, unit.resources, unit, self.ledger, self.pool.free(machine))
            if plan is None:
                continue
            for revocation in plan.revocations:
                victim = self.units.get(revocation.unit_key)
                freed = victim.resources * (-revocation.count)
                self.ledger.apply(revocation)
                self.pool.release(machine, freed)
                self.quota.refund(victim.app_id, freed)
                self._track_units(victim, revocation.count)
                self.stats.units_revoked += -revocation.count
                self.stats.preemptions += 1
                self.policy.on_revoke(victim, machine, -revocation.count)
                decisions.append(revocation)
            count = self._grant_limit(unit, machine, demand.wants_anywhere())
            if count > 0:
                decisions.append(self._apply_grant(unit, demand, machine,
                                                   count,
                                                   LocalityLevel.CLUSTER))
        return decisions

    def _preemption_sites(self, demand: WaitingDemand) -> List[str]:
        """Machines worth planning preemption on, hinted machines first."""
        sites = [m for m in sorted(demand.machine_hints) if self.pool.has_machine(m)]
        seen = set(sites)
        limit = self.config.preemption_scan_limit
        for machine in self.pool.schedulable_machines():
            if len(sites) >= limit:
                break
            if machine not in seen and self.ledger.count_on_machine(machine) > 0:
                sites.append(machine)
                seen.add(machine)
        return sites

    # ------------------------------------------------------------------ #
    # invariants & introspection
    # ------------------------------------------------------------------ #

    def conservation_violations(self) -> List[str]:
        """Resource-conservation breaches, one message per machine.

        Checks, per machine: ledger-allocated resources fit in capacity (no
        double-grant of the same physical slot) and the pool's free vector
        equals capacity minus allocated (granted ≤ capacity, no negative
        free).  Empty list means the books conserve.
        """
        problems: List[str] = []
        for machine in self.pool.machines():
            allocated = self.ledger.resources_on_machine(
                machine, lambda key: self.units.get(key).resources)
            capacity = self.pool.capacity(machine)
            if not allocated.fits_in(capacity):
                problems.append(
                    f"overcommit on {machine}: allocated={allocated!r} "
                    f"exceeds capacity={capacity!r}")
            expected_free = capacity.monus(allocated)
            actual_free = self.pool.free(machine)
            if expected_free != actual_free:
                problems.append(
                    f"conservation violated on {machine}: "
                    f"free={actual_free!r} expected={expected_free!r}")
        return problems

    def overgrant_violations(self) -> List[str]:
        """Units granted beyond their ``max_count`` (same slot granted twice)."""
        problems: List[str] = []
        for unit_key in self.units.keys():
            unit = self.units.get(unit_key)
            granted = self.ledger.total_units(unit_key)
            if granted > unit.max_count:
                problems.append(
                    f"double-grant of {unit_key!r}: granted={granted} "
                    f"max_count={unit.max_count}")
        return problems

    def quota_violations(self) -> List[str]:
        """Quota-ledger drift: per-group usage must equal the ledger's sums."""
        from repro.core.resources import total_of
        problems: List[str] = []
        by_group: Dict[str, List[ResourceVector]] = {}
        for unit_key, machine, count in self.ledger.entries():
            unit = self.units.get(unit_key)
            group = self.quota.group_of(unit_key.app_id)
            by_group.setdefault(group, []).append(unit.resources * count)
        groups = set(by_group) | {g.name for g in self.quota.groups()}
        for group in sorted(groups):
            expected = total_of(by_group.get(group, ()))
            actual = self.quota.usage(group)
            if expected != actual:
                problems.append(
                    f"quota drift in group {group!r}: usage={actual!r} "
                    f"ledger says {expected!r}")
        return problems

    def census_violations(self) -> List[str]:
        """Waiting-shape census drift: the census must equal the shapes
        recomputed from the non-empty waiting demands.  An entry too few
        would let a machine event skip a demand it could have served."""
        expected: Dict[ResourceVector, int] = {}
        for unit_key, demand in self._demands.items():
            # (a request for an undefined unit raises before it queues)
            if not demand.is_empty() and unit_key in self.units:
                shape = self.units.get(unit_key).resources
                expected[shape] = expected.get(shape, 0) + 1
        if expected != self._waiting_shapes:
            return [f"waiting-shape census drift: census="
                    f"{self._waiting_shapes!r} demands say {expected!r}"]
        return []

    def check_conservation(self) -> None:
        """Assert free + allocated == capacity on every machine (test hook)."""
        problems = self.conservation_violations()
        if problems:
            raise AssertionError("; ".join(problems))

    def snapshot_demands(self) -> Dict[UnitKey, dict]:
        """Serializable copy of every outstanding demand (failover support)."""
        return {key: demand.snapshot() for key, demand in self._demands.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FuxiScheduler machines={len(self.pool.machines())} "
            f"apps={len(self._apps)} waiting={self.waiting_units_total()}>"
        )
