"""The machine-event scan as it was before the waiting-shape census, on
the lazy-heap queues it ran on before the locality-queue walk.

:class:`FullScanScheduler` overrides ``FuxiScheduler._schedule_machine``
with the body that method had at the commit before the census (the
avoid-eviction fix), kept verbatim: it has no early exit, so after the last
grant a free-up allows it still pops, rejects and re-pushes up to
``schedule_scan_limit`` candidates.  Its tree, :class:`HeapLocalityTree`,
keeps the heap ``_Queue`` and ``candidates_for_machine`` the locality tree
had before its queues became sorted lists, also verbatim.  Slow and
obviously complete — the oracle ``test_machine_event_differential.py``
drives the fast path against.  Do not "tidy" the copied bodies; their
value is that they are the old code.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.grant import Grant
from repro.core.locality import _LEVEL_RANK, CLUSTER_NODE, LocalityTree
from repro.core.request import LocalityLevel, WaitingDemand
from repro.core.scheduler import FuxiScheduler
from repro.core.units import UnitKey


class _Queue:
    """A single tree node's waiting queue: lazy heap + live-entry table.

    ``members`` maps each queued demand to the submission sequence number
    it was pushed with.  A heap entry is live only while its sequence
    number is the recorded one: entries left behind by ``discard`` stay
    dead even if the same unit queues again later under a new number,
    so whether an earlier event happened to drain them cannot change the
    order.
    """

    __slots__ = ("heap", "members")

    def __init__(self) -> None:
        self.heap: List[Tuple[int, int, UnitKey]] = []
        self.members: Dict[UnitKey, int] = {}

    def push(self, priority: int, seq: int, unit_key: UnitKey) -> None:
        if self.members.get(unit_key) == seq:
            return
        self.members[unit_key] = seq
        heapq.heappush(self.heap, (priority, seq, unit_key))

    def discard(self, unit_key: UnitKey) -> None:
        # Lazy: entry stays in the heap, invalidated by the live-entry table.
        self.members.pop(unit_key, None)

    def peek(self, valid: Callable[[UnitKey], bool]) -> Optional[Tuple[int, int, UnitKey]]:
        """Top live entry, dropping stale heads along the way."""
        members = self.members
        while self.heap:
            priority, seq, unit_key = self.heap[0]
            live = members.get(unit_key) == seq
            if live and valid(unit_key):
                return priority, seq, unit_key
            heapq.heappop(self.heap)
            if live:
                del members[unit_key]
        return None

    def pop(self) -> None:
        if self.heap:
            _, seq, unit_key = heapq.heappop(self.heap)
            if self.members.get(unit_key) == seq:
                del self.members[unit_key]

    def __len__(self) -> int:
        return len(self.members)


class HeapLocalityTree(LocalityTree):
    """LocalityTree on the heap queues, with their candidate iterator."""

    def __init__(self, machine_rack: Optional[Dict[str, str]] = None):
        super().__init__(machine_rack)
        self._cluster_queue = _Queue()

    def _machine_queue(self, machine: str) -> _Queue:
        queue = self._machine_queues.get(machine)
        if queue is None:
            queue = self._machine_queues[machine] = _Queue()
        return queue

    def _rack_queue(self, rack: str) -> _Queue:
        queue = self._rack_queues.get(rack)
        if queue is None:
            queue = self._rack_queues[rack] = _Queue()
        return queue

    def candidates_for_machine(
        self,
        machine: str,
        wants: Callable[[UnitKey, LocalityLevel, str], int],
    ) -> Iterator[Tuple[UnitKey, LocalityLevel]]:
        """Yield waiting (unit, level) pairs servable by free resources on ``machine``.

        ``wants(unit_key, level, node_name)`` must return how many units that
        demand would currently accept at that scope; zero marks the entry
        stale.  Yields in scheduling order: (priority, level rank, FIFO seq).
        The caller is expected to consume (grant and update demand) between
        ``next()`` calls; consumed entries whose demand remains are
        re-indexed by the scheduler, so this iterator re-reads queue heads
        each step.
        """
        rack = self.rack_of(machine)
        sources: List[Tuple[LocalityLevel, str, _Queue]] = [
            (LocalityLevel.MACHINE, machine, self._machine_queue(machine)),
            (LocalityLevel.RACK, rack, self._rack_queue(rack)),
            (LocalityLevel.CLUSTER, CLUSTER_NODE, self._cluster_queue),
        ]
        while True:
            best = None
            for level, name, queue in sources:
                head = queue.peek(lambda uk, lv=level, nm=name: wants(uk, lv, nm) > 0)
                if head is None:
                    continue
                priority, seq, unit_key = head
                order = (priority, _LEVEL_RANK[level], seq)
                if best is None or order < best[0]:
                    best = (order, level, queue, unit_key)
            if best is None:
                return
            _, level, queue, unit_key = best
            queue.pop()
            yield unit_key, level


class FullScanScheduler(FuxiScheduler):
    """FuxiScheduler with the pre-census machine-event scan on heap queues."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tree = HeapLocalityTree()

    def _schedule_machine(self, machine: str) -> List[Grant]:
        """Resources freed up on ``machine``: serve its locality-path queues."""
        if not self.pool.has_machine(machine) or self.pool.is_disabled(machine):
            return []
        grants: List[Grant] = []
        skipped: List[Tuple[UnitKey, WaitingDemand]] = []
        skip_keys: Set[UnitKey] = set()
        # Mesos-style exclusive offer: once an app takes from this event,
        # the rest of the event is its alone (None = not locked yet;
        # candidates from other apps then read as stale via ``wants``).
        exclusive = self.policy.exclusive_event
        locked_app: Optional[str] = None
        # Entries turned away for this event only — by the exclusivity
        # lock, or because their demand avoids this machine: the queues'
        # lazy peek evicts anything reading 0 (from the shared rack and
        # cluster queues too), so they must be re-indexed after the event
        # (same repair the ``skipped`` list gets) or they vanish until
        # their next request delta.  Insertion-ordered dict, not a set:
        # re-index order assigns queue tie-break sequence numbers, so it
        # must not depend on hash salting.
        turned_away: Dict[UnitKey, None] = {}

        def wants(unit_key: UnitKey, level: LocalityLevel, name: str) -> int:
            if unit_key in skip_keys:
                return 0
            if locked_app is not None and unit_key.app_id != locked_app:
                turned_away[unit_key] = None
                return 0
            demand = self._demands.get(unit_key)
            if demand is None:
                return 0
            if machine in demand.avoid:
                turned_away[unit_key] = None
                return 0
            if level is LocalityLevel.MACHINE:
                return demand.wants_machine(name)
            if level is LocalityLevel.RACK:
                return demand.wants_rack(name)
            return demand.wants_anywhere()

        consecutive_skips = 0
        for unit_key, level in self.tree.candidates_for_machine(machine, wants):
            demand = self._demands[unit_key]
            unit = self.units.get(unit_key)
            if level is LocalityLevel.MACHINE:
                wanted = demand.wants_machine(machine)
            elif level is LocalityLevel.RACK:
                wanted = demand.wants_rack(self.rack_of(machine))
            else:
                wanted = demand.wants_anywhere()
            count = self._grant_limit(unit, machine, wanted)
            if count <= 0:
                # Wants but cannot be served here now; keep out of this pass.
                skip_keys.add(unit_key)
                skipped.append((unit_key, demand))
                consecutive_skips += 1
                if consecutive_skips >= self.config.schedule_scan_limit:
                    break
                continue
            consecutive_skips = 0
            grants.append(self._apply_grant(unit, demand, machine, count,
                                            level))
            if exclusive:
                locked_app = unit_key.app_id
            self._reindex(unit_key, demand)
            if self.pool.free(machine).is_zero():
                break  # nothing left to hand out on this machine
        for unit_key, demand in skipped:
            self._reindex(unit_key, demand)
        for unit_key in turned_away:
            if unit_key not in skip_keys:
                demand = self._demands.get(unit_key)
                if demand is not None:
                    self._reindex(unit_key, demand)
        return grants
