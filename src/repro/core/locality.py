"""Locality tree of waiting queues (paper §3.3, Figure 5).

Machines, racks and the cluster root each carry a waiting queue of
(application, ScheduleUnit) entries that could be satisfied by resources at
that scope.  When resources free up on machine M, only three queues are
consulted — M's, rack(M)'s, and the cluster's — which is what makes the
incremental scheduler's per-event work independent of cluster size.

Ordering rules (paper §3.3):

1. lower priority number first (higher priority);
2. at equal priority, machine-queue waiters beat rack/cluster-queue waiters
   (to preserve overall locality);
3. within the same queue class, FIFO by submission sequence.

Implementation: each node keeps a lazy min-heap plus a membership set.  Heap
entries can be stale (demand satisfied or changed since push); staleness is
detected at pop time via the ``wants`` callback the scheduler supplies, so
amortized cost per scheduling event stays logarithmic in queue size.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.request import LocalityLevel
from repro.core.units import UnitKey

_LEVEL_RANK = {
    LocalityLevel.MACHINE: 0,
    LocalityLevel.RACK: 1,
    LocalityLevel.CLUSTER: 2,
}

CLUSTER_NODE = ""


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


class LocalityTree:
    """Waiting queues arranged machine -> rack -> cluster."""

    def __init__(self, machine_rack: Optional[Dict[str, str]] = None):
        self._machine_rack: Dict[str, str] = dict(machine_rack or {})
        self._machine_queues: Dict[str, _Queue] = {}
        self._rack_queues: Dict[str, _Queue] = {}
        self._cluster_queue = _Queue()
        # reverse index: which queues each demand was ever pushed into, so
        # remove() touches only those instead of every queue in the tree
        self._queues_of: Dict[UnitKey, Set[_Queue]] = {}

    # --------------------------------------------------------------- #
    # topology
    # --------------------------------------------------------------- #

    def set_machine_rack(self, machine: str, rack: str) -> None:
        self._machine_rack[machine] = rack

    def rack_of(self, machine: str) -> str:
        return self._machine_rack.get(machine, CLUSTER_NODE)

    # --------------------------------------------------------------- #
    # indexing
    # --------------------------------------------------------------- #

    def index(self, unit_key: UnitKey, priority: int, seq: int,
              machine_hints: Dict[str, int], rack_hints: Dict[str, int],
              total: int) -> None:
        """(Re-)register a demand's queue entries after any demand change."""
        queues = self._queues_of.get(unit_key)
        if queues is None:
            queues = self._queues_of[unit_key] = set()
        for machine, count in machine_hints.items():
            if count > 0:
                queue = self._machine_queue(machine)
                queue.push(priority, seq, unit_key)
                queues.add(queue)
        for rack, count in rack_hints.items():
            if count > 0:
                queue = self._rack_queue(rack)
                queue.push(priority, seq, unit_key)
                queues.add(queue)
        if total > 0:
            self._cluster_queue.push(priority, seq, unit_key)
            queues.add(self._cluster_queue)

    def remove(self, unit_key: UnitKey) -> None:
        """Drop a demand from every queue it was indexed into.

        Served by the reverse index, so cost is O(queues this demand ever
        touched), independent of cluster size.
        """
        for queue in self._queues_of.pop(unit_key, ()):
            queue.discard(unit_key)

    # --------------------------------------------------------------- #
    # candidate iteration
    # --------------------------------------------------------------- #

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

    # --------------------------------------------------------------- #
    # introspection
    # --------------------------------------------------------------- #

    def queue_sizes(self) -> Dict[str, int]:
        """Live entry counts per node (machine/rack names, '' for cluster)."""
        sizes = {CLUSTER_NODE: len(self._cluster_queue)}
        sizes.update({m: len(q) for m, q in self._machine_queues.items() if len(q)})
        sizes.update({r: len(q) for r, q in self._rack_queues.items() if len(q)})
        return sizes

    def waiting_anywhere(self) -> int:
        return len(self._cluster_queue)

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
