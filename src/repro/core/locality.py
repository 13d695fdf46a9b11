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

Implementation: each node keeps a sorted list of ``(priority, seq,
unit_key)`` entries behind a consumed-prefix offset, plus a live-entry
table.  Entries can be dead (withdrawn since the push) or stale (the
demand no longer wants that scope); both are detected when a reader
reaches them.  A machine event reads its three queues through
:meth:`LocalityTree.walk`, which passes over the entries the event turns
away instead of popping and re-pushing them.
"""

from __future__ import annotations

from bisect import insort
from typing import (Callable, Dict, Generator, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from repro.core.request import LocalityLevel
from repro.core.units import UnitKey

_LEVEL_RANK = {
    LocalityLevel.MACHINE: 0,
    LocalityLevel.RACK: 1,
    LocalityLevel.CLUSTER: 2,
}

CLUSTER_NODE = ""

Entry = Tuple[int, int, UnitKey]
#: a walk's head: (unit_key, level, units the demand wants at that level)
Head = Tuple[UnitKey, LocalityLevel, int]

#: what a walk's caller sends after each head (see LocalityTree.walk)
PASS, REREAD, RESTART = 0, 1, 2

#: a machine's path: its machine, rack and cluster queue, in rank order
_SOURCES = (0, 1, 2)


class _Queue:
    """A single tree node's waiting queue: sorted entries + live-entry table.

    ``entries[offset:]`` is the queue in serving order; ``entries[:offset]``
    is a consumed prefix waiting for :meth:`compact`.  ``members`` maps
    each queued demand to the submission sequence number it was pushed
    with.  An entry is live only while its sequence number is the recorded
    one: entries left behind by ``discard`` stay dead even if the same unit
    queues again later under a new number, so whether an earlier event
    happened to drain them cannot change the order.

    Like the lazy heap it replaces, the list is a multiset: a unit
    discarded and pushed again under the same number leaves two equal
    entries ("twins"), both live.  Keeping them is what makes a drifting
    policy's queue exact — a twin left behind at the old priority comes
    back to life when its unit is re-pushed at a new one, as it did in
    the heap.
    """

    __slots__ = ("entries", "offset", "members")

    def __init__(self) -> None:
        self.entries: List[Entry] = []
        self.offset = 0
        self.members: Dict[UnitKey, int] = {}

    def push(self, priority: int, seq: int, unit_key: UnitKey) -> None:
        if self.members.get(unit_key) == seq:
            return
        self.members[unit_key] = seq
        insort(self.entries, (priority, seq, unit_key), self.offset)

    def discard(self, unit_key: UnitKey) -> None:
        # Lazy: the entry stays listed, invalidated by the live-entry table.
        self.members.pop(unit_key, None)

    def peek(self, valid: Callable[[UnitKey], bool]) -> Optional[Entry]:
        """Top live entry, consuming dead and invalid heads along the way."""
        entries = self.entries
        members = self.members
        end = len(entries)
        at = self.offset
        while at < end:
            entry = entries[at]
            unit_key = entry[2]
            live = members.get(unit_key) == entry[1]
            if live and valid(unit_key):
                break
            at += 1
            if live:
                del members[unit_key]
        self.offset = at
        return entries[at] if at < end else None

    def pop(self) -> None:
        if self.offset < len(self.entries):
            _, seq, unit_key = self.entries[self.offset]
            self.offset += 1
            if self.members.get(unit_key) == seq:
                del self.members[unit_key]

    def compact(self) -> None:
        """Drop the consumed prefix.  Never while a walk is open on this
        queue: its cursors are list indices."""
        if self.offset:
            del self.entries[:self.offset]
            self.offset = 0

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

    def walk(self, machine: str,
             classify: Callable[[UnitKey, LocalityLevel, str], int],
             destructive: bool = False
             ) -> Generator[Optional[Head], Optional[int], None]:
        """One machine event's merged walk over ``machine``'s machine,
        rack and cluster queues, in §3.3 order ``(priority, level rank,
        seq)``.  A generator with a send protocol::

            walk = tree.walk(machine, classify)
            head = walk.send(None)        # (unit_key, level, wanted) | None
            head = walk.send(PASS)        # ... after each head taken
            walk.close()                  # end of event: compacts queues

        It keeps one cursor and one cached head per queue.
        ``classify(unit_key, level, name)`` judges the live entry under a
        cursor: ``> 0`` servable for that many units (it becomes the
        head); ``0`` stale — the demand wants nothing at that scope, so
        the entry is deleted and leaves the live-entry table (it is pushed
        again when the demand next changes, the only way it can want
        again); ``< 0`` turned away by this event only (rejected already,
        avoiding the machine, locked out): the cursor passes over it and
        it stays queued where it is.  Dead entries are deleted as the
        cursors pass them — a dead head by moving the queue's offset, one
        further in by ``del`` — so they cannot pile up behind long-lived
        turned-away heads.

        After each head the caller sends what became of it: ``PASS``
        (turned down for the rest of the event: passed over), ``REREAD``
        (its demand changed: the heads holding that unit are read again)
        or ``RESTART`` (every head may have changed: all are read again).
        If a re-index inserted entries, which can land before a cursor,
        every cursor restarts at its queue's offset; entries already
        passed are passed again, for one ``classify`` call each.

        ``destructive=True`` keeps the pop semantics of the heap this
        replaces, for policies whose queue keys drift: the chosen head and
        every turned-away entry are consumed and leave the live-entry
        table; the caller re-indexes them after the event, which re-ranks
        them.

        Never compact a walked queue while the walk is open: the cursors
        are list indices.
        """
        path = self._path(machine)
        levels = [level for level, _, _ in path]
        names = [name for _, name, _ in path]
        queues = [queue for _, _, queue in path]
        keep = not destructive
        cursors = [queue.offset for queue in queues]
        heads: List[Optional[Entry]] = [None, None, None]
        wanted = [0, 0, 0]
        lengths = [0, 0, 0]
        reread: Iterable[int] = _SOURCES
        try:
            while True:
                for source in reread:
                    queue = queues[source]
                    entries = queue.entries
                    members = queue.members
                    level = levels[source]
                    name = names[source]
                    at = cursors[source]
                    head = None
                    while at < len(entries):
                        entry = entries[at]
                        unit_key = entry[2]
                        if members.get(unit_key) == entry[1]:
                            if (keep and at > queue.offset
                                    and entries[at - 1] == entry):
                                # A twin of the entry just passed over, so
                                # passed over too; with fixed keys one
                                # copy is as good as two.
                                del entries[at]
                                continue
                            want = classify(unit_key, level, name)
                            if want > 0:
                                head = entry
                                wanted[source] = want
                                break
                            if want < 0 and keep:
                                at += 1
                                continue
                            del members[unit_key]
                        if at == queue.offset:
                            at += 1
                            queue.offset = at
                        else:
                            del entries[at]
                    cursors[source] = at
                    heads[source] = head
                    lengths[source] = len(entries)
                # Sources are in level-rank order, so a later one wins only
                # on a strictly better priority.
                best = -1
                for source in _SOURCES:
                    head = heads[source]
                    if head is not None and (best < 0
                                             or head[0] < heads[best][0]):
                        best = source
                if best < 0:
                    yield None
                    reread = ()
                    continue
                head = heads[best]
                unit_key = head[2]
                if not keep:
                    queue = queues[best]
                    queue.offset = cursors[best] = queue.offset + 1
                    if queue.members.get(unit_key) == head[1]:
                        del queue.members[unit_key]
                verdict = yield unit_key, levels[best], wanted[best]
                if verdict != PASS and (
                        verdict == RESTART
                        or len(queues[0].entries) != lengths[0]
                        or len(queues[1].entries) != lengths[1]
                        or len(queues[2].entries) != lengths[2]):
                    cursors = [queue.offset for queue in queues]
                    reread = _SOURCES
                    continue
                if verdict == PASS and keep:
                    cursors[best] += 1
                reread = [best]
                for source in _SOURCES:
                    if source != best:
                        head = heads[source]
                        if head is not None and head[2] == unit_key:
                            reread.append(source)
        finally:
            for queue in queues:
                queue.compact()

    def candidates_for_machine(
        self,
        machine: str,
        wants: Callable[[UnitKey, LocalityLevel, str], int],
    ) -> Iterator[Tuple[UnitKey, LocalityLevel]]:
        """Yield waiting (unit, level) pairs servable by free resources on ``machine``.

        ``wants(unit_key, level, node_name)`` must return how many units that
        demand would currently accept at that scope; zero marks the entry
        stale.  Yields in scheduling order: (priority, level rank, FIFO seq).
        Destructive: every yielded or invalid entry is consumed.  The
        caller is expected to consume (grant and update demand) between
        ``next()`` calls; consumed entries whose demand remains are
        re-indexed by the caller, so this iterator re-reads queue heads
        each step.  (The scheduler uses :meth:`walk`; this stays for
        callers that consume what they read.)
        """
        sources = self._path(machine)
        for _, _, queue in sources:
            queue.compact()
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

    def _path(self, machine: str) -> List[Tuple[LocalityLevel, str, _Queue]]:
        rack = self.rack_of(machine)
        return [
            (LocalityLevel.MACHINE, machine, self._machine_queue(machine)),
            (LocalityLevel.RACK, rack, self._rack_queue(rack)),
            (LocalityLevel.CLUSTER, CLUSTER_NODE, self._cluster_queue),
        ]

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
