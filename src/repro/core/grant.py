"""Resource grants and the allocation ledger (paper §3.2.3).

A grant gives an application the right to run processes consuming ``count``
copies of a ScheduleUnit on one machine.  Grants are *containers*: they have
a lifecycle independent of the tasks run inside them — the application may
execute several task instances in one grant before returning it (this is the
container-reuse behaviour the paper contrasts with YARN).

The :class:`AllocationLedger` is the bookkeeping structure shared (in shape)
by FuxiMaster, application masters and FuxiAgents; failover works by
rebuilding the master's ledger from the peers' ledgers and asserting
consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.core.resources import ResourceVector, total_of
from repro.core.units import UnitKey

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def book_entry_hash(unit_key: UnitKey, count: int) -> int:
    """Stable 64-bit hash of one allocation-book entry.

    FNV-1a over a canonical encoding — deliberately *not* Python's
    ``hash()``, whose per-process randomization would make digest values
    differ between processes.  Book digests are the XOR of their entries'
    hashes, so they are order-independent and can be maintained
    incrementally: changing one entry XORs the old hash out and the new
    one in.
    """
    h = _FNV_OFFSET
    for byte in (f"{unit_key.app_id}\x00{unit_key.slot_id}\x00{count}"
                 .encode("utf-8")):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def books_digest(books: Mapping[UnitKey, int]) -> int:
    """Digest of a whole allocation-book dict (0 for empty books)."""
    digest = 0
    for unit_key, count in books.items():
        digest ^= book_entry_hash(unit_key, count)
    return digest


@dataclass(frozen=True, slots=True)
class Grant:
    """A (possibly negative) change of allocation: ``count`` units on ``machine``.

    Positive ``count`` grants resource; negative ``count`` is a revocation
    (node down, preemption).  The paper's response form ``(M1, +3), (M3, -1)``.
    """

    unit_key: UnitKey
    machine: str
    count: int

    def __post_init__(self) -> None:
        if self.count == 0:
            raise ValueError("a grant must change the allocation")

    @property
    def is_revocation(self) -> bool:
        return self.count < 0


class AllocationLedger:
    """Granted unit counts, indexed (app, unit, machine), with resource totals."""

    def __init__(self) -> None:
        self._counts: Dict[Tuple[UnitKey, str], int] = {}
        # machine -> unit -> count, unit -> machine -> count and
        # app -> unit-key set indexes so per-machine queries (machine-local
        # scheduling, preemption planning), per-unit queries (grant caps,
        # full syncs) and per-app queries (grant-state syncs, app exit) do
        # not scan the whole ledger.
        self._by_machine: Dict[str, Dict[UnitKey, int]] = {}
        self._by_unit: Dict[UnitKey, Dict[str, int]] = {}
        self._by_app: Dict[str, set] = {}
        # unit -> units granted across all machines, so the max_count cap
        # check costs one probe instead of a sum over the unit's machines
        self._unit_total: Dict[UnitKey, int] = {}
        # machine -> XOR of book_entry_hash over its books; lets the agent
        # heartbeat digest check (§3.1 safety sync) run in O(1).
        self._machine_digest: Dict[str, int] = {}

    def _set(self, unit_key: UnitKey, machine: str, count: int) -> None:
        key = (unit_key, machine)
        old = self._counts.get(key, 0)
        if count != old:
            total = self._unit_total.get(unit_key, 0) + count - old
            if total:
                self._unit_total[unit_key] = total
            else:
                del self._unit_total[unit_key]
            digest = self._machine_digest.get(machine, 0)
            if old:
                digest ^= book_entry_hash(unit_key, old)
            if count:
                digest ^= book_entry_hash(unit_key, count)
            self._machine_digest[machine] = digest
        if count == 0:
            self._counts.pop(key, None)
            per_machine = self._by_machine.get(machine)
            if per_machine is not None:
                per_machine.pop(unit_key, None)
                if not per_machine:
                    del self._by_machine[machine]
                    self._machine_digest.pop(machine, None)
            per_unit = self._by_unit.get(unit_key)
            if per_unit is not None:
                per_unit.pop(machine, None)
                if not per_unit:
                    del self._by_unit[unit_key]
                    per_app = self._by_app.get(unit_key.app_id)
                    if per_app is not None:
                        per_app.discard(unit_key)
                        if not per_app:
                            del self._by_app[unit_key.app_id]
        else:
            self._counts[key] = count
            self._by_machine.setdefault(machine, {})[unit_key] = count
            self._by_unit.setdefault(unit_key, {})[machine] = count
            self._by_app.setdefault(unit_key.app_id, set()).add(unit_key)

    def apply(self, grant: Grant) -> None:
        """Fold a grant/revocation in.  Over-revocation raises."""
        current = self._counts.get((grant.unit_key, grant.machine), 0)
        new = current + grant.count
        if new < 0:
            raise ValueError(
                f"revoking {-grant.count} of {grant.unit_key!r} on {grant.machine} "
                f"but only {current} granted"
            )
        self._set(grant.unit_key, grant.machine, new)

    def set_count(self, unit_key: UnitKey, machine: str, count: int) -> None:
        """Overwrite an entry (used when rebuilding from peer reports)."""
        if count < 0:
            raise ValueError(f"negative count {count}")
        self._set(unit_key, machine, count)

    def count(self, unit_key: UnitKey, machine: str) -> int:
        return self._counts.get((unit_key, machine), 0)

    def count_on_machine(self, machine: str) -> int:
        return sum(self._by_machine.get(machine, {}).values())

    def total_units(self, unit_key: UnitKey) -> int:
        return self._unit_total.get(unit_key, 0)

    def unit_totals(self) -> Dict[UnitKey, int]:
        """Live unit -> :meth:`total_units` mapping (a unit holding nothing
        is absent), for tight read-only loops (the machine-event walk's
        cap check); do not modify."""
        return self._unit_total

    def machines_of(self, unit_key: UnitKey) -> List[Tuple[str, int]]:
        return sorted(self._by_unit.get(unit_key, {}).items())

    def entries(self) -> Iterator[Tuple[UnitKey, str, int]]:
        for (unit_key, machine), count in sorted(self._counts.items()):
            yield unit_key, machine, count

    def entries_for_app(self, app_id: str) -> Iterator[Tuple[UnitKey, str, int]]:
        for unit_key in sorted(self._by_app.get(app_id, ())):
            per_unit = self._by_unit[unit_key]
            for machine in sorted(per_unit):
                yield unit_key, machine, per_unit[machine]

    def entries_for_machine(self, machine: str) -> Iterator[Tuple[UnitKey, int]]:
        per_machine = self._by_machine.get(machine, {})
        for unit_key in sorted(per_machine):
            yield unit_key, per_machine[unit_key]

    def books_match(self, machine: str, reported: Dict[UnitKey, int]) -> bool:
        """True iff ``reported`` equals this ledger's books for ``machine``.

        Compares against the live per-machine index — no sort and no dict
        rebuild.  Kept for full-book comparisons (tests, repair paths); the
        per-heartbeat drift check uses :meth:`machine_digest` instead.
        """
        books = self._by_machine.get(machine)
        if not reported:
            return not books
        return books == reported

    def machine_digest(self, machine: str) -> int:
        """Incrementally maintained digest of ``machine``'s books (O(1)).

        Equals :func:`books_digest` of the machine's book dict; 0 when the
        machine holds nothing.  Agents maintain the same digest over their
        own books, so equal digests mean (up to a 2^-64 collision, which
        only delays the repair until the books next change) that agent and
        master agree — the O(1) form of the §3.1 periodic safety sync.
        """
        return self._machine_digest.get(machine, 0)

    def machine_digests(self) -> Dict[str, int]:
        """Live machine -> :meth:`machine_digest` mapping (a machine that
        holds nothing is absent: its digest is 0), for tight read-only
        loops (the heartbeat roll-up); do not modify."""
        return self._machine_digest

    def drop_app(self, app_id: str) -> List[Grant]:
        """Remove all allocations of ``app_id``; returns the revocations applied."""
        revoked = [Grant(unit_key, machine, -count)
                   for unit_key, machine, count in self.entries_for_app(app_id)]
        for grant in revoked:
            self._set(grant.unit_key, grant.machine, 0)
        return revoked

    def drop_machine(self, machine: str) -> List[Grant]:
        """Remove all allocations on ``machine`` (node down); returns revocations."""
        revoked = []
        for unit_key, count in sorted(self._by_machine.get(machine, {}).items()):
            self._set(unit_key, machine, 0)
            revoked.append(Grant(unit_key, machine, -count))
        return revoked

    def resources_on_machine(self, machine: str, unit_sizes) -> ResourceVector:
        """Total resources allocated on ``machine`` given a UnitKey->vector lookup."""
        return total_of(
            unit_sizes(unit_key) * count
            for unit_key, count in self.entries_for_machine(machine)
        )

    def snapshot(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Nested dict form: app -> "slot_id" -> machine -> count."""
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        for unit_key, machine, count in self.entries():
            out.setdefault(unit_key.app_id, {}).setdefault(
                str(unit_key.slot_id), {}
            )[machine] = count
        return out

    def equals(self, other: "AllocationLedger") -> bool:
        return self._counts == other._counts

    def copy(self) -> "AllocationLedger":
        clone = AllocationLedger()
        clone._counts = dict(self._counts)
        clone._by_machine = {m: dict(units)
                             for m, units in self._by_machine.items()}
        clone._by_unit = {u: dict(machines)
                          for u, machines in self._by_unit.items()}
        clone._by_app = {a: set(units) for a, units in self._by_app.items()}
        clone._unit_total = dict(self._unit_total)
        clone._machine_digest = dict(self._machine_digest)
        return clone

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AllocationLedger {len(self._counts)} entries>"
