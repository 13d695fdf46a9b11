"""Incremental, locality-aware resource requests (paper §3.2.2).

An application expresses demand for a ScheduleUnit as:

- a **cluster count** — the total number of units it still wants;
- optional **machine hints** — "at least *n* of those preferably on M";
- optional **rack hints** — likewise at rack scope;
- an **avoid list** — machines the application refuses (its own blacklist).

Demand is mutated by :class:`RequestDelta` messages whose counts may be
positive or negative; the scheduler holds the resulting :class:`WaitingDemand`
and decrements it as grants are issued.  Hints never exceed the cluster
count: a grant on machine M consumes the M hint, the rack(M) hint *and* the
cluster count together (Figure 5's bookkeeping).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.units import UnitKey


class LocalityLevel(enum.Enum):
    """Scope of a locality hint, mirroring the paper's LT_MACHINE / LT_RACK."""

    MACHINE = "machine"
    RACK = "rack"
    CLUSTER = "cluster"


@dataclass(frozen=True, slots=True)
class LocalityHint:
    """One hint line from a request (Figure 4's ``Locality_hints`` block)."""

    level: LocalityLevel
    name: str
    count: int


@dataclass(frozen=True, slots=True)
class RequestDelta:
    """An incremental change to an application's demand for one unit.

    ``cluster_delta`` adjusts the total outstanding demand; ``hints`` adjust
    the per-machine / per-rack preferred counts.  All values may be negative.
    ``avoid_add`` / ``avoid_remove`` edit the unit's avoidance machine list.
    """

    unit_key: UnitKey
    cluster_delta: int = 0
    hints: Tuple[LocalityHint, ...] = ()
    avoid_add: FrozenSet[str] = frozenset()
    avoid_remove: FrozenSet[str] = frozenset()

    @staticmethod
    def initial(unit_key: UnitKey, total: int,
                machine_hints: Optional[Dict[str, int]] = None,
                rack_hints: Optional[Dict[str, int]] = None,
                avoid: Iterable[str] = ()) -> "RequestDelta":
        """Build the first request of an application for this unit."""
        hints: List[LocalityHint] = []
        for name, count in sorted((machine_hints or {}).items()):
            hints.append(LocalityHint(LocalityLevel.MACHINE, name, count))
        for name, count in sorted((rack_hints or {}).items()):
            hints.append(LocalityHint(LocalityLevel.RACK, name, count))
        return RequestDelta(
            unit_key=unit_key,
            cluster_delta=total,
            hints=tuple(hints),
            avoid_add=frozenset(avoid),
        )


@dataclass
class WaitingDemand:
    """The scheduler-side unfulfilled demand for one (app, unit).

    Invariants (enforced here, property-tested in ``tests/``):

    - ``total >= 0``;
    - every hint count is ``> 0`` when stored (zeroed hints are dropped);
    - no machine hint exceeds ``total`` and no rack hint exceeds ``total``
      (hints are preferences *within* the total, never extra demand).
    """

    total: int = 0
    machine_hints: Dict[str, int] = field(default_factory=dict)
    rack_hints: Dict[str, int] = field(default_factory=dict)
    avoid: set = field(default_factory=set)
    submit_seq: int = 0

    def apply_delta(self, delta: RequestDelta) -> None:
        """Fold an application's delta into this demand."""
        self.total = max(0, self.total + delta.cluster_delta)
        for hint in delta.hints:
            if hint.level is LocalityLevel.MACHINE:
                table = self.machine_hints
            elif hint.level is LocalityLevel.RACK:
                table = self.rack_hints
            else:
                self.total = max(0, self.total + hint.count)
                continue
            new = table.get(hint.name, 0) + hint.count
            if new > 0:
                table[hint.name] = new
            else:
                table.pop(hint.name, None)
        self.avoid |= set(delta.avoid_add)
        self.avoid -= set(delta.avoid_remove)
        self._clamp_hints()

    def consume(self, machine: str, rack: str, count: int) -> None:
        """Record ``count`` units granted on ``machine`` (in ``rack``)."""
        if count <= 0:
            raise ValueError(f"consume requires positive count, got {count}")
        if count > self.total:
            raise ValueError(f"granting {count} exceeds outstanding total {self.total}")
        self.total -= count
        for table, name in ((self.machine_hints, machine), (self.rack_hints, rack)):
            remaining = table.get(name, 0) - count
            if remaining > 0:
                table[name] = remaining
            else:
                table.pop(name, None)
        self._clamp_hints()

    def wants_machine(self, machine: str) -> int:
        """Units this demand would accept specifically on ``machine`` now."""
        if machine in self.avoid:
            return 0
        return min(self.machine_hints.get(machine, 0), self.total)

    def wants_rack(self, rack: str) -> int:
        if self.total <= 0:
            return 0
        return min(self.rack_hints.get(rack, 0), self.total)

    def wants_anywhere(self) -> int:
        return self.total

    def is_empty(self) -> bool:
        return self.total <= 0

    def _clamp_hints(self) -> None:
        for table in (self.machine_hints, self.rack_hints):
            for name in [n for n, c in table.items() if c > self.total]:
                if self.total > 0:
                    table[name] = self.total
                else:
                    del table[name]

    def snapshot(self) -> dict:
        """Serializable copy (used by protocol full-sync and failover)."""
        return {
            "total": self.total,
            "machine_hints": dict(self.machine_hints),
            "rack_hints": dict(self.rack_hints),
            "avoid": sorted(self.avoid),
        }

    @staticmethod
    def from_snapshot(data: dict, submit_seq: int = 0) -> "WaitingDemand":
        demand = WaitingDemand(
            total=int(data["total"]),
            machine_hints=dict(data.get("machine_hints", {})),
            rack_hints=dict(data.get("rack_hints", {})),
            avoid=set(data.get("avoid", ())),
            submit_seq=submit_seq,
        )
        demand._clamp_hints()
        return demand
