"""ScheduleUnit: the unit of resource allocation (paper §3.2.2, Figure 4).

A ScheduleUnit is an application-defined bundle such as ``{1 core CPU, 2 GB
memory}`` with a priority.  All of an application's requests and grants are
counted in whole units of one of its ScheduleUnits; an application may define
several units (e.g. one for mappers, one for reducers) with different sizes
and priorities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.resources import ResourceVector


@dataclass(frozen=True, slots=True)
class ScheduleUnit:
    """Unit-size resource description, identified by (app_id, slot_id).

    Attributes:
        app_id: owning application.
        slot_id: application-local identifier (the paper's ``slot_id``).
        resources: per-unit resource vector (the paper's ``slot_def.resource``).
        priority: scheduling priority; **lower number = higher priority**,
            matching the paper's examples where P1 outranks P2.
        max_count: cap on simultaneously granted units (``max_slot_count``).
    """

    app_id: str
    slot_id: int
    resources: ResourceVector
    priority: int = 100
    max_count: int = 10 ** 9

    def __post_init__(self) -> None:
        if self.resources.is_zero():
            raise ValueError("ScheduleUnit resources must be non-zero")
        if self.max_count <= 0:
            raise ValueError(f"max_count must be positive, got {self.max_count}")

    @property
    def key(self) -> "UnitKey":
        return UnitKey(self.app_id, self.slot_id)

    def __repr__(self) -> str:
        return (
            f"ScheduleUnit({self.app_id}#{self.slot_id}, {self.resources!r}, "
            f"prio={self.priority}, max={self.max_count})"
        )


class UnitKey(NamedTuple):
    """Globally unique ScheduleUnit identifier.

    A named tuple so hashing and comparison run in C: the scheduler's
    dicts and sets probe these keys millions of times a run.  The hash
    must stay that of the plain tuple ``(app_id, slot_id)``: sets of keys
    iterate in hash order, so a different hash could reorder whatever is
    decided while iterating one.
    """

    app_id: str
    slot_id: int

    def __repr__(self) -> str:
        return f"{self.app_id}#{self.slot_id}"


@dataclass
class UnitRegistry:
    """ScheduleUnit definitions known to a scheduler, keyed by UnitKey."""

    _units: dict = field(default_factory=dict)
    # app -> its unit keys (ordered set); app exit drops only its own keys
    _keys_of_app: dict = field(default_factory=dict)

    def define(self, unit: ScheduleUnit) -> None:
        """Register or replace a unit definition."""
        self._units[unit.key] = unit
        self._keys_of_app.setdefault(unit.key.app_id, {})[unit.key] = None

    def get(self, key: UnitKey) -> ScheduleUnit:
        try:
            return self._units[key]
        except KeyError:
            raise KeyError(f"unknown ScheduleUnit {key!r}") from None

    def definitions(self) -> dict:
        """Live UnitKey -> ScheduleUnit mapping, for tight read-only loops
        (the machine-event walk); do not modify."""
        return self._units

    def drop_app(self, app_id: str) -> None:
        """Remove every unit belonging to ``app_id`` (application exit)."""
        for key in self._keys_of_app.pop(app_id, ()):
            self._units.pop(key, None)

    def units_of(self, app_id: str):
        return [u for k, u in sorted(self._units.items()) if k.app_id == app_id]

    def keys(self):
        """Every known UnitKey, sorted (stable probe iteration order)."""
        return sorted(self._units)

    def __contains__(self, key: UnitKey) -> bool:
        return key in self._units

    def __len__(self) -> int:
        return len(self._units)
