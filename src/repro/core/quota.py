"""Quota groups for multi-tenancy (paper §3.4).

Every application belongs to exactly one quota group.  Scheduling is
work-conserving: an idle group's resources are usable by others, but when
every group is busy each group's *minimum* quota is guaranteed — enforced,
when needed, by quota preemption (see :mod:`repro.core.preemption`).

Groups may also carry an optional hard maximum, which the scheduler checks
before granting ("check ... group quota availability before scheduling").
Dynamic quota adjustment is out of the paper's scope and ours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.resources import ResourceVector

DEFAULT_GROUP = "default"


@dataclass
class QuotaGroup:
    """A named tenant group.

    Attributes:
        name: group identifier.
        min_quota: resources guaranteed to the group under contention.
        max_quota: optional hard cap on the group's total allocation.
    """

    name: str
    min_quota: ResourceVector = field(default_factory=ResourceVector)
    max_quota: Optional[ResourceVector] = None


class QuotaManager:
    """Group registry plus incremental usage accounting."""

    def __init__(self) -> None:
        self._groups: Dict[str, QuotaGroup] = {DEFAULT_GROUP: QuotaGroup(DEFAULT_GROUP)}
        self._app_group: Dict[str, str] = {}
        self._usage: Dict[str, ResourceVector] = {}

    # --------------------------------------------------------------- #
    # configuration
    # --------------------------------------------------------------- #

    def define_group(self, group: QuotaGroup) -> None:
        self._groups[group.name] = group

    def assign_app(self, app_id: str, group_name: str = DEFAULT_GROUP) -> None:
        if group_name not in self._groups:
            raise KeyError(f"unknown quota group {group_name!r}")
        self._app_group[app_id] = group_name

    def remove_app(self, app_id: str) -> None:
        self._app_group.pop(app_id, None)

    def group_of(self, app_id: str) -> str:
        return self._app_group.get(app_id, DEFAULT_GROUP)

    def group(self, name: str) -> QuotaGroup:
        return self._groups[name]

    def groups(self) -> List[QuotaGroup]:
        return [self._groups[name] for name in sorted(self._groups)]

    # --------------------------------------------------------------- #
    # usage accounting
    # --------------------------------------------------------------- #

    def charge(self, app_id: str, amount: ResourceVector) -> None:
        group = self.group_of(app_id)
        self._usage[group] = self.usage(group) + amount

    def refund(self, app_id: str, amount: ResourceVector) -> None:
        group = self.group_of(app_id)
        self._usage[group] = self.usage(group).monus(amount)

    def usage(self, group_name: str) -> ResourceVector:
        return self._usage.get(group_name, ResourceVector())

    # --------------------------------------------------------------- #
    # policy questions
    # --------------------------------------------------------------- #

    def within_max(self, app_id: str, additional: ResourceVector) -> bool:
        """Would granting ``additional`` keep the app's group under its cap?"""
        group = self._groups[self.group_of(app_id)]
        if group.max_quota is None:
            return True
        return (self.usage(group.name) + additional).fits_in(group.max_quota)

    def below_min(self, group_name: str) -> bool:
        """Is the group currently using less than its guaranteed minimum?"""
        group = self._groups[group_name]
        if group.min_quota.is_zero():
            return False
        return not group.min_quota.fits_in(self.usage(group_name))

    def min_deficit(self, group_name: str) -> ResourceVector:
        """How far the group is below its guaranteed minimum."""
        return self._groups[group_name].min_quota.monus(self.usage(group_name))

    def over_min(self, group_name: str) -> ResourceVector:
        """How much the group is using beyond its guaranteed minimum."""
        return self.usage(group_name).monus(self._groups[group_name].min_quota)

    def overusing_groups(self) -> List[str]:
        """Groups using more than their minimum (preemption donor candidates)."""
        return [
            name for name in sorted(self._groups)
            if not self.over_min(name).is_zero()
        ]
