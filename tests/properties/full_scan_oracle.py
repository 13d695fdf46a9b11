"""The machine-event scan as it was before the waiting-shape census.

:class:`FullScanScheduler` overrides ``FuxiScheduler._schedule_machine``
with the body that method had at the commit before the census (the
avoid-eviction fix), kept verbatim: it has no early exit, so after the last
grant a free-up allows it still pops, rejects and re-pushes up to
``schedule_scan_limit`` candidates.  Slow and obviously complete — the
oracle ``test_machine_event_differential.py`` drives the fast path against.
Do not "tidy" the copied body; its value is that it is the old code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.grant import Grant
from repro.core.request import LocalityLevel, WaitingDemand
from repro.core.scheduler import FuxiScheduler
from repro.core.units import UnitKey


class FullScanScheduler(FuxiScheduler):
    """FuxiScheduler with the pre-census machine-event scan."""

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
        exclusive = (not self._passthrough) and self.policy.exclusive_event
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
