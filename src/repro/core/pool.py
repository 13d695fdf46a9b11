"""Free resource pool: per-machine capacities and remaining free vectors.

One of the two data structures of the FuxiMaster scheduler (paper §3.3); the
other is the locality tree.  The pool answers "how many units of size *u*
still fit on machine *m*" and conserves ``free + allocated == capacity`` at
all times (a property test pins this).

Placement ranking is served by incrementally-maintained *shape indexes*:
for each distinct unit size the scheduler asks about, the pool keeps every
machine's whole-unit fit count bucketed by count (machines sorted by name
inside a bucket).  An allocate/release touches only that machine's entry in
each index, so :meth:`best_fit_machines` degenerates to walking buckets in
descending order — no per-machine vector math and no sort per request.  The
returned ranking is exactly the old scan's ``(-units, name)`` order, which
an equivalence test pins on randomized demand sets.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.resources import ResourceVector

#: stop indexing new shapes beyond this many distinct unit sizes (real
#: workloads use a handful; the fallback scan keeps exotic callers correct).
_MAX_SHAPE_INDEXES = 32

_ZERO = ResourceVector()


class _ShapeIndex:
    """Per-unit-size fit counts, bucketed by count for ranked iteration."""

    __slots__ = ("unit_size", "units", "buckets", "bucket_keys")

    def __init__(self, unit_size: ResourceVector):
        self.unit_size = unit_size
        self.units: Dict[str, int] = {}          # machine -> fit count (> 0)
        self.buckets: Dict[int, List[str]] = {}  # count -> sorted machines
        self.bucket_keys: List[int] = []         # ascending counts

    def update(self, machine: str, units: int) -> None:
        old = self.units.get(machine, 0)
        if units == old:
            return
        if old:
            bucket = self.buckets[old]
            if len(bucket) == 1:
                del self.buckets[old]
                del self.bucket_keys[bisect_left(self.bucket_keys, old)]
            else:
                del bucket[bisect_left(bucket, machine)]
        if units > 0:
            self.units[machine] = units
            bucket = self.buckets.get(units)
            if bucket is None:
                self.buckets[units] = [machine]
                insort(self.bucket_keys, units)
            else:
                insort(bucket, machine)
        else:
            self.units.pop(machine, None)

    def bulk_build(self, machines: List[str], counts: List[int]) -> None:
        """Populate a fresh index from name-sorted machines and fit counts.

        Appending machines in name order keeps every bucket sorted without
        a single ``insort`` — the O(n²) list movement of building a large
        index one update at a time becomes one linear pass.  The resulting
        structure is exactly what n ``update`` calls would have produced.
        """
        units = self.units
        buckets = self.buckets
        for machine, count in zip(machines, counts):
            if count <= 0:
                continue
            units[machine] = count
            bucket = buckets.get(count)
            if bucket is None:
                buckets[count] = [machine]
            else:
                bucket.append(machine)
        self.bucket_keys = sorted(buckets)

    def ranked(self, disabled: set,
               limit: Optional[int] = None) -> List[Tuple[str, int]]:
        """Snapshot of (machine, units), most units first, name tie-break.

        ``limit`` truncates to the first ``limit`` machines — the exact
        prefix of the unlimited ranking — so budgeted callers don't pay to
        materialize every machine in the cluster per decision.
        """
        out: List[Tuple[str, int]] = []
        if limit is None:
            if disabled:
                for units in reversed(self.bucket_keys):
                    out.extend((m, units) for m in self.buckets[units]
                               if m not in disabled)
            else:
                for units in reversed(self.bucket_keys):
                    out.extend((m, units) for m in self.buckets[units])
            return out
        for units in reversed(self.bucket_keys):
            for machine in self.buckets[units]:
                if machine in disabled:
                    continue
                out.append((machine, units))
                if len(out) >= limit:
                    return out
        return out


class FreeResourcePool:
    """Tracks total and free resources of every schedulable machine."""

    def __init__(self) -> None:
        self._capacity: Dict[str, ResourceVector] = {}
        self._free: Dict[str, ResourceVector] = {}
        self._disabled: set = set()
        # Machines with any free resource at all.  Placement scans iterate
        # this set instead of every machine, so a saturated cluster costs
        # O(1) per request instead of O(machines).
        self._has_free: set = set()
        # unit-size -> incrementally maintained fit index (see module doc)
        self._shape_indexes: Dict[ResourceVector, _ShapeIndex] = {}
        self._sorted_machines: Optional[List[str]] = None
        # Running per-dimension totals, maintained by delta on every
        # capacity/free change: total_capacity/total_free are O(dims) reads
        # instead of O(machines) rebuilds (the live sampler polls them
        # every period).
        self._cap_totals: Dict[str, float] = {}
        self._free_totals: Dict[str, float] = {}
        self._cap_total_vec: Optional[ResourceVector] = None
        self._free_total_vec: Optional[ResourceVector] = None

    @staticmethod
    def _totals_shift(totals: Dict[str, float],
                      old: Optional[ResourceVector],
                      new: Optional[ResourceVector]) -> None:
        if old is not None:
            for name, amount in old.as_dict().items():
                totals[name] = totals.get(name, 0.0) - amount
        if new is not None:
            for name, amount in new.as_dict().items():
                totals[name] = totals.get(name, 0.0) + amount

    def _update_free(self, machine: str, free: ResourceVector) -> None:
        self._totals_shift(self._free_totals, self._free.get(machine), free)
        self._free_total_vec = None
        self._free[machine] = free
        if free.is_zero():
            self._has_free.discard(machine)
            for index in self._shape_indexes.values():
                index.update(machine, 0)
        else:
            self._has_free.add(machine)
            for index in self._shape_indexes.values():
                index.update(machine,
                             index.unit_size.max_units_in(free))

    def _shape_index(self, unit_size: ResourceVector) -> Optional[_ShapeIndex]:
        """The (lazily built) index for this unit size, or None if over cap.

        First build is one fit-count pass over the machines with free
        resources plus a linear bucket fill — no insort (see
        ``_ShapeIndex.bulk_build``).
        """
        index = self._shape_indexes.get(unit_size)
        if index is None:
            if len(self._shape_indexes) >= _MAX_SHAPE_INDEXES:
                return None
            index = _ShapeIndex(unit_size)
            machines = sorted(self._has_free)
            free = self._free
            max_units_in = unit_size.max_units_in
            index.bulk_build(machines,
                             [max_units_in(free[m]) for m in machines])
            self._shape_indexes[unit_size] = index
        return index

    # --------------------------------------------------------------- #
    # machine membership
    # --------------------------------------------------------------- #

    def add_machine(self, machine: str, capacity: ResourceVector) -> None:
        """Register a machine (or refresh its capacity if already present).

        Refreshing preserves the allocated amount: free = new_cap - allocated,
        clamped at zero if the capacity shrank below what is allocated.
        """
        if machine in self._capacity:
            self._refresh_capacity(machine, capacity)
        else:
            self.add_machines((machine,), (capacity,))

    def _refresh_capacity(self, machine: str, capacity: ResourceVector) -> None:
        allocated = self._capacity[machine].monus(self._free[machine])
        self._totals_shift(self._cap_totals, self._capacity[machine], capacity)
        self._cap_total_vec = None
        self._capacity[machine] = capacity
        self._update_free(machine, capacity.monus(allocated))

    def add_machines(self, machines: Sequence[str],
                     capacities: Sequence[ResourceVector]) -> None:
        """:meth:`add_machine` for each pair, in order, in one pass.

        The running totals take each machine's amounts in order, so a
        batch and one-by-one calls give bit-identical floats.
        """
        capacity_of, free_of = self._capacity, self._free
        cap_totals, free_totals = self._cap_totals, self._free_totals
        has_free = self._has_free
        indexes = list(self._shape_indexes.values())
        for machine, capacity in zip(machines, capacities):
            if machine in capacity_of:
                self._refresh_capacity(machine, capacity)
                continue
            for name, amount in capacity.as_dict().items():
                cap_totals[name] = cap_totals.get(name, 0.0) + amount
                free_totals[name] = free_totals.get(name, 0.0) + amount
            capacity_of[machine] = free_of[machine] = capacity
            if not capacity.is_zero():
                has_free.add(machine)
                for index in indexes:
                    index.update(machine,
                                 index.unit_size.max_units_in(capacity))
        self._sorted_machines = None
        self._cap_total_vec = self._free_total_vec = None

    def remove_machine(self, machine: str) -> None:
        """Drop a machine entirely (node down)."""
        capacity = self._capacity.pop(machine, None)
        if capacity is not None:
            self._sorted_machines = None
            self._totals_shift(self._cap_totals, capacity, None)
            self._cap_total_vec = None
        free = self._free.pop(machine, None)
        if free is not None:
            self._totals_shift(self._free_totals, free, None)
            self._free_total_vec = None
        self._disabled.discard(machine)
        self._has_free.discard(machine)
        for index in self._shape_indexes.values():
            index.update(machine, 0)

    def disable(self, machine: str) -> None:
        """Keep the machine's books but stop offering its resources (blacklist)."""
        if machine in self._capacity:
            self._disabled.add(machine)

    def enable(self, machine: str) -> None:
        self._disabled.discard(machine)

    def is_disabled(self, machine: str) -> bool:
        return machine in self._disabled

    def has_machine(self, machine: str) -> bool:
        return machine in self._capacity

    def machine_count(self) -> int:
        """Number of registered machines (O(1))."""
        return len(self._capacity)

    def machines(self) -> List[str]:
        """Sorted machine names.  Cached; callers must not mutate it."""
        cached = self._sorted_machines
        if cached is None:
            cached = self._sorted_machines = sorted(self._capacity)
        return cached

    def schedulable_machines(self) -> Iterator[str]:
        disabled = self._disabled
        for machine in self.machines():
            if machine not in disabled:
                yield machine

    # --------------------------------------------------------------- #
    # accounting
    # --------------------------------------------------------------- #

    def capacity(self, machine: str) -> ResourceVector:
        return self._capacity.get(machine, _ZERO)

    def capacities(self) -> Dict[str, ResourceVector]:
        """Live machine -> capacity mapping of the registered machines, for
        tight read-only loops (the heartbeat roll-up); do not modify."""
        return self._capacity

    def free(self, machine: str) -> ResourceVector:
        return self._free.get(machine, _ZERO)

    def allocated(self, machine: str) -> ResourceVector:
        return self.capacity(machine).monus(self.free(machine))

    @staticmethod
    def _totals_vector(totals: Dict[str, float]) -> ResourceVector:
        # Running totals can retain sub-nanoscale residue after a machine's
        # contribution is subtracted back out; anything below 1e-12 is
        # arithmetic dust, never a real resource amount.
        return ResourceVector(
            {name: amount for name, amount in totals.items()
             if amount > 1e-12})

    def total_capacity(self) -> ResourceVector:
        vec = self._cap_total_vec
        if vec is None:
            vec = self._cap_total_vec = self._totals_vector(self._cap_totals)
        return vec

    def total_free(self) -> ResourceVector:
        vec = self._free_total_vec
        if vec is None:
            vec = self._free_total_vec = self._totals_vector(self._free_totals)
        return vec

    def total_allocated(self) -> ResourceVector:
        return self.total_capacity().monus(self.total_free())

    def allocate(self, machine: str, amount: ResourceVector) -> None:
        """Take ``amount`` from the machine's free vector.  Raises if it doesn't fit."""
        free = self._free.get(machine)
        if free is None:
            raise KeyError(f"unknown machine {machine!r}")
        if not amount.fits_in(free):
            raise ValueError(f"{amount!r} does not fit in free {free!r} on {machine}")
        self._update_free(machine, free - amount)

    def release(self, machine: str, amount: ResourceVector) -> None:
        """Return ``amount`` to the machine's free vector, clamped at capacity.

        Clamping (rather than raising) matters during failover rebuilds where
        capacity reports and allocation reports can arrive in either order.
        """
        if machine not in self._free:
            return
        restored = self._free[machine] + amount
        capacity = self._capacity[machine]
        if not restored.fits_in(capacity):
            clamped = {n: min(a, capacity.get(n))
                       for n, a in restored.as_dict().items()}
            restored = ResourceVector(clamped)
        self._update_free(machine, restored)

    def fits(self, machine: str, amount: ResourceVector) -> bool:
        if machine in self._disabled:
            return False
        return amount.fits_in(self.free(machine))

    def max_units(self, machine: str, unit_size: ResourceVector) -> int:
        """Whole units of ``unit_size`` that still fit on ``machine`` (0 if disabled)."""
        if machine in self._disabled:
            return 0
        return unit_size.max_units_in(self.free(machine))

    def snapshot(self) -> Dict[str, object]:
        """Deterministic pool summary for the live telemetry sampler.

        Per-dimension free and allocated totals plus machine membership —
        every value is a pure function of the grant history, so sampled
        snapshots export byte-identically for a fixed seed.
        """
        return {
            "machines": len(self._capacity),
            "disabled": len(self._disabled),
            "free": self.total_free().as_dict(),
            "allocated": self.total_allocated().as_dict(),
        }

    def utilization(self, dimension: str) -> float:
        """allocated / capacity along ``dimension`` over all machines (0 if none)."""
        cap = self.total_capacity().get(dimension)
        if cap <= 0:
            return 0.0
        return self.total_allocated().get(dimension) / cap

    def best_fit_machines(self, unit_size: ResourceVector,
                          candidates: Optional[Iterator[str]] = None,
                          limit: Optional[int] = None) -> List[Tuple[str, int]]:
        """Candidate machines ordered most-free-first with unit counts.

        Sorting by descending free units spreads load (the paper's "load
        balance will also be considered").  Served from the shape index —
        the result is a snapshot, so callers may allocate while iterating.
        ``limit`` keeps only the first ``limit`` machines of the ranking
        (exact prefix — see :meth:`_ShapeIndex.ranked`).
        """
        index = self._shape_index(unit_size)
        if index is not None and candidates is None:
            return index.ranked(self._disabled, limit)
        disabled = self._disabled
        if index is not None:
            fit_units = index.units
            scored = [(machine, fit_units[machine])
                      for machine in candidates
                      if machine in fit_units and machine not in disabled]
        else:
            # over the shape cap: a fit-count scan of the candidates, or of
            # every machine with free resources
            if candidates is None:
                candidates = self._has_free
            scored = []
            for machine in candidates:
                units = self.max_units(machine, unit_size)
                if units > 0:
                    scored.append((machine, units))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored if limit is None else scored[:limit]
