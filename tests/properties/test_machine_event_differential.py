"""Differential test of the machine-event fast path (ROADMAP item 4, first
slice): ``FuxiScheduler`` with its waiting-shape census against the full
candidate scan it replaced (``full_scan_oracle.FullScanScheduler``).

Both schedulers get the same Hypothesis-generated operation sequence under
every registered policy.  After every operation the returned decisions and
``queue_depths()`` must be equal, and a final drain (an event on every
machine, then every held unit returned one by one) must keep producing
equal grants — a skipped scan that had left a queue in another order would
show there.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import known_policies
from repro.core.quota import QuotaGroup, QuotaManager
from repro.core.request import (LocalityHint, LocalityLevel, RequestDelta,
                                WaitingDemand)
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler, SchedulerConfig
from repro.core.units import ScheduleUnit

from tests.properties.full_scan_oracle import FullScanScheduler

RACKS = ("r0", "r1")
MACHINES = tuple(f"{rack}m{i}" for rack in RACKS for i in range(2))
CAPACITY = ResourceVector.of(cpu=400, memory=8192)
SHAPES = (ResourceVector.of(cpu=100, memory=2048),
          ResourceVector.of(cpu=200, memory=1024),
          ResourceVector.of(cpu=50, memory=4096),
          ResourceVector.of(cpu=300, memory=3072))
APPS = ("a", "b", "c", "d")
#: c and d share a quota ceiling of a machine and a half
GROUP_OF = {"c": "capped", "d": "capped"}
CEILING = ResourceVector.of(cpu=600, memory=12288)
PRIORITIES = (50, 100)
MAX_COUNTS = (1, 2, 3, 10 ** 9)

machine_index = st.integers(0, len(MACHINES) - 1)
selector = st.integers(0, 63)
machine_hints = st.lists(st.tuples(machine_index, st.integers(-2, 3)),
                         max_size=2)
rack_hints = st.lists(st.tuples(st.integers(0, len(RACKS) - 1),
                                st.integers(-2, 3)), max_size=1)
request_op = st.tuples(
    st.just("request"), selector, st.integers(-8, 8), machine_hints,
    rack_hints, st.frozensets(machine_index, max_size=2),
    st.frozensets(machine_index, max_size=1))
return_op = st.tuples(st.just("return"), selector, st.integers(1, 3))
define_op = st.tuples(
    st.just("define"), st.sampled_from(APPS), st.integers(1, 2),
    st.integers(0, len(SHAPES) - 1), st.sampled_from(PRIORITIES),
    st.sampled_from(MAX_COUNTS))
operations = st.lists(st.one_of(
    define_op, request_op, request_op, return_op, return_op,
    st.tuples(st.just("cancel"), selector),
    st.tuples(st.just("reinstall"), selector, st.integers(0, 6),
              machine_hints, st.booleans()),
    st.tuples(st.just("unregister"), st.sampled_from(APPS)),
    st.tuples(st.sampled_from(("disable", "enable", "remove", "add",
                               "event")), machine_index),
), min_size=8, max_size=60)


def build(cls, policy: str, scan_limit: int) -> FuxiScheduler:
    quota = QuotaManager()
    quota.define_group(QuotaGroup("capped", max_quota=CEILING))
    scheduler = cls(SchedulerConfig(policy=policy,
                                    schedule_scan_limit=scan_limit),
                    quota=quota)
    for machine in MACHINES:
        scheduler.add_machine(machine, machine[:2], CAPACITY)
    # Start saturated — the regime the early exit exists for: a filler
    # application holds every slot, so what the generated applications ask
    # for waits until a return frees something.
    scheduler.register_app("filler")
    filler = ScheduleUnit("filler", 1, SHAPES[0])
    scheduler.define_unit(filler)
    scheduler.apply_request_delta(RequestDelta(filler.key, 16))
    return scheduler


def apply(scheduler: FuxiScheduler, op: tuple) -> list:
    """Run one generated operation; selectors resolve against the
    scheduler's own books, so equal histories resolve equally."""
    kind = op[0]
    if kind == "define":
        _, app, slot, shape, priority, max_count = op
        if app not in scheduler._apps:
            scheduler.register_app(app, GROUP_OF.get(app, "default"))
        unit = ScheduleUnit(app, slot, SHAPES[shape], priority, max_count)
        if unit.key in scheduler.units and scheduler.ledger.total_units(
                unit.key):
            # a unit with running grants keeps its size (their books are
            # not re-priced); rank and cap may change under it
            unit = ScheduleUnit(app, slot,
                                scheduler.units.get(unit.key).resources,
                                priority, max_count)
        scheduler.define_unit(unit)
        return []
    if kind in ("request", "reinstall", "cancel"):
        keys = scheduler.units.keys()
        if not keys:
            return []
        unit_key = keys[op[1] % len(keys)]
        if kind == "cancel":
            # withdraw exactly what is outstanding: the scheduler forgets
            # the demand, and a later request queues as a new submission
            demand = scheduler.demand_of(unit_key)
            if demand is None:
                return []
            return scheduler.apply_request_delta(RequestDelta(
                unit_key, -demand.total,
                avoid_remove=frozenset(demand.avoid)))
        if kind == "reinstall":
            _, _, total, hints, place = op
            demand = WaitingDemand.from_snapshot({
                "total": total,
                "machine_hints": {MACHINES[m]: c for m, c in hints if c > 0}})
            return scheduler.reinstall_demand(unit_key, demand, place=place)
        _, _, delta, hints, racks, avoid_add, avoid_remove = op
        lines = [LocalityHint(LocalityLevel.MACHINE, MACHINES[m], c)
                 for m, c in hints if c]
        lines += [LocalityHint(LocalityLevel.RACK, RACKS[r], c)
                  for r, c in racks if c]
        return scheduler.apply_request_delta(RequestDelta(
            unit_key, delta, tuple(lines),
            frozenset(MACHINES[m] for m in avoid_add),
            frozenset(MACHINES[m] for m in avoid_remove)))
    if kind == "return":
        held = sorted(scheduler.ledger.entries())
        if not held:
            return []
        unit_key, machine, count = held[op[1] % len(held)]
        return scheduler.return_resource(unit_key, machine,
                                         min(op[2], count))
    if kind == "unregister":
        if op[1] not in scheduler._apps:
            return []
        return scheduler.unregister_app(op[1])
    machine = MACHINES[op[1]]
    if kind == "disable":
        scheduler.disable_machine(machine)
        return []
    if kind == "enable":
        return scheduler.enable_machine(machine)
    if kind == "remove":
        return scheduler.remove_machine(machine)
    if kind == "add":
        return scheduler.add_machine(machine, machine[:2], CAPACITY)
    return scheduler.machine_event(machine)


def drain(scheduler: FuxiScheduler):
    """The following events: serve every machine, then hand every held
    unit back one at a time, yielding each event's decisions."""
    for machine in MACHINES:
        scheduler.enable_machine(machine)
    for _ in range(200):
        held = sorted(scheduler.ledger.entries())
        if not held:
            return
        unit_key, machine, _ = held[0]
        yield scheduler.return_resource(unit_key, machine, 1)


@pytest.mark.parametrize("policy", known_policies())
@settings(max_examples=300, deadline=None)
@given(ops=operations, scan_limit=st.sampled_from((2, 64)))
def test_census_exit_matches_the_full_scan(policy, ops, scan_limit):
    fast = build(FuxiScheduler, policy, scan_limit)
    oracle = build(FullScanScheduler, policy, scan_limit)
    for step, op in enumerate(ops):
        assert apply(fast, op) == apply(oracle, op), (step, op)
        assert fast.queue_depths() == oracle.queue_depths(), (step, op)
        assert fast.census_violations() == []
        fast.check_conservation()
    for step, (got, expected) in enumerate(zip(drain(fast), drain(oracle))):
        assert got == expected, ("drain", step)
    assert fast.ledger.equals(oracle.ledger)
    assert fast.queue_depths() == oracle.queue_depths()


def test_the_saturated_start_takes_the_early_exit():
    """Guard against a vacuous differential test: from ``build``'s
    saturated start, a free-up too small for the one waiting shape is
    served without a candidate scan, and a scan that grants stops at the
    exit although the machine still has free memory."""
    scheduler = build(FuxiScheduler, "fuxi", 64)
    scans = []
    walk = scheduler.tree.walk
    scheduler.tree.walk = (
        lambda machine, *args, **kwargs: scans.append(machine)
        or walk(machine, *args, **kwargs))
    filler = ScheduleUnit("filler", 1, SHAPES[0]).key
    scheduler.register_app("b")
    big = ScheduleUnit("b", 1, SHAPES[3])
    scheduler.define_unit(big)
    assert scheduler.apply_request_delta(RequestDelta(big.key, 2)) == []
    assert scheduler.return_resource(filler, "r0m0", 1) == []
    assert scans == []
    granted = scheduler.return_resource(filler, "r0m0", 2)
    assert [(g.unit_key, g.count) for g in granted] == [(big.key, 1)]
    assert scans == ["r0m0"]
    assert not scheduler.pool.free("r0m0").is_zero()
    assert scheduler.census_violations() == []
