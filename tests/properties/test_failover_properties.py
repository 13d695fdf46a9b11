"""Property tests: failover rebuild equals pre-crash state for arbitrary
workload histories (the central §4.3.1 guarantee)."""

from hypothesis import given, settings, strategies as st

from repro.core.quota import QuotaManager
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler
from repro.core.units import ScheduleUnit

SLOT = ResourceVector.of(cpu=100, memory=2048)
CAP = SLOT * 4

APPS = ("a", "b", "c")
op_strategy = st.lists(
    st.tuples(st.sampled_from(["request", "return", "cancel"]),
              st.sampled_from(APPS),
              st.integers(min_value=1, max_value=5)),
    max_size=30)


def drive(scheduler, ops):
    units = {}
    for app in APPS:
        scheduler.register_app(app)
        unit = ScheduleUnit(app, 1, SLOT)
        scheduler.define_unit(unit)
        units[app] = unit
    for op, app, count in ops:
        unit = units[app]
        if op == "request":
            scheduler.apply_request_delta(RequestDelta.initial(unit.key, count))
        elif op == "cancel":
            scheduler.apply_request_delta(
                RequestDelta(unit.key, cluster_delta=-count))
        else:
            held = scheduler.ledger.machines_of(unit.key)
            if held:
                machine, have = held[0]
                scheduler.return_resource(unit.key, machine,
                                          min(count, have))
    return units


def rebuild_from(old):
    """Simulate the §4.3.1 soft-state rebuild: new scheduler, peers re-send
    capacity, allocations, unit definitions and outstanding demand."""
    new = FuxiScheduler()
    for app in APPS:
        new.register_app(app)
    # agents re-send capacity (no scheduling during rebuild)
    for machine in old.pool.machines():
        new.add_machine(machine, old.rack_of(machine),
                        old.pool.capacity(machine), schedule=False)
    # AMs re-send ScheduleUnit configs
    for app in APPS:
        for unit in old.units.units_of(app):
            new.define_unit(unit)
    # agents re-send allocations
    for unit_key, machine, count in old.ledger.entries():
        new.restore_allocation(unit_key, machine, count)
    # AMs re-send outstanding demand
    for unit_key, snapshot in old.snapshot_demands().items():
        from repro.core.request import WaitingDemand
        new.reinstall_demand(unit_key, WaitingDemand.from_snapshot(snapshot),
                             place=False)
    return new


@settings(max_examples=50, deadline=None)
@given(op_strategy)
def test_rebuild_reproduces_ledger_and_pool(ops):
    old = FuxiScheduler()
    for i in range(3):
        old.add_machine(f"m{i}", f"r{i % 2}", CAP)
    drive(old, ops)
    new = rebuild_from(old)
    assert new.ledger.equals(old.ledger)
    for machine in old.pool.machines():
        assert new.pool.free(machine) == old.pool.free(machine)
    new.check_conservation()


@settings(max_examples=50, deadline=None)
@given(op_strategy)
def test_rebuild_reproduces_demand(ops):
    old = FuxiScheduler()
    for i in range(3):
        old.add_machine(f"m{i}", f"r{i % 2}", CAP)
    drive(old, ops)
    new = rebuild_from(old)
    assert new.waiting_units_total() == old.waiting_units_total()
    for unit_key, snapshot in old.snapshot_demands().items():
        restored = new.demand_of(unit_key)
        if snapshot["total"] == 0 and restored is None:
            continue
        assert restored is not None
        assert restored.total == snapshot["total"]


@settings(max_examples=40, deadline=None)
@given(op_strategy)
def test_post_rebuild_scheduling_continues_correctly(ops):
    """After the rebuild, a full scheduling pass grants exactly what the old
    scheduler would have been able to grant."""
    old = FuxiScheduler()
    for i in range(3):
        old.add_machine(f"m{i}", f"r{i % 2}", CAP)
    drive(old, ops)
    old_decisions = old.schedule_all_machines()
    new = rebuild_from(old)
    new_decisions = new.schedule_all_machines()
    granted_old = sum(g.count for g in old_decisions if g.count > 0)
    granted_new = sum(g.count for g in new_decisions if g.count > 0)
    assert granted_new == granted_old
    new.check_conservation()
