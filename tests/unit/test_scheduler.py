"""Unit + property tests for the FuxiScheduler core (paper §3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import FuxiPolicy
from repro.core.quota import QuotaGroup
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler
from repro.core.units import ScheduleUnit, UnitKey

SLOT = ResourceVector.of(cpu=100, memory=2048)
CAP = SLOT * 4   # 4 slots per machine


class NoPreemption(FuxiPolicy):
    """Fuxi with the §3.4 preemption turned off."""

    enable_preemption = False


def make_scheduler(machines=4, racks=2, preemption=True):
    scheduler = FuxiScheduler(
        policy=FuxiPolicy() if preemption else NoPreemption())
    for i in range(machines):
        scheduler.add_machine(f"m{i}", f"r{i % racks}", CAP)
    return scheduler


def app_unit(scheduler, app_id="app1", slot_id=1, priority=100,
             max_count=10 ** 9, group="default", unit_size=SLOT):
    if app_id not in scheduler._apps:
        scheduler.register_app(app_id, group)
    unit = ScheduleUnit(app_id, slot_id, unit_size, priority, max_count)
    scheduler.define_unit(unit)
    return unit


def granted_total(decisions):
    return sum(g.count for g in decisions if g.count > 0)


# ------------------------ basic placement --------------------------- #

def test_simple_request_fully_granted():
    scheduler = make_scheduler()
    unit = app_unit(scheduler)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(unit.key, 6))
    assert granted_total(decisions) == 6
    assert scheduler.ledger.total_units(unit.key) == 6
    scheduler.check_conservation()


def test_machine_hints_satisfied_first():
    scheduler = make_scheduler()
    unit = app_unit(scheduler)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(
        unit.key, 4, machine_hints={"m2": 2}))
    on_m2 = sum(g.count for g in decisions if g.machine == "m2")
    assert on_m2 >= 2


def test_rack_hints_place_within_rack():
    scheduler = make_scheduler(machines=4, racks=2)
    unit = app_unit(scheduler)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(
        unit.key, 4, rack_hints={"r1": 4}))
    machines = {g.machine for g in decisions}
    # r1 contains m1, m3
    assert machines <= {"m1", "m3"}
    assert granted_total(decisions) == 4


def test_excess_demand_queues():
    scheduler = make_scheduler(machines=1)
    unit = app_unit(scheduler)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(unit.key, 10))
    assert granted_total(decisions) == 4
    assert scheduler.demand_of(unit.key).total == 6
    assert scheduler.waiting_units_total() == 6


def test_freeup_serves_waiting_queue():
    scheduler = make_scheduler(machines=1)
    a = app_unit(scheduler, "a")
    b = app_unit(scheduler, "b")
    scheduler.apply_request_delta(RequestDelta.initial(a.key, 4))
    scheduler.apply_request_delta(RequestDelta.initial(b.key, 2))
    decisions = scheduler.return_resource(a.key, "m0", 2)
    assert [ (g.unit_key, g.count) for g in decisions ] == [(b.key, 2)]
    scheduler.check_conservation()


def test_priority_order_on_freeup():
    scheduler = make_scheduler(machines=1, preemption=False)
    filler = app_unit(scheduler, "filler")
    scheduler.apply_request_delta(RequestDelta.initial(filler.key, 4))
    low = app_unit(scheduler, "low", priority=200)
    high = app_unit(scheduler, "high", priority=50)
    scheduler.apply_request_delta(RequestDelta.initial(low.key, 1))
    scheduler.apply_request_delta(RequestDelta.initial(high.key, 1))
    decisions = scheduler.return_resource(filler.key, "m0", 1)
    assert decisions[0].unit_key == high.key


def test_machine_queue_precedence_on_freeup():
    scheduler = make_scheduler(machines=2, preemption=False)
    filler = app_unit(scheduler, "filler")
    scheduler.apply_request_delta(RequestDelta.initial(filler.key, 8))
    anywhere = app_unit(scheduler, "anywhere")
    hinted = app_unit(scheduler, "hinted")
    scheduler.apply_request_delta(RequestDelta.initial(anywhere.key, 1))
    scheduler.apply_request_delta(RequestDelta.initial(
        hinted.key, 1, machine_hints={"m0": 1}))
    decisions = scheduler.return_resource(filler.key, "m0", 1)
    assert decisions[0].unit_key == hinted.key


def test_max_count_caps_grants():
    scheduler = make_scheduler()
    unit = app_unit(scheduler, max_count=3)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(unit.key, 10))
    assert granted_total(decisions) == 3


@pytest.mark.xfail(strict=True, reason=(
    "known defect (DESIGN.md, Known defects): demands at their max_count "
    "stay in the cluster queue and use up schedule_scan_limit"))
def test_capped_demands_do_not_starve_an_open_one():
    """70 demands that can take nothing (each already holds its max_count)
    queue ahead of one that can; the free-up must reach it."""
    scheduler = FuxiScheduler(policy=NoPreemption())
    scheduler.add_machine("m0", "r0", SLOT * 71)
    for i in range(70):
        capped = app_unit(scheduler, f"capped{i:02d}", max_count=1)
        scheduler.apply_request_delta(RequestDelta.initial(capped.key, 2))
    filler = app_unit(scheduler, "filler")
    scheduler.apply_request_delta(RequestDelta.initial(filler.key, 1))
    open_unit = app_unit(scheduler, "open")
    assert scheduler.apply_request_delta(
        RequestDelta.initial(open_unit.key, 1)) == []
    decisions = scheduler.return_resource(filler.key, "m0", 1)
    assert [(g.unit_key, g.count) for g in decisions] == [(open_unit.key, 1)]


@pytest.mark.parametrize("capped", [63, 64])
def test_capped_heads_are_passed_over_without_a_fit_check(capped,
                                                          monkeypatch):
    """``capped`` demands already at their max_count queue ahead of one
    that can take the freed slot.  They still use up the scan budget of 64
    (the known defect above): 63 leave room to reach the open demand, 64 do
    not.  But the walk prices each with the cap alone — no
    ``pool.max_units`` call — and passes over it in place: no queue push."""
    from repro.core import locality

    scheduler = FuxiScheduler(policy=NoPreemption())
    scheduler.add_machine("m0", "r0", SLOT * (capped + 1))
    for i in range(capped):
        unit = app_unit(scheduler, f"capped{i:02d}", max_count=1)
        scheduler.apply_request_delta(RequestDelta.initial(unit.key, 2))
    filler = app_unit(scheduler, "filler")
    scheduler.apply_request_delta(RequestDelta.initial(filler.key, 1))
    open_unit = app_unit(scheduler, "open")
    scheduler.apply_request_delta(RequestDelta.initial(open_unit.key, 1))
    fit_checked, pushed = [], []
    max_units = scheduler.pool.max_units
    scheduler.pool.max_units = (
        lambda machine, shape: fit_checked.append(shape) or max_units(
            machine, shape))
    push = locality._Queue.push
    monkeypatch.setattr(
        locality._Queue, "push",
        lambda queue, priority, seq, unit_key: pushed.append(unit_key)
        or push(queue, priority, seq, unit_key))
    decisions = scheduler.return_resource(filler.key, "m0", 1)
    if capped < 64:
        assert [(g.unit_key, g.count) for g in decisions] == [
            (open_unit.key, 1)]
        assert len(fit_checked) == 1
    else:
        assert decisions == []
        assert fit_checked == []
    assert all(key.app_id in ("open", "filler") for key in pushed)
    queue = scheduler.tree._cluster_queue
    assert len(queue) == capped + (capped >= 64)


def test_avoid_list_respected():
    scheduler = make_scheduler(machines=2)
    unit = app_unit(scheduler)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(
        unit.key, 4, avoid=["m0"]))
    assert all(g.machine == "m1" for g in decisions)


def test_event_on_avoided_machine_keeps_the_demand_queued():
    """An event on m0 reads 0 for a demand avoiding m0, so the lazy peek
    evicts its cluster-queue head; it must be back in the queue for the
    next free-up on a machine it accepts."""
    scheduler = make_scheduler(machines=2, preemption=False)
    filler = app_unit(scheduler, "filler")
    scheduler.apply_request_delta(RequestDelta.initial(filler.key, 8))
    picky = app_unit(scheduler, "picky")
    scheduler.apply_request_delta(RequestDelta.initial(
        picky.key, 1, avoid=["m0"]))
    assert scheduler.return_resource(filler.key, "m0", 1) == []
    decisions = scheduler.return_resource(filler.key, "m1", 1)
    assert [(g.unit_key, g.machine, g.count) for g in decisions] == [
        (picky.key, "m1", 1)]
    scheduler.check_conservation()


@pytest.mark.parametrize("event_between", [False, True])
def test_withdrawn_demand_requeues_behind_later_submissions(event_between):
    """``a`` queues, ``b`` queues, ``a`` withdraws and asks again: ``a`` is
    a new submission behind ``b`` — whether or not a machine event drained
    the entry ``a`` left in the lazy heap in between."""
    scheduler = make_scheduler(machines=1, preemption=False)
    filler = app_unit(scheduler, "filler")
    scheduler.apply_request_delta(RequestDelta.initial(filler.key, 4))
    a = app_unit(scheduler, "a")
    b = app_unit(scheduler, "b")
    scheduler.apply_request_delta(RequestDelta.initial(a.key, 1))
    scheduler.apply_request_delta(RequestDelta.initial(b.key, 1))
    scheduler.apply_request_delta(RequestDelta(a.key, cluster_delta=-1))
    if event_between:
        assert scheduler.machine_event("m0") == []
    scheduler.apply_request_delta(RequestDelta.initial(a.key, 1))
    decisions = scheduler.return_resource(filler.key, "m0", 1)
    assert [g.unit_key for g in decisions] == [b.key]


def test_redefined_priority_reranks_a_waiting_demand():
    scheduler = make_scheduler(machines=1, preemption=False)
    filler = app_unit(scheduler, "filler")
    scheduler.apply_request_delta(RequestDelta.initial(filler.key, 4))
    first = app_unit(scheduler, "first", priority=50)
    second = app_unit(scheduler, "second", priority=100)
    scheduler.apply_request_delta(RequestDelta.initial(first.key, 1))
    scheduler.apply_request_delta(RequestDelta.initial(second.key, 1))
    app_unit(scheduler, "first", priority=200)   # demoted while waiting
    decisions = scheduler.return_resource(filler.key, "m0", 1)
    assert [g.unit_key for g in decisions] == [second.key]
    assert scheduler.census_violations() == []


def test_negative_delta_cancels_waiting():
    scheduler = make_scheduler(machines=1)
    unit = app_unit(scheduler)
    scheduler.apply_request_delta(RequestDelta.initial(unit.key, 10))
    scheduler.apply_request_delta(RequestDelta(unit.key, cluster_delta=-6))
    assert scheduler.waiting_units_total() == 0


def test_return_more_than_held_raises():
    scheduler = make_scheduler()
    unit = app_unit(scheduler)
    scheduler.apply_request_delta(RequestDelta.initial(unit.key, 2))
    machine = scheduler.ledger.machines_of(unit.key)[0][0]
    with pytest.raises(ValueError):
        scheduler.return_resource(unit.key, machine, 3)


def test_unknown_unit_request_raises():
    scheduler = make_scheduler()
    with pytest.raises(KeyError):
        scheduler.apply_request_delta(
            RequestDelta.initial(UnitKey("ghost", 1), 1))
    # the refused request left a demand behind; defining the unit later
    # must still work, and the next delta serves it
    unit = app_unit(scheduler, "ghost")
    assert granted_total(scheduler.apply_request_delta(
        RequestDelta(unit.key, 0))) == 1
    assert scheduler.census_violations() == []


def test_define_unit_requires_registered_app():
    scheduler = make_scheduler()
    with pytest.raises(KeyError):
        scheduler.define_unit(ScheduleUnit("ghost", 1, SLOT))


# ------------------------ multi-dimensional ------------------------- #

def test_all_dimensions_must_fit():
    scheduler = make_scheduler(machines=1)
    wide = app_unit(scheduler, unit_size=ResourceVector.of(cpu=50, memory=8192))
    decisions = scheduler.apply_request_delta(RequestDelta.initial(wide.key, 4))
    assert granted_total(decisions) == 1  # memory-bound despite ample CPU


def test_virtual_resources_limit_concurrency():
    """The paper's ASortResource example (§3.2.1)."""
    scheduler = FuxiScheduler()
    scheduler.add_machine("m0", "r0",
                          CAP + ResourceVector.of(ASortResource=2))
    sort_unit_size = SLOT + ResourceVector.of(ASortResource=1)
    unit = app_unit(scheduler, "asort", unit_size=sort_unit_size)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(unit.key, 4))
    assert granted_total(decisions) == 2  # virtual token bound, not cpu/mem


# ------------------------ machine lifecycle ------------------------- #

def test_machine_removal_revokes():
    scheduler = make_scheduler(machines=2)
    unit = app_unit(scheduler)
    scheduler.apply_request_delta(RequestDelta.initial(unit.key, 8))
    revocations = scheduler.remove_machine("m0")
    assert all(g.count < 0 for g in revocations)
    assert scheduler.ledger.total_units(unit.key) == 4
    scheduler.check_conservation()


def test_disabled_machine_not_used():
    scheduler = make_scheduler(machines=2)
    scheduler.disable_machine("m0")
    unit = app_unit(scheduler)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(unit.key, 8))
    assert all(g.machine == "m1" for g in decisions)
    assert granted_total(decisions) == 4


def test_enable_machine_schedules_waiters():
    scheduler = make_scheduler(machines=2)
    scheduler.disable_machine("m0")
    unit = app_unit(scheduler)
    scheduler.apply_request_delta(RequestDelta.initial(unit.key, 8))
    decisions = scheduler.enable_machine("m0")
    assert granted_total(decisions) == 4
    scheduler.check_conservation()


def test_new_machine_serves_queue():
    scheduler = make_scheduler(machines=1)
    unit = app_unit(scheduler)
    scheduler.apply_request_delta(RequestDelta.initial(unit.key, 8))
    decisions = scheduler.add_machine("m9", "r0", CAP)
    assert granted_total(decisions) == 4


def test_unregister_app_frees_and_regrants():
    scheduler = make_scheduler(machines=1)
    a = app_unit(scheduler, "a")
    b = app_unit(scheduler, "b")
    scheduler.apply_request_delta(RequestDelta.initial(a.key, 4))
    scheduler.apply_request_delta(RequestDelta.initial(b.key, 4))
    decisions = scheduler.unregister_app("a")
    regrants = [g for g in decisions if g.count > 0]
    assert sum(g.count for g in regrants) == 4
    assert all(g.unit_key == b.key for g in regrants)
    scheduler.check_conservation()


# ------------------------ quota & preemption ------------------------ #

def test_quota_max_blocks_grants():
    scheduler = make_scheduler()
    scheduler.quota.define_group(QuotaGroup("capped", max_quota=SLOT * 2))
    unit = app_unit(scheduler, "a", group="capped")
    decisions = scheduler.apply_request_delta(RequestDelta.initial(unit.key, 10))
    assert granted_total(decisions) == 2


def test_priority_preemption_end_to_end():
    scheduler = make_scheduler(machines=1)
    low = app_unit(scheduler, "low", priority=200)
    scheduler.apply_request_delta(RequestDelta.initial(low.key, 4))
    high = app_unit(scheduler, "high", priority=10)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(high.key, 1))
    revoked = [g for g in decisions if g.count < 0]
    granted = [g for g in decisions if g.count > 0]
    assert revoked and revoked[0].unit_key == low.key
    assert granted and granted[0].unit_key == high.key
    scheduler.check_conservation()


def test_quota_preemption_end_to_end():
    scheduler = make_scheduler(machines=1)
    scheduler.quota.define_group(QuotaGroup("vip", min_quota=SLOT * 2))
    hog = app_unit(scheduler, "hog")
    scheduler.apply_request_delta(RequestDelta.initial(hog.key, 4))
    vip = app_unit(scheduler, "vip-app", group="vip")
    decisions = scheduler.apply_request_delta(RequestDelta.initial(vip.key, 2))
    assert any(g.count < 0 and g.unit_key == hog.key for g in decisions)
    assert scheduler.ledger.total_units(vip.key) >= 1
    scheduler.check_conservation()


def test_preemption_disabled_config():
    scheduler = make_scheduler(machines=1, preemption=False)
    low = app_unit(scheduler, "low", priority=200)
    scheduler.apply_request_delta(RequestDelta.initial(low.key, 4))
    high = app_unit(scheduler, "high", priority=10)
    decisions = scheduler.apply_request_delta(RequestDelta.initial(high.key, 1))
    assert decisions == []
    assert scheduler.waiting_units_total() == 1


# ------------------------ failover support -------------------------- #

def test_restore_allocation_rebuilds_books():
    scheduler = make_scheduler(machines=1)
    unit = app_unit(scheduler)
    scheduler.restore_allocation(unit.key, "m0", 3)
    assert scheduler.ledger.count(unit.key, "m0") == 3
    assert scheduler.pool.free("m0") == CAP - SLOT * 3
    scheduler.check_conservation()


def test_restore_allocation_is_idempotent():
    scheduler = make_scheduler(machines=1)
    unit = app_unit(scheduler)
    scheduler.restore_allocation(unit.key, "m0", 3)
    scheduler.restore_allocation(unit.key, "m0", 3)
    assert scheduler.ledger.count(unit.key, "m0") == 3
    scheduler.check_conservation()


# ------------------------ properties -------------------------------- #

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["request", "cancel", "return", "exit"]),
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=1, max_value=6)),
    max_size=40)


@settings(max_examples=40, deadline=None)
@given(op_strategy)
def test_random_ops_preserve_conservation(ops):
    """Conservation + ledger/demand sanity under arbitrary op sequences."""
    scheduler = make_scheduler(machines=3)
    units = {name: app_unit(scheduler, name) for name in ("a", "b", "c")}
    for op, name, count in ops:
        unit = units[name]
        if name not in scheduler._apps:
            scheduler.register_app(name)
            scheduler.define_unit(unit)
        if op == "request":
            scheduler.apply_request_delta(RequestDelta.initial(unit.key, count))
        elif op == "cancel":
            scheduler.apply_request_delta(
                RequestDelta(unit.key, cluster_delta=-count))
        elif op == "return":
            held = scheduler.ledger.machines_of(unit.key)
            if held:
                machine, have = held[0]
                scheduler.return_resource(unit.key, machine, min(count, have))
        elif op == "exit":
            scheduler.unregister_app(name)
        scheduler.check_conservation()
        for key, demand in scheduler._demands.items():
            assert demand.total >= 0


# -------------------------- stats snapshots ------------------------- #

def test_schedule_stats_copy_is_deep():
    from repro.core.scheduler import ScheduleStats

    stats = ScheduleStats(decisions=3, units_granted=5,
                          units_granted_by_app={"app1": 5})
    snapshot = stats.copy()
    assert snapshot == stats
    stats.units_granted_by_app["app1"] = 9
    stats.units_granted_by_app["app2"] = 1
    assert snapshot.units_granted_by_app == {"app1": 5}
    assert snapshot.decisions == 3


def test_scheduler_tracks_per_app_grants():
    scheduler = make_scheduler()
    unit = app_unit(scheduler)
    scheduler.apply_request_delta(RequestDelta.initial(unit.key, 3))
    assert scheduler.stats.units_granted_by_app.get("app1", 0) == 3
