"""The SchedulerPolicy seam: registry, selection plumbing, determinism.

The contract of the PR 8 policy seam:

- policies are selected by *name* through a registry, and the name
  survives every serialization boundary (``RunSpec.to_dict/from_dict``,
  ``ClusterBuilder.to_dict``, sweep-task params);
- an unknown name fails fast with the list of registered policies;
- every registered policy is byte-identically reproducible from the
  same seed (two runs, same spec+seed, identical summary JSON);
- on small hosts the sweep engine clamps workers to the cpu count and
  records a journal note instead of oversubscribing;
- driven through :class:`FuxiScheduler` directly, the ``yarn``,
  ``mesos`` and ``hadoop10`` plug-ins show the comparator behaviour the
  design ablations measure.
"""

import json
import os
import warnings

import pytest

from repro.api import ClusterBuilder, RunSpec, simulate
from repro.core.policy import (FuxiPolicy, SchedulerPolicy, create_policy,
                               known_policies, validate_policy_name)
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler
from repro.core.units import ScheduleUnit

ALL_POLICIES = ("fuxi", "yarn", "mesos", "hadoop10", "size-based",
                "fractional")

TINY = dict(racks=2, machines_per_rack=3, concurrent_jobs=4, duration=10.0)

SLOT = ResourceVector.of(cpu=100, memory=1024)
NODE = SLOT * 4


def test_known_policies_cover_the_arena():
    assert set(ALL_POLICIES) <= set(known_policies())


def test_create_policy_round_trips_names():
    for name in ALL_POLICIES:
        policy = create_policy(name)
        assert isinstance(policy, SchedulerPolicy)
        assert policy.name == name


def test_fuxi_policy_is_the_base_defaults():
    """The base class's decisions are Fuxi's: FuxiPolicy overrides no
    SchedulerPolicy attribute but its name, and adds none."""
    own = {attr for attr in vars(FuxiPolicy) if not attr.startswith("__")}
    assert own == {"name"}


def test_unknown_policy_lists_registered_names():
    with pytest.raises(ValueError) as err:
        validate_policy_name("nope")
    message = str(err.value)
    assert "nope" in message
    for name in ALL_POLICIES:
        assert name in message


def test_runspec_rejects_unknown_policy_everywhere():
    with pytest.raises(ValueError):
        RunSpec(policy="nope")
    with pytest.raises(ValueError):
        RunSpec().replace(policy="nope")
    with pytest.raises(ValueError):
        RunSpec.from_dict({"policy": "nope"})


def test_runspec_policy_survives_dict_round_trip():
    for name in ALL_POLICIES:
        spec = RunSpec(policy=name, **TINY)
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.policy == name


def test_cluster_builder_policy_selection():
    builder = ClusterBuilder(seed=7, racks=2, machines_per_rack=3)
    assert builder.policy("yarn") is builder          # fluent
    assert builder.to_dict()["policy"] == "yarn"
    cluster = builder.build()
    assert cluster.masters[0].scheduler.policy.name == "yarn"
    with pytest.raises(ValueError):
        ClusterBuilder(seed=7, policy="nope")


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_same_seed_same_policy_is_byte_identical(name):
    spec = RunSpec(policy=name, **TINY)
    first = json.dumps(simulate(spec, seed=11).summary_dict(),
                       sort_keys=True)
    second = json.dumps(simulate(spec, seed=11).summary_dict(),
                        sort_keys=True)
    assert first == second


def test_summary_records_policy_and_arena_metrics():
    spec = RunSpec(policy="yarn", racks=2, machines_per_rack=5,
                   concurrent_jobs=8, duration=30.0)
    summary = simulate(spec, seed=7).summary_dict()
    assert summary["spec"]["policy"] == "yarn"
    sched = summary["sched"]
    assert sched["policy"] == "yarn"
    assert sched["units_granted"] > 0
    assert 0.0 <= sched["locality_hit_rate"] <= 1.0
    assert set(summary["utilization"]) == {"cpu", "memory"}
    assert summary["jobs_completed"] > 0
    assert summary["job_slowdown"]["count"] == summary["jobs_completed"]
    # makespan can never beat the critical-path lower bound
    assert summary["job_slowdown"]["p50"] >= 1.0


def test_sweep_clamps_workers_to_host_cpus(tmp_path):
    from repro.parallel import make_tasks, run_sweep

    journal = tmp_path / "sweep.jsonl"
    tasks = make_tasks("selfcheck", seeds=[1, 2, 3])
    asked = (os.cpu_count() or 1) + 7
    sweep = run_sweep(tasks, jobs=asked, journal=str(journal))
    timing = sweep.timing()
    assert timing["workers_requested"] == asked
    assert timing["workers"] <= (os.cpu_count() or 1)
    records = [json.loads(line) for line in
               journal.read_text(encoding="utf-8").splitlines()]
    notes = [r["text"] for r in records if r["record"] == "note"]
    assert any("clamped" in n for n in notes)


# ------------------- comparators below simulate() -------------------- #

def _scheduler(policy, machines=2, capacity=NODE):
    scheduler = FuxiScheduler(policy=create_policy(policy))
    for i in range(machines):
        scheduler.add_machine(f"m{i}", "r0", capacity)
    return scheduler


def _request(scheduler, app, count, priority=100, **hints):
    """Admit ``app`` with one SLOT-shaped unit; returns (key, grants)."""
    scheduler.register_app(app)
    unit = ScheduleUnit(app, 1, SLOT, priority=priority)
    scheduler.define_unit(unit)
    grants = scheduler.apply_request_delta(
        RequestDelta.initial(unit.key, count, **hints))
    return unit.key, grants


def _first_grant_rounds(scheduler, apps):
    """Round (1-based) of each app's first grant, one machine event per
    machine per round."""
    first = {}
    for round_index in range(1, len(apps) + 1):
        for machine in scheduler.pool.machines():
            for grant in scheduler.machine_event(machine):
                first.setdefault(grant.unit_key.app_id, round_index)
    assert set(first) == set(apps)
    return first


def test_yarn_nothing_granted_before_machine_event():
    scheduler = _scheduler("yarn")
    _, grants = _request(scheduler, "app", 2)
    assert grants == []
    assert scheduler.waiting_units_total() == 2
    assert scheduler.stats.units_granted == 0


def test_yarn_machine_event_grants_from_global_list():
    scheduler = _scheduler("yarn")
    key, _ = _request(scheduler, "app", 3)
    grants = scheduler.machine_event("m0")
    assert [(g.unit_key, g.machine, g.count) for g in grants] == [
        (key, "m0", 3)]
    assert scheduler.waiting_units_total() == 0
    assert scheduler.pool.free("m0") == SLOT


def test_yarn_priority_order():
    scheduler = _scheduler("yarn", machines=1)
    _request(scheduler, "low", 4, priority=200)
    _request(scheduler, "high", 4, priority=50)
    grants = scheduler.machine_event("m0")
    assert {g.unit_key.app_id for g in grants} == {"high"}
    assert sum(g.count for g in grants) == 4


def test_yarn_ignores_machine_hints():
    scheduler = _scheduler("yarn")
    _request(scheduler, "app", 1, machine_hints={"m0": 1})
    grants = scheduler.machine_event("m0")
    assert [(g.machine, g.count) for g in grants] == [("m0", 1)]
    # served from the cluster queue, not as a machine-local grant
    assert scheduler.stats.cluster_wide == 1
    assert scheduler.stats.machine_local == 0


def test_yarn_return_frees_the_container():
    """Reclaim on task exit: the next task needs a new request and a new
    machine event."""
    scheduler = _scheduler("yarn", machines=1)
    key, _ = _request(scheduler, "app", 1)
    scheduler.machine_event("m0")
    assert scheduler.return_resource(key, "m0", 1) == []
    assert scheduler.pool.free("m0") == NODE
    assert scheduler.apply_request_delta(RequestDelta(key, 1)) == []
    assert scheduler.waiting_units_total() == 1


def test_yarn_app_exit_frees_everything():
    scheduler = _scheduler("yarn", machines=1)
    _request(scheduler, "app", 4)
    scheduler.machine_event("m0")
    scheduler.unregister_app("app")
    assert scheduler.pool.free("m0") == NODE


def test_mesos_machine_event_serves_one_app():
    """An exclusive offer: the first app to take from it owns the rest."""
    scheduler = _scheduler("mesos", machines=1)
    _request(scheduler, "a", 2)
    _request(scheduler, "b", 2)
    grants = scheduler.machine_event("m0")
    assert {g.unit_key.app_id for g in grants} == {"a"}
    assert scheduler.pool.free("m0") == SLOT * 2   # b fits, yet waits
    grants = scheduler.machine_event("m0")
    assert {g.unit_key.app_id for g in grants} == {"b"}


def test_mesos_least_held_app_goes_first():
    scheduler = _scheduler("mesos")
    _request(scheduler, "a", 6)
    _request(scheduler, "b", 2)
    assert {g.unit_key.app_id for g in scheduler.machine_event("m0")} == {"a"}
    # a holds 4 and was submitted first; b holds nothing, so the next
    # offer is b's even though a still waits for 2
    grants = scheduler.machine_event("m1")
    assert {g.unit_key.app_id for g in grants} == {"b"}


def test_mesos_demand_eventually_satisfied():
    scheduler = _scheduler("mesos")
    _request(scheduler, "f1", 4)
    _request(scheduler, "f2", 4)
    _first_grant_rounds(scheduler, ["f1", "f2"])
    assert scheduler.waiting_units_total() == 0


def test_mesos_waiting_time_depends_on_contention():
    """More competing apps -> a later first grant for the last one (the §1
    criticism of offer-based scheduling)."""
    lone = _scheduler("mesos", machines=1, capacity=SLOT * 16)
    _request(lone, "solo", 4)
    solo_round = _first_grant_rounds(lone, ["solo"])["solo"]
    crowded = _scheduler("mesos", machines=1, capacity=SLOT * 16)
    apps = [f"f{i}" for i in range(4)]
    for app in apps:
        _request(crowded, app, 4)
    last_round = max(_first_grant_rounds(crowded, apps).values())
    assert solo_round == 1
    assert last_round == 4


def test_mesos_return_frees_the_machine():
    scheduler = _scheduler("mesos", machines=1)
    key, _ = _request(scheduler, "f", 1)
    scheduler.machine_event("m0")
    scheduler.return_resource(key, "m0", 1)
    assert scheduler.pool.free("m0") == NODE


def test_hadoop10_places_on_request():
    scheduler = _scheduler("hadoop10", machines=1)
    _, grants = _request(scheduler, "app", 2)
    assert sum(g.count for g in grants) == 2
    assert scheduler.waiting_units_total() == 0


def test_hadoop10_return_serves_waiting_demand():
    scheduler = _scheduler("hadoop10", machines=1, capacity=SLOT)
    key, _ = _request(scheduler, "a", 2)
    assert scheduler.waiting_units_total() == 1
    grants = scheduler.return_resource(key, "m0", 1)
    assert [(g.machine, g.count) for g in grants] == [("m0", 1)]
    assert scheduler.waiting_units_total() == 0


@pytest.mark.parametrize("policy,machines,expected",
                         [("hadoop10", 4, 4), ("hadoop10", 40, 40),
                          ("fuxi", 40, 1)])
def test_hadoop10_return_schedules_every_machine(monkeypatch, policy,
                                                 machines, expected):
    """The global recompute: one free-up serves every machine's queues,
    where Fuxi serves the one machine that freed."""
    scheduler = _scheduler(policy, machines=machines, capacity=SLOT)
    key, _ = _request(scheduler, "app", 1)
    machine = next(iter(scheduler.ledger.machines_of(key)))[0]
    calls = []
    original = scheduler._schedule_machine

    def spy(name):
        calls.append(name)
        return original(name)

    monkeypatch.setattr(scheduler, "_schedule_machine", spy)
    scheduler.return_resource(key, machine, 1)
    assert len(calls) == expected


def test_hadoop10_priority_order():
    scheduler = _scheduler("hadoop10", machines=1, capacity=SLOT)
    held, _ = _request(scheduler, "holder", 1)
    _request(scheduler, "low", 1, priority=200)
    _request(scheduler, "high", 1, priority=10)
    grants = scheduler.return_resource(held, "m0", 1)
    assert {g.unit_key.app_id for g in grants} == {"high"}


@pytest.mark.parametrize("policy,expected", [("hadoop10", "m0"),
                                             ("fuxi", "m1")])
def test_hadoop10_places_anywhere_in_name_order(policy, expected):
    """Name-order first fit, where Fuxi takes the most-free machine."""
    scheduler = FuxiScheduler(policy=create_policy(policy))
    scheduler.add_machine("m0", "r0", SLOT)
    scheduler.add_machine("m1", "r0", NODE)
    _, grants = _request(scheduler, "app", 1)
    assert [(g.machine, g.count) for g in grants] == [(expected, 1)]


# ---------------------- one path for every policy -------------------- #

class CountingFuxi(FuxiPolicy):
    """Fuxi, counting the units its on_grant hook is told about."""

    def __init__(self) -> None:
        super().__init__()
        self.granted = 0

    def on_grant(self, unit, machine, count):
        self.granted += count


class FuxiWithoutPreemption(FuxiPolicy):
    enable_preemption = False


def _low_then_high(policy):
    """One machine of 2 slots; a low-priority app (200), then a
    high-priority one (100), each asking for 2 units."""
    scheduler = FuxiScheduler(policy=policy)
    scheduler.add_machine("m0", "r0", SLOT * 2)
    _request(scheduler, "low", 2, priority=200)
    _request(scheduler, "high", 2, priority=100)
    return scheduler


def test_fuxi_subclass_hooks_are_called():
    policy = CountingFuxi()
    scheduler = _low_then_high(policy)
    assert scheduler.stats.preemptions == 1
    assert scheduler.stats.units_granted == 3
    assert policy.granted == 3


def test_fuxi_subclass_can_turn_preemption_off():
    scheduler = _low_then_high(FuxiWithoutPreemption())
    assert scheduler.stats.preemptions == 0
    assert scheduler.stats.units_granted == 2


class DriftingOnly(SchedulerPolicy):
    """Overrides effective_priority and nothing else."""

    def effective_priority(self, unit, demand):
        return unit.priority


class FixedOnly(SchedulerPolicy):
    """Overrides nothing."""


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_drifting_keys_are_derived_from_the_override(name):
    scheduler = FuxiScheduler(policy=create_policy(name))
    assert (not scheduler._exact_exit) is (name in ("mesos", "size-based"))


@pytest.mark.parametrize("policy,expected", [(DriftingOnly, True),
                                             (FixedOnly, False)])
def test_overriding_effective_priority_walks_destructively(
        monkeypatch, policy, expected):
    scheduler = FuxiScheduler(policy=policy())
    scheduler.add_machine("m0", "r0", SLOT * 2)
    key, _ = _request(scheduler, "app", 3)
    seen = []
    walk = scheduler.tree.walk

    def spy(machine, classify, destructive=False):
        seen.append(destructive)
        return walk(machine, classify, destructive=destructive)

    monkeypatch.setattr(scheduler.tree, "walk", spy)
    grants = scheduler.return_resource(key, "m0", 1)
    assert [(g.unit_key, g.count) for g in grants] == [(key, 1)]
    assert seen == [expected]


@pytest.mark.parametrize("name,offers,index,remove", [
    ("fuxi", 1, 1, 0), ("yarn", 1, 1, 0), ("hadoop10", 1, 1, 0),
    ("fractional", 1, 1, 0),
    # drifting keys: the granted demand and the skipped one are re-pushed
    ("mesos", 2, 2, 2), ("size-based", 1, 2, 2)])
def test_fixed_keys_regrant_without_reindex_churn(monkeypatch, name, offers,
                                                  index, remove):
    """App ``a`` (at its max_count of 1) queues ahead of app ``b``; b's
    return is re-granted to b.  With fixed keys that costs one queue
    push for b and no removal: ``a`` is passed over in place."""
    shape = ResourceVector.of(cpu=100, memory=2048)
    scheduler = FuxiScheduler(policy=create_policy(name))
    scheduler.add_machine("m0", "r0", ResourceVector.of(cpu=300, memory=6144))
    keys = {}
    for app, max_count, count in (("a", 1, 3), ("b", 10 ** 9, 5)):
        scheduler.register_app(app)
        unit = ScheduleUnit(app, 1, shape, priority=100, max_count=max_count)
        scheduler.define_unit(unit)
        scheduler.apply_request_delta(RequestDelta.initial(unit.key, count))
        keys[app] = unit.key
    # (a Mesos offer is exclusive: the first serves a alone, the second b)
    for _ in range(offers):
        scheduler.machine_event("m0")
    assert scheduler.ledger.total_units(keys["b"]) == 2
    calls = {"index": 0, "remove": 0}
    for op in calls:
        original = getattr(scheduler.tree, op)

        def spy(*args, _op=op, _original=original):
            calls[_op] += 1
            return _original(*args)

        monkeypatch.setattr(scheduler.tree, op, spy)
    grants = scheduler.return_resource(keys["b"], "m0", 1)
    assert [(g.unit_key, g.count) for g in grants] == [(keys["b"], 1)]
    assert calls == {"index": index, "remove": remove}
