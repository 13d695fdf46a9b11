"""Unit tests for the chaos invariant checkers.

Each checker is exercised both on a healthy cluster (must stay silent) and
on deliberately corrupted books (must speak up with a useful message).
"""

from repro.chaos.invariants import (BlacklistMonotonic, InvariantChecker,
                                    ResourceConservation, SinglePrimary,
                                    Violation, WaitingShapeCensus,
                                    default_invariants)
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.units import ScheduleUnit, UnitKey
from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def run_one_job(cluster):
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=4, reducers=2, map_duration=2.0, reduce_duration=2.0))
    assert cluster.run_until_complete([app], timeout=300)
    return app


def test_healthy_cluster_passes_every_step_invariant():
    cluster = make_cluster()
    run_one_job(cluster)
    checker = InvariantChecker()
    assert checker.check_step(cluster) == []
    assert checker.violations == []


def test_healthy_cluster_passes_final_checks():
    cluster = make_cluster()
    app = run_one_job(cluster)
    cluster.run_for(10.0)  # drain returns
    checker = InvariantChecker()
    assert checker.check_final(cluster, [app]) == []


def test_conservation_flags_pool_ledger_drift():
    cluster = make_cluster()
    scheduler = cluster.primary_master.scheduler
    machine = cluster.topology.machines()[0]
    # Books say one unit is allocated; the pool was never charged.
    scheduler.units.define(
        ScheduleUnit("ghost", 0, ResourceVector.of(cpu=50)))
    scheduler.ledger.set_count(UnitKey("ghost", 0), machine, 1)
    problems = ResourceConservation().check(cluster)
    assert problems and machine in problems[0]
    checker = InvariantChecker()
    fresh = checker.check_step(cluster)
    assert any(v.invariant == "resource-conservation" for v in fresh)


def test_census_flags_a_waiting_demand_it_does_not_count():
    cluster = make_cluster()
    scheduler = cluster.primary_master.scheduler
    scheduler.register_app("ghost")
    unit = ScheduleUnit("ghost", 0, ResourceVector.of(cpu=10 ** 6))
    scheduler.define_unit(unit)
    scheduler.apply_request_delta(RequestDelta(unit.key, 1))  # cannot fit
    assert WaitingShapeCensus().check(cluster) == []
    # A demand change that bypasses the scheduler's census choke point.
    scheduler._waiting_shapes.clear()
    problems = WaitingShapeCensus().check(cluster)
    assert problems and "census" in problems[0]
    fresh = InvariantChecker().check_step(cluster)
    assert any(v.invariant == "waiting-shape-census" for v in fresh)


def test_single_primary_silent_without_primary():
    cluster = make_cluster()
    for master in cluster.masters:
        master.crash()
    assert SinglePrimary().check(cluster) == []
    # Book invariants are silent too: there is no primary scheduler.
    checker = InvariantChecker()
    assert checker.check_step(cluster) == []


def test_blacklist_monotonicity_is_stateful():
    cluster = make_cluster()
    invariant = BlacklistMonotonic()
    assert invariant.check(cluster) == []
    primary = cluster.primary_master
    machine = cluster.topology.machines()[0]
    primary.blacklist._disabled[machine] = "test"
    assert invariant.check(cluster) == []  # growth is fine
    primary.blacklist._disabled.pop(machine)
    problems = invariant.check(cluster)
    assert problems and machine in problems[0]


def test_final_checks_flag_unfinished_jobs():
    cluster = make_cluster()
    checker = InvariantChecker()
    fresh = checker.check_final(cluster, ["never-submitted"])
    assert any(v.invariant == "eventual-termination" for v in fresh)


def test_final_checks_flag_master_agent_divergence():
    cluster = make_cluster()
    app = run_one_job(cluster)
    cluster.run_for(10.0)
    machine = cluster.topology.machines()[0]
    cluster.agents[machine].allocations[UnitKey("stale", 9)] = 2
    fresh = InvariantChecker().check_final(cluster, [app])
    assert any(v.invariant == "master-agent-consistency"
               and machine in v.detail for v in fresh)


def test_violation_rendering_and_dict():
    violation = Violation("resource-conservation", 12.5, "boom")
    assert "resource-conservation" in str(violation)
    assert "t=12.500" in str(violation)
    assert violation.to_dict()["detail"] == "boom"


def test_default_invariants_are_fresh_instances():
    first, second = default_invariants(), default_invariants()
    names = [inv.name for inv in first]
    assert len(names) == len(set(names))
    stateful = [inv for inv in first if isinstance(inv, BlacklistMonotonic)]
    assert stateful and stateful[0] is not [
        inv for inv in second if isinstance(inv, BlacklistMonotonic)][0]
