"""The ``repro.api`` facade: builder, RunSpec, simulate, deprecation shims."""

import importlib
import json
import sys
import warnings

import pytest

from repro.api import ClusterBuilder, RunSpec, simulate


SMALL = RunSpec(racks=2, machines_per_rack=3, concurrent_jobs=3,
                duration=60.0, workload_scale=10, workers_cap=3)


# ----------------------------- RunSpec ------------------------------ #

def test_runspec_round_trip():
    spec = RunSpec(racks=3, concurrent_jobs=5, trace=True)
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_runspec_validation():
    with pytest.raises(ValueError):
        RunSpec(racks=0)
    with pytest.raises(ValueError):
        RunSpec.from_dict({"machines": 10})  # derived, not a field


def test_runspec_machines_property():
    assert RunSpec(racks=3, machines_per_rack=7).machines == 21


# --------------------------- ClusterBuilder ------------------------- #

def test_builder_round_trip():
    builder = ClusterBuilder(racks=2, machines_per_rack=4,
                             machine_cpu=200.0, machine_memory=4096.0,
                             seed=11, trace=True, standby_master=False)
    rebuilt = ClusterBuilder.from_dict(builder.to_dict())
    assert rebuilt.to_dict() == builder.to_dict()


def test_builder_fluent_matches_kwargs():
    fluent = (ClusterBuilder()
              .topology(2, 4)
              .machine_shape(cpu=200.0, memory=4096.0)
              .seed(11)
              .trace(True)
              .standby_master(False))
    kwargs = ClusterBuilder(racks=2, machines_per_rack=4,
                            machine_cpu=200.0, machine_memory=4096.0,
                            seed=11, trace=True, standby_master=False)
    assert fluent.to_dict() == kwargs.to_dict()


def test_builder_builds_working_cluster():
    cluster = (ClusterBuilder(racks=2, machines_per_rack=3,
                              machine_cpu=400.0, machine_memory=8192.0)
               .seed(5).build())
    assert cluster.primary_master is not None
    master = cluster.primary_master
    assert master.scheduler.pool.machine_count() == 6


# ------------------------------ simulate ---------------------------- #

def _digest(result):
    """A canonical byte-level fingerprint of a run."""
    sched = result.metrics.series("fm.schedule_ms")
    return json.dumps({
        "submitted": result.submitted,
        "completed": result.jobs_completed,
        "job_results": sorted(result.job_results),
        "sched_n": len(sched.points),
        "sched_times": repr(sched.times()),
        "now": repr(result.cluster.loop.now),
        "events": result.cluster.loop.events_executed,
    }, sort_keys=True).encode()


def test_simulate_same_seed_byte_identical():
    first = _digest(simulate(SMALL))
    second = _digest(simulate(SMALL))
    assert first == second


def test_simulate_seed_override_changes_run_not_spec():
    result = simulate(SMALL, seed=99)
    assert SMALL.seed == 7          # the caller's spec is untouched
    assert result.spec.seed == 99   # the run used the override


def test_simulate_completes_jobs():
    result = simulate(SMALL)
    assert result.jobs_completed > 0
    assert result.completed == result.jobs_completed  # back-compat alias
    assert len(result.submitted) >= SMALL.concurrent_jobs


def test_simulate_owes_replacements_while_a_failover_is_in_flight():
    """Jobs finish between the primary's crash at 12 s and the standby's
    takeover; their replacements must wait for a primary, not raise
    ``RuntimeError: no primary FuxiMaster``."""
    result = simulate(RunSpec(
        racks=10, machines_per_rack=10, concurrent_jobs=40, duration=40,
        fault_spec="FuxiMasterFailure@12;FuxiMasterRestart@22"))
    assert result.cluster.primary_master is not None
    # closed loop: every finished job was replaced once a primary existed
    assert len(result.submitted) == 40 + result.jobs_completed
    assert result.jobs_completed > 0


# ------------------------- deprecation shims ------------------------ #

def _fresh_import(module_name):
    sys.modules.pop(module_name, None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        module = importlib.import_module(module_name)
    return module, [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]


def test_runtime_shim_warns_and_forwards():
    module, deprecations = _fresh_import("repro.runtime")
    assert deprecations, "importing repro.runtime must warn"
    from repro._runtime import FuxiCluster
    assert module.FuxiCluster is FuxiCluster


def test_workload_runner_shim_warns_and_forwards():
    module, deprecations = _fresh_import(
        "repro.experiments.workload_runner")
    assert deprecations, "importing workload_runner must warn"
    assert module.SyntheticRunConfig is RunSpec
    assert module.run_synthetic_workload is not None


def test_package_root_reexports():
    import repro
    assert repro.ClusterBuilder is ClusterBuilder
    assert repro.RunSpec is RunSpec
    assert repro.simulate is simulate


def test_summary_dict_is_deterministic_and_json_able():
    spec = RunSpec(racks=2, machines_per_rack=3, concurrent_jobs=4,
                   duration=10.0)
    first = simulate(spec, seed=7).summary_dict()
    second = simulate(spec, seed=7).summary_dict()
    assert first == second
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert first["seed"] == 7
    # execution-shape knobs are dropped so sharded/serial summaries compare
    expected_spec = spec.to_dict()
    expected_spec.pop("shards")
    expected_spec.pop("shard_backend")
    expected_spec.pop("kernels")
    assert first["spec"] == expected_spec
    assert first["jobs_submitted"] > 0
    assert first["events"] > 0
