"""The SchedulerPolicy seam: registry, selection plumbing, determinism.

The contract of the PR 8 policy seam:

- policies are selected by *name* through a registry, and the name
  survives every serialization boundary (``RunSpec.to_dict/from_dict``,
  ``ClusterBuilder.to_dict``, sweep-task params);
- an unknown name fails fast with the list of registered policies;
- every registered policy is byte-identically reproducible from the
  same seed (two runs, same spec+seed, identical summary JSON);
- on small hosts the sweep engine clamps workers to the cpu count and
  records a journal note instead of oversubscribing.
"""

import json
import os
import warnings

import pytest

from repro.api import ClusterBuilder, RunSpec, simulate
from repro.core.policy import (SchedulerPolicy, create_policy,
                               known_policies, validate_policy_name)

ALL_POLICIES = ("fuxi", "yarn", "mesos", "hadoop10", "size-based",
                "fractional")

TINY = dict(racks=2, machines_per_rack=3, concurrent_jobs=4, duration=10.0)


def test_known_policies_cover_the_arena():
    assert set(ALL_POLICIES) <= set(known_policies())


def test_create_policy_round_trips_names():
    for name in ALL_POLICIES:
        policy = create_policy(name)
        assert isinstance(policy, SchedulerPolicy)
        assert policy.name == name


def test_only_fuxi_is_passthrough():
    for name in ALL_POLICIES:
        assert create_policy(name).passthrough is (name == "fuxi")


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
