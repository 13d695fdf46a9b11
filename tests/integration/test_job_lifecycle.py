"""Integration: complete job lifecycles on the simulated cluster."""

import pytest

from repro.core.quota import QuotaGroup
from repro.core.resources import ResourceVector
from repro.jobs.spec import BackupSpec, JobSpec, TaskSpec
from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def test_single_job_completes(cluster):
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=12, reducers=3, map_duration=2.0, reduce_duration=2.0))
    assert cluster.run_until_complete([app], timeout=300)
    result = cluster.job_results[app]
    assert result.success
    assert result.instances_finished == 15
    assert result.makespan > 0


def test_books_clean_after_job_exit(cluster):
    app = cluster.submit_job(mapreduce_job("wc", mappers=8, reducers=2,
                                           map_duration=1.0,
                                           reduce_duration=1.0))
    assert cluster.run_until_complete([app], timeout=300)
    cluster.run_for(10)  # let revocations propagate
    scheduler = cluster.primary_master.scheduler
    scheduler.check_conservation()
    assert len(scheduler.ledger) == 0
    assert scheduler.waiting_units_total() == 0
    for agent in cluster.agents.values():
        assert agent.allocations == {}
    assert cluster.live_workers() == 0


def test_tasks_run_in_topological_order(cluster):
    spec = JobSpec(
        name="chain",
        tasks={
            "a": TaskSpec("a", 4, 1.0, ResourceVector.of(cpu=50, memory=1024)),
            "b": TaskSpec("b", 4, 1.0, ResourceVector.of(cpu=50, memory=1024)),
            "c": TaskSpec("c", 2, 1.0, ResourceVector.of(cpu=50, memory=1024)),
        },
        edges=[("a", "b"), ("b", "c")],
        input_files=[], output_files=[])
    app = cluster.submit_job(spec)
    assert cluster.run_until_complete([app], timeout=300)
    assert cluster.job_results[app].success


def test_diamond_dag(cluster):
    """The Figure-6 shape: T1 -> {T2, T3} -> T4."""
    small = ResourceVector.of(cpu=50, memory=1024)
    spec = JobSpec(
        name="fig6",
        tasks={name: TaskSpec(name, 3, 1.0, small)
               for name in ("T1", "T2", "T3", "T4")},
        edges=[("T1", "T2"), ("T1", "T3"), ("T2", "T4"), ("T3", "T4")],
        input_files=[], output_files=[])
    app = cluster.submit_job(spec)
    assert cluster.run_until_complete([app], timeout=300)
    assert cluster.job_results[app].instances_finished == 12


def test_many_concurrent_jobs(cluster):
    apps = [
        cluster.submit_job(mapreduce_job(f"j{i}", mappers=6, reducers=2,
                                         map_duration=1.5,
                                         reduce_duration=1.0))
        for i in range(8)
    ]
    assert cluster.run_until_complete(apps, timeout=600)
    assert all(cluster.job_results[a].success for a in apps)


def test_job_output_written_to_blockstore(cluster):
    spec = mapreduce_job("wc", mappers=4, reducers=2, map_duration=1.0,
                         reduce_duration=1.0, output_file="pangu://out")
    app = cluster.submit_job(spec)
    assert cluster.run_until_complete([app], timeout=300)
    assert cluster.blockstore.exists("pangu://out")


def test_input_locality_hints_used():
    cluster = make_cluster(racks=2, machines_per_rack=4)
    cluster.blockstore.create_file("pangu://in", size_mb=256.0 * 6)
    spec = mapreduce_job("wc", mappers=6, reducers=2, map_duration=1.5,
                         reduce_duration=1.0, input_file="pangu://in")
    app = cluster.submit_job(spec)
    assert cluster.run_until_complete([app], timeout=300)
    result = cluster.job_results[app]
    assert result.success


def test_quota_group_cap_limits_concurrency():
    cluster = make_cluster(racks=1, machines_per_rack=2)  # 8 slots total
    primary = cluster.primary_master
    primary.define_quota_group(
        "small", max_quota=ResourceVector.of(cpu=100, memory=4096))  # 2 slots
    app = cluster.submit_job(
        mapreduce_job("capped", mappers=8, reducers=1, map_duration=1.0,
                      reduce_duration=1.0, workers_per_task=8),
        group="small")
    cluster.run_for(5)
    scheduler = primary.scheduler
    usage = scheduler.quota.usage("small")
    assert usage.memory <= 4096
    assert cluster.run_until_complete([app], timeout=600)


def test_submission_respects_quota_group(cluster):
    cluster.primary_master.define_quota_group("tenants")
    app_id = cluster.submit_job(
        mapreduce_job("g", mappers=4, reducers=1, map_duration=30.0,
                      reduce_duration=1.0),
        group="tenants")
    cluster.run_for(5)   # job still running; group assignment is live
    assert cluster.primary_master.scheduler.quota.group_of(app_id) == "tenants"
    record = cluster.checkpoint.get(f"app/{app_id}")
    assert record["group"] == "tenants"


def test_priority_job_preempts_lower():
    cluster = make_cluster(racks=1, machines_per_rack=2)
    slot = ResourceVector.of(cpu=100, memory=2048)
    low = JobSpec("low", {"t": TaskSpec("t", 16, 30.0, slot, workers=8,
                                        priority=200)}, [], [], [])
    high = JobSpec("high", {"t": TaskSpec("t", 4, 2.0, slot, workers=4,
                                          priority=10)}, [], [], [])
    low_app = cluster.submit_job(low)
    cluster.run_for(5)
    high_app = cluster.submit_job(high)
    assert cluster.run_until_complete([high_app], timeout=120)
    assert cluster.job_results[high_app].success
    # the low job keeps going and eventually completes too
    assert cluster.run_until_complete([low_app], timeout=900)
    assert cluster.primary_master.scheduler.stats.preemptions > 0


def test_scheduling_time_metric_collected(cluster):
    app = cluster.submit_job(mapreduce_job("wc", mappers=6, reducers=2,
                                           map_duration=1.0,
                                           reduce_duration=1.0))
    cluster.run_until_complete([app], timeout=300)
    series = cluster.metrics.series("fm.schedule_ms")
    assert len(series) > 0
    assert series.mean() < 50.0   # sub-ms scale, generous bound


def test_job_status_reporting(cluster):
    app = cluster.submit_job(mapreduce_job("wc", mappers=10, reducers=2,
                                           map_duration=3.0,
                                           reduce_duration=1.0))
    cluster.run_for(4)
    status = cluster.app_masters[app].status()
    assert status["map"]["total"] == 10
    assert status["map"]["finished"] + status["map"]["running"] \
        + status["map"]["pending"] <= 10
    assert status["reduce"]["state"] in ("not-started", "running")
