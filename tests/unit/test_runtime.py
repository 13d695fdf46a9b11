"""Unit tests for the FuxiCluster runtime facade."""

import pytest

from repro.core.resources import CPU, MEMORY
from repro.jobs.service import ServiceSpec
from repro.core.resources import ResourceVector
from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def test_job_ids_are_sequential(cluster):
    a = cluster.submit_job(mapreduce_job("a", 2, 1))
    b = cluster.submit_job(mapreduce_job("b", 2, 1))
    assert a == "job-0001"
    assert b == "job-0002"


def test_explicit_app_id(cluster):
    app = cluster.submit_job(mapreduce_job("a", 2, 1), app_id="my-job")
    assert app == "my-job"
    assert cluster.run_until_complete([app], timeout=120)


def test_service_ids_have_own_prefix(cluster):
    svc = cluster.submit_service(ServiceSpec(
        "s", 1, ResourceVector.of(cpu=50, memory=1024)))
    assert svc.startswith("svc-")


def test_submit_without_primary_raises():
    from repro.cluster.topology import ClusterTopology
    from repro.api import FuxiCluster
    cluster = FuxiCluster(ClusterTopology.build(1, 1), standby_master=False)
    cluster.primary_master.crash()
    with pytest.raises(RuntimeError):
        cluster.submit_job(mapreduce_job("a", 2, 1))


def test_custom_app_master_type(cluster):
    created = []

    def factory(runtime, app_id, description, machine):
        from repro.core.appmaster import ApplicationMaster
        am = ApplicationMaster(runtime.loop, runtime.bus, app_id)
        created.append((app_id, machine))
        return am

    cluster.register_app_master_type("custom", factory)
    cluster.primary_master.submit_job("c1", {"type": "custom"})
    cluster.run_for(2)
    assert created and created[0][0] == "c1"


def test_unknown_app_master_type_raises(cluster):
    cluster.primary_master.submit_job("x1", {"type": "no-such-type"})
    with pytest.raises(KeyError):
        cluster.run_for(2)


def test_crash_and_restart_machine(cluster):
    machine = cluster.topology.machines()[0]
    cluster.crash_machine(machine)
    assert cluster.topology.state(machine).down
    assert not cluster.agents[machine].alive
    cluster.restart_machine(machine)
    assert not cluster.topology.state(machine).down
    assert cluster.agents[machine].alive
    cluster.run_for(8)
    assert cluster.primary_master.scheduler.pool.has_machine(machine)


def test_restart_agent_unknown_machine_raises(cluster):
    with pytest.raises(KeyError):
        cluster.restart_agent("ghost")


def test_restart_master_unknown_name_raises(cluster):
    with pytest.raises(KeyError):
        cluster.restart_master("fuxi-master-9")


def test_sample_utilization_shape(cluster):
    app = cluster.submit_job(mapreduce_job("u", mappers=8, reducers=2,
                                           map_duration=10.0,
                                           workers_per_task=8))
    cluster.run_for(5)
    snapshot = cluster.sample_utilization()
    for dim in (CPU, MEMORY):
        curves = snapshot[dim]
        assert curves["FM_total"] > 0
        assert 0 <= curves["FM_planned"] <= curves["FM_total"]
        assert curves["AM_obtained"] >= 0
        assert curves["FA_planned"] >= 0


def test_run_until_complete_times_out(cluster):
    app = cluster.submit_job(mapreduce_job("slow", mappers=8, reducers=2,
                                           map_duration=1000.0))
    assert not cluster.run_until_complete([app], timeout=5.0)


def test_crash_app_master_unknown_raises(cluster):
    with pytest.raises(KeyError):
        cluster.crash_app_master("nope")


def test_workers_on_and_live_workers(cluster):
    app = cluster.submit_job(mapreduce_job("w", mappers=8, reducers=2,
                                           map_duration=20.0,
                                           workers_per_task=8))
    cluster.run_for(5)
    total = sum(len(cluster.workers_on(m))
                for m in cluster.topology.machines())
    assert total == cluster.live_workers() > 0
