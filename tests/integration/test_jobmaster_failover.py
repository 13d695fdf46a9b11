"""Integration: JobMaster failover from lightweight snapshots (paper §4.3.1).

"When the JobMaster process restarts, it will initially load the snapshot of
instance status, collect the status from TaskWorker, and finally recover the
inner instance scheduling results before its crash.  During the absence of
JobMaster process, all the workers are still running the instances without
interruption."
"""

from repro.jobs.instance import InstanceState
from repro.jobs.jobmaster import finished_records
from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def test_job_completes_after_jobmaster_crash():
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=24, reducers=4, map_duration=4.0, reduce_duration=3.0,
        workers_per_task=8))
    cluster.run_for(6)
    cluster.crash_app_master(app)
    assert cluster.run_until_complete([app], timeout=900)
    assert cluster.job_results[app].success
    assert cluster.metrics.counter("fm.am_restarts") >= 1


def test_workers_keep_running_during_jobmaster_absence():
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=16, reducers=2, map_duration=60.0, reduce_duration=2.0,
        workers_per_task=8))
    cluster.run_for(6)
    workers_before = cluster.live_workers()
    assert workers_before > 0
    cluster.crash_app_master(app)
    cluster.run_for(4)   # AM down, not yet restarted
    assert cluster.live_workers() == workers_before


def test_finished_instances_not_rerun():
    """The snapshot preserves FINISHED states across the crash."""
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=12, reducers=2, map_duration=2.0, reduce_duration=40.0,
        workers_per_task=6))
    # run until the map task is fully done (short maps, long reduces)
    for _ in range(200):
        cluster.run_for(1)
        am = cluster.app_masters.get(app)
        if am is not None and "map" in am.finished_tasks:
            break
    am = cluster.app_masters[app]
    assert "map" in am.finished_tasks
    snapshot = cluster.job_snapshots[app]
    finished_before = [(task, record[0]) for task in snapshot["finished"]
                       for record in finished_records(snapshot, task)]
    assert len(finished_before) >= 12
    cluster.crash_app_master(app)
    cluster.run_for(15)   # restart + recovery
    am = cluster.app_masters[app]
    assert am.alive
    assert "map" in am.finished_tasks
    master = am.task_masters.get("map")
    if master is not None:   # may already be retired
        assert master.finished_count == 12


def test_running_instances_readopted_from_worker_reports():
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=8, reducers=2, map_duration=60.0, reduce_duration=2.0,
        workers_per_task=8))
    cluster.run_for(6)
    cluster.crash_app_master(app)
    cluster.run_for(20)   # restart + adoption via status reports
    am = cluster.app_masters[app]
    assert am.alive
    master = am.task_masters["map"]
    assert master.running_count > 0
    # adopted attempts are attached to live workers
    running = [i for i in master.instances
               if i.state == InstanceState.RUNNING]
    assert all(i.running_attempts for i in running)


def test_snapshot_written_on_instance_changes():
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=6, reducers=2, map_duration=3.0, reduce_duration=20.0,
        workers_per_task=6))
    cluster.run_for(8)
    snapshot = cluster.job_snapshots[app]
    assert snapshot["started_tasks"]
    assert list(finished_records(snapshot, "map"))


def test_double_jobmaster_crash():
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=20, reducers=4, map_duration=4.0, reduce_duration=3.0,
        workers_per_task=8))
    cluster.run_for(5)
    cluster.crash_app_master(app)
    cluster.run_for(15)
    cluster.crash_app_master(app)
    assert cluster.run_until_complete([app], timeout=900)
    assert cluster.job_results[app].success


def test_recovery_restores_the_finished_set_the_snapshot_recorded():
    """The snapshot keeps only finished instances (start and finish time
    by index); a JobMaster restarted from it restores exactly those, with
    their times, and counts them in ``_instances_finished``; every other
    instance waits for a worker again."""
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=24, reducers=2, map_duration=2.0, reduce_duration=40.0,
        workers_per_task=6))
    for _ in range(100):
        cluster.run_for(0.5)
        am = cluster.app_masters.get(app)
        if (am is not None and "map" in am.task_masters
                and am.task_masters["map"].finished_count >= 6):
            break
    before_master = am.task_masters["map"]
    assert not before_master.is_complete()
    finished = {i.index: (i.started_at, i.finished_at)
                for i in before_master.instances
                if i.state is InstanceState.FINISHED}
    assert len(finished) >= 6 and am._instances_finished == len(finished)
    snapshot = cluster.job_snapshots[app]
    assert {index: (started, done) for index, started, done
            in finished_records(snapshot, "map")} == finished
    am.crash()
    am.restart()                       # recovers from the snapshot alone
    master = am.task_masters["map"]
    assert master is not before_master
    assert {i.index: (i.started_at, i.finished_at)
            for i in master.instances
            if i.state is InstanceState.FINISHED} == finished
    assert am._instances_finished == master.finished_count == len(finished)
    assert master.pending_count == len(master.instances) - len(finished)
    assert cluster.run_until_complete([app], timeout=900)
    assert cluster.job_results[app].instances_finished == 26
