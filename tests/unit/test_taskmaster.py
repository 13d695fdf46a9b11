"""Unit tests for TaskMaster instance scheduling (paper §4.4)."""

from hypothesis import example, given, settings, strategies as st

from repro.core.blacklist import BlacklistConfig, JobBlacklist
from repro.core.resources import ResourceVector
from repro.jobs.instance import InstanceState
from repro.jobs.spec import BackupSpec, TaskSpec
from repro.jobs.taskmaster import TaskMaster

SLOT = ResourceVector.of(cpu=100, memory=1024)


def make_master(instances=10, max_attempts=3, backup=None,
                blacklist=None) -> TaskMaster:
    spec = TaskSpec("map", instances=instances, duration=5.0, resources=SLOT,
                    max_attempts=max_attempts,
                    backup=backup or BackupSpec(enabled=False))
    return TaskMaster(spec, blacklist or JobBlacklist(
        BlacklistConfig(instances_per_task=2)))


def test_assignments_consume_pending():
    master = make_master(3)
    a = master.next_assignment("w1", "m1", now=0.0)
    b = master.next_assignment("w2", "m2", now=0.0)
    assert a.instance_id != b.instance_id
    assert master.pending_count == 1
    assert master.running_count == 2


def test_busy_worker_gets_nothing():
    master = make_master(5)
    master.next_assignment("w1", "m1", now=0.0)
    assert master.next_assignment("w1", "m1", now=0.0) is None


def test_locality_preferred():
    master = make_master(4)
    master.set_locality({0: {"m9"}, 1: {"m9"}})
    instance = master.next_assignment("w1", "m9", now=0.0)
    assert instance.index in (0, 1)


def test_non_local_worker_falls_back_to_global_queue():
    master = make_master(2)
    master.set_locality({0: {"m9"}})
    instance = master.next_assignment("w1", "m1", now=0.0)
    assert instance is not None


def test_completion_finishes_instance():
    master = make_master(1)
    instance = master.next_assignment("w1", "m1", now=0.0)
    result = master.on_completed("w1", instance.instance_id, now=5.0)
    assert result.won
    assert master.is_complete()


def test_duplicate_completion_flagged():
    master = make_master(1)
    instance = master.next_assignment("w1", "m1", now=0.0)
    master.on_completed("w1", instance.instance_id, now=5.0)
    result = master.on_completed("w1", instance.instance_id, now=6.0)
    assert result.duplicate


def test_failure_requeues_until_attempts_exhausted():
    master = make_master(1, max_attempts=2)
    instance = master.next_assignment("w1", "m1", now=0.0)
    result = master.on_failed("w1", instance.instance_id, "m1", now=1.0)
    assert result.requeued and not result.terminal
    instance2 = master.next_assignment("w2", "m2", now=2.0)
    assert instance2.instance_id == instance.instance_id
    result = master.on_failed("w2", instance2.instance_id, "m2", now=3.0)
    assert result.terminal
    assert master.has_terminal_failure()


def test_failed_machine_avoided_by_instance():
    master = make_master(1)
    instance = master.next_assignment("w1", "m1", now=0.0)
    master.on_failed("w1", instance.instance_id, "m1", now=1.0)
    # same machine: instance-level blacklist refuses
    assert master.next_assignment("w2", "m1", now=2.0) is None
    assert master.next_assignment("w3", "m2", now=2.0) is not None


def test_task_blacklist_escalation_reported():
    master = make_master(4)
    i1 = master.next_assignment("w1", "m1", now=0.0)
    master.on_failed("w1", i1.instance_id, "m1", now=1.0)
    i2 = master.next_assignment("w2", "m1", now=1.0)
    result = master.on_failed("w2", i2.instance_id, "m1", now=2.0)
    assert "task" in result.escalations


def test_release_worker_requeues_without_blame():
    master = make_master(2)
    instance = master.next_assignment("w1", "m1", now=0.0)
    released = master.release_worker("w1", now=1.0)
    assert released == instance.instance_id
    # machine not blamed: another instance can still go there
    assert master.next_assignment("w2", "m1", now=2.0) is not None
    assert master.pending_count >= 1


def test_release_idle_worker_is_noop():
    master = make_master(2)
    assert master.release_worker("ghost", now=0.0) is None


def test_bulk_schedule_assigns_many():
    master = make_master(100)
    workers = [(f"w{i}", f"m{i % 5}") for i in range(40)]
    assignments = master.bulk_schedule(workers, now=0.0)
    assert len(assignments) == 40
    assert master.pending_count == 60


def test_backup_started_on_other_machine_only():
    master = make_master(2, backup=BackupSpec(enabled=True))
    instance = master.next_assignment("w1", "m1", now=0.0)
    assert not master.start_backup(instance, "w2", "m1", now=1.0)
    assert master.start_backup(instance, "w2", "m2", now=1.0)
    assert master.backups_launched == 1
    assert len(instance.running_attempts) == 2


def test_backup_completion_cancels_original():
    master = make_master(1, backup=BackupSpec(enabled=True))
    instance = master.next_assignment("w1", "m1", now=0.0)
    master.start_backup(instance, "w2", "m2", now=10.0)
    result = master.on_completed("w2", instance.instance_id, now=12.0)
    assert result.won
    assert result.cancel_workers == ["w1"]
    assert master.is_complete()


def test_backup_not_started_on_busy_worker():
    master = make_master(3, backup=BackupSpec(enabled=True))
    instance = master.next_assignment("w1", "m1", now=0.0)
    master.next_assignment("w2", "m2", now=0.0)
    assert not master.start_backup(instance, "w2", "m3", now=1.0)


def test_progress_counters():
    master = make_master(4)
    a = master.next_assignment("w1", "m1", now=0.0)
    master.next_assignment("w2", "m2", now=0.0)
    master.on_completed("w1", a.instance_id, now=1.0)
    assert master.finished_count == 1
    assert master.running_count == 1
    assert master.pending_count == 2
    assert not master.is_complete()


def test_durations_cycle_when_fewer_than_instances():
    spec = TaskSpec("t", instances=5, duration=1.0, resources=SLOT)
    master = TaskMaster(spec, durations=[2.0, 3.0])
    assert [i.duration for i in master.instances] == [2.0, 3.0, 2.0, 3.0, 2.0]


def test_snapshot_lists_every_instance():
    master = make_master(3)
    snap = master.snapshot()
    assert len(snap) == 3
    assert all(record["state"] == "waiting" for record in snap)


def test_terminal_failure_of_a_waiting_instance_leaves_the_queue():
    # release_worker spends the last attempt and requeues the instance;
    # an on_failed naming a worker with no attempt then marks it FAILED.
    # It must leave the pending set, or the next assignment hands a
    # failed instance to a worker.
    master = make_master(1, max_attempts=1)
    instance = master.next_assignment("w0", "m0", now=0.0)
    assert master.release_worker("w0", now=1.0) == instance.instance_id
    assert master.pending_count == 1
    result = master.on_failed("w1", instance.instance_id, "m1", now=2.0)
    assert result.terminal
    assert instance.state == InstanceState.FAILED
    assert master.pending_count == 0
    assert master.next_assignment("w2", "m2", now=3.0) is None


# ---------------------------------------------------------------------- #
# the kept per-state counts against a scan of the instances
# ---------------------------------------------------------------------- #

worker = st.integers(0, 3)
instance_index = st.integers(0, 3)
machine = st.integers(0, 1)
operations = st.lists(st.one_of(
    st.tuples(st.just("assign"), worker, machine),
    st.tuples(st.just("complete"), worker, instance_index),
    st.tuples(st.just("fail"), worker, instance_index, machine),
    st.tuples(st.just("release"), worker),
    st.tuples(st.just("backup"), worker, instance_index, machine),
    st.tuples(st.just("restore"), instance_index),
    st.tuples(st.just("adopt"), worker, instance_index, machine),
), max_size=80)


def apply(master: TaskMaster, op: tuple, now: float) -> None:
    kind, *args = op
    ids = [instance.instance_id for instance in master.instances]
    if kind == "assign":
        master.next_assignment(f"w{args[0]}", f"m{args[1]}", now)
    elif kind == "complete":
        master.on_completed(f"w{args[0]}", ids[args[1]], now)
    elif kind == "fail":
        master.on_failed(f"w{args[0]}", ids[args[1]], f"m{args[2]}", now)
    elif kind == "release":
        master.release_worker(f"w{args[0]}", now)
    elif kind == "backup":
        master.start_backup(master.instances[args[1]], f"w{args[0]}",
                            f"m{args[2]}", now)
    elif kind == "restore":
        master.restore_finished(args[0], now - 1.0, now)
    else:
        try:
            master.adopt_attempt(f"w{args[0]}", ids[args[1]], f"m{args[2]}",
                                 now - 1.0)
        except ValueError:
            pass  # a terminally failed instance takes no attempt


@settings(max_examples=500, deadline=None)
@given(ops=operations, max_attempts=st.sampled_from((1, 2)))
# a terminally failed instance whose twin then wins: FAILED -> FINISHED
@example(ops=[("assign", 0, 0), ("adopt", 1, 0, 1), ("fail", 0, 0, 0),
              ("complete", 1, 0)], max_attempts=1)
def test_kept_counts_equal_a_scan_of_the_instances(ops, max_attempts):
    master = make_master(4, max_attempts=max_attempts, backup=BackupSpec(
        enabled=True, finished_fraction=0.5, slowdown_factor=1.0,
        normal_duration=0.0))
    for step, op in enumerate(ops):
        now = 10.0 * (step + 1)
        apply(master, op, now)
        states = [instance.state for instance in master.instances]
        assert master.finished_count == states.count(InstanceState.FINISHED)
        assert master.running_count == states.count(InstanceState.RUNNING)
        assert master.failed_count == states.count(InstanceState.FAILED)
        assert master.is_complete() == all(
            state is InstanceState.FINISHED for state in states)
        # the backup gate reads the kept count; the policy's own scan
        # must agree with it
        assert master.backup_candidates(now) == [
            decision.instance for decision in
            master.backup_policy.candidates(master.instances, now)]
