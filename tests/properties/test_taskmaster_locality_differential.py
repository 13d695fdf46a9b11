"""Differential test of the slimmed TaskMaster (paper §4.4): the locality
index of bare indexes and lists, the pending flags, the shared
preferred-machine collections and the id lookup by ``"task/index"``
against the deque index, pending set and ``_by_id`` table they replaced
(``taskmaster_deque_oracle.DequeTaskMaster``).

Both masters get the same preferred machines (none, one, several, a
machine named twice, indexes out of range) and the same Hypothesis-
generated operations: worker arrivals one at a time and in bulk,
completions, failures that requeue and escalate to a task-level blacklist
avoid, vanished workers, job-level bad machines, backup attempts, adopted
and restored instances, and lookups of real and foreign ids.  After every
operation the result — which worker got which instance, or which
exception — the per-state counts and the pending instances must be equal;
a final drain offers every machine a fresh
worker until nothing is left to assign, so a locality queue left in
another order shows there.  ``test_..._at_scale`` is the 2,000-example run
(``pytest -m slow``).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.blacklist import BlacklistConfig, JobBlacklist
from repro.core.resources import ResourceVector
from repro.jobs.spec import BackupSpec, TaskSpec
from repro.jobs.taskmaster import TaskMaster

from tests.properties.taskmaster_deque_oracle import DequeTaskMaster

MACHINES = tuple(f"m{i}" for i in range(4))
WORKERS = 5
SLOT = ResourceVector.of(cpu=100, memory=1024)

machine = st.integers(0, len(MACHINES) - 1)
worker = st.integers(0, WORKERS - 1)
# an index into ids(): the real ids first, then foreign ones
id_choice = st.integers(0, 24)
preferred = st.dictionaries(
    st.integers(-1, 9), st.lists(machine, max_size=4), max_size=10)
operations = st.lists(st.one_of(
    st.tuples(st.just("assign"), worker, machine),
    st.tuples(st.just("assign"), worker, machine),
    st.tuples(st.just("bulk"), st.lists(st.tuples(worker, machine),
                                        max_size=4)),
    st.tuples(st.just("complete"), worker, id_choice),
    st.tuples(st.just("fail"), worker, id_choice, machine),
    st.tuples(st.just("fail"), worker, id_choice, machine),
    st.tuples(st.just("release"), worker),
    st.tuples(st.just("mark_bad"), machine),
    st.tuples(st.just("adopt"), worker, id_choice, machine),
    st.tuples(st.just("restore"), st.integers(0, 9)),
    st.tuples(st.just("backup"), worker, st.integers(0, 9), machine),
    st.tuples(st.just("lookup"), id_choice),
), max_size=60)


def build(cls, task: str, instances: int, max_attempts: int,
          hints: dict) -> TaskMaster:
    spec = TaskSpec(task, instances=instances, duration=5.0, resources=SLOT,
                    max_attempts=max_attempts,
                    backup=BackupSpec(enabled=False))
    master = cls(spec, JobBlacklist(BlacklistConfig(instances_per_task=2)))
    master.set_locality({index: tuple(MACHINES[m] for m in machines)
                         for index, machines in hints.items()})
    return master


def ids(task: str, instances: int) -> list:
    real = [f"{task}/{index}" for index in range(instances)]
    foreign = ["other/0", f"{task}/{instances}", f"{task}/01", f"{task}/-1",
               f"{task}/", task, f"{task}/0/0", f"x/{task}/0", f"{task}/ 1",
               f"{task}/+1", f"{task}/١", "", "/0"]
    return real + foreign


def outcome(call, *args):
    """What a call returned, or the type of what it raised."""
    try:
        result = call(*args)
    except (KeyError, ValueError) as error:
        return type(error).__name__
    return getattr(result, "instance_id", result)


def apply(master: TaskMaster, op: tuple, names: list, now: float):
    kind, *args = op
    if kind == "assign":
        return outcome(master.next_assignment, f"w{args[0]}",
                       MACHINES[args[1]], now)
    if kind == "bulk":
        workers = [(f"w{w}", MACHINES[m]) for w, m in args[0]]
        return [(w, i.instance_id)
                for w, i in master.bulk_schedule(workers, now)]
    if kind == "complete":
        return outcome(master.on_completed, f"w{args[0]}",
                       names[args[1] % len(names)], now)
    if kind == "fail":
        return outcome(master.on_failed, f"w{args[0]}",
                       names[args[1] % len(names)], MACHINES[args[2]], now)
    if kind == "release":
        return outcome(master.release_worker, f"w{args[0]}", now)
    if kind == "mark_bad":
        return master.blacklist.mark_job_bad(MACHINES[args[0]])
    if kind == "adopt":
        return outcome(master.adopt_attempt, f"w{args[0]}",
                       names[args[1] % len(names)], MACHINES[args[2]],
                       now - 1.0)
    if kind == "restore":
        if args[0] >= len(master.instances):
            return None
        return outcome(master.restore_finished, args[0], now - 1.0, now)
    if kind == "backup":
        if args[1] >= len(master.instances):
            return None
        return master.start_backup(master.instances[args[1]], f"w{args[0]}",
                                   MACHINES[args[2]], now)
    return outcome(master.instance, names[args[0] % len(names)])


def pending(master: TaskMaster) -> set:
    """The instances waiting for a worker, by index."""
    if isinstance(master, DequeTaskMaster):
        return set(master._pending_set)
    return {index for index, flag in enumerate(master._pending_flags)
            if flag}


def counts(master: TaskMaster) -> tuple:
    return (master.finished_count, master.failed_count,
            master.pending_count, master.running_count,
            [i.state for i in master.instances], pending(master))


def drain(master: TaskMaster, now: float) -> list:
    """Offer each machine a fresh worker, round after round, completing
    every assignment, until a whole round assigns nothing."""
    taken = []
    for round_ in range(len(master.instances) + 1):
        got = False
        for position, name in enumerate(MACHINES):
            worker_id = f"d{round_}.{position}"
            instance = master.next_assignment(worker_id, name, now)
            if instance is not None:
                got = True
                taken.append((worker_id, instance.instance_id))
                master.on_completed(worker_id, instance.instance_id, now)
        if not got:
            break
    return taken


def check(task, instances, max_attempts, hints, ops):
    fast = build(TaskMaster, task, instances, max_attempts, hints)
    oracle = build(DequeTaskMaster, task, instances, max_attempts, hints)
    names = ids(task, instances)
    for step, op in enumerate(ops):
        now = 10.0 * (step + 1)
        assert (apply(fast, op, names, now)
                == apply(oracle, op, names, now)), (step, op)
        assert counts(fast) == counts(oracle), (step, op)
    now = 10.0 * (len(ops) + 1)
    assert drain(fast, now) == drain(oracle, now)
    assert counts(fast) == counts(oracle)


tasks = st.sampled_from(("map", "a/b"))
sizes = st.integers(1, 8)
attempts = st.sampled_from((1, 2, 3))


@settings(max_examples=300, deadline=None)
@given(task=tasks, instances=sizes, max_attempts=attempts, hints=preferred,
       ops=operations)
# a machine named twice, an instance taken globally and requeued twice:
# the old set queued it once per requeue, so the list must too
@example(task="map", instances=3, max_attempts=3,
         hints={0: [1, 1], 1: [1], 2: [1, 1, 1]},
         ops=[("assign", 0, 0), ("fail", 0, 0, 0), ("assign", 1, 2),
              ("release", 1), ("assign", 2, 1), ("assign", 3, 1)])
# the cursor: a requeue and a skipping scan while untouched indices are
# left, then the deque drained behind them
@example(task="map", instances=5, max_attempts=3, hints={},
         ops=[("assign", 0, 0), ("fail", 0, 0, 0), ("assign", 1, 1),
              ("mark_bad", 2), ("assign", 2, 2), ("assign", 3, 0),
              ("release", 1), ("assign", 4, 3)])
def test_lists_and_id_parsing_match_the_deque_index(task, instances,
                                                     max_attempts, hints, ops):
    check(task, instances, max_attempts, hints, ops)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(task=tasks, instances=sizes, max_attempts=attempts, hints=preferred,
       ops=operations)
def test_lists_and_id_parsing_match_the_deque_index_at_scale(
        task, instances, max_attempts, hints, ops):
    check(task, instances, max_attempts, hints, ops)


def test_a_requeued_instance_queues_at_the_tail_of_its_machines():
    """The list index keeps the deque's FIFO order: a released instance
    goes behind the ones still waiting on its machine, once even where
    its hint names the machine twice."""
    master = build(TaskMaster, "map", 3, 3, {0: [1, 1], 1: [1], 2: [1]})
    assert master.next_assignment("w0", "m1", 0.0).instance_id == "map/0"
    assert master.release_worker("w0", 1.0) == "map/0"
    taken = [master.next_assignment(f"w{i}", "m1", 2.0).instance_id
             for i in (1, 2, 3)]
    assert taken == ["map/1", "map/2", "map/0"]
    assert not master._locality_index.get("m1")


def test_the_global_fifo_is_a_cursor_until_a_requeue_or_a_skip():
    """Untouched indices leave from a cursor; the deque is made by the
    first requeue (or skip) and is served after every untouched index."""
    master = build(TaskMaster, "map", 4, 3, {})
    assert master._pending is None
    taken = [master.next_assignment(f"w{i}", "m0", 0.0).instance_id
             for i in (0, 1)]
    assert taken == ["map/0", "map/1"] and master._pending is None
    assert master.release_worker("w0", 1.0) == "map/0"
    assert list(master._pending) == [0]
    taken = [master.next_assignment(f"w{i}", "m0", 2.0).instance_id
             for i in (2, 3, 4)]
    assert taken == ["map/2", "map/3", "map/0"]
    skipping = build(TaskMaster, "map", 3, 3, {})
    skipping.blacklist.mark_job_bad("m1")
    assert skipping.next_assignment("w0", "m1", 0.0) is None
    assert list(skipping._pending) == [0, 1, 2] and skipping._next == 3
    assert skipping.next_assignment("w1", "m0", 0.0).instance_id == "map/0"
