"""Unit tests for the instance state machine."""

import pytest

from repro.jobs.instance import Instance, InstanceState


def make_instance():
    return Instance(task="map", index=3, duration=5.0)


def test_initial_state():
    instance = make_instance()
    assert instance.state == InstanceState.WAITING
    assert instance.instance_id == "map/3"
    assert instance.attempts == ()


def test_start_attempt_transitions_to_running():
    instance = make_instance()
    attempt = instance.start_attempt("w1", "m1", now=10.0)
    assert instance.state == InstanceState.RUNNING
    assert instance.started_at == 10.0
    assert attempt.machine == "m1"
    assert not attempt.is_backup


def test_complete_marks_winner():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=0.0)
    attempt = instance.complete("w1", now=5.0)
    assert instance.state == InstanceState.FINISHED
    assert instance.elapsed == 5.0
    assert instance.winning_attempt is attempt


def test_complete_is_idempotent_for_duplicates():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=0.0)
    assert instance.complete("w1", now=5.0) is not None
    assert instance.complete("w1", now=6.0) is None
    assert instance.finished_at == 5.0


def test_complete_from_unknown_worker_ignored():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=0.0)
    assert instance.complete("w9", now=5.0) is None
    assert instance.state == InstanceState.RUNNING


def test_fail_attempt_requeues():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=0.0)
    instance.fail_attempt("w1", now=2.0)
    assert instance.state == InstanceState.WAITING
    assert instance.failures == 1


def test_fail_one_of_two_attempts_keeps_running():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=0.0)
    instance.start_attempt("w2", "m2", now=1.0, is_backup=True)
    instance.fail_attempt("w1", now=2.0)
    assert instance.state == InstanceState.RUNNING
    assert len(instance.running_attempts) == 1


def test_backup_race_first_wins_and_twin_cancelled():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=0.0)
    instance.start_attempt("w2", "m2", now=3.0, is_backup=True)
    instance.complete("w2", now=6.0)
    cancelled = instance.abandon_others("w2", now=6.0)
    assert [a.worker_id for a in cancelled] == ["w1"]
    assert instance.state == InstanceState.FINISHED
    assert instance.winning_attempt.worker_id == "w2"


def test_started_at_is_first_attempt():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=1.0)
    instance.fail_attempt("w1", now=2.0)
    instance.start_attempt("w2", "m2", now=3.0)
    assert instance.started_at == 1.0


def test_cannot_start_attempt_on_terminal_instance():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=0.0)
    instance.complete("w1", now=1.0)
    with pytest.raises(ValueError):
        instance.start_attempt("w2", "m2", now=2.0)


def test_attempt_lookup_only_live_attempts():
    instance = make_instance()
    instance.start_attempt("w1", "m1", now=0.0)
    instance.fail_attempt("w1", now=1.0)
    assert instance.attempt_on("w1") is None


def test_slotted_records_pickle_and_compare_equal():
    """Instance and Attempt are slotted (no per-object dict) and still
    pickle, copy and compare by value, attempts included."""
    import copy
    import pickle

    from repro.jobs.instance import Attempt
    instance = make_instance()
    instance.preferred_machines = ("m1", "m2")
    instance.start_attempt("w1", "m1", now=1.0)
    instance.start_attempt("w2", "m2", now=2.0, is_backup=True)
    instance.complete("w2", now=3.0)
    assert not hasattr(instance, "__dict__")
    assert not hasattr(instance.attempts[0], "__dict__")
    for clone in (pickle.loads(pickle.dumps(instance)),
                  copy.deepcopy(instance)):
        assert clone == instance and clone is not instance
        assert clone.attempts == instance.attempts
        assert clone.winning_attempt == Attempt("w2", "m2", 2.0, True, 3.0)
        assert clone.state is InstanceState.FINISHED
