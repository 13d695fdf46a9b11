"""Unit tests for the repro.parallel sweep engine.

Everything here uses the cheap ``selfcheck`` runner (no simulation) so
the engine's contract — envelopes, grids, journals, failure isolation,
deterministic merge — is pinned without paying for cluster runs.  The
expensive "real simulation, 1 vs 4 workers, byte-identical" checks live
in tests/integration/test_parallel_sweep.py.
"""

import json
import pickle

import pytest

from repro.parallel import (
    RunOutcome,
    RunTask,
    SweepJournal,
    SweepJournalError,
    derive_seed,
    execute_task,
    expand_grid,
    known_kinds,
    make_tasks,
    parse_assignments,
    parse_grid_axes,
    register_runner,
    run_sweep,
    tasks_from_spec,
    unregister_runner,
)


# --------------------------------------------------------------------- #
# envelopes
# --------------------------------------------------------------------- #

def test_run_task_round_trips_and_pickles():
    task = RunTask(index=3, task_id="chaos/seed=9", kind="chaos", seed=9,
                   params={"racks": 2, "faults": 4})
    assert RunTask.from_dict(task.to_dict()) == task
    assert pickle.loads(pickle.dumps(task)) == task


def test_run_outcome_merged_entry_excludes_wall_and_pid():
    outcome = RunOutcome(task_id="t", index=0, kind="selfcheck", seed=1,
                         ok=True, result={"x": 1}, error=None,
                         wall_seconds=1.25, worker_pid=4242)
    merged = outcome.merged_entry()
    assert "wall_seconds" not in merged
    assert "worker_pid" not in merged
    # ...but the journal form keeps them for forensics.
    full = outcome.to_dict()
    assert full["wall_seconds"] == 1.25
    assert full["worker_pid"] == 4242
    assert RunOutcome.from_dict(full) == outcome


def test_derive_seed_is_stable_and_distinct_per_task():
    a = derive_seed(7, "sweep-a")
    b = derive_seed(7, "sweep-b")
    assert a == derive_seed(7, "sweep-a")
    assert a != b
    assert a != derive_seed(8, "sweep-a")


# --------------------------------------------------------------------- #
# grids
# --------------------------------------------------------------------- #

def test_expand_grid_orders_axes_by_name():
    combos = expand_grid({"b": [1, 2], "a": ["x"]})
    assert combos == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]


def test_make_tasks_canonical_order_and_ids():
    tasks = make_tasks("selfcheck", params={"echo": "hi"},
                       grid={"n": [1, 2]}, seeds=[5, 6])
    assert [t.task_id for t in tasks] == [
        "selfcheck/n=1/seed=5", "selfcheck/n=1/seed=6",
        "selfcheck/n=2/seed=5", "selfcheck/n=2/seed=6",
    ]
    assert [t.index for t in tasks] == [0, 1, 2, 3]
    assert tasks[0].params == {"echo": "hi", "n": 1}
    # explicit seeds with repeat==1 stay user-visible
    assert [t.seed for t in tasks] == [5, 6, 5, 6]


def test_make_tasks_repeat_derives_child_seeds():
    tasks = make_tasks("selfcheck", seeds=[5], repeat=2, root_seed=11)
    assert [t.task_id for t in tasks] == [
        "selfcheck/seed=5/rep=0", "selfcheck/seed=5/rep=1",
    ]
    seeds = [t.seed for t in tasks]
    assert len(set(seeds)) == 2
    # with an explicit seed axis the derivation roots at that seed, so
    # adding repetitions never depends on root_seed
    assert seeds[0] == derive_seed(5, "selfcheck/seed=5/rep=0")


def test_tasks_from_spec_rejects_unknown_keys():
    with pytest.raises(ValueError):
        tasks_from_spec({"kind": "selfcheck", "bogus": 1})


def test_parse_helpers():
    assert parse_assignments(["a=1", "b=x", "c=[1,2]"]) == \
        {"a": 1, "b": "x", "c": [1, 2]}
    assert parse_grid_axes(["n=1,2", "mode=fast,slow"]) == \
        {"n": [1, 2], "mode": ["fast", "slow"]}
    with pytest.raises(ValueError):
        parse_assignments(["noequals"])


# --------------------------------------------------------------------- #
# execution + merge determinism
# --------------------------------------------------------------------- #

def test_selfcheck_outcome_is_pure_function_of_seed():
    task = RunTask(index=0, task_id="s/1", kind="selfcheck", seed=123,
                   params={})
    first, second = execute_task(task), execute_task(task)
    assert first.ok and second.ok
    assert first.merged_entry() == second.merged_entry()


def test_run_sweep_serial_merge_is_sorted_and_stable():
    tasks = make_tasks("selfcheck", seeds=[3, 1, 2])
    result = run_sweep(tasks, jobs=1)
    merged = result.merged()
    assert merged["sweep"]["total"] == 3
    assert merged["sweep"]["failed"] == 0
    assert [entry["index"] for entry in merged["sweep"]["tasks"]] == \
        [0, 1, 2]
    assert result.merged_json() == json.dumps(
        merged, indent=2, sort_keys=True) + "\n"


def test_failure_is_isolated_as_outcome():
    tasks = make_tasks("selfcheck", params={"fail": True}, seeds=[1])
    result = run_sweep(tasks, jobs=1)
    outcome = result.outcomes[0]
    assert not outcome.ok
    assert outcome.result is None
    assert "RuntimeError" in outcome.error
    assert result.failures == [outcome]
    assert result.merged()["sweep"]["failed"] == 1


def test_unserializable_result_becomes_failed_outcome():
    def bad_runner(seed, params):
        return {"oops": object()}

    register_runner("bad-json", bad_runner)
    try:
        task = RunTask(index=0, task_id="bad/0", kind="bad-json", seed=1,
                       params={})
        outcome = execute_task(task)
        assert not outcome.ok
        assert "TypeError" in outcome.error
    finally:
        unregister_runner("bad-json")


def test_timing_reports_host_workers_and_spread():
    tasks = make_tasks("selfcheck", seeds=[1, 2, 3])
    result = run_sweep(tasks, jobs=1)
    timing = result.timing()
    assert timing["workers"] == 1
    assert timing["host_cpu_count"] >= 1
    assert timing["tasks_run"] == 3
    assert timing["tasks_resumed"] == 0
    spread = timing["task_wall_spread"]
    assert spread["min"] <= spread["median"] <= spread["max"]


def test_duplicate_task_ids_rejected():
    task = RunTask(index=0, task_id="dup", kind="selfcheck", seed=1,
                   params={})
    clone = RunTask(index=1, task_id="dup", kind="selfcheck", seed=2,
                    params={})
    with pytest.raises(ValueError):
        run_sweep([task, clone], jobs=1)


def test_known_kinds_cover_the_wired_consumers():
    kinds = known_kinds()
    for kind in ("simulate", "chaos", "experiment", "selfcheck"):
        assert kind in kinds


# --------------------------------------------------------------------- #
# journal + resume
# --------------------------------------------------------------------- #

def test_journal_resume_skips_ok_outcomes(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    tasks = make_tasks("selfcheck", seeds=[1, 2, 3])
    first = run_sweep(tasks, jobs=1, journal=str(journal))
    assert first.resumed == 0

    second = run_sweep(tasks, jobs=1, journal=str(journal), resume=True)
    assert second.resumed == 3
    assert second.merged_json() == first.merged_json()


def test_journal_resume_reruns_failures(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    gate = tmp_path / "gate"
    tasks = make_tasks("selfcheck",
                       params={"fail_unless_exists": str(gate)},
                       seeds=[1, 2])
    first = run_sweep(tasks, jobs=1, journal=str(journal))
    assert len(first.failures) == 2

    gate.write_text("open", encoding="utf-8")
    second = run_sweep(tasks, jobs=1, journal=str(journal), resume=True)
    assert second.resumed == 0  # only ok outcomes are reused
    assert not second.failures


def test_journal_fingerprint_mismatch_raises(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    tasks = make_tasks("selfcheck", seeds=[1, 2, 3])
    run_sweep(tasks, jobs=1, journal=str(journal))
    truncated = make_tasks("selfcheck", seeds=[1, 2])
    with pytest.raises(SweepJournalError):
        run_sweep(truncated, jobs=1, journal=str(journal), resume=True)


def test_journal_without_resume_starts_fresh(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    tasks = make_tasks("selfcheck", seeds=[1])
    run_sweep(tasks, jobs=1, journal=str(journal))
    result = run_sweep(tasks, jobs=1, journal=str(journal))
    assert result.resumed == 0
    lines = journal.read_text(encoding="utf-8").splitlines()
    # fresh open truncates: one header + one outcome
    assert len(lines) == 2


def test_journal_last_wins_on_duplicate_records(tmp_path):
    path = tmp_path / "sweep.jsonl"
    tasks = make_tasks("selfcheck", seeds=[1])
    run_sweep(tasks, jobs=1, journal=str(path))
    # Append a stale duplicate outcome for the same task: the *last*
    # record must win when loading.
    doc = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
    doc["ok"] = False
    doc["error"] = "stale"
    doc["result"] = None
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
    journal = SweepJournal(str(path))
    _, outcomes = journal.load()
    assert outcomes["selfcheck/seed=1"].ok is False
