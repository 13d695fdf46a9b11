"""Acceptance test: the flight recorder dumps on violation, and the dump
is a complete, deterministic replay recipe.

Uses the seeded double-grant mutation from ``test_mutation_double_grant``
to make a chaos run trip the resource-conservation invariant, then checks

1. the run writes ``chaos-seed{N}-flight.jsonl`` next to the violation
   trace, with the violation marker in the ring and the full context
   (seed, schedule, invariant) in the header;
2. replaying ``(seed, schedule)`` from the dump's header reproduces the
   same invariant violation at the same simulated time, and the replay's
   flight dump is byte-identical to the original.
"""

import json

import pytest

from repro.chaos import ChaosConfig, run_with_schedule
from repro.cluster.faults import FaultPlan
from repro.core.scheduler import FuxiScheduler
from repro.obs.recorder import FlightRecorder

#: a workload whose jobs hold containers when the master fails over, so
#: the rebuild restores allocations (the mutated path) from agent reports
SEED = 1
NOISY_SPEC = ("AgentRestart@8:r00m001;"
              "SlowMachine@9:r01m002:factor=2.5;"
              "FuxiMasterFailure@12;"
              "NetworkBurst@14:dur=3:drop=0.1;"
              "MachineRestart@24:r01m002;"
              "FuxiMasterRestart@27")


@pytest.fixture
def double_grant_bug(monkeypatch):
    """Rebuild updates the ledger but never charges pool or quota."""

    def buggy_restore(self, unit_key, machine, count):
        self.ledger.set_count(unit_key, machine, count)
        return count

    monkeypatch.setattr(FuxiScheduler, "restore_allocation", buggy_restore)


def _run(tmp_path):
    config = ChaosConfig(trace=False, trace_dir=str(tmp_path))
    return run_with_schedule(SEED, FaultPlan.from_spec(NOISY_SPEC),
                             config), config


def test_violation_dumps_flight_ring(double_grant_bug, tmp_path):
    result, _config = _run(tmp_path)
    assert not result.ok
    assert result.flight_path is not None
    assert result.flight_path.endswith(f"chaos-seed{SEED}-flight.jsonl")

    dump = FlightRecorder.load(result.flight_path)
    context = dump["context"]
    assert context["reason"] == "violation"
    assert context["seed"] == SEED
    assert context["schedule"] == result.schedule.to_spec()
    assert context["invariant"] == result.violations[0].invariant
    # the in-band marker sits in the ring alongside the event tail
    markers = [e for e in dump["entries"] if e.get("marker") == "violation"]
    assert any(m["invariant"] == context["invariant"] for m in markers)
    assert any("fn" in e for e in dump["entries"])

    # the to_dict verdict names the dump so sweep journals carry it
    assert result.to_dict()["flight_path"] == result.flight_path


def test_flight_dump_replays_the_violation_deterministically(
        double_grant_bug, tmp_path):
    original, _config = _run(tmp_path / "first")
    assert not original.ok
    header = FlightRecorder.load(original.flight_path)
    context = header["context"]

    # replay purely from the dump's header: same seed, same schedule
    replay_config = ChaosConfig(trace=False,
                                trace_dir=str(tmp_path / "replay"))
    replay = run_with_schedule(context["seed"],
                               FaultPlan.from_spec(context["schedule"]),
                               replay_config)
    assert not replay.ok
    assert replay.violations[0].invariant == context["invariant"]
    assert replay.violations[0].time == pytest.approx(context["sim_time"])
    assert replay.sim_time == pytest.approx(original.sim_time)

    # the replay's ring is byte-identical apart from the config paths
    first_lines = open(original.flight_path).read().splitlines()
    second_lines = open(replay.flight_path).read().splitlines()
    assert first_lines[1:] == second_lines[1:]
    first_head = json.loads(first_lines[0])
    second_head = json.loads(second_lines[0])
    first_head["context"].pop("config")
    second_head["context"].pop("config")
    assert first_head == second_head


def test_clean_run_writes_no_flight_dump(tmp_path):
    result, _config = _run(tmp_path)
    assert result.ok
    assert result.flight_path is None
    assert not list(tmp_path.glob("*flight*"))


def test_flight_can_be_disabled(double_grant_bug, tmp_path):
    config = ChaosConfig(trace=False, trace_dir=str(tmp_path), flight=False)
    result = run_with_schedule(SEED, FaultPlan.from_spec(NOISY_SPEC), config)
    assert not result.ok
    assert result.flight_path is None
