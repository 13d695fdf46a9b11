"""Acceptance test: a seeded book-keeping bug is caught and shrunk.

The mutation re-creates the classic failover double-grant hazard: during
soft-state rebuild the scheduler records an agent-reported allocation in
the ledger **without charging the free pool or the quota** — the same
physical slot can then be granted again.  The chaos harness must

1. catch it via the resource-conservation invariant while the fault
   schedule runs,
2. delta-debug the 6-fault schedule down to at most 3 faults (the actual
   culprit is the master failover alone), and
3. emit a repro command that replays the minimal schedule;

and the *unmutated* scheduler must pass the identical schedule, proving
the detection is the mutation's fault, not harness noise.
"""

import pytest

from repro.chaos import (ChaosConfig, repro_command, run_with_schedule,
                         shrink_schedule)
from repro.chaos.shrink import violation_matcher
from repro.cluster.faults import FaultPlan
from repro.core.scheduler import FuxiScheduler

#: a workload whose jobs hold containers when the master fails over, so
#: the rebuild restores allocations (the mutated path) from agent reports
SEED = 1
NOISY_SPEC = ("AgentRestart@8:r00m001;"
              "SlowMachine@9:r01m002:factor=2.5;"
              "FuxiMasterFailure@12;"
              "NetworkBurst@14:dur=3:drop=0.1;"
              "MachineRestart@24:r01m002;"
              "FuxiMasterRestart@27")
CONFIG = ChaosConfig(trace=False)


@pytest.fixture
def double_grant_bug(monkeypatch):
    """Rebuild updates the ledger but never charges pool or quota."""

    def buggy_restore(self, unit_key, machine, count):
        self.ledger.set_count(unit_key, machine, count)
        return count

    monkeypatch.setattr(FuxiScheduler, "restore_allocation", buggy_restore)


def test_clean_scheduler_passes_the_noisy_schedule():
    result = run_with_schedule(SEED, FaultPlan.from_spec(NOISY_SPEC), CONFIG)
    assert result.ok, f"harness noise: {result.violations[0]}"


def test_mutation_is_caught_and_shrunk_to_minimal_repro(double_grant_bug):
    plan = FaultPlan.from_spec(NOISY_SPEC)
    result = run_with_schedule(SEED, plan, CONFIG)

    # 1. caught, and by the right invariant
    assert not result.ok
    violated = {v.invariant for v in result.violations}
    assert "resource-conservation" in violated
    first = next(v for v in result.violations
                 if v.invariant == "resource-conservation")
    assert "conservation violated" in first.detail

    # 2. shrunk to <= 3 faults that still reproduce the same invariant
    minimal = shrink_schedule(
        plan,
        violation_matcher(
            lambda p: run_with_schedule(SEED, p, CONFIG).violations,
            "resource-conservation"))
    assert 1 <= len(minimal.events) <= 3
    replay = run_with_schedule(SEED, minimal, CONFIG)
    assert any(v.invariant == "resource-conservation"
               for v in replay.violations)
    # the culprit failover is in the minimal schedule
    assert any(e.kind == "FuxiMasterFailure" for e in minimal.events)

    # 3. the repro command replays the minimal schedule verbatim
    command = repro_command(SEED, minimal, CONFIG)
    assert command.startswith("python -m repro.cli chaos")
    assert f"--seed {SEED}" in command
    assert f'--schedule "{minimal.to_spec()}"' in command


def test_minimal_repro_is_clean_without_the_mutation():
    # The shrunk schedule from the mutated run must NOT trip the real code.
    result = run_with_schedule(
        SEED, FaultPlan.from_spec("FuxiMasterFailure@12"), CONFIG)
    assert result.ok
