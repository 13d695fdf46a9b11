"""The ``repro.api`` facade: builder, RunSpec, simulate, golden digests."""

import json

import pytest

from repro import kernels
from repro.api import ClusterBuilder, RunSpec, simulate


SMALL = RunSpec(racks=2, machines_per_rack=3, concurrent_jobs=3,
                duration=60.0, workload_scale=10, workers_cap=3)


# ----------------------------- RunSpec ------------------------------ #

def test_runspec_round_trip():
    spec = RunSpec(racks=3, concurrent_jobs=5, trace=True)
    assert RunSpec.from_dict(spec.to_dict()) == spec


def test_runspec_validation():
    with pytest.raises(ValueError):
        RunSpec(racks=0)
    with pytest.raises(ValueError):
        RunSpec.from_dict({"machines": 10})  # derived, not a field
    with pytest.raises(ValueError, match="shards"):
        RunSpec.from_dict({"shards": 2})  # one engine: no such field
    with pytest.raises(ValueError, match="kernels"):
        RunSpec.from_dict({"kernels": "numpy"})  # a platform fact, not a knob
    with pytest.raises(ValueError):
        RunSpec(hint_fraction=1.5).validate()
    RunSpec(hint_fraction=0.5).validate()


def test_runspec_machines_property():
    assert RunSpec(racks=3, machines_per_rack=7).machines == 21


# --------------------------- ClusterBuilder ------------------------- #

def test_builder_round_trip():
    builder = ClusterBuilder(racks=2, machines_per_rack=4,
                             machine_cpu=200.0, machine_memory=4096.0,
                             seed=11, trace=True, standby_master=False)
    rebuilt = ClusterBuilder.from_dict(builder.to_dict())
    assert rebuilt.to_dict() == builder.to_dict()


def test_builder_fluent_matches_kwargs():
    fluent = (ClusterBuilder()
              .topology(2, 4)
              .machine_shape(cpu=200.0, memory=4096.0)
              .seed(11)
              .trace(True)
              .standby_master(False))
    kwargs = ClusterBuilder(racks=2, machines_per_rack=4,
                            machine_cpu=200.0, machine_memory=4096.0,
                            seed=11, trace=True, standby_master=False)
    assert fluent.to_dict() == kwargs.to_dict()


def test_builder_builds_working_cluster():
    cluster = (ClusterBuilder(racks=2, machines_per_rack=3,
                              machine_cpu=400.0, machine_memory=8192.0)
               .seed(5).build())
    assert cluster.primary_master is not None
    master = cluster.primary_master
    assert master.scheduler.pool.machine_count() == 6


# ------------------------------ simulate ---------------------------- #

def _digest(result):
    """A canonical byte-level fingerprint of a run."""
    sched = result.metrics.series("fm.schedule_ms")
    return json.dumps({
        "submitted": result.submitted,
        "completed": result.jobs_completed,
        "job_results": sorted(result.job_results),
        "sched_n": len(sched.points),
        "sched_times": repr(sched.times()),
        "now": repr(result.cluster.loop.now),
        "events": result.cluster.events_total,
    }, sort_keys=True).encode()


def test_simulate_same_seed_byte_identical():
    first = _digest(simulate(SMALL))
    second = _digest(simulate(SMALL))
    assert first == second


def test_simulate_seed_override_changes_run_not_spec():
    result = simulate(SMALL, seed=99)
    assert SMALL.seed == 7          # the caller's spec is untouched
    assert result.spec.seed == 99   # the run used the override


def test_simulate_completes_jobs():
    result = simulate(SMALL)
    assert result.jobs_completed > 0
    assert len(result.submitted) >= SMALL.concurrent_jobs


def test_simulate_owes_replacements_while_a_failover_is_in_flight():
    """Jobs finish between the primary's crash at 12 s and the standby's
    takeover; their replacements must wait for a primary, not raise
    ``RuntimeError: no primary FuxiMaster``."""
    result = simulate(RunSpec(
        racks=10, machines_per_rack=10, concurrent_jobs=40, duration=40,
        fault_spec="FuxiMasterFailure@12;FuxiMasterRestart@22"))
    assert result.cluster.primary_master is not None
    # closed loop: every finished job was replaced once a primary existed
    assert len(result.submitted) == 40 + result.jobs_completed
    assert result.jobs_completed > 0


def test_package_root_reexports():
    import repro
    assert repro.ClusterBuilder is ClusterBuilder
    assert repro.RunSpec is RunSpec
    assert repro.simulate is simulate


def test_summary_dict_is_deterministic_and_json_able():
    spec = RunSpec(racks=2, machines_per_rack=3, concurrent_jobs=4,
                   duration=10.0)
    first = simulate(spec, seed=7).summary_dict()
    second = simulate(spec, seed=7).summary_dict()
    assert first == second
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert first["seed"] == 7
    assert first["spec"] == spec.to_dict()
    assert first["jobs_submitted"] > 0
    assert first["events"] > 0


# --------------------- golden grant-stream digests ------------------- #
# Recorded at commit ca049c4 and never re-recorded by a refactor: a change
# that claims "same behaviour" must reproduce every row, under both kernel
# backends.  Re-recorded when the job plane's periodic timers moved
# onto the phase grid (a stream-moving change: reports, AM heartbeats,
# retransmits and housekeeping fire at other instants), together with the
# job-level blacklist no longer blaming a machine for a work plan that
# overtook its grant delta, a worker declared dead for its silence being
# stopped at its agent, and a JobMaster withdrawing demand beyond its
# unit's max_count.  Re-recorded again when a version-0 first beat began
# registering its machine and the recovery push began skipping books that
# already match: a clean start sends no ResyncRequest, AgentFullState,
# pushed full sync or ack, so every agent <-> master edge draws its delays
# from other counter slots, and a digest mismatch behind an unacked send
# no longer pushes a full sync; the NodeDown pair moved from r00m001,
# whose two instants then gave the same grants, to r00m000.  Re-recorded
# when the bus began keying its draws by sender instead of by (sender,
# dest) edge: every message takes another slot, so every delay moves (the
# NodeDown pair still gives two different streams).  The fault
# plans fire at exact instants (two NodeDowns 0.25 ms apart, the first on
# a beat instant, must give different streams) and cover machine and
# agent restart, a lossy network window and master failover.

GOLDEN_SPEC = RunSpec(racks=2, machines_per_rack=5, concurrent_jobs=6,
                      duration=30.0, workload_scale=20, workers_cap=4,
                      seed=11)

GOLDEN = {
    "": (["fuxi-master-0:e72a6e72547a1058:19",
          "fuxi-master-1:cbf29ce484222325:0"], 2373),
    "NodeDown@12.0:r00m000": (
        ["fuxi-master-0:175c3a39b1ada774:22",
         "fuxi-master-1:cbf29ce484222325:0"], 2326),
    "NodeDown@12.00025:r00m000": (
        ["fuxi-master-0:076021f6760bdc52:22",
         "fuxi-master-1:cbf29ce484222325:0"], 2282),
    "NodeDown@10.0:r01m000;MachineRestart@18.0:r01m000;"
    "AgentRestart@22.0:r00m002": (
        ["fuxi-master-0:785630e92b870a3b:19",
         "fuxi-master-1:cbf29ce484222325:0"], 2363),
    "NodeDown@8.0:r00m001;SlowMachine@9.0:r00m003:factor=3.0;"
    "NetworkBurst@11.0:dur=4.0:drop=0.2:delay=0.004;"
    "PartialWorkerFailure@13.0:r01m002;FuxiMasterFailure@15.0;"
    "FuxiMasterRestart@24.0": (
        ["fuxi-master-0:8f33a0c331d96ed5:14",
         "fuxi-master-1:4ca6f44400960768:4"], 2222),
}


@pytest.mark.parametrize("backend", ["python", pytest.param(
    "numpy", marks=pytest.mark.skipif(not kernels.numpy_available(),
                                      reason="numpy not installed"))])
@pytest.mark.parametrize("fault_spec", list(GOLDEN),
                         ids=["no-faults", "node-down-on-tick",
                              "node-down-off-tick", "restart-plan",
                              "six-kind-chaos"])
def test_grant_stream_matches_golden(fault_spec, backend):
    with kernels.use(backend):
        summary = simulate(GOLDEN_SPEC.replace(
            fault_spec=fault_spec)).summary_dict()
    stream = [f"{e['master']}:{e['digest']}:{e['grants']}"
              for e in summary["grant_stream"]]
    assert (stream, summary["events"]) == GOLDEN[fault_spec]
