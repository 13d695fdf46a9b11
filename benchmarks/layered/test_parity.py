"""The harness driver against ``repro.api.simulate``, and the tracer
against the untraced driver.

    PYTHONPATH=src python -m pytest benchmarks/layered/test_parity.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

import json  # noqa: E402

from repro.api import RunSpec, simulate  # noqa: E402
from repro.core.master import FuxiMaster  # noqa: E402

from driver import ClosedLoop, fingerprint  # noqa: E402
from spans import LAYERS, LayerTracer  # noqa: E402
from workloads import Shape  # noqa: E402

SMALL = Shape(name="parity", why="", racks=10, machines_per_rack=10, jobs=40,
              mix="paper", duration=20.0)
SMALL_FAULTS = Shape(name="parity_faults", why="", racks=10,
                     machines_per_rack=10, jobs=40, mix="paper",
                     duration=40.0,
                     faults=dict(faults=8, start=6.0, window=20.0,
                                 recover_after=6.0, master_failures=2,
                                 network_bursts=1))
SEED = 7


def drive(shape: Shape):
    loop = ClosedLoop(shape, SEED)
    try:
        window = loop.run(shape.duration)
    finally:
        loop.close()
    return loop, window


def test_driver_matches_simulate():
    loop, window = drive(SMALL)
    reference = simulate(RunSpec(
        racks=SMALL.racks, machines_per_rack=SMALL.machines_per_rack,
        concurrent_jobs=SMALL.jobs, duration=SMALL.duration,
        workload_mix=SMALL.mix, seed=SEED))
    ours = fingerprint(loop, window)
    theirs = reference.summary_dict()
    assert ours["grant_stream"] == [
        f"{entry['master']}:{entry['digest']}:{entry['grants']}"
        for entry in theirs["grant_stream"]]
    assert ours["events"] == theirs["events"]
    assert ours["jobs_finished"] == theirs["jobs_completed"]
    assert ours["jobs_submitted"] == theirs["jobs_submitted"]
    assert ours["units_granted"] == theirs["sched"]["units_granted"]
    assert sorted(round(value, 6) for value in window.slowdowns) \
        == sorted(reference.slowdowns)


def test_same_seed_repeats_are_identical():
    first = fingerprint(*drive(SMALL))
    second = fingerprint(*drive(SMALL))
    assert first == second


def test_driver_rides_out_master_failovers():
    loop, window = drive(SMALL_FAULTS)
    takeovers = sum(master.failovers for master in loop.cluster.masters)
    assert takeovers > 1, "the plan must fail the primary over"
    assert window.owed_submits == 0
    assert window.finished > 0
    loop.cluster.primary_master.scheduler.check_conservation()


def test_tracer_leaves_the_run_unchanged_and_accounts_for_the_wall():
    plain = fingerprint(*drive(SMALL_FAULTS))
    handle_message = FuxiMaster.handle_message
    tracer = LayerTracer()
    tracer.install()
    try:
        assert FuxiMaster.handle_message is not handle_message
        loop = ClosedLoop(SMALL_FAULTS, SEED)
        try:
            tracer.reset()
            window = loop.run(SMALL_FAULTS.duration)
        finally:
            loop.close()
    finally:
        tracer.uninstall()
    assert FuxiMaster.handle_message is handle_message
    assert fingerprint(loop, window) == plain
    rows = tracer.by_layer()
    assert set(rows) == set(LAYERS)
    assert all(row["calls"] > 0 for row in rows.values())
    total_self = sum(row["self_s"] for row in rows.values())
    assert abs(total_self - tracer.traced_s) < 1e-6 * max(1.0, total_self)
    assert abs(total_self - window.wall_s) < 0.05 * window.wall_s
    assert tracer.failover_sim_s and min(tracer.failover_sim_s) > 0
    assert tracer.spans, "cold boundaries keep their individual spans"


def test_contract_lists_exactly_what_a_run_reports():
    import run
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    untraced = run.measure_untraced(SMALL, SEED, run.REFERENCE_SECONDS)
    traced = run.measure_traced(SMALL, SEED, run.REFERENCE_SECONDS)
    for key, out in (("end_to_end", untraced), ("per_layer", traced)):
        assert out["final"]["correct"], out["detail"]["problems"]
        reported = out["final"]["metrics"]
        assert sorted(reported) == sorted(m["name"] for m in contract[key])
        for metric in contract[key]:
            assert reported[metric["name"]]["unit"] == metric["unit"]
    assert contract["run_seconds"] == run.REFERENCE_SECONDS
    assert [(w["name"], w["why"]) for w in contract["workloads"]] \
        == [(shape.name, shape.why) for shape in run.SHAPES.values()]
