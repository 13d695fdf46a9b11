"""Unit tests for the live telemetry plane (repro.obs.live)."""

import io
import json

import pytest

from repro.api import RunSpec, simulate
from repro.obs.live import (ClusterSampler, SubsystemProfiler,
                            TimeSeriesStore, classify_callback,
                            unwrap_callback)
from repro.sim.events import EventLoop

SMALL = dict(racks=2, machines_per_rack=4, concurrent_jobs=6, duration=30.0)


# --------------------------------------------------------------------- #
# TimeSeriesStore
# --------------------------------------------------------------------- #

def test_store_ring_bounds_and_counts_drops():
    store = TimeSeriesStore(capacity=3)
    for i in range(5):
        store.append({"time": float(i), "x": float(i * 10)})
    assert len(store) == 3
    assert store.dropped == 2
    assert [row["time"] for row in store.rows()] == [2.0, 3.0, 4.0]
    assert store.latest()["x"] == 40.0


def test_store_rejects_bad_capacity():
    with pytest.raises(ValueError):
        TimeSeriesStore(capacity=0)


def test_store_series_extraction_skips_missing_columns():
    store = TimeSeriesStore()
    store.append({"time": 1.0, "a": 5.0})
    store.append({"time": 2.0})
    store.append({"time": 3.0, "a": 7.0})
    assert store.series("a") == [(1.0, 5.0), (3.0, 7.0)]


def test_store_export_excludes_wall_columns_by_default():
    store = TimeSeriesStore(meta={"seed": 1})
    store.append({"time": 1.0, "x": 2.0, "wall_ms_per_sim_s": 3.25})
    doc = store.to_dict()
    assert doc["rows"] == [{"time": 1.0, "x": 2.0}]
    assert "wall_ms_per_sim_s" in store.rows()[0]
    with_wall = store.to_dict(include_wall=True)
    assert "wall_ms_per_sim_s" in with_wall["rows"][0]


def test_store_jsonl_round_trip():
    store = TimeSeriesStore(capacity=8, meta={"seed": 42})
    store.append({"time": 1.0, "x": 2.0})
    store.append({"time": 2.0, "x": 4.0})
    text = store.to_jsonl()
    header = json.loads(text.splitlines()[0])
    assert header["kind"] == "timeseries" and header["rows"] == 2
    loaded = TimeSeriesStore.from_jsonl(io.StringIO(text))
    assert loaded.meta["seed"] == 42
    assert loaded.rows() == store.rows(include_wall=False)


def test_store_from_jsonl_rejects_non_timeseries():
    with pytest.raises(ValueError):
        TimeSeriesStore.from_jsonl(io.StringIO('{"kind":"flight"}\n'))


# --------------------------------------------------------------------- #
# ClusterSampler via the public simulate() surface
# --------------------------------------------------------------------- #

def test_sampler_export_is_byte_identical_for_same_seed():
    spec = RunSpec(live_sample=True, live_sample_interval=2.0, **SMALL)
    first = simulate(spec).timeseries.to_jsonl()
    second = simulate(spec).timeseries.to_jsonl()
    assert first == second


def test_sampler_rows_carry_the_documented_columns():
    spec = RunSpec(live_sample=True, live_sample_interval=2.0, **SMALL)
    row = simulate(spec).timeseries.latest()
    for column in ("time", "events", "pending", "machines",
                   "machines_disabled", "queue_machine", "queue_rack",
                   "queue_anywhere", "queue_total", "agents_seen",
                   "hb_stale_max", "hb_stale_mean", "blacklisted",
                   "jobs_running", "jobs_finished", "events_per_sim_s"):
        assert column in row, column
    assert any(c.startswith("free_") for c in row)
    # wall rates exist in-memory but never in the deterministic export
    assert "wall_ms_per_sim_s" in row


def test_sampler_cadence_follows_interval():
    spec = RunSpec(live_sample=True, live_sample_interval=5.0, **SMALL)
    times = [row["time"] for row in simulate(spec).timeseries.rows()]
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert deltas and all(abs(d - 5.0) < 1e-9 for d in deltas)


def test_sampler_detach_stops_sampling():
    from repro.api import ClusterBuilder
    cluster = ClusterBuilder(racks=1, machines_per_rack=3).build()
    sampler = cluster.enable_live_sampler(interval=1.0)
    cluster.run_for(3.0)
    count = len(sampler.store)
    assert count >= 2
    sampler.detach()
    cluster.run_for(5.0)
    assert len(sampler.store) == count


def test_sampler_rejects_bad_interval():
    from repro.api import ClusterBuilder
    cluster = ClusterBuilder(racks=1, machines_per_rack=2,
                             standby_master=False).build(warm_up=False)
    with pytest.raises(ValueError):
        ClusterSampler(cluster, interval=0.0)


def test_summary_dict_embeds_deterministic_timeseries():
    spec = RunSpec(live_sample=True, live_sample_interval=2.0, **SMALL)
    summary = simulate(spec).summary_dict()
    payload = summary["timeseries"]
    assert payload["meta"]["seed"] == spec.seed
    assert payload["rows"]
    assert not any(k.startswith("wall_")
                   for row in payload["rows"] for k in row)
    # the whole summary must survive a JSON round trip unchanged
    assert json.loads(json.dumps(summary)) == json.loads(json.dumps(summary))


# --------------------------------------------------------------------- #
# profiling attribution
# --------------------------------------------------------------------- #

def test_classify_callback_by_module_and_unwrap():
    from repro.sim.actor import _PeriodicChain

    class FakeOwner:
        _timers = {}
        _periodic = {}
        alive = False

    def heartbeat():
        pass

    heartbeat.__module__ = "repro.core.agent"
    chain = _PeriodicChain(FakeOwner(), "hb", heartbeat)
    assert unwrap_callback(chain) is heartbeat
    assert classify_callback(chain) == "agent"
    assert classify_callback(lambda: None) == "other"


def test_profiler_attributes_events_to_subsystems():
    from repro.api import ClusterBuilder
    cluster = ClusterBuilder(racks=2, machines_per_rack=3).build(warm_up=False)
    profiler = SubsystemProfiler().attach(cluster.loop, sample_every=1)
    cluster.warm_up()
    cluster.run_for(10.0)
    profiler.detach(cluster.loop)
    report = profiler.report()
    assert report["sample_every"] == 1
    assert report["events_sampled"] == cluster.loop.events_executed
    assert "agent" in report["subsystems"]
    shares = [s["wall_share"] for s in report["subsystems"].values()]
    assert all(0.0 <= share <= 1.0 for share in shares)


def test_profiler_detach_stops_attribution():
    loop = EventLoop()
    profiler = SubsystemProfiler().attach(loop, sample_every=1)
    loop.call_at(1.0, lambda: None)
    loop.run()
    assert profiler.report()["events_sampled"] == 1
    profiler.detach(loop)
    loop.call_at(2.0, lambda: None)
    loop.run()
    assert profiler.report()["events_sampled"] == 1


def test_simulate_profile_flag_surfaces_attribution():
    spec = RunSpec(profile=True, **SMALL)
    result = simulate(spec)
    report = result.profile_report()
    assert report is not None
    assert report["events_sampled"] > 0
    assert report["subsystems"]
    # without the flag the result carries no attribution
    assert simulate(RunSpec(**SMALL)).profile_report() is None
