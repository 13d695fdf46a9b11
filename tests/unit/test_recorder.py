"""Unit tests for the flight recorder (repro.obs.recorder)."""

import io
import json

import pytest

from repro.obs.recorder import FlightRecorder, _label_arg, _label_callback
from repro.sim.events import EventLoop


def test_ring_keeps_only_the_last_capacity_events():
    loop = EventLoop()
    recorder = FlightRecorder(capacity=3).attach(loop)
    for i in range(6):
        loop.call_at(float(i + 1), lambda: None)
    loop.run()
    assert len(recorder) == 3
    assert recorder.recorded == 6
    assert [e["t"] for e in recorder.entries()] == [4.0, 5.0, 6.0]


def test_recorder_rejects_bad_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_recorder_sees_every_event():
    loop = EventLoop()
    recorder = FlightRecorder().attach(loop)
    loop.call_at(1.05, lambda: None, recycle=True)
    loop.call_at(1.0, lambda: None)
    loop.run()
    assert [e["t"] for e in recorder.entries()] == [1.0, 1.05]


def test_entry_labels_are_deterministic():
    # No repr() of arbitrary objects: addresses must never leak into dumps.
    class Thing:
        pass

    class Named:
        name = "agent-7"

    assert _label_arg("x") == "x"
    assert _label_arg(3) == "3"
    assert _label_arg(None) == "None"
    assert _label_arg(Named()) == "agent-7"
    assert _label_arg(Thing()) == "<Thing>"
    assert "0x" not in _label_arg(Thing())

    def named_fn():
        pass

    assert _label_callback(named_fn).endswith("named_fn")


def test_manual_markers_join_the_timeline():
    recorder = FlightRecorder()
    recorder.record("violation", invariant="conservation", time=12.5)
    entry = recorder.entries()[0]
    assert entry["marker"] == "violation"
    assert entry["invariant"] == "conservation"


def test_dump_and_load_round_trip():
    loop = EventLoop()
    recorder = FlightRecorder(capacity=8).attach(loop)
    loop.call_at(1.0, lambda: None)
    loop.run()
    recorder.record("fault", kind="AgentRestart")
    buffer = io.StringIO()
    count = recorder.dump(buffer, context={"seed": 3, "reason": "test"})
    assert count == 2
    loaded = FlightRecorder.load(io.StringIO(buffer.getvalue()))
    assert loaded["kind"] == "flight"
    assert loaded["context"] == {"seed": 3, "reason": "test"}
    assert len(loaded["entries"]) == 2
    assert loaded["entries"][-1]["marker"] == "fault"


def test_dump_is_byte_identical_for_identical_runs():
    def drive():
        loop = EventLoop()
        recorder = FlightRecorder(capacity=16).attach(loop)
        for i in range(5):
            loop.call_at(float(i + 1), lambda: None, recycle=(i % 2 == 0))
        loop.run()
        buffer = io.StringIO()
        recorder.dump(buffer, context={"seed": 1})
        return buffer.getvalue()

    assert drive() == drive()


def test_load_rejects_non_flight_input():
    with pytest.raises(ValueError):
        FlightRecorder.load(io.StringIO('{"kind":"timeseries"}\n'))
    with pytest.raises(ValueError):
        FlightRecorder.load(io.StringIO(""))


def test_detach_stops_recording():
    loop = EventLoop()
    recorder = FlightRecorder().attach(loop)
    loop.call_at(1.0, lambda: None)
    loop.run()
    recorder.detach(loop)
    loop.call_at(2.0, lambda: None)
    loop.run()
    assert len(recorder) == 1


def test_simulate_dumps_flight_on_crash(tmp_path, monkeypatch):
    from repro import _runtime
    from repro.api import RunSpec, simulate

    class Boom(RuntimeError):
        pass

    original = _runtime.FuxiCluster.run_for

    def exploding_run_for(self, seconds):
        if self.loop.now > 10.0:
            raise Boom("disk on fire")
        return original(self, seconds)

    monkeypatch.setattr(_runtime.FuxiCluster, "run_for", exploding_run_for)
    dump = tmp_path / "crash.flight.jsonl"
    spec = RunSpec(racks=1, machines_per_rack=3, concurrent_jobs=2,
                   duration=60.0, flight_recorder=True,
                   flight_dump=str(dump))
    with pytest.raises(Boom):
        simulate(spec)
    loaded = FlightRecorder.load(str(dump))
    assert loaded["context"]["reason"] == "crash"
    assert "Boom" in loaded["context"]["error"]
    assert loaded["context"]["seed"] == spec.seed
    assert loaded["entries"]


def test_simulate_without_recorder_does_not_dump(tmp_path, monkeypatch):
    from repro import _runtime
    from repro.api import RunSpec, simulate

    def exploding_run_for(self, seconds):
        raise RuntimeError("boom")

    monkeypatch.setattr(_runtime.FuxiCluster, "run_for", exploding_run_for)
    monkeypatch.chdir(tmp_path)
    spec = RunSpec(racks=1, machines_per_rack=3, concurrent_jobs=2,
                   duration=10.0)
    with pytest.raises(RuntimeError):
        simulate(spec)
    assert not list(tmp_path.glob("*.jsonl"))
