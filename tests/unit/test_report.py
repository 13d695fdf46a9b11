"""Unit tests for the HTML report generator (repro.obs.report)."""

import pytest

from repro.obs.live import TimeSeriesStore
from repro.obs.recorder import FlightRecorder
from repro.obs.report import load_any, render_html, svg_line_chart, write_report


def _timeseries_file(path):
    store = TimeSeriesStore(meta={"seed": 7})
    for i in range(4):
        store.append({"time": float(i * 5), "free_CPU": 100.0 - i,
                      "queue_total": float(i), "jobs_running": 2.0,
                      "hb_stale_max": 0.5, "events_per_sim_s": 30.0 + i})
    store.dump_jsonl(str(path))
    return path


def test_load_any_classifies_timeseries(tmp_path):
    doc = load_any(str(_timeseries_file(tmp_path / "run.ts.jsonl")))
    assert doc["kind"] == "timeseries"
    assert len(doc["rows"]) == 4
    assert doc["meta"]["seed"] == 7


def test_load_any_classifies_flight_dump(tmp_path):
    recorder = FlightRecorder()
    recorder.record("violation", invariant="conservation")
    path = tmp_path / "crash.flight.jsonl"
    recorder.dump(str(path), context={"seed": 3})
    doc = load_any(str(path))
    assert doc["kind"] == "flight"
    assert doc["context"] == {"seed": 3}


def test_load_any_treats_plain_records_as_trace(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    path.write_text(
        '{"kind":"span","id":1,"parent":null,"name":"s","start":1.0,'
        '"end":2.0,"attrs":{}}\n'
        '{"kind":"event","id":2,"parent":1,"name":"e","time":1.5,'
        '"attrs":{}}\n')
    doc = load_any(str(path))
    assert doc["kind"] == "trace"
    assert len(doc["records"]) == 2


def test_load_any_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        load_any(str(path))


def test_svg_chart_renders_polylines_without_data_leakage():
    chart = svg_line_chart({"a": [(0.0, 1.0), (1.0, 2.0)],
                            "b": [(0.0, 3.0)]})
    assert "<svg" in chart and "polyline" in chart
    assert chart.count("polyline") == 2
    assert svg_line_chart({}) == "<p class='meta'>(no data)</p>"


def test_timeseries_report_is_self_contained_html(tmp_path):
    source = _timeseries_file(tmp_path / "run.ts.jsonl")
    out = tmp_path / "report.html"
    kind = write_report(str(source), str(out))
    assert kind == "timeseries"
    text = out.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "<svg" in text
    assert "Queue depth by locality tier" in text
    # self-contained: no external fetches of any sort
    assert "http://" not in text and "https://" not in text
    assert "<script" not in text


def test_flight_report_renders_context_and_entries(tmp_path):
    from repro.sim.events import EventLoop
    loop = EventLoop()
    recorder = FlightRecorder().attach(loop)
    loop.call_at(1.0, lambda: None)
    loop.run()
    recorder.record("violation", invariant="conservation")
    path = tmp_path / "v.flight.jsonl"
    recorder.dump(str(path), context={"seed": 3, "invariant": "conservation"})
    html_text = render_html(load_any(str(path)))
    assert "conservation" in html_text
    assert "violation" in html_text


def test_trace_report_embeds_summary(tmp_path):
    path = tmp_path / "run.trace.jsonl"
    path.write_text(
        '{"kind":"span","id":1,"parent":null,"name":"fm.schedule",'
        '"start":1.0,"end":2.0,"attrs":{}}\n')
    html_text = render_html(load_any(str(path)))
    assert "fm.schedule" in html_text
    assert "Trace summary" in html_text
