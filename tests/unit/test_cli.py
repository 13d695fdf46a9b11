"""Unit tests for the fuxi-sim command line tools."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_submit_runs_job_from_json(tmp_path, capsys):
    description = {
        "name": "cli-job",
        "Tasks": {
            "map": {"Instances": 8, "Duration": 1.0,
                    "Resources": {"CPU": 50, "Memory": 2048}},
            "reduce": {"Instances": 2, "Duration": 1.0,
                       "Resources": {"CPU": 50, "Memory": 2048}},
        },
        "Pipes": [{"Source": {"AccessPoint": "map:o"},
                   "Destination": {"AccessPoint": "reduce:i"}}],
    }
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(description))
    code = main(["submit", str(job_file), "--machines", "6", "--racks", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SUCCESS" in out
    assert "cli-job" in out


def test_submit_watch_prints_progress(tmp_path, capsys):
    description = {"Tasks": {"t": {"Instances": 6, "Duration": 4.0,
                                   "Resources": {"CPU": 50,
                                                 "Memory": 2048}}}}
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(description))
    code = main(["submit", str(job_file), "--machines", "4", "--racks", "2",
                 "--watch"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t=" in out


def test_submit_rejects_bad_description(tmp_path):
    job_file = tmp_path / "bad.json"
    job_file.write_text(json.dumps({"Pipes": []}))
    with pytest.raises(Exception):
        main(["submit", str(job_file)])


def test_demo_prints_summary(capsys):
    code = main(["demo", "--machines", "8", "--racks", "2", "--jobs", "4",
                 "--duration", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "jobs completed" in out
    assert "avg scheduling ms" in out


def test_trace_prints_table1(capsys):
    code = main(["trace", "--jobs", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Instance Number" in out
    assert "Task Number" in out


def test_sortbench_prints_table4(capsys):
    code = main(["sortbench"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Yahoo" in out
    assert "Fuxi" in out


def test_experiment_subcommand(capsys):
    code = main(["experiment", "ablation-reuse"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Container reuse" in out


def test_experiment_rejects_unknown_name():
    with pytest.raises(SystemExit):
        main(["experiment", "nope"])


def test_demo_trace_out_writes_jsonl(tmp_path, capsys):
    trace_file = tmp_path / "demo.trace.jsonl"
    code = main(["demo", "--machines", "6", "--racks", "2", "--jobs", "2",
                 "--duration", "20", "--trace-out", str(trace_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace written" in out
    lines = trace_file.read_text().splitlines()
    assert lines
    record = json.loads(lines[0])
    assert record["kind"] in ("span", "event")


def test_trace_file_summarizes_jsonl(tmp_path, capsys):
    trace_file = tmp_path / "run.trace.jsonl"
    code = main(["demo", "--machines", "6", "--racks", "2", "--jobs", "2",
                 "--duration", "20", "--trace-out", str(trace_file)])
    assert code == 0
    capsys.readouterr()
    code = main(["trace", str(trace_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "spans" in out
    assert "sched.decision" in out
    assert "locality level" in out
    assert "machine" in out and "rack" in out and "cluster" in out


def test_trace_missing_file_errors(capsys):
    code = main(["trace", "/nonexistent/path.jsonl"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read trace" in err


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert "invalid choice: 'frobnicate'" in err


def test_demo_unwritable_trace_out_errors(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "run.trace.jsonl"
    code = main(["demo", "--machines", "6", "--racks", "2", "--jobs", "1",
                 "--duration", "10", "--trace-out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot write trace" in err
    assert str(target) in err


def test_submit_unwritable_trace_out_errors(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(
        {"Tasks": {"t": {"Instances": 2, "Duration": 1.0,
                         "Resources": {"CPU": 50, "Memory": 1024}}}}))
    target = tmp_path / "no-such-dir" / "job.trace.jsonl"
    code = main(["submit", str(job_file), "--machines", "4", "--racks", "2",
                 "--trace-out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot write trace" in err


def test_chaos_bad_schedule_string_errors(capsys):
    code = main(["chaos", "--schedule", "Nope@12"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad --schedule" in err
    assert "unknown fault kind 'Nope'" in err


def test_chaos_bad_schedule_parameter_errors(capsys):
    code = main(["chaos", "--schedule", "NodeDown@5:r00m000:factor=2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad --schedule" in err
    assert "factor" in err


def test_chaos_replay_clean_schedule_exits_zero(capsys):
    code = main(["chaos", "--seed", "1", "--racks", "2",
                 "--machines-per-rack", "3", "--jobs", "1",
                 "--schedule", "FuxiMasterFailure@5;FuxiMasterRestart@8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out
    assert "seed=1" in out


def test_metrics_dumps_prometheus_text(capsys):
    code = main(["metrics", "--machines", "6", "--racks", "2", "--jobs", "2",
                 "--duration", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# TYPE fm_requests counter" in out
    assert 'fm_schedule_ms{stat="p99"}' in out
    assert "# TYPE sim_callback_ms histogram" in out
    assert 'sim_callback_ms_bucket{le="+Inf"}' in out


def test_chaos_campaign_reports_every_failing_seed(monkeypatch, capsys):
    """Aggregation fix: all failing seeds are named, not just the first."""
    from repro.chaos.engine import ChaosResult
    from repro.chaos.invariants import Violation
    from repro.cluster.faults import FaultEvent, FaultPlan
    import repro.chaos.engine as engine

    plan = FaultPlan(events=[FaultEvent(at=5.0, kind="FuxiMasterFailure")])

    def fake_run_chaos(seed, config=None):
        violations = ([Violation("resource-conservation", 1.0, "leak")]
                      if seed % 2 else [])
        return ChaosResult(seed=seed, schedule=plan, app_ids=["a"],
                           completed=["a"], violations=violations,
                           sim_time=10.0, events_executed=100)

    monkeypatch.setattr(engine, "run_chaos", fake_run_chaos)
    code = main(["chaos", "--seed", "0", "--seeds", "4", "--no-shrink"])
    captured = capsys.readouterr()
    assert code == 1
    # both failing seeds (1 and 3) are reported, plus a repro command
    assert "seed 1 violated an invariant" in captured.out
    assert "seed 3 violated an invariant" in captured.out
    assert "reproduce with" in captured.out


def test_chaos_campaign_isolates_crashed_seed(monkeypatch, capsys):
    from repro.chaos.engine import ChaosResult
    from repro.cluster.faults import FaultPlan
    import repro.chaos.engine as engine

    def fake_run_chaos(seed, config=None):
        if seed == 2:
            raise RuntimeError("boom in the harness")
        return ChaosResult(seed=seed, schedule=FaultPlan(events=[]),
                           app_ids=["a"], completed=["a"],
                           sim_time=1.0, events_executed=10)

    monkeypatch.setattr(engine, "run_chaos", fake_run_chaos)
    code = main(["chaos", "--seed", "0", "--seeds", "3", "--no-shrink"])
    captured = capsys.readouterr()
    assert code == 1
    assert "CRASH" in captured.out
    assert "seed 2 crashed" in captured.err
    assert "boom in the harness" in captured.err


def test_sweep_selfcheck_writes_merged_report(tmp_path, capsys):
    out = tmp_path / "merged.json"
    code = main(["sweep", "--kind", "selfcheck", "--seeds", "3",
                 "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    assert "sweep summary" in captured.out
    assert "merged report written to" in captured.out
    doc = json.loads(out.read_text())
    assert doc["sweep"]["total"] == 3
    assert doc["sweep"]["failed"] == 0


def test_sweep_resume_reproduces_identical_bytes(tmp_path, capsys):
    journal = tmp_path / "sweep.jsonl"
    first_out = tmp_path / "first.json"
    second_out = tmp_path / "second.json"
    assert main(["sweep", "--kind", "selfcheck", "--seeds", "3",
                 "--journal", str(journal), "--out", str(first_out),
                 "--quiet"]) == 0
    assert main(["sweep", "--kind", "selfcheck", "--seeds", "3",
                 "--journal", str(journal), "--resume",
                 "--out", str(second_out), "--quiet"]) == 0
    capsys.readouterr()
    assert first_out.read_bytes() == second_out.read_bytes()


def test_sweep_spec_file_with_grid(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "selfcheck",
        "seeds": {"start": 0, "count": 2},
        "grid": {"n": [1, 2]},
    }))
    out = tmp_path / "merged.json"
    code = main(["sweep", "--spec", str(spec), "--out", str(out),
                 "--quiet"])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    ids = [t["task_id"] for t in doc["sweep"]["tasks"]]
    assert ids == ["selfcheck/n=1/seed=0", "selfcheck/n=1/seed=1",
                   "selfcheck/n=2/seed=0", "selfcheck/n=2/seed=1"]


def test_sweep_failure_exits_one_and_reports(tmp_path, capsys):
    code = main(["sweep", "--kind", "selfcheck", "--seeds", "2",
                 "--set", "fail=true", "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED" in captured.err


def test_sweep_bad_arguments_exit_two(tmp_path, capsys):
    # no spec and no kind
    assert main(["sweep"]) == 2
    # unknown kind
    assert main(["sweep", "--kind", "nope", "--seeds", "2"]) == 2
    # malformed --set
    assert main(["sweep", "--kind", "selfcheck", "--seeds", "2",
                 "--set", "noequals"]) == 2
    # unreadable spec file
    assert main(["sweep", "--spec", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_experiment_repeat_aggregates(capsys):
    code = main(["experiment", "ablation-reuse", "--repeat", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Container reuse" in out
    assert "2 repetitions" in out
    assert "repro.parallel" in out


def test_top_plain_prints_samples_and_exports(tmp_path, capsys):
    out_file = tmp_path / "run.ts.jsonl"
    code = main(["top", "--racks", "2", "--machines-per-rack", "4",
                 "--jobs", "4", "--duration", "20", "--plain",
                 "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "jobs=" in out and "queue=" in out
    assert "jobs completed" in out
    # the exported feed parses back and is wall-free
    from repro.obs.live import TimeSeriesStore
    store = TimeSeriesStore.from_jsonl(str(out_file))
    assert len(store) > 0
    assert not any(k.startswith("wall_")
                   for row in store.rows() for k in row)


def test_top_panel_mode_redraws(capsys):
    code = main(["top", "--racks", "1", "--machines-per-rack", "3",
                 "--jobs", "2", "--duration", "10", "--interval", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuxi-sim top" in out
    assert "\x1b[2J" in out  # ANSI clear between redraws


def test_report_renders_timeseries_html(tmp_path, capsys):
    source = tmp_path / "run.ts.jsonl"
    main(["top", "--racks", "1", "--machines-per-rack", "3", "--jobs", "2",
          "--duration", "10", "--plain", "--out", str(source)])
    capsys.readouterr()
    out_file = tmp_path / "run.html"
    code = main(["report", str(source), "-o", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "timeseries report written" in out
    assert out_file.read_text().startswith("<!DOCTYPE html>")


def test_report_default_output_path(tmp_path, capsys):
    source = tmp_path / "t.trace.jsonl"
    source.write_text('{"kind":"span","id":1,"parent":null,"name":"s",'
                      '"start":0.0,"end":1.0,"attrs":{}}\n')
    code = main(["report", str(source)])
    assert code == 0
    assert (tmp_path / "t.trace.jsonl.html").exists()
    assert "trace report written" in capsys.readouterr().out


def test_report_missing_file_exits_two(capsys):
    code = main(["report", "/nonexistent/nope.jsonl"])
    assert code == 2
    assert "cannot render" in capsys.readouterr().err


def test_fuzz_session_writes_corpus_and_exits_clean(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    code = main(["fuzz", "--budget", "6", "--batch", "3", "--racks", "2",
                 "--machines-per-rack", "3", "--workload-jobs", "2",
                 "--faults", "4", "--corpus", str(corpus), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz session" in out
    assert "runs executed" in out
    assert f"corpus written to {corpus}" in out
    assert corpus.exists()
    first_line = corpus.read_text().splitlines()[0]
    assert '"kind":"chaos-corpus"' in first_line


def test_fuzz_replay_reproduces_a_corpus_entry(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["fuzz", "--budget", "6", "--batch", "3", "--racks", "2",
                 "--machines-per-rack", "3", "--workload-jobs", "2",
                 "--faults", "4", "--corpus", str(corpus), "--quiet"]) == 0
    capsys.readouterr()
    code = main(["fuzz", "--corpus", str(corpus), "--replay", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "REPRODUCED" in out


def test_fuzz_replay_bad_ref_exits_two(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"kind":"chaos-corpus","schema":1,"entries":0,'
                      '"context":{}}\n')
    code = main(["fuzz", "--corpus", str(corpus), "--replay", "zzz"])
    assert code == 2
    assert "cannot replay" in capsys.readouterr().err


def test_fuzz_replay_without_corpus_exits_two(capsys):
    code = main(["fuzz", "--replay", "0"])
    assert code == 2
    assert "--replay needs --corpus" in capsys.readouterr().err
