"""``fuxi-sim`` — command-line tools (paper §4.2: "We provide a plenty of
command line tools for users to manipulate the job").

Each invocation spins up a simulated cluster (everything here is a
simulator, so the "cluster" lives for the duration of the command):

- ``fuxi-sim submit job.json`` — run a Figure-6-style DAG description and
  report its execution;
- ``fuxi-sim demo`` — run a synthetic workload and print the summary;
- ``fuxi-sim trace`` — generate the Table-1 production trace statistics, or
  with a file argument inspect a JSONL trace (top spans, scheduling-decision
  locality counts, failover timelines);
- ``fuxi-sim metrics`` — run a short traced workload and dump the metrics
  registry in Prometheus text format;
- ``fuxi-sim sortbench`` — print the Table-4 GraySort comparison;
- ``fuxi-sim chaos`` — run a campaign of seeded randomized fault schedules
  with cluster-wide invariant checking, optionally fanned over worker
  processes (``--jobs N``); every failing seed is reported, then the first
  one is delta-debugged to a minimal repro with a pasteable repro command;
- ``fuxi-sim fuzz`` — coverage-guided fault-schedule fuzzer: mutate
  schedules toward novel invariant states, shrink + dedupe violations
  into a persistent corpus (``--corpus FILE`` resumes it, ``--replay REF``
  re-runs one entry, ``--jobs N`` fans each round over workers);
- ``fuxi-sim sweep`` — fan a grid of independent runs (seed sweeps, config
  grids, experiment repetitions) over worker processes via
  :mod:`repro.parallel` and write the deterministic merged report;
- ``fuxi-sim top`` — run the closed-loop workload with a live in-terminal
  view fed by the cluster snapshot sampler (``--plain`` for CI logs,
  ``--out FILE`` to export the sampled timeseries JSONL);
- ``fuxi-sim report FILE`` — render any JSONL artifact (timeseries, obs
  trace, flight-recorder dump) as a static self-contained HTML report;
- ``fuxi-sim experiment <name>`` — run one paper experiment and print the
  paper-vs-measured report; ``--repeat N --jobs M`` aggregates N parallel
  repetitions.

``submit``, ``demo`` and ``experiment`` accept ``--trace-out FILE`` to run
with structured tracing on and export the JSONL trace for later inspection.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import List, Optional

from repro.api import ClusterBuilder, FuxiCluster, RunSpec
from repro.chaos.engine import ChaosConfig
from repro.cluster.metrics import format_table
from repro.config import ConfigBase, add_config_args, conf, config_from_args
from repro.core.policy import validate_policy_name
from repro.experiments.sweep import NAMED, repeat_experiment, run_named
from repro.jobs.spec import parse_job_description


@dataclass(kw_only=True)
class CliClusterConfig(ConfigBase):
    """The small ad-hoc cluster behind ``submit``/``demo``/``metrics``.

    ``submit``/``demo``/``metrics`` derive their shared flags from these
    fields (see :func:`repro.config.add_config_args`), so the defaults live
    in exactly one place.
    """

    machines: int = conf(20, min=1, help="machines in the cluster")
    racks: int = conf(4, min=1, help="racks (machines are split evenly)")
    jobs: int = conf(10, min=1, help="synthetic jobs to submit")
    duration: float = conf(60.0, min=0.0, help="simulated seconds to run")
    policy: str = conf("fuxi", help="scheduler policy (registry name: fuxi, "
                                    "yarn, mesos, hadoop10, size-based, "
                                    "fractional, ...)")

    def validate(self) -> None:
        super().validate()
        validate_policy_name(self.policy)


def build_parser() -> argparse.ArgumentParser:
    """Build the fuxi-sim argument parser."""
    parser = argparse.ArgumentParser(
        prog="fuxi-sim",
        description="Fuxi (VLDB 2014) reproduction — simulated cluster tools")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="run a DAG job description")
    submit.add_argument("job_file", help="JSON job description (Figure 6)")
    add_config_args(submit, CliClusterConfig,
                    only=("machines", "racks", "policy"))
    submit.add_argument("--timeout", type=float, default=3600.0)
    submit.add_argument("--watch", action="store_true",
                        help="print task progress while running")
    submit.add_argument("--trace-out", metavar="FILE", default=None,
                        help="run with tracing on, export JSONL trace here")

    demo = sub.add_parser("demo", help="run a synthetic workload")
    add_config_args(demo, CliClusterConfig)
    demo.add_argument("--trace-out", metavar="FILE", default=None,
                      help="run with tracing on, export JSONL trace here")

    trace = sub.add_parser(
        "trace",
        help="Table-1 trace statistics, or inspect a JSONL trace file")
    trace.add_argument("trace_file", nargs="?", default=None,
                       help="JSONL trace to summarize (omit for Table 1)")
    trace.add_argument("--jobs", type=int, default=10_000)
    trace.add_argument("--top", type=int, default=10,
                       help="how many longest spans to list")

    metrics = sub.add_parser(
        "metrics", help="run a short traced workload, dump Prometheus text")
    add_config_args(metrics, CliClusterConfig)

    sub.add_parser("sortbench", help="Table-4 GraySort comparison")

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault campaign with cluster-wide invariant checks")
    chaos.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="first campaign seed (default: global --seed)")
    chaos.add_argument("--seeds", type=int, default=10,
                       help="how many consecutive seeds to run (default 10)")
    # every ChaosConfig knob becomes a flag, defaults straight from the
    # dataclass; tracing is driven by --trace-dir below
    add_config_args(chaos, ChaosConfig)
    chaos.add_argument("--schedule", metavar="SPEC", default=None,
                       help="explicit fault schedule "
                            "(kind@time[:machine][:k=v];... — replays one "
                            "run with --seed instead of a campaign)")
    chaos.add_argument("--trace-dir", metavar="DIR", default=None,
                       help="run traced; dump the obs trace of a violating "
                            "run here")
    chaos.add_argument("--no-shrink", action="store_true",
                       help="report the full violating schedule without "
                            "delta-debugging it down")
    chaos.add_argument("--jobs", dest="worker_jobs", type=int, default=1,
                       metavar="N",
                       help="worker processes for the campaign (default 1; "
                            "results are byte-identical at any job count)")
    chaos.add_argument("--journal", metavar="FILE", default=None,
                       help="JSONL sweep journal (crash-resumable campaigns)")
    chaos.add_argument("--resume", action="store_true",
                       help="skip seeds already journaled ok in --journal")

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided fault-schedule fuzzer with a persistent "
             "corpus")
    fuzz.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                      help="fuzzer master seed (default: global --seed)")
    from repro.chaos.fuzz import FuzzConfig
    add_config_args(fuzz, FuzzConfig)
    # the cluster/workload/schedule shape under test (chaos knobs)
    add_config_args(fuzz, ChaosConfig)
    fuzz.add_argument("--corpus", metavar="FILE", default=None,
                      help="persistent JSONL corpus (loaded when it exists, "
                           "rewritten after every round)")
    fuzz.add_argument("--replay", metavar="REF", default=None,
                      help="replay one corpus entry (id, unique id prefix, "
                           "or decimal index) instead of fuzzing; needs "
                           "--corpus")
    fuzz.add_argument("--jobs", dest="worker_jobs", type=int, default=1,
                      metavar="N",
                      help="worker processes per fuzz round (default 1; the "
                           "corpus is byte-identical at any job count)")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-round progress lines")

    sweep = sub.add_parser(
        "sweep",
        help="fan independent runs over worker processes (repro.parallel)")
    sweep.add_argument("--spec", metavar="FILE", default=None,
                       help="JSON sweep spec (kind/params/grid/seeds/repeat)")
    sweep.add_argument("--kind", default=None,
                       help="task kind when no --spec is given "
                            "(simulate, chaos, experiment, selfcheck)")
    sweep.add_argument("--seeds", type=int, default=None, metavar="N",
                       help="sweep N consecutive seeds starting at --seed")
    sweep.add_argument("--set", dest="assignments", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="base config override (repeatable)")
    sweep.add_argument("--grid", dest="grid_axes", action="append",
                       default=[], metavar="KEY=V1,V2,...",
                       help="grid axis (repeatable; cartesian product)")
    sweep.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="repetitions per grid cell (default 1)")
    # --policy is derived from RunSpec, not hand-written argparse, so the
    # flag's default/help track the config in one place
    add_config_args(sweep, RunSpec, only=("policy",))
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default 1 = serial)")
    sweep.add_argument("--journal", metavar="FILE", default=None,
                       help="JSONL sweep journal (crash-resumable)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip tasks already journaled ok in --journal")
    sweep.add_argument("--out", metavar="FILE", default=None,
                       help="write the deterministic merged JSON here")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-task progress lines")

    top = sub.add_parser(
        "top",
        help="run the closed-loop workload with a live in-terminal view")
    add_config_args(top, RunSpec,
                    only=("racks", "machines_per_rack", "concurrent_jobs",
                          "duration", "workload_scale"))
    top.add_argument("--interval", type=float, default=2.0,
                     help="sampler cadence in simulated seconds (default 2)")
    top.add_argument("--plain", action="store_true",
                     help="one line per sample instead of a redrawn panel "
                          "(for logs / CI)")
    top.add_argument("--out", metavar="FILE", default=None,
                     help="export the sampled timeseries JSONL here")

    report = sub.add_parser(
        "report",
        help="render a JSONL artifact (timeseries/trace/flight dump) "
             "as a self-contained HTML report")
    report.add_argument("input", help="JSONL artifact to render")
    report.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="output HTML path (default: INPUT + .html)")
    report.add_argument("--title", default=None, help="report title")

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=list(NAMED))
    experiment.add_argument("--trace-out", metavar="FILE", default=None,
                            help="export the run's JSONL trace here "
                                 "(traced experiments only)")
    experiment.add_argument("--repeat", type=int, default=1, metavar="N",
                            help="aggregate N seed-derived repetitions "
                                 "(default 1 = the plain experiment)")
    experiment.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes for --repeat (default 1)")
    return parser


def _make_cluster(machines: int, racks: int, seed: int,
                  trace: bool = False, policy: str = "fuxi") -> FuxiCluster:
    per_rack = max(1, machines // max(racks, 1))
    return (ClusterBuilder(racks=racks, machines_per_rack=per_rack,
                           machine_cpu=400, machine_memory=16384,
                           policy=policy if policy != "fuxi" else None)
            .seed(seed).trace(trace).build())


def _export_trace(cluster: FuxiCluster, path: Optional[str]) -> int:
    """Export the run's trace; returns a process exit code (0 = written)."""
    if path is None:
        return 0
    from repro.obs.export import dump_trace_jsonl
    try:
        dump_trace_jsonl(cluster.tracer, path)
    except OSError as exc:
        print(f"cannot write trace {path!r}: {exc}", file=sys.stderr)
        return 2
    print(f"trace written to {path} "
          f"({len(cluster.tracer)} spans+events)")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Run a JSON DAG job description on a fresh simulated cluster."""
    with open(args.job_file, "r", encoding="utf-8") as handle:
        description = json.load(handle)
    spec = parse_job_description(description,
                                 name=description.get("name", args.job_file))
    cluster = _make_cluster(args.machines, args.racks, args.seed,
                            trace=args.trace_out is not None,
                            policy=args.policy)
    app_id = cluster.submit_job(spec)
    print(f"submitted {spec.name!r} as {app_id} "
          f"({spec.total_instances()} instances, {len(spec.tasks)} tasks)")
    while app_id not in cluster.job_results:
        if cluster.loop.now > args.timeout:
            print("TIMEOUT: job did not finish", file=sys.stderr)
            return 2
        cluster.run_for(5.0)
        if args.watch:
            master = cluster.app_masters.get(app_id)
            if master is not None and master.alive:
                states = {t: i["state"] for t, i in master.status().items()}
                print(f"  t={cluster.loop.now:7.1f}s  {states}")
    result = cluster.job_results[app_id]
    print(f"{'SUCCESS' if result.success else 'FAILED'}: "
          f"makespan={result.makespan:.1f}s "
          f"instances={result.instances_finished} "
          f"backups={result.backups_launched}")
    export_code = _export_trace(cluster, args.trace_out)
    if not result.success:
        return 1
    return export_code


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the synthetic workload and print a summary table."""
    from repro.sim.rng import SplitRandom
    from repro.workloads.synthetic import (SyntheticWorkload,
                                           SyntheticWorkloadConfig)
    cluster = _make_cluster(args.machines, args.racks, args.seed,
                            trace=args.trace_out is not None,
                            policy=args.policy)
    workload = SyntheticWorkload(
        SyntheticWorkloadConfig(concurrent_jobs=args.jobs),
        SplitRandom(args.seed))
    apps = [cluster.submit_job(spec) for spec in workload.initial_batch()]
    cluster.run_for(args.duration)
    done = [a for a in apps if a in cluster.job_results]
    series = cluster.metrics.series("fm.schedule_ms")
    rows = [
        ["jobs submitted", len(apps)],
        ["jobs completed", len(done)],
        ["simulated seconds", f"{cluster.loop.now:.0f}"],
        ["scheduling decisions", int(cluster.metrics.counter("fm.requests"))],
        ["avg scheduling ms", f"{series.mean():.3f}"],
        ["grants issued", int(cluster.metrics.counter("fm.grants"))],
    ]
    print(format_table(["metric", "value"], rows, title="demo summary"))
    return _export_trace(cluster, args.trace_out)


def cmd_trace(args: argparse.Namespace) -> int:
    """Table-1 trace statistics, or summarize a JSONL trace file."""
    if args.trace_file is not None:
        return _summarize_trace_file(args.trace_file, args.top)
    from repro.experiments.table1_production import Table1Config, run
    report = run(Table1Config(jobs=args.jobs, seed=args.seed))
    print(report.render())
    return 0


def _summarize_trace_file(path: str, top: int) -> int:
    from repro.obs.export import load_trace_jsonl
    from repro.obs.summary import render_summary, summarize_trace
    try:
        records = load_trace_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {path!r}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"{path}: empty trace")
        return 0
    print(render_summary(summarize_trace(records, top=top)))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a short traced synthetic workload, dump Prometheus text."""
    from repro.obs.export import prometheus_text
    from repro.sim.rng import SplitRandom
    from repro.workloads.synthetic import (SyntheticWorkload,
                                           SyntheticWorkloadConfig)
    cluster = _make_cluster(args.machines, args.racks, args.seed, trace=True,
                            policy=args.policy)
    workload = SyntheticWorkload(
        SyntheticWorkloadConfig(concurrent_jobs=args.jobs),
        SplitRandom(args.seed))
    for spec in workload.initial_batch():
        cluster.submit_job(spec)
    cluster.run_for(args.duration)
    print(prometheus_text(cluster.metrics), end="")
    return 0


def cmd_sortbench(_args: argparse.Namespace) -> int:
    """Print the Table-4 GraySort comparison."""
    from repro.experiments.table4_graysort import run
    print(run().render())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos campaign: randomized faults + invariants, shrink on violation.

    The campaign runs *every* seed (fanned over ``--jobs`` worker
    processes) and aggregates all verdicts before reporting, so parallel
    campaigns name every failing seed — only the first failing seed is
    shrunk, to keep the delta-debugging cost bounded.

    Exit codes: 0 all seeds clean, 1 invariant violated or a run crashed
    (a repro command is printed for the first violation), 2 bad arguments.
    """
    from repro.chaos import (ChaosConfig, repro_command, run_campaign,
                             run_with_schedule, shrink_schedule)
    from repro.chaos.shrink import violation_matcher
    from repro.cluster.faults import FaultPlan, ScheduleParseError

    config = config_from_args(
        ChaosConfig, args,
        trace=args.trace_dir is not None, trace_dir=args.trace_dir)

    if args.schedule is not None:
        try:
            plan = FaultPlan.from_spec(args.schedule)
        except ScheduleParseError as exc:
            print(f"bad --schedule: {exc}", file=sys.stderr)
            return 2
        result = run_with_schedule(args.seed, plan, config)
        print(result.summary())
        for violation in result.violations:
            print(f"  {violation}")
        if result.trace_path:
            print(f"violation trace written to {result.trace_path}")
        return 0 if result.ok else 1

    seeds = list(range(args.seed, args.seed + args.seeds))
    summary = run_campaign(
        seeds, config, jobs=args.worker_jobs, journal=args.journal,
        resume=args.resume,
        progress=(lambda line: print(line, flush=True))
        if args.worker_jobs > 1 else None)
    print(format_table(["seed", "faults", "jobs", "sim s", "verdict"],
                       [v.row() for v in summary.verdicts],
                       title="chaos campaign"))

    for verdict in summary.crashed:
        print(f"\nseed {verdict.seed} crashed (harness failure, "
              f"not an invariant):\n{verdict.error}", file=sys.stderr)
    for verdict in summary.failing:
        print(f"\nseed {verdict.seed} violated an invariant:")
        for violation in verdict.violations:
            print(f"  [{violation['invariant']}] t={violation['time']:.3f}: "
                  f"{violation['detail']}")
        trace_path = verdict.result.get("trace_path")
        if trace_path:
            print(f"violation trace written to {trace_path}")

    if summary.clean:
        print(f"\nall {args.seeds} seeds clean — every run conserved "
              "resources, kept master/agent books consistent, and "
              "terminated")
        return 0

    if summary.failing:
        first = summary.failing[0]
        seed = first.seed
        plan = FaultPlan.from_spec(first.result["schedule"])
        if not args.no_shrink:
            invariant = first.violations[0]["invariant"]
            print(f"\nshrinking {len(plan.events)}-fault schedule for seed "
                  f"{seed} (target: {invariant}) ...")
            plan = shrink_schedule(
                plan, violation_matcher(
                    lambda p: run_with_schedule(seed, p, config).violations,
                    invariant))
            print(f"minimal schedule: {len(plan.events)} fault(s)")
        print("\nreproduce with:\n  " + repro_command(seed, plan, config))
    return 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Coverage-guided schedule fuzzing (or replay of one corpus entry).

    Exit codes: 0 clean session (or replay matched its recorded verdict),
    1 a violation was found / a run crashed (or replay mismatched),
    2 bad arguments or an unreadable corpus.
    """
    from repro.chaos.corpus import Corpus, CorpusError
    from repro.chaos.fuzz import FuzzConfig, replay_entry, run_fuzz

    if args.replay is not None:
        if args.corpus is None:
            print("--replay needs --corpus FILE", file=sys.stderr)
            return 2
        try:
            corpus = Corpus.load(args.corpus)
            entry = corpus.get(args.replay)
        except (OSError, CorpusError, KeyError) as exc:
            print(f"cannot replay: {exc}", file=sys.stderr)
            return 2
        result, matched = replay_entry(entry)
        print(result.summary())
        for violation in result.violations:
            print(f"  {violation}")
        verdict = (f"recorded {entry.entry} verdict "
                   f"{'REPRODUCED' if matched else 'NOT reproduced'}")
        print(f"entry {entry.id}: {verdict}")
        if entry.repro:
            print(f"repro: {entry.repro}")
        return 0 if matched else 1

    fuzz_config = config_from_args(FuzzConfig, args)
    chaos_config = config_from_args(ChaosConfig, args)
    say = None if args.quiet else (lambda line: print(line, flush=True))
    try:
        report = run_fuzz(args.seed, fuzz_config, chaos_config,
                          jobs=args.worker_jobs, corpus_path=args.corpus,
                          progress=say)
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 2

    rows = [
        ["runs executed", f"{report.executed} ({report.rounds} rounds)"],
        ["coverage features", report.feature_count],
        ["corpus entries", f"{report.corpus_size} "
                           f"(+{len(report.added)} new)"],
        ["coverage parents found", report.coverage_entries],
        ["violations (unique/seen)", f"{report.unique_violations}/"
                                     f"{report.violations_seen}"],
        ["crashes", len(report.crashes)],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"fuzz session (seed {report.seed})"))
    if report.corpus_path:
        print(f"corpus written to {report.corpus_path}")

    corpus = Corpus.open(args.corpus)
    for entry in corpus.violations():
        marker = "NEW " if entry.id in report.added else ""
        print(f"\n{marker}violation {entry.id} [{entry.invariant}] "
              f"hits={entry.hits}\n  schedule: {entry.schedule}"
              f"\n  reproduce: {entry.repro}")
    for crash in report.crashes:
        print(f"\nrun {crash['run']} crashed (harness failure):\n"
              f"{crash['error']}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Fan a grid of independent runs over workers; write the merged report.

    Exit codes: 0 every task ok, 1 at least one task failed (errors are
    listed, the merged report still covers every task), 2 bad arguments.
    """
    from repro.parallel import (SweepJournalError, make_tasks, run_sweep,
                                parse_assignments, parse_grid_axes,
                                tasks_from_spec)

    try:
        if args.spec is not None:
            with open(args.spec, "r", encoding="utf-8") as handle:
                tasks = tasks_from_spec(json.load(handle))
        elif args.kind is not None:
            seeds = (list(range(args.seed, args.seed + args.seeds))
                     if args.seeds is not None else None)
            params = parse_assignments(args.assignments)
            if args.policy != "fuxi":
                # the default stays out of params so kinds without a
                # policy knob (selfcheck, experiment) keep working
                params.setdefault("policy", validate_policy_name(args.policy))
            tasks = make_tasks(args.kind,
                               params=params,
                               grid=parse_grid_axes(args.grid_axes),
                               seeds=seeds, repeat=args.repeat,
                               root_seed=args.seed)
        else:
            print("sweep needs --spec FILE or --kind KIND", file=sys.stderr)
            return 2
    except (OSError, ValueError) as exc:
        print(f"bad sweep specification: {exc}", file=sys.stderr)
        return 2

    say = None if args.quiet else (lambda line: print(line, flush=True))
    try:
        result = run_sweep(tasks, jobs=args.jobs, journal=args.journal,
                           resume=args.resume, progress=say)
    except SweepJournalError as exc:
        print(f"journal error: {exc}", file=sys.stderr)
        return 2

    timing = result.timing()
    spread = timing["task_wall_spread"]
    rows = [
        ["tasks", len(result.outcomes)],
        ["failed", len(result.failures)],
        ["resumed from journal", timing["tasks_resumed"]],
        ["workers", f"{timing['workers']} "
                    f"(host cpus: {timing['host_cpu_count']})"],
        ["sweep wall s", f"{timing['wall_seconds']:.2f}"],
        ["task wall min/med/max s", f"{spread['min']}/{spread['median']}/"
                                    f"{spread['max']}"],
    ]
    print(format_table(["metric", "value"], rows, title="sweep summary"))
    for outcome in result.failures:
        print(f"\ntask {outcome.task_id} FAILED:\n{outcome.error}",
              file=sys.stderr)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(result.merged_json())
        except OSError as exc:
            print(f"cannot write merged report {args.out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"merged report written to {args.out}")
    return 0 if result.ok else 1


def _top_line(row: dict) -> str:
    """One compact live-status line (``top --plain`` / CI logs)."""
    return (f"t={row.get('time', 0.0):9.1f}s"
            f"  jobs={int(row.get('jobs_running', 0))}"
            f"/{int(row.get('jobs_finished', 0))} run/done"
            f"  queue={int(row.get('queue_total', 0))}"
            f" (m/r/a {int(row.get('queue_machine', 0))}"
            f"/{int(row.get('queue_rack', 0))}"
            f"/{int(row.get('queue_anywhere', 0))})"
            f"  blacklisted={int(row.get('blacklisted', 0))}"
            f"  hb_max={row.get('hb_stale_max', 0.0):.2f}s"
            f"  ev/sim_s={row.get('events_per_sim_s', 0.0):.0f}"
            f"  wall_ms/sim_s={row.get('wall_ms_per_sim_s', 0.0):.2f}")


def _top_panel(row: dict) -> str:
    """The redrawn full-screen panel: every sampled column, formatted."""
    def fmt(value: object) -> str:
        if isinstance(value, float) and value == int(value):
            return str(int(value))
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    order = ("jobs_running", "jobs_finished", "queue_total", "queue_machine",
             "queue_rack", "queue_anywhere", "machines", "machines_disabled",
             "blacklisted", "agents_seen", "hb_stale_max", "hb_stale_mean")
    rows = [[name, fmt(row[name])] for name in order if name in row]
    rows.extend([name, fmt(value)] for name, value in sorted(row.items())
                if name not in order and name != "time")
    return format_table(["metric", "value"], rows,
                        title=f"fuxi-sim top — t={row.get('time', 0.0):.0f}s")


def cmd_top(args: argparse.Namespace) -> int:
    """Closed-loop run with the live sampler rendered in the terminal."""
    from repro.api import simulate
    spec = config_from_args(RunSpec, args, live_sample=True,
                            live_sample_interval=args.interval)
    shown = {"count": 0}

    def on_slice(cluster, _result) -> None:
        store = cluster.sampler.store
        total = store.dropped + len(store)
        if total == shown["count"]:
            return
        shown["count"] = total
        row = store.latest()
        if args.plain:
            print(_top_line(row), flush=True)
        else:
            print("\x1b[2J\x1b[H" + _top_panel(row), flush=True)

    result = simulate(spec, on_slice=on_slice)
    print(f"\n{result.jobs_completed} jobs completed over "
          f"{result.cluster.loop.now:.0f} simulated seconds "
          f"({len(result.timeseries)} samples)")
    if args.out is not None:
        try:
            result.write_timeseries(args.out)
        except OSError as exc:
            print(f"cannot write timeseries {args.out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"timeseries written to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a JSONL artifact as a static self-contained HTML report."""
    from repro.obs.report import write_report
    output = args.output or (args.input + ".html")
    try:
        kind = write_report(args.input, output, title=args.title)
    except (OSError, ValueError) as exc:
        print(f"cannot render {args.input!r}: {exc}", file=sys.stderr)
        return 2
    print(f"{kind} report written to {output}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one named paper experiment and print its report.

    ``--repeat N`` runs N seed-derived repetitions through the parallel
    sweep engine (``--jobs`` workers) and prints the aggregated report
    (median measured value per comparison plus the min/median/max
    spread).
    """
    if args.repeat > 1 or args.jobs > 1:
        report = repeat_experiment(args.name, max(args.repeat, 1),
                                   jobs=args.jobs, root_seed=args.seed)
        print(report.render())
        return 0
    report = run_named(args.name)
    print(report.render())
    if args.trace_out is not None:
        try:
            written = report.write_trace(args.trace_out)
        except OSError as exc:
            print(f"cannot write trace {args.trace_out!r}: {exc}",
                  file=sys.stderr)
            return 2
        else:
            if written:
                print(f"trace written to {args.trace_out}")
            else:
                print(f"{args.name} ran without tracing; no trace written",
                      file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """fuxi-sim entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "submit": cmd_submit,
        "demo": cmd_demo,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "sortbench": cmd_sortbench,
        "chaos": cmd_chaos,
        "fuzz": cmd_fuzz,
        "sweep": cmd_sweep,
        "top": cmd_top,
        "report": cmd_report,
        "experiment": cmd_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
