#!/usr/bin/env python
"""Paper-scale benchmark: 5,000 machines / 1,000 concurrent jobs (§5.2).

The paper's headline claim is micro/millisecond scheduling at 5,000 nodes
via the incremental protocol and locality-tree queues (§3, Figure 9).  This
harness runs the closed-loop synthetic workload at that scale end-to-end on
the simulator and records machine-readable results so every PR inherits a
perf trajectory:

- ``BENCH_scale.json`` — end-to-end wall clock, simulator throughput
  (events/sec), scheduler request rate, peak RSS; with a ``baseline`` entry
  recorded before an optimization lands and a ``current`` entry after, plus
  the resulting ``speedup``.
- ``BENCH_fig09.json`` — the Figure-9 shape claims re-checked at full scale:
  sub-millisecond average scheduling time, bounded peak, no upward drift.

Sweep mode (``--sweep N``) runs an N-seed sweep of the same shape through
``repro.parallel`` twice — serial and with ``--sweep-jobs`` workers —
verifies the merged results are byte-identical, and records the speedup,
host cpu count, worker count and per-run wall-time spread under the
mode's ``sweep`` key so campaign-level performance is comparable across
differently-sized CI runners.

Usage::

    # paper scale (5,000 machines, 1,000 concurrent jobs)
    python benchmarks/bench_scale_5000.py --record current

    # CI-sized run (~500 machines), compared against the committed numbers
    python benchmarks/bench_scale_5000.py --quick --check BENCH_scale.json

    # 8-seed sweep, serial vs 4 workers, recorded under modes.quick.sweep
    python benchmarks/bench_scale_5000.py --quick --sweep 8 --sweep-jobs 4 \
        --record current

    # 20,000-machine run
    python benchmarks/bench_scale_5000.py --xl --record current

    # 100,000-machine run — the tier the vectorized kernels target
    python benchmarks/bench_scale_5000.py --xxl --record current

    # telemetry cost + per-subsystem attribution (hooks stay off for
    # --check legs; the committed numbers are hook-free)
    python benchmarks/bench_scale_5000.py --quick --live-sample --profile

Exit codes: 0 ok, 2 bad arguments / missing baseline for --check,
3 performance regression beyond the threshold (or a sweep merge that is
not byte-identical to the serial run — a determinism regression).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import time
from typing import Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: paper scale: 5,000 machines in 100 racks, 1,000 concurrent jobs
FULL = dict(racks=100, machines_per_rack=50, jobs=1000, duration=60.0)
#: CI-sized smoke: same shape, ~10x smaller, finishes in well under a minute
QUICK = dict(racks=25, machines_per_rack=20, jobs=150, duration=20.0)
#: beyond-paper scale: 20,000 machines; shorter steady state so the leg
#: stays recordable on small hosts
XL = dict(racks=200, machines_per_rack=100, jobs=400, duration=15.0)
#: internet scale: 100,000 machines — the tier the vectorized kernels
#: exist for; a short steady state keeps the leg recordable anywhere
XXL = dict(racks=1000, machines_per_rack=100, jobs=200, duration=5.0)

#: BENCH_scale.json schema: 3 adds the kernel backend + numpy version to
#: every leg and the ``xxl`` (100k-machine) mode; 2 added host_cpu_count,
#: the worker count and the ``xl`` mode
SCHEMA = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (~500 machines / 150 jobs)")
    parser.add_argument("--xl", action="store_true",
                        help="20,000-machine run (4x paper scale)")
    parser.add_argument("--xxl", action="store_true",
                        help="100,000-machine run (20x paper scale; the "
                             "vectorized kernels' target tier)")
    parser.add_argument("--kernels", default="auto",
                        choices=("auto", "numpy", "python"),
                        help="compute-kernel backend (default auto; "
                             "results are byte-identical either way)")
    parser.add_argument("--racks", type=int, default=None)
    parser.add_argument("--machines-per-rack", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None,
                        help="closed-loop concurrent job population")
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds of steady state")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--live-sample", action="store_true",
                        help="run with the periodic cluster snapshot "
                             "sampler attached (telemetry cost included "
                             "in the recorded wall clock)")
    parser.add_argument("--profile", action="store_true",
                        help="attach the per-subsystem profiler and add "
                             "its wall/event attribution to the result "
                             "under 'profile'")
    parser.add_argument("--record", choices=("baseline", "current"),
                        default=None,
                        help="store this run under the given label in --out")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_scale.json"))
    parser.add_argument("--fig09-out", default=None,
                        help="write the Figure-9 shape-claim check here "
                             "(default BENCH_fig09.json for full-scale "
                             "--record runs)")
    parser.add_argument("--check", metavar="FILE", default=None,
                        help="compare against the committed numbers in FILE "
                             "and exit 3 on regression")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional wall-clock regression for "
                             "--check (default 0.20)")
    parser.add_argument("--sweep", type=int, default=None, metavar="N",
                        help="run an N-seed sweep (seeds start at --seed) "
                             "through repro.parallel, serial vs "
                             "--sweep-jobs workers, instead of a single run")
    parser.add_argument("--sweep-jobs", type=int, default=4, metavar="M",
                        help="worker processes for the parallel leg of "
                             "--sweep (default 4)")
    return parser.parse_args(argv)


def run_benchmark(racks: int, machines_per_rack: int, jobs: int,
                  duration: float, seed: int,
                  live_sample: bool = False, profile: bool = False,
                  kernels: str = "auto") -> dict:
    """One closed-loop synthetic run; returns the measured result dict."""
    from repro import kernels as kernel_backends
    from repro.api import RunSpec, simulate

    spec = RunSpec(racks=racks, machines_per_rack=machines_per_rack,
                   concurrent_jobs=jobs, duration=duration,
                   live_sample=live_sample, profile=profile,
                   kernels=kernels)
    machines = racks * machines_per_rack
    extras = "".join(f" [{name}]" for name, on in
                     (("live-sample", live_sample), ("profile", profile),
                      (f"kernels={kernels}", kernels != "auto"))
                     if on)
    print(f"running {machines} machines / {jobs} concurrent jobs / "
          f"{duration:.0f}s steady state (seed {seed}){extras} ...",
          flush=True)
    started = time.perf_counter()
    result = simulate(spec, seed=seed, trace=False)
    wall = time.perf_counter() - started
    loop = result.cluster.loop
    events_total = result.cluster.events_total
    series = result.metrics.series("fm.schedule_ms")
    values = series.values()
    half = len(values) // 2
    drift = 1.0
    if half >= 2:
        first = sum(values[:half]) / half
        second = sum(values[half:]) / (len(values) - half)
        drift = second / first if first > 0 else 1.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "machines": machines,
        "racks": racks,
        "jobs": jobs,
        "duration_sim_s": duration,
        "seed": seed,
        "wall_seconds": round(wall, 3),
        "sim_seconds": round(loop.now, 3),
        "events": events_total,
        "events_per_sec": round(events_total / wall, 1),
        # one process drives a single run; the sweep record carries the
        # pool size under the same key
        "workers": 1,
        "sched_requests": int(result.metrics.counter("fm.requests")),
        "grants": int(result.metrics.counter("fm.grants")),
        "jobs_completed": result.jobs_completed,
        "schedule_ms_avg": round(series.mean(), 4),
        "schedule_ms_p99": round(series.percentile(99), 4),
        "schedule_ms_max": round(series.max(), 4),
        # p100 == max, under the name the stall-budget tracking uses: the
        # worst scheduling decision of the whole run must stay bounded.
        "schedule_ms_p100": round(series.max(), 4),
        "schedule_drift": round(drift, 3),
        # Serialized-size proxy for all agent heartbeats received (the
        # digest protocol's win over shipping per-beat book copies).
        "heartbeat_bytes_total": int(
            result.metrics.counter("fm.heartbeat_bytes")),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "host_cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        # compute-kernel provenance: what the run actually executed with
        # ("auto" resolves before the first pool is built)
        "kernel_backend": kernel_backends.current(),
        "numpy": kernel_backends.numpy_version(),
    }
    if live_sample:
        store = result.timeseries
        out["live_samples"] = len(store) + store.dropped
    report = result.profile_report()
    if report is not None:
        out["profile"] = report
    return out


def run_sweep_benchmark(racks: int, machines_per_rack: int, jobs: int,
                        duration: float, seed: int, seeds: int,
                        workers: int) -> dict:
    """N-seed sweep, serial vs pooled; returns the recorded sweep dict.

    The parallel leg must merge byte-identically to the serial leg — a
    mismatch is a determinism regression, reported as ``byte_identical:
    false`` (and exit 3 from :func:`main`).  Wall-clock speedup is only
    meaningful on multi-core hosts, so ``host_cpu_count`` travels with
    the numbers instead of gating them.
    """
    from repro import kernels as kernel_backends
    from repro.parallel import make_tasks, run_sweep

    params = dict(racks=racks, machines_per_rack=machines_per_rack,
                  concurrent_jobs=jobs, duration=duration)
    tasks = make_tasks("simulate", params=params,
                       seeds=range(seed, seed + seeds))
    machines = racks * machines_per_rack
    print(f"sweep: {seeds} seeds x {machines} machines / {jobs} jobs, "
          f"serial then {workers} worker(s) ...", flush=True)
    serial = run_sweep(tasks, jobs=1)
    pooled = run_sweep(tasks, jobs=workers,
                       progress=lambda line: print(f"  {line}", flush=True))
    identical = serial.merged_json() == pooled.merged_json()
    timing = pooled.timing()
    speedup = (serial.wall_seconds / pooled.wall_seconds
               if pooled.wall_seconds > 0 else 0.0)
    return {
        "seeds": seeds,
        "seed_start": seed,
        "machines": machines,
        "jobs": jobs,
        "duration_sim_s": duration,
        "host_cpu_count": timing["host_cpu_count"],
        "workers": timing["workers"],
        "serial_wall_seconds": round(serial.wall_seconds, 3),
        "parallel_wall_seconds": round(pooled.wall_seconds, 3),
        "speedup": round(speedup, 2),
        "byte_identical": identical,
        "failed": len(pooled.failures),
        "task_wall_spread": timing["task_wall_spread"],
        "python": sys.version.split()[0],
        "kernel_backend": kernel_backends.current(),
        "numpy": kernel_backends.numpy_version(),
    }


def fig09_claims(result: dict) -> dict:
    """The Figure-9 shape claims, re-checked at this run's scale."""
    sub_ms_avg = result["schedule_ms_avg"] < 1.0
    bounded_peak = result["schedule_ms_p99"] < 10.0
    no_drift = result["schedule_drift"] < 1.5
    return {
        "bench": "fig09_at_scale",
        "machines": result["machines"],
        "jobs": result["jobs"],
        "avg_ms": result["schedule_ms_avg"],
        "p99_ms": result["schedule_ms_p99"],
        "peak_ms": result["schedule_ms_max"],
        "drift_second_half_over_first": result["schedule_drift"],
        "claims": {
            "sub_ms_avg": sub_ms_avg,
            "bounded_p99_under_10ms": bounded_peak,
            "no_upward_drift": no_drift,
        },
        "pass": sub_ms_avg and bounded_peak and no_drift,
    }


def load_json(path: str) -> dict:
    p = pathlib.Path(path)
    if p.exists():
        return json.loads(p.read_text(encoding="utf-8"))
    return {}


def store(path: str, mode: str, label: str, result: dict) -> dict:
    doc = load_json(path)
    doc.setdefault("bench", "scale")
    doc["schema"] = SCHEMA
    modes = doc.setdefault("modes", {})
    entry = modes.setdefault(mode, {})
    entry[label] = result
    if "baseline" in entry and "current" in entry:
        base, cur = entry["baseline"], entry["current"]
        if cur["wall_seconds"] > 0:
            entry["speedup"] = round(
                base["wall_seconds"] / cur["wall_seconds"], 2)
    pathlib.Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return doc


def check_regression(path: str, mode: str, result: dict,
                     threshold: float) -> int:
    doc = load_json(path)
    entry = doc.get("modes", {}).get(mode, {})
    committed = entry.get("current") or entry.get("baseline")
    if committed is None:
        print(f"--check: no committed {mode!r} numbers in {path}",
              file=sys.stderr)
        return 2
    # Wall clock is hardware-dependent; CI runners vary run to run, so the
    # gate compares against the committed numbers with a generous threshold.
    limit = committed["wall_seconds"] * (1.0 + threshold)
    committed_cpus = committed.get("host_cpu_count", "?")
    print(f"committed {mode} wall: {committed['wall_seconds']:.2f}s "
          f"({committed['events_per_sec']:.0f} ev/s, "
          f"{committed_cpus} cpus); this run: "
          f"{result['wall_seconds']:.2f}s ({result['events_per_sec']:.0f} "
          f"ev/s, {result['host_cpu_count']} cpus); limit {limit:.2f}s")
    if result["wall_seconds"] > limit:
        print(f"PERF REGRESSION: wall {result['wall_seconds']:.2f}s exceeds "
              f"{limit:.2f}s (+{threshold:.0%} over committed)",
              file=sys.stderr)
        return 3
    print("perf-smoke ok")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if sum((args.quick, args.xl, args.xxl)) > 1:
        print("--quick, --xl and --xxl are mutually exclusive",
              file=sys.stderr)
        return 2
    preset = (XXL if args.xxl else
              XL if args.xl else (QUICK if args.quick else FULL))
    racks = args.racks or preset["racks"]
    machines_per_rack = args.machines_per_rack or preset["machines_per_rack"]
    jobs = args.jobs or preset["jobs"]
    duration = args.duration or preset["duration"]
    custom = (args.racks or args.machines_per_rack or args.jobs
              or args.duration)
    mode = "custom" if custom else (
        "xxl" if args.xxl else
        "xl" if args.xl else ("quick" if args.quick else "full"))

    if args.sweep is not None:
        if args.sweep < 2:
            print("--sweep needs at least 2 seeds", file=sys.stderr)
            return 2
        if args.sweep_jobs < 1:
            print("--sweep-jobs must be >= 1", file=sys.stderr)
            return 2
        sweep = run_sweep_benchmark(racks, machines_per_rack, jobs,
                                    duration, args.seed, args.sweep,
                                    args.sweep_jobs)
        print(json.dumps(sweep, indent=2))
        if args.record:
            if mode == "custom":
                print("--record requires a preset shape (no overrides)",
                      file=sys.stderr)
                return 2
            store(args.out, mode, "sweep", sweep)
            print(f"recorded {mode}/sweep in {args.out}")
        if not sweep["byte_identical"]:
            print("SWEEP REGRESSION: parallel merge differs from serial "
                  "(determinism broken)", file=sys.stderr)
            return 3
        if sweep["failed"]:
            print(f"SWEEP REGRESSION: {sweep['failed']} task(s) failed",
                  file=sys.stderr)
            return 3
        print(f"sweep ok: byte-identical merge, speedup "
              f"{sweep['speedup']}x with {sweep['workers']} worker(s) on "
              f"{sweep['host_cpu_count']} cpu(s)")
        return 0

    if args.check and (args.live_sample or args.profile):
        # the committed numbers are hook-free; comparing a telemetry run
        # against them would read sampler cost as a perf regression
        print("--check cannot be combined with --live-sample/--profile",
              file=sys.stderr)
        return 2

    result = run_benchmark(racks, machines_per_rack, jobs, duration,
                           args.seed, live_sample=args.live_sample,
                           profile=args.profile, kernels=args.kernels)
    print(json.dumps(result, indent=2))

    claims = fig09_claims(result)
    fig09_out: Optional[str] = args.fig09_out
    if fig09_out is None and mode == "full" and args.record:
        fig09_out = str(REPO_ROOT / "BENCH_fig09.json")
    if fig09_out:
        pathlib.Path(fig09_out).write_text(
            json.dumps(claims, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"fig09 claims ({'PASS' if claims['pass'] else 'FAIL'}) "
              f"written to {fig09_out}")

    if args.record:
        if mode == "custom":
            print("--record requires a preset shape (no overrides)",
                  file=sys.stderr)
            return 2
        doc = store(args.out, mode, args.record, result)
        speedup = doc["modes"][mode].get("speedup")
        note = f", speedup {speedup}x" if speedup else ""
        print(f"recorded {mode}/{args.record} in {args.out}{note}")

    if args.check:
        if mode == "custom":
            print("--check requires a preset shape (no overrides)",
                  file=sys.stderr)
            return 2
        return check_regression(args.check, mode, result, args.threshold)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
