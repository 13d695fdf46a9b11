#!/usr/bin/env python3
"""Layered benchmark of the Fuxi simulator: four workloads, ten end-to-end
metrics, and a traced run that splits the wall time by layer.

Two ways to run it (see README.md for the tables):

* **One measurement** — what ``BENCHMARK.json`` names as the command::

      python3 benchmarks/layered/run.py --workload steady_5k --seed 7 \
          --seconds 20 --trace 0

  runs one workload once in this interpreter and prints, as the last line
  of standard output, ``{"correct", "attempted", "failed", "metrics"}``.
  ``--trace 0`` reports the end-to-end metrics with tracing off;
  ``--trace 1`` makes an untraced and a traced window plus the isolated
  layer micro-ops and reports the per-layer metrics.

* **The report** — without ``--trace``::

      python3 benchmarks/layered/run.py [--workload NAME] [--seed N]
      python3 benchmarks/layered/run.py --selfcheck

  runs every workload (or one) three times untraced and once
  traced, each in a fresh interpreter, prints every metric by name with
  its unit (median, min..max, sample count), and checks that same-seed
  repeats agree exactly on the simulated outputs.  ``--selfcheck`` makes
  two such sets and fails if any end-to-end metric differs between them
  by more than its bound in ``BENCHMARK.json``.

No process outlives the command: children are started one at a time,
waited for, and killed on every exit path; the command then checks
``/proc`` for live descendants and fails if it finds one.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_SECONDS, SHAPES  # noqa: E402

perf = time.perf_counter

#: a child run (three set-ups, windows, micro-ops) must end well inside
#: the contract's 180 s
CHILD_TIMEOUT_S = 170

#: same-seed repeats of the timed window in one untraced run
WINDOWS = 2

#: untraced child runs per workload in one set of the report
REPEATS = 3


# ---------------------------------------------------------------------- #
# one measurement (runs in this interpreter)
# ---------------------------------------------------------------------- #

def provenance() -> dict:
    from repro import kernels
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": kernels.numpy_version(),
        "kernels": kernels.current(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD's hash read from ``.git`` (no subprocess); the benchmark
    driver's checkout is not a git repository, hence "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def observe(shape, loop, window) -> dict:
    """Everything the metrics need from a finished window, copied out so
    the cluster can be freed; ``problems`` holds the failed output checks."""
    from driver import fingerprint
    problems = []
    primary = loop.cluster.primary_master
    if primary is None or primary.scheduler is None:
        problems.append("no primary master at the end of the window")
    else:
        problems.extend(primary.scheduler.conservation_violations()[:3])
    if window.finished == 0:
        problems.append("no job finished")
    if shape.faults is None and (window.unsuccessful or window.owed_submits):
        problems.append(f"fault-free workload had {window.unsuccessful} "
                        f"failed jobs, {window.owed_submits} owed submits")
    seen = {
        "fingerprint": fingerprint(loop, window),
        "problems": problems,
        "sched_ms": loop.window_series("fm.schedule_ms", window),
        "mem_total": loop.window_series("util.Memory.FM_total", window),
        "mem_planned": loop.window_series("util.Memory.FM_planned", window),
        "window": window,
    }
    window.schedulers.clear()  # they would keep the freed cluster alive
    return seen


def timed_windows(shape, seed: int, duration: float):
    """WINDOWS same-seed repeats of build + window, each freed before the
    next is built (so the peak RSS is one cluster's), then the set-ups
    still missing to ``shape.setups``.  Returns (observations, seconds of
    every set-up)."""
    from driver import ClosedLoop
    observations, setup_seconds = [], []
    for index in range(max(shape.setups, WINDOWS)):
        started = perf()
        loop = ClosedLoop(shape, seed)
        setup_seconds.append(perf() - started)
        try:
            if index < WINDOWS:
                observations.append(observe(shape, loop, loop.run(duration)))
        finally:
            loop.close()
        del loop
        gc.collect()
    return observations, setup_seconds


def quiet_wall(observations) -> float:
    """Window wall in seconds, each loop iteration taken at its fastest
    repeat: the repeats do identical work iteration by iteration, and a
    burst on the host rarely slows the same iteration of both."""
    return sum(map(min, zip(*(seen["window"].iteration_s
                              for seen in observations))))


def quiet_sched_ms(observations) -> list:
    """Sorted scheduling times in ms, each decision at its fastest repeat
    (the n-th sample of every repeat times the same decision)."""
    return sorted(map(min, zip(*(seen["sched_ms"]
                                 for seen in observations))))


def end_to_end(observations, setup_seconds) -> tuple:
    """The ten end-to-end metrics of one untraced run, their sample
    counts, and jobs attempted / failed."""
    from driver import percentile
    first = observations[0]
    window = first["window"]
    if not window.slowdowns:
        raise SystemExit(f"no job finished in {window.sim_seconds} sim-s: "
                         f"the window is too short to measure, raise "
                         f"--seconds")
    sched = quiet_sched_ms(observations)
    slow = sorted(window.slowdowns)
    attempted = window.finished + window.owed_submits
    failed = window.unsuccessful + window.owed_submits
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "sim_rate": (window.sim_seconds / quiet_wall(observations),
                     "sim_s/s"),
        "sched_ms_p50": (percentile(sched, 50.0), "ms"),
        "sched_ms_p90": (percentile(sched, 90.0), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "jobs_per_sim_min": (window.finished * 60.0 / window.sim_seconds,
                             "jobs/sim_min"),
        "job_slowdown_p50": (percentile(slow, 50.0), "ratio"),
        "job_slowdown_p90": (percentile(slow, 90.0), "ratio"),
        "util_mem": (sum(first["mem_planned"]) / sum(first["mem_total"]),
                     "fraction"),
        "ok_share": ((attempted - failed) / attempted, "fraction"),
    }
    samples = {"windows": len(observations), "setups": len(setup_seconds),
               "sched_ms": len(sched), "job_slowdown": len(slow),
               "util_mem": len(first["mem_total"]),
               "window_wall_s": [seen["window"].wall_s
                                 for seen in observations],
               "window_cpu_s": [seen["window"].cpu_s
                                for seen in observations],
               "events": window.events}
    return metrics, samples, attempted, failed


def agreement(observations) -> list:
    """Same seed, same code: every repeat must print the same."""
    prints = [seen["fingerprint"] for seen in observations]
    problems = [problem for seen in observations
                for problem in seen["problems"]]
    if any(other != prints[0] for other in prints[1:]):
        problems.append(f"same-seed windows diverged: {prints}")
    return problems


def measure_untraced(shape, seed: int, seconds: float) -> dict:
    observations, setup_seconds = timed_windows(
        shape, seed, shape.scaled_duration(seconds))
    metrics, samples, attempted, failed = end_to_end(observations,
                                                     setup_seconds)
    detail = {"fingerprint": observations[0]["fingerprint"],
              "samples": samples, "setup_seconds": setup_seconds}
    return result(agreement(observations), attempted, failed, metrics,
                  detail)


def measure_traced(shape, seed: int, seconds: float) -> dict:
    """An untraced window, then the same window under the span wrappers,
    then the isolated micro-ops: the per-layer metrics."""
    import layers
    import microops
    from driver import ClosedLoop
    from spans import LayerTracer
    duration = shape.scaled_duration(seconds)

    loop = ClosedLoop(shape, seed)
    try:
        plain = observe(shape, loop, loop.run(duration))
    finally:
        loop.close()
    del loop
    gc.collect()

    tracer = LayerTracer()
    tracer.install()
    try:
        loop = ClosedLoop(shape, seed)
        try:
            before = layers.Counters(loop)
            tracer.reset()
            window = loop.run(duration)
            metrics = layers.traced_metrics(loop, window, tracer, before)
            traced = observe(shape, loop, window)
        finally:
            loop.close()
    finally:
        tracer.uninstall()
    del loop
    gc.collect()
    metrics.update(layers.untraced_metrics(plain))
    metrics["obs.trace_overhead"] = (statistics.median(
        slow / fast for slow, fast in zip(window.iteration_s,
                                          plain["window"].iteration_s)),
        "ratio")
    metrics.update(microops.run_all())
    spans_path = HERE / "out" / f"spans-{shape.name}-seed{seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_jsonl(spans_path, {
        "workload": shape.name, "seed": seed, "window_wall_s": window.wall_s,
        "traced_s": tracer.traced_s, **provenance()})
    detail = {"fingerprint": traced["fingerprint"],
              "spans": str(spans_path.relative_to(ROOT)),
              "samples": {"window_wall_s": window.wall_s,
                          "untraced_wall_s": plain["window"].wall_s,
                          "traced_s": tracer.traced_s,
                          "kept_spans": len(tracer.spans)}}
    attempted = window.finished + window.owed_submits
    failed = window.unsuccessful + window.owed_submits
    return result(agreement([plain, traced]), attempted, failed, metrics,
                  detail)


def result(problems, attempted, failed, metrics, detail) -> dict:
    detail["problems"] = problems
    detail["provenance"] = provenance()
    return {
        "detail": detail,
        "final": {
            "correct": not problems,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def run_one(args) -> int:
    shape = SHAPES.get(args.workload)
    if shape is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(SHAPES)}", file=sys.stderr)
        return 2
    measure = measure_traced if args.trace else measure_untraced
    out = measure(shape, args.seed, args.seconds)
    leaked = live_descendants()
    if leaked:
        print(f"processes left running: {leaked}", file=sys.stderr)
        return 3
    print(json.dumps({"workload": shape.name, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      **out["detail"]}))
    print(json.dumps(out["final"]))
    return 0


# ---------------------------------------------------------------------- #
# process hygiene
# ---------------------------------------------------------------------- #

def live_descendants() -> list:
    """``pid:name`` of every live process descended from this one."""
    leaked = [f"{child.pid}:{child.name}"
              for child in multiprocessing.active_children()]
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        # pid (comm) state ppid ...; comm may hold spaces and parentheses
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z":
            parents[int(entry)] = (int(fields[1]), name)
    me = os.getpid()
    for pid, (parent, name) in parents.items():
        seen = set()
        while parent in parents and parent not in seen and parent != me:
            seen.add(parent)
            parent = parents[parent][0]
        if parent == me and pid != me:
            leaked.append(f"{pid}:{name}")
    return leaked


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measurement in a fresh interpreter: blocking, and the child's
    whole process group is killed on every exit path."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:  # timed out or interrupted: not yet reaped
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{proc.returncode}: {stderr.strip()[-2000:]}")
    return {"detail": json.loads(lines[-2]), "final": json.loads(lines[-1])}


# ---------------------------------------------------------------------- #
# the report
# ---------------------------------------------------------------------- #

def run_set(names, seed: int, seconds: float) -> dict:
    """REPEATS untraced child runs per workload."""
    runs = {}
    for name in names:
        runs[name] = []
        for index in range(REPEATS):
            print(f"  {name} run {index + 1}/{REPEATS} ...", flush=True)
            runs[name].append(run_child(name, seed, seconds, 0))
    return runs


#: end-to-end metrics that are pure functions of (code, seed)
SIMULATED = ("jobs_per_sim_min", "job_slowdown_p50", "job_slowdown_p90",
             "util_mem", "ok_share")


def exact_agreement(name: str, runs: list) -> list:
    """Same seed, same code: fingerprints and simulated metrics must be
    identical across runs."""
    problems = []
    prints = {json.dumps(run["detail"]["fingerprint"], sort_keys=True)
              for run in runs}
    if len(prints) != 1:
        problems.append(f"{name}: fingerprints differ across same-seed "
                        f"runs: {sorted(prints)}")
    for metric in SIMULATED:
        values = {run["final"]["metrics"][metric]["value"] for run in runs}
        if len(values) != 1:
            problems.append(f"{name}: simulated metric {metric} differs "
                            f"across same-seed runs: {sorted(values)}")
    for run in runs:
        if not run["final"]["correct"]:
            problems.extend(f"{name}: {problem}"
                            for problem in run["detail"]["problems"])
    return problems


def print_end_to_end(name: str, runs: list, contract: dict) -> None:
    detail = runs[0]["detail"]
    print(f"\n== {name}: end to end, tracing off, {len(runs)} runs "
          f"(median  min..max) ==")
    for spec in contract["end_to_end"]:
        values = [run["final"]["metrics"][spec["name"]]["value"]
                  for run in runs]
        print(f"  {spec['name']:<18} {statistics.median(values):>12.5g} "
              f"{spec['unit']:<13} {min(values):.5g}..{max(values):.5g}  "
              f"({spec['better']} is better, bound {spec['bound']:.0%})")
    samples = detail["samples"]
    walls = ", ".join(f"{wall:.2f}" for wall in samples["window_wall_s"])
    print(f"  samples per run: sched_ms {samples['sched_ms']}, job_slowdown "
          f"{samples['job_slowdown']}, util_mem {samples['util_mem']}, "
          f"set-ups {samples['setups']}, same-seed windows "
          f"{samples['windows']} ({walls} s, {samples['events']} events)")
    failed = sum(run["final"]["failed"] for run in runs)
    attempted = sum(run["final"]["attempted"] for run in runs)
    print(f"  jobs attempted {attempted}, failed {failed}")
    print(f"  fingerprint: {json.dumps(detail['fingerprint'])}")


def print_per_layer(name: str, run: dict) -> None:
    from spans import LAYERS
    metrics = run["final"]["metrics"]
    samples = run["detail"]["samples"]
    print(f"\n== {name}: per layer, traced run "
          f"(window {samples['window_wall_s']:.2f} s traced, "
          f"{samples['untraced_wall_s']:.2f} s untraced) ==")
    print(f"  {'layer':<10} {'calls':>10} {'self_s':>9} {'self_share':>11}")
    total = 0.0
    for layer in LAYERS:
        total += metrics[f"{layer}.self_s"]["value"]
        print(f"  {layer:<10} {metrics[f'{layer}.calls']['value']:>10.0f} "
              f"{metrics[f'{layer}.self_s']['value']:>9.3f} "
              f"{metrics[f'{layer}.self_share']['value']:>11.3f}")
    print(f"  layers' self_s sum {total:.3f} s = "
          f"{total / samples['window_wall_s']:.3f} of the traced window")
    for key in sorted(metrics):
        layer, _, rest = key.partition(".")
        if rest in ("calls", "self_s", "self_share") and layer in LAYERS:
            continue
        print(f"  {key:<32} {metrics[key]['value']:>14.6g} "
              f"{metrics[key]['unit']}")
    print(f"  spans: {run['detail']['spans']}")


def report(args) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else list(SHAPES)
    for name in names:
        if name not in SHAPES:
            print(f"unknown workload {name!r}; choose from "
                  f"{', '.join(SHAPES)}", file=sys.stderr)
            return 2
    print(f"host: {json.dumps(provenance())}")
    print(f"seed {args.seed}, --seconds {args.seconds:g}, "
          f"{REPEATS} untraced runs + 1 traced run per workload")
    problems = []
    try:
        runs = run_set(names, args.seed, args.seconds)
        for name in names:
            problems += exact_agreement(name, runs[name])
            print_end_to_end(name, runs[name], contract)
        for name in names:
            print(f"  {name} traced run ...", flush=True)
            traced = run_child(name, args.seed, args.seconds, 1)
            if traced["detail"]["fingerprint"] != \
                    runs[name][0]["detail"]["fingerprint"]:
                problems.append(f"{name}: traced fingerprint differs from "
                                f"the untraced runs'")
            problems.extend(f"{name}: {problem}"
                            for problem in traced["detail"]["problems"])
            print_per_layer(name, traced)
        if args.selfcheck:
            print("\n== selfcheck: a second set, same code and seed ==")
            again = run_set(names, args.seed, args.seconds)
            problems += selfcheck(names, runs, again, contract)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        problems.append(f"a child run failed: {error}")
    return finish(problems)


def selfcheck(names, first: dict, second: dict, contract: dict) -> list:
    problems = []
    print(f"\n  {'workload':<16} {'metric':<18} {'first':>11} {'second':>11} "
          f"{'worse by':>9} {'bound':>6}")
    for name in names:
        problems += exact_agreement(name, first[name] + second[name])
        for spec in contract["end_to_end"]:
            a, b = (statistics.median(run["final"]["metrics"][spec["name"]]
                                      ["value"] for run in runs[name])
                    for runs in (first, second))
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            flag = ""
            if abs(worse) > spec["bound"]:
                flag = "  EXCEEDS"
                problems.append(f"{name}: {spec['name']} differs by "
                                f"{abs(worse):.1%} between two sets of the "
                                f"same code (bound {spec['bound']:.0%})")
            print(f"  {name:<16} {spec['name']:<18} {a:>11.5g} {b:>11.5g} "
                  f"{worse:>+9.2%} {spec['bound']:>6.0%}{flag}")
    return problems


def finish(problems: list) -> int:
    leaked = live_descendants()
    if leaked:
        problems.append(f"processes left running: {leaked}")
    if problems:
        print("\nFAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nall checks passed; no process left running")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host-seconds budget of the timed window "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="make one measurement in this interpreter and "
                             "print its result as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="report: run the set twice, compare to bounds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the simulator is not at {ROOT / 'src' / 'repro'}: this "
              f"benchmark measures the repository it is checked out in",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(REFERENCE_SECONDS)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
