"""Experiment repetitions and suites through the parallel sweep engine.

The paper's evaluation numbers are averages over repeated runs; this
module gives every experiment the same treatment without serial
wall-clock cost:

- :func:`run_named` — one repetition of a named experiment with an
  injected seed (the worker-side entry point behind the ``experiment``
  sweep kind);
- :func:`repeat_experiment` — N seed-derived repetitions fanned over
  ``jobs`` workers, aggregated into one report (median measured value
  per comparison, plus a min/median/max spread table);
- :func:`run_suite` — several different experiments side by side, one
  worker each.

Timing-based experiments (scale, the ablations) measure wall-clock, so
their *measured values* are not byte-reproducible — the determinism
guarantee of :mod:`repro.parallel` applies to the ``simulate``/``chaos``
kinds; here the engine buys parallel speed and crash isolation.
"""

from __future__ import annotations

import dataclasses
from statistics import median
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.api import RunSpec
from repro.experiments import (ablations, fig09_scheduling_time,
                               fig10_utilization, scale_instances,
                               table1_production, table2_overheads,
                               table3_faults, table4_graysort)
from repro.experiments.harness import ExperimentReport
from repro.parallel.engine import Progress, run_sweep
from repro.parallel.envelope import RunTask, derive_seed
from repro.parallel.grid import make_tasks

#: experiment name → (runner, config class or None when config-free)
NAMED = {
    "fig09": (fig09_scheduling_time.run, RunSpec),
    "fig10": (fig10_utilization.run, RunSpec),
    "table1": (table1_production.run, table1_production.Table1Config),
    "table2": (table2_overheads.run, RunSpec),
    "table3": (table3_faults.run, table3_faults.Table3Config),
    "table4": (table4_graysort.run, None),
    "scale": (scale_instances.run, scale_instances.ScaleConfig),
    "ablation-protocol": (ablations.protocol_ablation,
                          ablations.ProtocolAblationConfig),
    "ablation-locality": (ablations.locality_ablation,
                          ablations.LocalityAblationConfig),
    "ablation-reuse": (ablations.container_reuse_ablation,
                       ablations.ReuseAblationConfig),
}


def arena_tasks(*, policies: Sequence[str],
                machines_per_rack: Sequence[int],
                mixes: Sequence[str],
                racks: int = 4,
                concurrent_jobs: int = 24,
                duration: float = 60.0,
                workload_scale: int = 100,
                seed: int = 7) -> List[RunTask]:
    """The scheduler-arena grid: policy × cluster size × workload mix.

    Every cell is one ``arena`` sweep task (a ``simulate`` run plus wall
    scheduling-latency percentiles) at the *same* seed, so the cells are
    directly comparable and each is byte-reproducible from its recorded
    coordinates.  Cluster size varies via ``machines_per_rack`` with
    ``racks`` fixed — one axis, not a racks×machines cartesian.
    """
    for policy in policies:
        RunSpec(policy=policy)   # fail fast with the registered-name list
    return make_tasks(
        "arena",
        params={"racks": racks, "concurrent_jobs": concurrent_jobs,
                "duration": duration, "workload_scale": workload_scale},
        grid={"policy": list(policies),
              "machines_per_rack": list(machines_per_rack),
              "workload_mix": list(mixes)},
        seeds=[seed])


def run_named(name: str, *, seed: Optional[int] = None,
              overrides: Optional[Mapping[str, Any]] = None,
              ) -> ExperimentReport:
    """One repetition of experiment ``name`` with seed/config injected.

    ``seed`` lands in the experiment's config when it has a seed knob
    (seedless analytic experiments like table4 ignore it); ``overrides``
    are extra config fields.  With nothing to inject the runner gets no
    argument, so it keeps its own default (fig09's is a traced run).
    """
    if name not in NAMED:
        raise ValueError(f"unknown experiment {name!r}; known: "
                         f"{', '.join(sorted(NAMED))}")
    runner, config_cls = NAMED[name]
    if config_cls is None:
        return runner()
    kwargs: Dict[str, Any] = dict(overrides or {})
    field_names = {f.name for f in dataclasses.fields(config_cls)}
    if seed is not None and "seed" in field_names:
        kwargs["seed"] = seed
    if not kwargs:
        return runner()
    return runner(config_cls(**kwargs))


def repeat_experiment(name: str, repeats: int, *, jobs: int = 1,
                      root_seed: int = 0,
                      overrides: Optional[Mapping[str, Any]] = None,
                      journal: Optional[str] = None, resume: bool = False,
                      progress: Optional[Progress] = None,
                      ) -> ExperimentReport:
    """Run ``repeats`` seed-derived repetitions; aggregate to one report.

    Each repetition gets its own child seed (derived from ``root_seed``
    through the task id), runs as one sweep task, and the aggregated
    report carries the per-comparison median next to the paper value,
    with the full min/median/max spread tabled underneath.
    """
    if name not in NAMED:
        raise ValueError(f"unknown experiment {name!r}; known: "
                         f"{', '.join(sorted(NAMED))}")
    params: Dict[str, Any] = {"name": name}
    if overrides:
        params["config"] = dict(overrides)
    tasks = make_tasks("experiment", params=params, repeat=repeats,
                       root_seed=root_seed)
    sweep = run_sweep(tasks, jobs=jobs, journal=journal, resume=resume,
                      progress=progress)
    payloads = [o.result for o in sweep.outcomes if o.ok]
    if not payloads:
        first = sweep.failures[0]
        raise RuntimeError(f"every repetition of {name!r} failed; first "
                           f"error:\n{first.error}")
    return _aggregate(name, payloads, sweep)


def run_suite(names: Sequence[str], *, jobs: int = 1, root_seed: int = 0,
              journal: Optional[str] = None, resume: bool = False,
              progress: Optional[Progress] = None) -> Dict[str, dict]:
    """Run several experiments side by side, one sweep task each.

    Returns name → worker payload (``comparisons``/``notes``), or
    name → ``{"error": traceback}`` for repetitions that failed.
    """
    unknown = [n for n in names if n not in NAMED]
    if unknown:
        raise ValueError(f"unknown experiments {unknown}; known: "
                         f"{', '.join(sorted(NAMED))}")
    tasks = [RunTask(index=i, task_id=f"experiment/name={name}",
                     kind="experiment",
                     seed=derive_seed(root_seed, f"experiment/name={name}"),
                     params={"name": name})
             for i, name in enumerate(names)]
    sweep = run_sweep(tasks, jobs=jobs, journal=journal, resume=resume,
                      progress=progress)
    out: Dict[str, dict] = {}
    for name, outcome in zip(names, sweep.outcomes):
        out[name] = (outcome.result if outcome.ok
                     else {"error": outcome.error})
    return out


def _aggregate(name: str, payloads: List[dict], sweep) -> ExperimentReport:
    first = payloads[0]
    report = ExperimentReport(
        exp_id=first["exp_id"],
        title=f"{first['title']} — {len(payloads)} repetitions "
              f"(median measured)")
    spread_rows = []
    for position, comparison in enumerate(first["comparisons"]):
        values = sorted(
            p["comparisons"][position]["measured"] for p in payloads
            if position < len(p["comparisons"]))
        mid = median(values)
        report.add_comparison(comparison["name"], comparison["paper"], mid,
                              comparison["unit"], comparison["direction"])
        spread_rows.append([comparison["name"], comparison["unit"],
                            f"{values[0]:.4g}", f"{mid:.4g}",
                            f"{values[-1]:.4g}"])
    report.add_table(["metric", "unit", "min", "median", "max"], spread_rows,
                     title=f"spread over {len(payloads)} repetitions")
    timing = sweep.timing()
    report.notes.append(
        f"{len(payloads)} ok repetition(s) via repro.parallel: "
        f"{timing['workers']} worker(s) on a {timing['host_cpu_count']}-cpu "
        f"host, per-run wall {timing['task_wall_spread']['min']}/"
        f"{timing['task_wall_spread']['median']}/"
        f"{timing['task_wall_spread']['max']}s (min/median/max).")
    if not sweep.ok:
        report.notes.append(
            f"{len(sweep.failures)} repetition(s) FAILED and were excluded; "
            f"first: {sweep.failures[0].task_id}")
    return report
