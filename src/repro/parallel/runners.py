"""The sweep engine's runner registry: ``kind`` → callable.

A runner is ``fn(params: dict, seed: int) -> dict`` returning a plain,
JSON-able, *deterministic* payload — deterministic meaning: a pure
function of ``(params, seed)``, with no wall-clock readings inside (wall
time is measured by the engine and kept out of the merge).  Runners are
resolved by name so :class:`~repro.parallel.envelope.RunTask` stays
plain-data picklable; the heavyweight simulator imports happen lazily
inside each runner, once per worker process (warm start).

Built-in kinds:

- ``simulate`` — one :func:`repro.api.simulate` closed-loop synthetic run
  (params = :class:`repro.api.RunSpec` fields);
- ``arena`` — ``simulate`` plus a ``wall_timing`` block of scheduling
  wall-latency percentiles (the one deliberately nondeterministic field;
  the arena benchmark strips it before byte-identity comparisons);
- ``chaos`` — one seeded chaos run with invariant checking
  (params = :class:`repro.chaos.engine.ChaosConfig` fields);
- ``experiment`` — one paper experiment repetition
  (params = ``{"name": ..., "config": {...}}``; measured values may be
  wall-clock for timing experiments, so only ``simulate``/``chaos``
  sweeps carry the byte-identical merge guarantee);
- ``fuzz`` — one explicit fault schedule replayed with the coverage probe
  on (params = ``{"schedule": spec, "chaos": {...}, "inject": name}``;
  the fuzzer's per-round fan-out unit);
- ``selfcheck`` — a microsecond no-sim runner used by smoke tests and the
  CI sweep job to exercise fan-out, crash isolation and resume.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Tuple

Runner = Callable[[Dict[str, Any], int], Dict[str, Any]]

_REGISTRY: Dict[str, Runner] = {}


def register_runner(kind: str, runner: Runner) -> None:
    """Register (or replace) the runner behind ``kind``."""
    _REGISTRY[kind] = runner


def unregister_runner(kind: str) -> None:
    """Remove ``kind`` from the registry (no-op when absent)."""
    _REGISTRY.pop(kind, None)


def resolve_runner(kind: str) -> Runner:
    """The runner behind ``kind``; KeyError lists the known kinds."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KeyError(f"unknown sweep task kind {kind!r}; known kinds: "
                       f"{', '.join(sorted(_REGISTRY))}") from None


def known_kinds() -> Tuple[str, ...]:
    """All registered kinds, sorted (the valid ``RunTask.kind`` values)."""
    return tuple(sorted(_REGISTRY))


# --------------------------------------------------------------------- #
# built-in runners (lazy imports: once per worker process)
# --------------------------------------------------------------------- #

def run_simulate(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One closed-loop synthetic run; returns the deterministic counters."""
    from repro.api import RunSpec, simulate
    spec = RunSpec(**params)
    result = simulate(spec, seed=seed)
    return result.summary_dict()


def run_arena_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One scheduler-arena cell: a simulate run + wall latency percentiles.

    Identical to ``simulate`` except for one extra ``wall_timing`` block
    carrying the master's scheduling-latency wall-clock percentiles.
    Consumers comparing cells for determinism (``bench_arena.py
    --check``) must strip ``wall_timing`` first — everything else stays a
    pure function of (params, seed).
    """
    from repro.api import RunSpec, simulate
    spec = RunSpec(**params)
    result = simulate(spec, seed=seed)
    summary = result.summary_dict()
    series = result.metrics.series("fm.schedule_ms")
    summary["wall_timing"] = {
        "schedule_ms_avg": round(series.mean(), 4),
        "schedule_ms_p50": round(series.percentile(50), 4),
        "schedule_ms_p99": round(series.percentile(99), 4),
        "schedule_ms_max": round(series.max(), 4),
    }
    return summary


def run_chaos_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One seeded chaos run (workload + fault schedule + invariants)."""
    from repro.chaos.engine import ChaosConfig, run_chaos
    config = ChaosConfig(**params)
    return run_chaos(seed, config).to_dict()


def run_experiment_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One repetition of a named paper experiment."""
    from repro.experiments.sweep import run_named
    report = run_named(params["name"], seed=seed,
                       overrides=params.get("config"))
    return {
        "exp_id": report.exp_id,
        "title": report.title,
        "seed": seed,
        "comparisons": [
            {"name": c.name, "paper": c.paper, "measured": c.measured,
             "unit": c.unit, "direction": c.direction}
            for c in report.comparisons
        ],
        "notes": list(report.notes),
    }


def run_fuzz_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One fuzz candidate: explicit schedule, coverage on, optional bug
    injection — the same code path whether in-process or in a worker."""
    from repro.chaos.fuzz import execute_candidate
    return execute_candidate(params, seed)


def run_selfcheck(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A no-simulation runner for smoke tests: echo + seeded draw.

    ``params["fail"]`` forces a failure (crash-isolation tests);
    ``params["fail_unless_exists"]`` fails until the named path exists
    (journal-resume tests, where the retry must succeed);
    ``params["spin"]`` burns that many iterations of a deterministic
    integer loop — CPU-bound ballast for speedup tests, whose result
    (``spin_result``) stays a pure function of (seed, spin).
    """
    if params.get("fail"):
        raise RuntimeError(f"selfcheck: injected failure (seed {seed})")
    gate = params.get("fail_unless_exists")
    if gate and not os.path.exists(gate):
        raise RuntimeError(f"selfcheck: gate file missing: {gate}")
    payload: Dict[str, Any] = {}
    spin = int(params.get("spin", 0))
    if spin:
        acc = seed & 0x7FFFFFFF
        for i in range(spin):
            acc = (acc * 1103515245 + i) % 2147483648
        payload["spin_result"] = acc
    from repro.sim.rng import SplitRandom
    draw = SplitRandom(seed).stream("selfcheck")
    payload.update(
        seed=seed, value=round(draw.random(), 12),
        echo={k: v for k, v in params.items()
              if k not in ("fail", "fail_unless_exists", "spin")})
    return payload


# --------------------------------------------------------------------- #
# params checks: what a runner would reject, found before any task runs
# --------------------------------------------------------------------- #

def check_run_spec(params: Dict[str, Any]) -> None:
    """``simulate`` / ``arena`` params: the fields of a valid RunSpec."""
    from repro.api import RunSpec
    RunSpec.from_dict(params)


def check_chaos(params: Dict[str, Any]) -> None:
    """``chaos`` params: the fields of a valid ChaosConfig."""
    from repro.chaos.engine import ChaosConfig
    ChaosConfig.from_dict(params)


def _only(kind: str, params: Dict[str, Any], allowed: Tuple[str, ...],
          required: Tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"{kind} task: unknown params {unknown} "
                         f"(known: {', '.join(allowed)})")
    missing = [name for name in required if name not in params]
    if missing:
        raise ValueError(f"{kind} task: missing params {missing}")


def check_experiment(params: Dict[str, Any]) -> None:
    """``experiment`` params: a known ``name`` and, for an experiment with
    a config, ``config`` fields that build one."""
    from repro.experiments.sweep import NAMED
    _only("experiment", params, ("name", "config"), ("name",))
    name = params["name"]
    if name not in NAMED:
        raise ValueError(f"unknown experiment {name!r}; known: "
                         f"{', '.join(sorted(NAMED))}")
    config_cls = NAMED[name][1]
    overrides = params.get("config") or {}
    if config_cls is not None and overrides:
        from_dict = getattr(config_cls, "from_dict", None)
        if from_dict is not None:
            from_dict(overrides)
        else:
            config_cls(**overrides)


def check_fuzz(params: Dict[str, Any]) -> None:
    """``fuzz`` params: a parsable ``schedule``, a valid ``chaos`` config
    and a known ``inject`` name, if one is given."""
    from repro.chaos.engine import ChaosConfig
    from repro.chaos.fuzz import INJECTIONS
    from repro.cluster.faults import FaultPlan
    _only("fuzz", params, ("schedule", "chaos", "inject"),
          ("schedule", "chaos"))
    ChaosConfig.from_dict(params["chaos"])
    FaultPlan.from_spec(str(params["schedule"]))
    inject = params.get("inject")
    if inject and inject not in INJECTIONS:
        raise ValueError(f"unknown injection {inject!r}; known: "
                         f"{', '.join(sorted(INJECTIONS))}")


def check_selfcheck(params: Dict[str, Any]) -> None:
    """``selfcheck`` params: ``spin`` a non-negative int and
    ``fail_unless_exists`` a path string, if given; every other key is
    echoed, so any is allowed."""
    spin = params.get("spin", 0)
    if type(spin) is not int or spin < 0:
        raise ValueError(f"selfcheck task: spin must be a non-negative "
                         f"int, not {spin!r}")
    gate = params.get("fail_unless_exists")
    if gate is not None and not isinstance(gate, str):
        raise ValueError(f"selfcheck task: fail_unless_exists must be a "
                         f"path string, not {gate!r}")


#: kind -> check(params): raises ValueError (or TypeError) for params the
#: kind's runner would reject; every registered kind has an entry
PARAM_CHECKS: Dict[str, Callable[[Dict[str, Any]], None]] = {
    "simulate": check_run_spec,
    "arena": check_run_spec,
    "chaos": check_chaos,
    "experiment": check_experiment,
    "fuzz": check_fuzz,
    "selfcheck": check_selfcheck,
}


register_runner("simulate", run_simulate)
register_runner("arena", run_arena_task)
register_runner("chaos", run_chaos_task)
register_runner("experiment", run_experiment_task)
register_runner("fuzz", run_fuzz_task)
register_runner("selfcheck", run_selfcheck)
