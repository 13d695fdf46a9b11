"""The process-pool sweep engine: fan out, stream back, merge serial-equal.

:func:`run_sweep` executes a list of independent
:class:`~repro.parallel.envelope.RunTask` either in-process (``jobs=1``,
the reference serial path) or across a ``multiprocessing`` pool
(``jobs>1``), and returns a :class:`SweepResult` whose deterministic
merge is *identical* to the serial path's — same ordering (task index),
same JSON bytes — because:

- every task carries its own seed (derived via
  :func:`repro.parallel.envelope.derive_seed` when not user-visible), so
  a result is a pure function of the envelope, not of worker assignment;
- outcomes stream back unordered (bounded memory, progress lines, journal
  appends as they land) but the merge re-sorts by task index;
- wall time and worker pid are recorded on the outcome yet excluded from
  the merged document (they feed :meth:`SweepResult.timing` instead).

Failure isolation: a task whose runner raises becomes a failed outcome
carrying the traceback; a pool that dies outright (worker hard-killed)
marks the not-yet-finished tasks failed instead of crashing the sweep.
With a journal attached, a rerun with ``resume=True`` skips every
journaled ``ok`` task and re-executes only the failed/missing ones.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.parallel.envelope import RunOutcome, RunTask
from repro.parallel.journal import SweepJournal
from repro.parallel.runners import resolve_runner

Progress = Callable[[str], None]

MERGE_SCHEMA = 1


def _warm_start() -> None:
    """Pool initializer: pay the heavyweight imports once per worker.

    Workers are long-lived (one per pool slot, each runs many tasks), so
    importing the simulator stack here keeps per-task overhead at pickle
    + dispatch only.
    """
    import repro.api            # noqa: F401  (imports the full sim stack)
    import repro.chaos.engine   # noqa: F401
    import repro.chaos.fuzz     # noqa: F401


def execute_task(task: RunTask) -> RunOutcome:
    """Run one task to an outcome; never raises.

    The runner's payload is normalized through a JSON round-trip so the
    serial and pooled paths hand back byte-equal structures (tuples →
    lists, canonical key handling); an unserializable payload is a task
    failure, not a sweep crash.
    """
    started = time.perf_counter()
    try:
        runner = resolve_runner(task.kind)
        payload = runner(dict(task.params), task.seed)
        payload = json.loads(json.dumps(payload, sort_keys=True))
        return RunOutcome(task_id=task.task_id, index=task.index,
                          kind=task.kind, seed=task.seed, ok=True,
                          result=payload,
                          wall_seconds=time.perf_counter() - started,
                          worker_pid=os.getpid())
    except Exception:
        return RunOutcome(task_id=task.task_id, index=task.index,
                          kind=task.kind, seed=task.seed, ok=False,
                          error=traceback.format_exc(),
                          wall_seconds=time.perf_counter() - started,
                          worker_pid=os.getpid())


@dataclass
class SweepResult:
    """All outcomes of one sweep, in canonical (serial) order."""

    outcomes: List[RunOutcome] = field(default_factory=list)
    resumed: int = 0
    jobs: int = 1
    jobs_requested: int = 1
    wall_seconds: float = 0.0

    @property
    def failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def outcome(self, task_id: str) -> RunOutcome:
        for candidate in self.outcomes:
            if candidate.task_id == task_id:
                return candidate
        raise KeyError(f"no outcome for task {task_id!r}")

    def merged(self) -> dict:
        """The deterministic merged document (serial-equivalent)."""
        return {
            "schema": MERGE_SCHEMA,
            "sweep": {
                "total": len(self.outcomes),
                "failed": len(self.failures),
                "tasks": [o.merged_entry() for o in self.outcomes],
            },
        }

    def merged_json(self) -> str:
        """Canonical JSON bytes of :meth:`merged` — the equality anchor:
        the same task list yields the same string whether the sweep ran
        serial, pooled, or partially resumed from a journal."""
        return json.dumps(self.merged(), indent=2, sort_keys=True) + "\n"

    def timing(self) -> dict:
        """Nondeterministic measurements: host shape + wall-time spread."""
        walls = sorted(o.wall_seconds for o in self.outcomes)
        spread = {"min": 0.0, "median": 0.0, "max": 0.0}
        if walls:
            spread = {"min": round(walls[0], 3),
                      "median": round(walls[len(walls) // 2], 3),
                      "max": round(walls[-1], 3)}
        return {
            "host_cpu_count": os.cpu_count() or 1,
            "workers": self.jobs,
            "workers_requested": self.jobs_requested,
            "tasks_run": len(self.outcomes) - self.resumed,
            "tasks_resumed": self.resumed,
            "wall_seconds": round(self.wall_seconds, 3),
            "task_wall_spread": spread,
        }


def _validate(tasks: Sequence[RunTask]) -> List[RunTask]:
    ordered = sorted(tasks, key=lambda t: t.index)
    seen_ids: Dict[str, int] = {}
    for task in ordered:
        if task.task_id in seen_ids:
            raise ValueError(f"duplicate task_id {task.task_id!r}")
        seen_ids[task.task_id] = task.index
    indexes = [t.index for t in ordered]
    if len(set(indexes)) != len(indexes):
        raise ValueError("duplicate task indexes in sweep")
    return ordered


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap warm start on Linux); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context("spawn")


def run_sweep(tasks: Sequence[RunTask], *, jobs: int = 1,
              journal: Optional[str] = None, resume: bool = False,
              progress: Optional[Progress] = None) -> SweepResult:
    """Execute every task; see the module docstring for the guarantees."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ordered = _validate(tasks)
    say = progress or (lambda message: None)

    reused: Dict[str, RunOutcome] = {}
    book: Optional[SweepJournal] = None
    if journal is not None:
        book = SweepJournal(journal)
        if resume:
            reused = book.resumable(ordered)
        book.open(ordered, fresh=not resume)

    pending = [t for t in ordered if t.task_id not in reused]
    if reused:
        say(f"resume: {len(reused)}/{len(ordered)} task(s) journaled ok, "
            f"{len(pending)} to run")

    # Worker processes beyond the host's cores only add fork + IPC cost
    # (observed as the <1.0 sweep "speedup" on 1-CPU hosts), so clamp —
    # and when the clamp lands on one worker, skip the pool entirely.
    host_cpus = os.cpu_count() or 1
    effective = min(jobs, host_cpus, max(len(pending), 1))
    if effective < jobs:
        note = (f"workers clamped {jobs} -> {effective} "
                f"(host cpus: {host_cpus}, pending tasks: {len(pending)})"
                + ("; running serially" if effective == 1 else ""))
        say(note)
        if book is not None:
            book.note(note)

    result = SweepResult(resumed=len(reused), jobs=effective,
                         jobs_requested=jobs)
    outcomes: Dict[str, RunOutcome] = dict(reused)
    started = time.perf_counter()
    done = len(reused)
    total = len(ordered)

    def record(outcome: RunOutcome) -> None:
        nonlocal done
        done += 1
        outcomes[outcome.task_id] = outcome
        if book is not None:
            book.append(outcome)
        verdict = "ok" if outcome.ok else "FAILED"
        say(f"[{done}/{total}] {outcome.task_id} {verdict} "
            f"({outcome.wall_seconds:.2f}s)")

    try:
        if effective == 1 or len(pending) <= 1:
            for task in pending:
                record(execute_task(task))
        else:
            _run_pooled(pending, effective, record, say)
    finally:
        if book is not None:
            book.close()

    result.outcomes = sorted(outcomes.values(), key=lambda o: o.index)
    result.wall_seconds = time.perf_counter() - started
    return result


def _run_pooled(pending: List[RunTask], jobs: int,
                record: Callable[[RunOutcome], None],
                say: Progress) -> None:
    """Fan pending tasks over a worker pool, streaming outcomes back."""
    workers = min(jobs, len(pending))
    context = _pool_context()
    finished: set = set()
    try:
        with context.Pool(processes=workers,
                          initializer=_warm_start) as pool:
            for outcome in pool.imap_unordered(execute_task, pending,
                                               chunksize=1):
                finished.add(outcome.task_id)
                record(outcome)
    except Exception:
        # The pool itself died (e.g. a worker was hard-killed). Isolate:
        # every task without a streamed outcome becomes a failed outcome.
        crash = traceback.format_exc()
        say("worker pool failed; marking unfinished tasks failed")
        for task in pending:
            if task.task_id not in finished:
                record(RunOutcome(
                    task_id=task.task_id, index=task.index, kind=task.kind,
                    seed=task.seed, ok=False,
                    error=f"worker pool crashed before completing this "
                          f"task:\n{crash}"))
