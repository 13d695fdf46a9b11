#!/usr/bin/env python
"""Scheduler arena: every registered policy on the same substrate and seeds.

The :class:`repro.core.policy.SchedulerPolicy` seam puts all six policies
(fuxi, yarn, mesos, hadoop10, size-based, fractional) on the *same*
fit-indexed pools, ledger, digest sync and event loop — so this grid
compares scheduling decisions, not bookkeeping implementations.  Each cell
is one ``arena`` sweep task (policy × machines_per_rack × workload mix at
one shared seed) fanned over ``repro.parallel``, and records:

- locality hit-rate and grant/preemption counters (``sched`` block),
- job slowdown percentiles (makespan / critical-path lower bound),
- mean planned/total utilization per dimension,
- wall scheduling-latency percentiles (``schedule_ms`` — the one
  nondeterministic block, excluded from determinism comparisons),
- a digest of the cell's full deterministic summary.

``BENCH_arena.json`` carries the committed grid.  ``--check`` re-runs the
grid and fails (exit 3) if any cell's deterministic payload drifted from
the committed digest — per-policy same-seed byte-identity is the contract
the policy seam must keep — and also re-verifies the serial-vs-pooled
merge identity of the fresh run.

Usage::

    # full grid (24 cells), recorded under modes.full
    python benchmarks/bench_arena.py --record

    # CI-sized grid (6 cells, all six policies), recorded under modes.quick
    python benchmarks/bench_arena.py --quick --record

    # paper-scale grid (6 cells on the 5,000-machine bench_scale shape),
    # recorded under modes.scale
    python benchmarks/bench_arena.py --scale --record

    # CI determinism gate against the committed numbers
    python benchmarks/bench_arena.py --quick --check BENCH_arena.json

    # self-contained HTML/SVG chart of the committed full grid
    python benchmarks/bench_arena.py --chart

Exit codes: 0 ok, 2 bad arguments / missing committed numbers for
--check, 3 determinism drift (a cell no longer reproduces its committed
digest, or the pooled merge differs from the serial one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

POLICIES = ("fuxi", "yarn", "mesos", "hadoop10", "size-based", "fractional")

#: full grid: 6 policies x 2 cluster sizes x 2 mixes = 24 cells
FULL = dict(racks=4, machines_per_rack=(10, 20), mixes=("paper", "large"),
            jobs=24, duration=60.0, scale=100)
#: CI-sized grid: 6 policies x 1 size x 1 mix = 6 cells, well under a minute
QUICK = dict(racks=2, machines_per_rack=(5,), mixes=("paper",),
             jobs=8, duration=30.0, scale=100)
#: paper-scale grid: every policy on ``bench_scale_5000``'s 5,000-machine
#: cluster shape (100 racks x 50), one mix, 6 cells — the tier where
#: policy differences (locality hit-rate above all) stop being noise
SCALE = dict(racks=100, machines_per_rack=(50,), mixes=("paper",),
             jobs=200, duration=30.0, scale=100)

#: BENCH_arena.json schema: 3 adds kernel backend + numpy provenance to
#: every mode; 2 added the paper-scale mode ("scale") and the
#: input-locality hints that make ``locality_hit_rate`` differentiate cells
SCHEMA = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized grid (6 cells: all six policies, "
                             "one cluster size, one mix)")
    parser.add_argument("--scale", action="store_true",
                        help="paper-scale grid (6 cells: all six policies "
                             "on the 5,000-machine bench_scale shape)")
    parser.add_argument("--seed", type=int, default=7,
                        help="the shared per-cell seed (default 7)")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="worker processes for the pooled leg "
                             "(default 2; clamped to host cpus)")
    parser.add_argument("--record", action="store_true",
                        help="store this grid under its mode in --out")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_arena.json"))
    parser.add_argument("--check", metavar="FILE", default=None,
                        help="re-run the grid and exit 3 unless every cell "
                             "reproduces the committed digest in FILE")
    parser.add_argument("--chart", nargs="?", metavar="FILE",
                        const=str(REPO_ROOT / "BENCH_arena.html"),
                        default=None,
                        help="render the committed grid in --out as a self-"
                             "contained HTML/SVG page (default "
                             "BENCH_arena.html); alone it skips the grid "
                             "run, with --record it charts the fresh grid")
    return parser.parse_args(argv)


def strip_wall(payload: dict) -> dict:
    """A cell summary without its nondeterministic ``wall_timing`` block."""
    return {k: v for k, v in payload.items() if k != "wall_timing"}


def cell_digest(payload: dict) -> str:
    """Short stable hash of the deterministic part of a cell summary."""
    canon = json.dumps(strip_wall(payload), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def run_grid(preset: dict, seed: int, jobs: int, say=print) -> dict:
    """Run the arena grid serial + pooled; return the mode document."""
    from repro.experiments.sweep import arena_tasks
    from repro.parallel import run_sweep

    tasks = arena_tasks(policies=POLICIES,
                        machines_per_rack=preset["machines_per_rack"],
                        mixes=preset["mixes"], racks=preset["racks"],
                        concurrent_jobs=preset["jobs"],
                        duration=preset["duration"],
                        workload_scale=preset["scale"], seed=seed)
    say(f"arena: {len(tasks)} cells ({len(POLICIES)} policies x "
        f"{len(preset['machines_per_rack'])} sizes x "
        f"{len(preset['mixes'])} mixes), serial then {jobs} worker(s) ...")
    started = time.perf_counter()
    serial = run_sweep(tasks, jobs=1)
    pooled = run_sweep(tasks, jobs=jobs,
                       progress=lambda line: say(f"  {line}"))
    wall = time.perf_counter() - started
    identical = (_deterministic_merge(serial) == _deterministic_merge(pooled))

    cells = []
    for task, outcome in zip(tasks, pooled.outcomes):
        if not outcome.ok:
            cells.append({"task_id": outcome.task_id, "ok": False,
                          "error": outcome.error.splitlines()[-1]})
            continue
        payload = outcome.result
        spec = payload["spec"]
        sched = payload.get("sched", {})
        slowdown = payload.get("job_slowdown", {})
        wall_timing = payload.get("wall_timing", {})
        cells.append({
            "task_id": outcome.task_id,
            "ok": True,
            "policy": spec["policy"],
            "machines": spec["racks"] * spec["machines_per_rack"],
            "workload_mix": spec["workload_mix"],
            "seed": outcome.seed,
            "jobs_submitted": payload["jobs_submitted"],
            "jobs_completed": payload["jobs_completed"],
            "grants": payload["grants"],
            "units_granted": sched.get("units_granted", 0),
            "preemptions": sched.get("preemptions", 0),
            "locality_hit_rate": sched.get("locality_hit_rate", 0.0),
            "utilization": payload.get("utilization", {}),
            "slowdown_p50": slowdown.get("p50", 0.0),
            "slowdown_p95": slowdown.get("p95", 0.0),
            "schedule_ms": wall_timing,
            "digest": cell_digest(payload),
        })
    from repro import kernels as kernel_backends

    timing = pooled.timing()
    return {
        "grid": {
            "policies": list(POLICIES),
            "racks": preset["racks"],
            "machines_per_rack": list(preset["machines_per_rack"]),
            "mixes": list(preset["mixes"]),
            "concurrent_jobs": preset["jobs"],
            "duration_sim_s": preset["duration"],
            "workload_scale": preset["scale"],
            "seed": seed,
        },
        "cells": cells,
        "failed": len(pooled.failures),
        "byte_identical": identical,
        "host_cpu_count": timing["host_cpu_count"],
        "workers": timing["workers"],
        "workers_requested": timing["workers_requested"],
        "wall_seconds": round(wall, 3),
        "python": sys.version.split()[0],
        # compute-kernel provenance (results are byte-identical across
        # backends; the wall clock is not)
        "kernel_backend": kernel_backends.current(),
        "numpy": kernel_backends.numpy_version(),
    }


def _deterministic_merge(sweep) -> str:
    """The sweep's merged JSON with every ``wall_timing`` block removed."""
    # deep copy: merged() references the live outcome payloads, which the
    # cell report still needs intact
    doc = json.loads(sweep.merged_json())
    for entry in doc["sweep"]["tasks"]:
        result = entry.get("result")
        if isinstance(result, dict):
            result.pop("wall_timing", None)
    return json.dumps(doc, sort_keys=True)


def store(path: str, mode: str, result: dict) -> None:
    p = pathlib.Path(path)
    doc = json.loads(p.read_text(encoding="utf-8")) if p.exists() else {}
    doc.setdefault("bench", "arena")
    doc["schema"] = SCHEMA
    doc.setdefault("modes", {})[mode] = result
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                 encoding="utf-8")


def check_drift(path: str, mode: str, fresh: dict) -> int:
    p = pathlib.Path(path)
    if not p.exists():
        print(f"--check: no committed file {path}", file=sys.stderr)
        return 2
    committed = (json.loads(p.read_text(encoding="utf-8"))
                 .get("modes", {}).get(mode))
    if committed is None:
        print(f"--check: no committed {mode!r} grid in {path}",
              file=sys.stderr)
        return 2
    want = {c["task_id"]: c for c in committed["cells"] if c.get("ok")}
    have = {c["task_id"]: c for c in fresh["cells"] if c.get("ok")}
    drift = []
    for task_id, cell in sorted(want.items()):
        got = have.get(task_id)
        if got is None:
            drift.append(f"{task_id}: missing/failed in this run")
        elif got["digest"] != cell["digest"]:
            drift.append(f"{task_id}: digest {got['digest']} != committed "
                         f"{cell['digest']}")
    if fresh["failed"]:
        drift.append(f"{fresh['failed']} cell(s) failed")
    if not fresh["byte_identical"]:
        drift.append("pooled merge is not byte-identical to the serial run")
    if drift:
        print("DETERMINISM DRIFT:", file=sys.stderr)
        for line in drift:
            print(f"  {line}", file=sys.stderr)
        return 3
    print(f"arena-smoke ok: {len(want)} cell(s) reproduce their committed "
          f"digests; serial == pooled")
    return 0


def render(result: dict) -> str:
    header = (f"{'cell':<44} {'done':>4} {'grants':>6} {'local%':>6} "
              f"{'util-mem':>8} {'slow-p50':>8} {'ms-p99':>7}")
    lines = [header, "-" * len(header)]
    for cell in result["cells"]:
        if not cell.get("ok"):
            lines.append(f"{cell['task_id']:<44} FAILED: {cell['error']}")
            continue
        name = (f"{cell['policy']}/m={cell['machines']}"
                f"/{cell['workload_mix']}")
        lines.append(
            f"{name:<44} {cell['jobs_completed']:>4} {cell['grants']:>6} "
            f"{100 * cell['locality_hit_rate']:>5.1f}% "
            f"{cell['utilization'].get('memory', 0.0):>8.3f} "
            f"{cell['slowdown_p50']:>8.3f} "
            f"{cell['schedule_ms'].get('schedule_ms_p99', 0.0):>7.3f}")
    lines.append(f"{len(result['cells'])} cells in "
                 f"{result['wall_seconds']:.1f}s "
                 f"({result['workers']} worker(s), byte_identical="
                 f"{result['byte_identical']})")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# chart rendering (self-contained HTML/SVG, no external dependencies)
# --------------------------------------------------------------------- #

#: the two plotted measures: key, section title, subtitle, value formatter
CHART_MEASURES = (
    ("slowdown_p50", "Makespan slowdown (p50)",
     "job makespan over its critical-path lower bound — lower is better",
     lambda v: f"{v:.2f}×"),
    ("locality_hit_rate", "Locality hit rate",
     "fraction of schedule units granted on a hinted machine — "
     "higher is better",
     lambda v: f"{100 * v:.0f}%"),
)

_CHART_CSS = """\
  :root { color-scheme: light dark; }
  body {
    margin: 2rem auto; max-width: 64rem; padding: 0 1rem;
    font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
    background: var(--page); color: var(--ink);
  }
  .viz-root {
    --page: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b;
    --ink-2: #52514e; --muted: #898781; --grid: #e1e0d9;
    --baseline: #c3c2b7; --series-1: #2a78d6;
    --border: rgba(11, 11, 11, 0.10);
  }
  @media (prefers-color-scheme: dark) {
    .viz-root {
      --page: #0d0d0d; --surface: #1a1a19; --ink: #ffffff;
      --ink-2: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
      --baseline: #383835; --series-1: #3987e5;
      --border: rgba(255, 255, 255, 0.10);
    }
  }
  h1 { font-size: 1.25rem; margin: 0 0 0.25rem; }
  h2 { font-size: 1rem; margin: 1.75rem 0 0.1rem; }
  .sub { color: var(--ink-2); font-size: 0.8rem; margin: 0 0 0.75rem; }
  .facets { display: flex; flex-wrap: wrap; gap: 1rem; }
  .facet {
    background: var(--surface); border: 1px solid var(--border);
    border-radius: 8px; padding: 0.75rem 0.5rem 0.25rem;
  }
  .facet h3 {
    font-size: 0.8rem; font-weight: 600; margin: 0 0 0.25rem 0.5rem;
    color: var(--ink-2);
  }
  svg text { font-family: inherit; }
  #tip {
    position: fixed; display: none; pointer-events: none; z-index: 10;
    background: var(--surface); color: var(--ink);
    border: 1px solid var(--border); border-radius: 6px;
    box-shadow: 0 2px 8px rgba(0, 0, 0, 0.15);
    padding: 0.4rem 0.6rem; font-size: 0.75rem; line-height: 1.5;
    white-space: pre;
  }
  details { margin-top: 2rem; }
  summary { cursor: pointer; color: var(--ink-2); font-size: 0.85rem; }
  table {
    border-collapse: collapse; font-size: 0.75rem; margin-top: 0.75rem;
  }
  th, td {
    padding: 0.25rem 0.75rem; text-align: right;
    border-bottom: 1px solid var(--grid);
    font-variant-numeric: tabular-nums;
  }
  th:first-child, td:first-child { text-align: left; }
  th { color: var(--ink-2); font-weight: 600; }
"""

_CHART_JS = """\
  var tip = document.getElementById('tip');
  document.querySelectorAll('[data-tip]').forEach(function (el) {
    el.addEventListener('mousemove', function (ev) {
      tip.textContent = el.getAttribute('data-tip');
      tip.style.display = 'block';
      var x = Math.min(ev.clientX + 14,
                       window.innerWidth - tip.offsetWidth - 8);
      tip.style.left = x + 'px';
      tip.style.top = (ev.clientY + 14) + 'px';
    });
    el.addEventListener('mouseleave', function () {
      tip.style.display = 'none';
    });
  });
"""


def _nice_ceiling(value: float) -> float:
    """Round up to a clean axis maximum (1/2/2.5/5 x a power of ten)."""
    if value <= 0:
        return 1.0
    import math
    magnitude = 10.0 ** math.floor(math.log10(value))
    for step in (1.0, 2.0, 2.5, 5.0, 10.0):
        if value <= step * magnitude * (1 + 1e-9):
            return step * magnitude
    return 10.0 * magnitude  # pragma: no cover - loop always returns


def _esc(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _facet_svg(cells: list, measure: str, fmt, x_max: float) -> str:
    """One facet: horizontal slot-1 bars, one per policy, value at tip."""
    gutter, plot_w, right_pad = 82, 200, 50
    pitch, bar_h, top = 24, 14, 8
    width = gutter + plot_w + right_pad
    axis_y = top + pitch * len(cells) + 4
    height = axis_y + 18
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'viewBox="0 0 {width} {height}">']
    # hairline grid at 0 / half / max, solid, one step off the surface
    for frac in (0.0, 0.5, 1.0):
        x = gutter + plot_w * frac
        parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                     f'y2="{axis_y}" stroke="var(--grid)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 13}" '
                     f'text-anchor="middle" font-size="10" '
                     f'fill="var(--muted)">{fmt(x_max * frac)}</text>')
    parts.append(f'<line x1="{gutter}" y1="{top}" x2="{gutter}" '
                 f'y2="{axis_y}" stroke="var(--baseline)" '
                 f'stroke-width="1"/>')
    for i, cell in enumerate(cells):
        y = top + i * pitch + (pitch - bar_h) / 2
        label_y = y + bar_h - 3
        parts.append(f'<text x="{gutter - 8}" y="{label_y}" '
                     f'text-anchor="end" font-size="11" '
                     f'fill="var(--ink-2)">{_esc(cell["policy"])}</text>')
        if not cell.get("ok"):
            parts.append(f'<text x="{gutter + 6}" y="{label_y}" '
                         f'font-size="10" fill="var(--muted)">n/a</text>')
            continue
        value = cell.get(measure, 0.0)
        w = plot_w * (value / x_max if x_max else 0.0)
        r = min(4.0, w / 2)
        # 4px rounded data-end, square at the baseline
        parts.append(
            f'<path d="M{gutter},{y:.1f} h{w - r:.1f} '
            f'a{r:.1f},{r:.1f} 0 0 1 {r:.1f},{r:.1f} '
            f'v{bar_h - 2 * r:.1f} '
            f'a{r:.1f},{r:.1f} 0 0 1 -{r:.1f},{r:.1f} '
            f'h-{w - r:.1f} z" fill="var(--series-1)"/>')
        parts.append(f'<text x="{gutter + w + 6:.1f}" y="{label_y}" '
                     f'font-size="10" fill="var(--ink-2)">'
                     f'{fmt(value)}</text>')
        tip = (f"{cell['policy']} · {cell['workload_mix']} mix · "
               f"{cell['machines']} machines\n"
               f"{fmt(value)}\n"
               f"jobs completed: {cell['jobs_completed']}\n"
               f"units granted: {cell['units_granted']}")
        parts.append(f'<rect x="0" y="{top + i * pitch}" width="{width}" '
                     f'height="{pitch}" fill="transparent" '
                     f'data-tip="{_esc(tip)}"/>')
    parts.append("</svg>")
    return "".join(parts)


def render_chart(doc: dict, mode: str) -> str:
    """The committed grid as one self-contained HTML page."""
    entry = doc["modes"][mode]
    cells = [c for c in entry["cells"] if c.get("ok")]
    facets = {}  # (mix, machines) -> cells in fixed POLICIES order
    for cell in cells:
        facets.setdefault((cell["workload_mix"], cell["machines"]),
                          []).append(cell)
    for group in facets.values():
        group.sort(key=lambda c: POLICIES.index(c["policy"]))
    grid = entry["grid"]
    provenance = (f"seed {grid['seed']} · {len(cells)} cells · "
                  f"kernels: {entry.get('kernel_backend', 'python')}"
                  + (f" (numpy {entry['numpy']})"
                     if entry.get("numpy") else ""))

    sections = []
    for measure, title, subtitle, fmt in CHART_MEASURES:
        x_max = _nice_ceiling(max((c.get(measure, 0.0) for c in cells),
                                  default=1.0))
        blocks = []
        for (mix, machines), group in sorted(facets.items()):
            blocks.append(
                f'<div class="facet"><h3>{_esc(mix)} mix · '
                f'{machines} machines</h3>'
                + _facet_svg(group, measure, fmt, x_max) + "</div>")
        sections.append(f"<h2>{_esc(title)}</h2>"
                        f'<p class="sub">{_esc(subtitle)}</p>'
                        f'<div class="facets">{"".join(blocks)}</div>')

    header = ["policy", "mix", "machines", "slowdown p50", "slowdown p95",
              "locality", "jobs done", "grants", "preemptions"]
    rows = []
    for cell in sorted(cells, key=lambda c: (c["workload_mix"],
                                             c["machines"],
                                             POLICIES.index(c["policy"]))):
        rows.append("<tr>" + "".join(
            f"<td>{_esc(v)}</td>" for v in (
                cell["policy"], cell["workload_mix"], cell["machines"],
                f"{cell['slowdown_p50']:.3f}", f"{cell['slowdown_p95']:.3f}",
                f"{100 * cell['locality_hit_rate']:.1f}%",
                cell["jobs_completed"], cell["grants"],
                cell["preemptions"])) + "</tr>")
    table = ("<details><summary>Table view (all cells)</summary><table>"
             "<tr>" + "".join(f"<th>{h}</th>" for h in header) + "</tr>"
             + "".join(rows) + "</table></details>")

    return (
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
        "<meta charset=\"utf-8\">\n"
        "<meta name=\"viewport\" "
        "content=\"width=device-width, initial-scale=1\">\n"
        "<title>Scheduler arena</title>\n"
        f"<style>\n{_CHART_CSS}</style>\n</head>\n"
        "<body class=\"viz-root\">\n"
        "<h1>Scheduler arena — policy × workload-mix grid</h1>\n"
        f'<p class="sub">{_esc(provenance)}</p>\n'
        + "\n".join(sections) + "\n" + table + "\n"
        '<div id="tip"></div>\n'
        f"<script>\n{_CHART_JS}</script>\n</body>\n</html>\n")


def write_chart(src: str, dst: str) -> int:
    """Render the committed grid in ``src`` to an HTML file at ``dst``."""
    p = pathlib.Path(src)
    if not p.exists():
        print(f"--chart: no recorded grid at {src}", file=sys.stderr)
        return 2
    doc = json.loads(p.read_text(encoding="utf-8"))
    modes = doc.get("modes", {})
    mode = "full" if "full" in modes else next(iter(sorted(modes)), None)
    if mode is None:
        print(f"--chart: {src} has no recorded modes", file=sys.stderr)
        return 2
    pathlib.Path(dst).write_text(render_chart(doc, mode), encoding="utf-8")
    print(f"chart ({mode} grid) written to {dst}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.quick and args.scale:
        print("--quick and --scale are mutually exclusive", file=sys.stderr)
        return 2
    if args.chart and not (args.record or args.check):
        # chart-only invocation: render the committed grid, skip the run
        return write_chart(args.out, args.chart)
    preset = SCALE if args.scale else (QUICK if args.quick else FULL)
    mode = "scale" if args.scale else ("quick" if args.quick else "full")
    result = run_grid(preset, args.seed, args.jobs)
    print(render(result))
    if args.check:
        return check_drift(args.check, mode, result)
    if not result["byte_identical"]:
        print("DETERMINISM REGRESSION: pooled merge differs from serial",
              file=sys.stderr)
        return 3
    if args.record:
        store(args.out, mode, result)
        print(f"recorded modes.{mode} in {args.out}")
    if args.chart:
        code = write_chart(args.out, args.chart)
        if code:
            return code
    return 0 if not result["failed"] else 3


if __name__ == "__main__":
    raise SystemExit(main())
