"""Figure 9: FuxiMaster scheduling time under 1,000 concurrent jobs.

Paper: "the request scheduling time begins to rise as the experiment starts
and the average value is merely 0.88 ms in spite of a slight fluctuation ...
even the peak time consumption for scheduling is no more than 3 ms."

We time the synchronous scheduling core (``FuxiScheduler`` call wall-clock,
measured inside the FuxiMaster actor) per request during the closed-loop
synthetic run.  The shape claims checked: sub-millisecond average, bounded
peak, and no upward drift as the run progresses.
"""

from __future__ import annotations

from typing import Optional

from repro.api import RunResult, RunSpec, simulate
from repro.experiments.harness import ExperimentReport

PAPER_AVG_MS = 0.88
PAPER_PEAK_MS = 3.0


def run(config: Optional[RunSpec] = None,
        prior_run: Optional[RunResult] = None) -> ExperimentReport:
    """Run the Figure 9 experiment; returns an ExperimentReport."""
    if prior_run is None and config is None:
        # Standalone runs trace by default: Figure 9 is about scheduling
        # decisions, and the trace records each one's locality level.
        config = RunSpec(trace=True)
    result = prior_run or simulate(config)
    series = result.metrics.series("fm.schedule_ms")
    report = ExperimentReport(
        exp_id="fig09",
        title="FuxiMaster per-request scheduling time (1,000 concurrent jobs)")
    avg_ms = series.mean()
    peak_ms = series.max()
    p99_ms = series.percentile(99)
    report.add_comparison("avg scheduling time", PAPER_AVG_MS, avg_ms, "ms",
                          "sub-millisecond")
    report.add_comparison("peak scheduling time", PAPER_PEAK_MS, peak_ms, "ms",
                          "bounded, few ms")
    report.add_comparison("p99 scheduling time", PAPER_PEAK_MS, p99_ms, "ms",
                          "under the peak")
    drift = _drift(series)
    report.add_comparison("first-half vs second-half avg", 1.0, drift, "x",
                          "no upward drift")
    report.add_table(
        ["time (s)", "avg scheduling ms"],
        [(f"{t:.0f}", f"{v:.4f}") for t, v in series.resample(20.0)],
        title="scheduling time over the run (20 s buckets)")
    report.series["schedule_ms"] = series.resample(20.0)
    report.tracer = result.cluster.tracer
    report.notes.append(
        f"{len(series)} requests over {result.jobs_completed} completed jobs; "
        "absolute times are Python-on-laptop, the paper's are C++ on a "
        "production master — the shape (sub-ms, flat) is the claim.")
    return report


def _drift(series) -> float:
    values = series.values()
    if len(values) < 4:
        return 1.0
    half = len(values) // 2
    first = sum(values[:half]) / half
    second = sum(values[half:]) / (len(values) - half)
    return second / first if first > 0 else 1.0
