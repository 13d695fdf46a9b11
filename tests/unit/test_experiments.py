"""Unit tests for the experiment harness and each experiment at tiny scale."""

import pytest

from repro.api import RunSpec, simulate
from repro.experiments import ablations, fig09_scheduling_time, \
    fig10_utilization, scale_instances, table1_production, table2_overheads, \
    table4_graysort
from repro.experiments.ablations import (LocalityAblationConfig,
                                         ProtocolAblationConfig,
                                         ReuseAblationConfig)
from repro.experiments.harness import Comparison, ExperimentReport
from repro.experiments.scale_instances import ScaleConfig
from repro.experiments.table1_production import Table1Config


# ------------------------------ harness ------------------------------ #

def test_comparison_ratio():
    assert Comparison("x", paper=2.0, measured=1.0).ratio == 0.5
    assert Comparison("x", paper=0.0, measured=0.0).ratio == 1.0
    assert Comparison("x", paper=0.0, measured=5.0).ratio == float("inf")


def test_report_render_and_lookup():
    report = ExperimentReport("e1", "demo")
    report.add_comparison("metric", 1.0, 2.0, "s", "shape")
    report.add_table(["a"], [["row"]], title="T")
    report.notes.append("a note")
    text = report.render()
    assert "e1: demo" in text
    assert "metric" in text and "2.00x" in text
    assert "note: a note" in text
    assert report.comparison("metric").measured == 2.0
    with pytest.raises(KeyError):
        report.comparison("missing")


# ------------------------------ runs (tiny) -------------------------- #

TINY = RunSpec(racks=2, machines_per_rack=4, concurrent_jobs=10,
               duration=40.0, seed=5)


@pytest.fixture(scope="module")
def tiny_run():
    return simulate(TINY)


def test_synthetic_runner_completes_jobs(tiny_run):
    assert tiny_run.jobs_completed > 0
    assert len(tiny_run.submitted) >= TINY.concurrent_jobs


def test_fig09_report_shape(tiny_run):
    report = fig09_scheduling_time.run(prior_run=tiny_run)
    assert report.comparison("avg scheduling time").measured > 0
    assert (report.comparison("peak scheduling time").measured
            >= report.comparison("avg scheduling time").measured)
    assert report.series["schedule_ms"]


def test_fig10_report_shape(tiny_run):
    report = fig10_utilization.run(prior_run=tiny_run)
    memory = report.comparison("memory FM_planned").measured
    assert 0 < memory <= 101.0


def test_table2_report_shape(tiny_run):
    report = table2_overheads.run(prior_run=tiny_run)
    assert report.comparison("Job Running Time").measured > 0
    assert report.comparison("Worker Start Overhead").measured > 0


def test_table1_small_scale():
    report = table1_production.run(Table1Config(jobs=2000, seed=3))
    assert 100 <= report.comparison("instances avg/task").measured <= 400
    assert report.comparison("tasks avg/job").measured > 1.5


def test_table4_report():
    report = table4_graysort.run()
    assert report.comparison("ranking preserved").measured == 1.0
    assert 1.0 < report.comparison("Fuxi/Yahoo improvement").measured < 3.0


def test_scale_instances_small():
    report = scale_instances.run(ScaleConfig(instances=5000, workers=500,
                                             machines=100))
    assert report.comparison("instances scheduled").measured == 5000
    assert report.comparison("scheduling wall time").measured < 3.0


def test_protocol_ablation_small():
    report = ablations.protocol_ablation(ProtocolAblationConfig(
        apps=10, units_per_app=8, machines=10))
    assert report.comparison("payload reduction").measured > 1.0


def test_locality_ablation_small():
    report = ablations.locality_ablation(LocalityAblationConfig(
        cluster_sizes=(25, 200), events=50))
    naive = report.comparison("global cost growth over sizes").measured
    assert naive > 1.0


def test_reuse_ablation_small():
    report = ablations.container_reuse_ablation(ReuseAblationConfig(
        machines=5, instances=100))
    assert report.comparison("message ratio yarn/fuxi").measured > 1.0
    assert report.comparison("makespan ratio yarn/fuxi").measured >= 1.0
