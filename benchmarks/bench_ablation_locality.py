"""Ablation B: locality-tree scheduling vs global recompute.

The §3.1/§3.3 design claim: reacting to one machine's free-up by consulting
only that machine's queue path keeps per-event cost ~independent of cluster
size, unlike the ``hadoop10`` policy's global pass over every machine.
"""

from repro.experiments import ablations
from repro.experiments.ablations import LocalityAblationConfig

CONFIG = LocalityAblationConfig(cluster_sizes=(50, 100, 200, 400))


def test_ablation_locality_tree(benchmark, publish):
    report = benchmark.pedantic(ablations.locality_ablation, args=(CONFIG,),
                                rounds=1, iterations=1)
    publish(report)
    fuxi_growth = report.comparison("fuxi cost growth over sizes").measured
    naive_growth = report.comparison("global cost growth over sizes").measured
    size_growth = CONFIG.cluster_sizes[-1] / CONFIG.cluster_sizes[0]
    # fuxi's per-event cost grows far slower than the cluster does; the
    # global pass visits every machine, so its cost grows with the cluster
    assert fuxi_growth < size_growth
    assert naive_growth > 2 * fuxi_growth
