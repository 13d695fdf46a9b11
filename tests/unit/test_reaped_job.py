"""A reaped job is freed by reference counting alone (paper §4.3 keeps
per-job state only while the job lives).

``reap_job`` disposes the finished application master; ``Actor.dispose``
promises that nothing of the job then needs a cyclic-GC pass to be freed.
The benchmark's timed window runs with automatic collection disabled, so a
job graph that only the cyclic collector could reclaim stays in memory for
the rest of the run.
"""

import gc
import weakref

from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def test_reap_frees_the_job_master_and_its_task_masters():
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "reaped", mappers=6, reducers=2, map_duration=2.0,
        reduce_duration=1.0, workers_per_task=4))
    cluster.run_until_complete([app], timeout=120)
    assert cluster.job_results[app].success
    master = cluster.app_masters[app]
    master_ref = weakref.ref(master)
    task_ref = weakref.ref(master.task_masters["map"])
    del master
    gc.collect()
    gc.disable()
    try:
        cluster.reap_job(app)
        assert master_ref() is None
        assert task_ref() is None
    finally:
        gc.enable()
    assert app in cluster.job_results
    assert app not in cluster.app_masters
