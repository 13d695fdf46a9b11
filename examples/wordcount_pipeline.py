#!/usr/bin/env python3
"""A WordCount-shaped DAG job whose placement follows its input's blocks.

The input file lives in the simulated Pangu block store; the job has one
mapper per block, and the cluster simulation decides where and when each
instance runs (locality against the block replicas, container scheduling,
failures).
"""

from repro import ClusterTopology, FuxiCluster, ResourceVector
from repro.workloads.synthetic import mapreduce_job

LOG_LINES = 200   # pretend each 8 lines ≈ one 256 MB block


def main() -> None:
    topology = ClusterTopology.build(
        racks=4, machines_per_rack=8,
        capacity=ResourceVector.of(cpu=400, memory=16 * 1024))
    cluster = FuxiCluster(topology, seed=99)
    cluster.warm_up()

    # 1) the input lives in the block store; its placement drives locality
    input_mb = 256.0 * LOG_LINES / 8
    cluster.blockstore.create_file("pangu://logs", size_mb=input_mb)
    blocks = cluster.blockstore.blocks("pangu://logs")
    machine_hints, rack_hints = cluster.blockstore.locality_hints("pangu://logs")
    print(f"input: {input_mb:.0f} MB across {len(blocks)} blocks on "
          f"{len(machine_hints)} primary machines")

    # 2) the simulated job: one mapper per block, each scanning 256 MB at
    #    64 MB/s; reducers handle the much smaller count stream
    spec = mapreduce_job("logs-wc", mappers=len(blocks), reducers=8,
                         map_duration=4.0, reduce_duration=1.2,
                         input_file="pangu://logs")
    app_id = cluster.submit_job(spec)
    assert cluster.run_until_complete([app_id], timeout=900)
    result = cluster.job_results[app_id]
    print(f"simulated run: success={result.success} "
          f"makespan={result.makespan:.1f}s "
          f"mappers={spec.tasks['map'].instances}")

    # locality scoreboard: how many map instances ran on a replica holder?
    # (the job master fed block replicas in as preferred machines)
    print("scheduling used block locality hints for "
          f"{sum(machine_hints.values())} of "
          f"{spec.tasks['map'].instances} map instances")


if __name__ == "__main__":
    main()
