"""What a machine no longer holds, and that nothing it shares can move.

Machines with equal health-sample inputs share one sample dict through
their topology; agents and actors hold a shared read-only empty mapping
instead of empty dicts until their first write.  Each saving must leave
behaviour exactly where it was: a fault still reaches the master's
roll-up, ``add_plugin`` still re-scores, and the books, worker tables and
timers still work through a grant, a launch, a crash and restart, and a
dispose.
"""

from repro.cluster.machine import MachineSpec
from repro.cluster.topology import ClusterTopology
from repro.core.health import HealthPlugin
from repro.core.resources import ResourceVector
from repro.sim.actor import EMPTY
from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def expected_sample(key):
    disk_errors, net_errors, load1, cores = key
    return {"disk_errors": disk_errors,
            "disk_util": min(load1 / max(cores, 1), 1.0),
            "load1": load1, "cores": float(cores),
            "net_errors": net_errors}


def test_machines_with_equal_inputs_share_one_sample():
    topology = ClusterTopology.build(2, 3)
    samples = [state.health_sample() for state in topology.states()]
    assert all(sample is samples[0] for sample in samples)
    assert list(topology.samples.values()) == [samples[0]]
    # a second topology shares nothing with the first
    other = ClusterTopology.build(1, 1)
    assert next(other.states()).health_sample() is not samples[0]


def test_a_machine_of_another_shape_gets_its_own_sample():
    topology = ClusterTopology.build(1, 2)
    topology.add_machine(MachineSpec("odd", "rack00",
                                     ResourceVector.of(cpu=100), cores=2))
    testbed = topology.state("r00m000").health_sample()
    odd = topology.state("odd").health_sample()
    assert odd is not testbed and odd["cores"] == 2.0
    assert len(topology.samples) == 2


def test_a_fault_replaces_only_its_machines_sample_and_the_roll_up_sees_it():
    cluster = make_cluster(racks=2, machines_per_rack=3)
    topology = cluster.topology
    shared = topology.state("r00m000").health_sample()
    victim, bystander = "r00m001", "r01m002"
    health = cluster.primary_master.health
    assert health.folded[victim] is shared
    healthy = health.score(victim)

    cluster.faults.slow_machine(victim)           # load1 = 2 x cores
    slowed = topology.state(victim).health_sample()
    assert slowed is not shared and slowed["load1"] > 0
    assert topology.state(bystander).health_sample() is shared
    assert shared["load1"] == 0.0                 # not written through
    cluster.run_for(2.0)
    assert health.folded[victim] is slowed
    assert health.score(victim) < healthy
    assert health.folded[bystander] is shared

    cluster.faults.partial_worker_failure(bystander)   # disk_errors = 10
    failing = topology.state(bystander).health_sample()
    assert failing is not shared and failing["disk_errors"] == 10.0
    cluster.run_for(2.0)
    assert health.folded[bystander] is failing
    assert health.score(bystander) < healthy

    # back to the shared inputs: back to the shared sample, and the
    # master's fold follows
    cluster.restart_machine(victim)
    assert topology.state(victim).health_sample() is shared
    cluster.run_for(2.0)
    assert health.folded[victim] is shared
    assert health.score(victim) == healthy


def test_add_plugin_re_scores_a_shared_sample():
    class Failing(HealthPlugin):
        name = "failing"

        def evaluate(self, sample):
            return 0.0

    cluster = make_cluster(racks=1, machines_per_rack=3)
    health = cluster.primary_master.health
    before = {machine: health.score(machine) for machine in cluster.agents}
    health.add_plugin(Failing())
    cluster.run_for(2.0)
    for machine in cluster.agents:
        assert health.score(machine) < before[machine], machine


def test_no_shared_sample_is_ever_written():
    """Run faults that move every sample input, then check each sample the
    topology shares still holds exactly what its inputs give."""
    cluster = make_cluster(racks=2, machines_per_rack=3)
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=6, reducers=1, map_duration=2.0, reduce_duration=1.0))
    cluster.faults.slow_machine("r00m000")
    cluster.faults.partial_worker_failure("r01m001")
    cluster.run_for(3.0)
    cluster.restart_machine("r00m000")
    cluster.restart_machine("r01m001")
    assert cluster.run_until_complete([app], timeout=300)
    samples = cluster.topology.samples
    assert len(samples) >= 3
    for key, sample in samples.items():
        assert sample == expected_sample(key), key
    for state in cluster.topology.states():
        key = (state.disk_errors, state.net_errors, state.load1,
               state.spec.cores)
        assert state.health_sample() is samples[key]


def test_lazy_tables_through_grant_launch_crash_restart_and_dispose():
    cluster = make_cluster(racks=1, machines_per_rack=2)
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=8, reducers=1, map_duration=20.0, reduce_duration=1.0,
        workers_per_task=4))
    cluster.run_for(5.0)
    busy = [agent for agent in cluster.agents.values() if agent.workers]
    assert busy
    agent = busy[0]
    master = cluster.primary_master
    assert type(agent.allocations) is dict and agent.allocations
    assert agent.allocation_books() == master.alloc_view(agent.machine)
    books, plans = dict(agent.allocations), set(agent.workers)

    agent.crash()
    assert agent.allocations is EMPTY and agent.workers is EMPTY
    assert agent._unit_workers is EMPTY
    agent.restart()
    assert set(agent.workers) == plans        # adopted again
    cluster.run_for(3.0)
    assert agent.allocations == books
    assert agent.allocation_books() == master.alloc_view(agent.machine)
    assert cluster.run_until_complete([app], timeout=300)
    for each in cluster.agents.values():
        assert each.allocation_books() == master.alloc_view(each.machine)

    # dispose: a never-armed actor and one with live timers
    idle = make_cluster(racks=1, machines_per_rack=1).agents["r00m000"]
    idle.dispose()
    assert idle._timers is EMPTY and not idle.alive
    assert master._timers                     # renew, liveness, retransmit
    master.dispose()
    assert master._timers == {} and master._periodic == {}
