"""Ablation D: offer-based (Mesos) vs request-based (Fuxi) allocation.

§1's criticism: "Mesos master offers free resources in turn among
frameworks, the waiting time for each framework to acquire desired
resources highly depends upon the resource offering order and other
frameworks' scheduling efficiency."  We measure time-to-full-allocation for
the *last-served* tenant as tenant count grows: offer rounds serialize
tenants, the request-based scheduler serves everyone in one pass.
"""

from repro.core.policy import create_policy
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler
from repro.core.units import ScheduleUnit
from repro.experiments.harness import ExperimentReport

SLOT = ResourceVector.of(cpu=100, memory=2048)
# fewer nodes than tenants: each offer round can serve at most MACHINES
# frameworks, which is exactly the §1 serialization
MACHINES = 2
SLOTS_PER_MACHINE = 24
DEMAND = 8   # per tenant


def rounds_to_last_tenant(policy: str, tenants: int) -> int:
    """Rounds until the last tenant receives its first grant.

    Round 1 is the pass in which every tenant sends its request, followed
    by one machine event per node; each later round is one more machine
    event per node.  ``mesos`` grants only on those events, and an
    exclusive offer serves one tenant per node; ``fuxi`` places each
    request the moment it arrives.
    """
    scheduler = FuxiScheduler(policy=create_policy(policy))
    machines = [f"m{i}" for i in range(MACHINES)]
    for machine in machines:
        scheduler.add_machine(machine, "r0", SLOT * SLOTS_PER_MACHINE)
    grants = []
    for i in range(tenants):
        app = f"f{i}"
        scheduler.register_app(app)
        unit = ScheduleUnit(app, 1, SLOT)
        scheduler.define_unit(unit)
        grants.extend(scheduler.apply_request_delta(
            RequestDelta.initial(unit.key, DEMAND)))
    served = set()
    # every round serves at least one tenant, or none ever will
    for round_index in range(1, tenants + 1):
        for machine in machines:
            grants.extend(scheduler.machine_event(machine))
        served.update(g.unit_key.app_id for g in grants)
        if len(served) == tenants:
            return round_index
        grants = []
    raise AssertionError(f"{policy}: {tenants - len(served)} tenants "
                         f"never served")


def _experiment():
    report = ExperimentReport(
        exp_id="ablation-offers",
        title="Offer-based (Mesos) vs request-based (Fuxi) allocation latency")
    rows = []
    for tenants in (1, 2, 4, 6):
        mesos = rounds_to_last_tenant("mesos", tenants)
        fuxi = rounds_to_last_tenant("fuxi", tenants)
        rows.append([tenants, mesos, fuxi])
    report.add_table(
        ["tenants", "mesos rounds to last allocation",
         "fuxi passes to last allocation"], rows)
    report.add_comparison("mesos rounds at 6 tenants", 1.0,
                          float(mesos), "rounds",
                          "grows with tenant count")
    report.add_comparison("fuxi passes at 6 tenants", 1.0,
                          float(fuxi), "passes",
                          "independent of tenant count")
    return report


def test_ablation_offer_vs_request(benchmark, publish):
    report = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    publish(report)
    assert report.comparison("fuxi passes at 6 tenants").measured == 1.0
    assert report.comparison("mesos rounds at 6 tenants").measured > 1.0
