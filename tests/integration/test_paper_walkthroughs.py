"""Scenario tests that replay the paper's own worked examples.

- Figure 3: the incremental scheduling and communication walkthrough
  (AppMaster1's 10-unit request with M1 hints, AppMaster2's return on M3,
  revocation of App2's larger unit to fit two of App1's smaller ones,
  incremental returns re-granted to waiters).
- Figure 5: the scheduling-tree example (waiting counts at machine, rack
  and cluster scope, decremented by the amount of assigned units).
"""

from repro.core.policy import FuxiPolicy
from repro.core.quota import QuotaGroup
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler
from repro.core.units import ScheduleUnit


class NoPreemption(FuxiPolicy):
    """Fuxi with the §3.4 preemption turned off."""

    enable_preemption = False


def granted(decisions, unit_key=None):
    return sum(g.count for g in decisions
               if g.count > 0 and (unit_key is None or g.unit_key == unit_key))


class TestFigure3:
    """The §3.1 walkthrough, numbered steps as in the paper."""

    def setup_method(self):
        self.scheduler = FuxiScheduler()
        # Three machines; sized so M1/M2/M3 can hold the paper's counts:
        # App1's SU_A = {1 cpu, 2 GB}; App2's SU = {2 cpu, 5 GB}.
        for machine in ("M1", "M2", "M3"):
            self.scheduler.add_machine(
                machine, "R1", ResourceVector.of(cpu=800, memory=2600))
        self.scheduler.register_app("App1")
        self.scheduler.register_app("App2")
        self.su_a = ScheduleUnit("App1", 1,
                                 ResourceVector.of(cpu=100, memory=200),
                                 priority=50)     # higher priority
        self.su_b = ScheduleUnit("App2", 1,
                                 ResourceVector.of(cpu=200, memory=500),
                                 priority=100)
        self.scheduler.define_unit(self.su_a)
        self.scheduler.define_unit(self.su_b)

    def test_walkthrough(self):
        scheduler = self.scheduler
        # Pre-state: App2 holds units across the machines (its earlier run).
        # Fill the cluster with App2's units so App1 finds it busy.
        decisions = scheduler.apply_request_delta(
            RequestDelta.initial(self.su_b.key, 12))
        assert granted(decisions) == 12   # 4 per machine (2600/500 -> 5? no:
        # memory 2600/500 = 5, cpu 800/200 = 4 -> 4 per machine)

        # Step 1: App1 applies for 10 SU_A, "at least 2 on M1 preferred".
        decisions = scheduler.apply_request_delta(RequestDelta.initial(
            self.su_a.key, 10, machine_hints={"M1": 2}))
        # Step 2: free space is 2600-2000=600MB,800-800=0 cpu per machine ->
        # nothing fits; but App1 outranks App2, so priority preemption frees
        # space (the paper's step-4 revocation, here triggered immediately).
        revoked = [g for g in decisions if g.count < 0]
        newly = granted(decisions, self.su_a.key)
        assert revoked, "lower-priority App2 must be revoked to fit App1"
        assert all(g.unit_key == self.su_b.key for g in revoked)
        assert newly > 0
        # One revoked SU_B (2cpu, 5gb) fits TWO SU_A (1cpu, 2gb) — the
        # paper's "owing to its unit size much smaller than AppMaster2,
        # 2 units of request can be fulfilled".
        assert newly >= 2 * sum(-g.count for g in revoked) - 1

        # Step 3/4: App2 returns one unit on M3; the free-up goes to App1's
        # waiting queue, not back to App2.
        outstanding_before = scheduler.demand_of(self.su_a.key).total
        if outstanding_before > 0:
            decisions = scheduler.return_resource(self.su_b.key, "M3", 1)
            assert granted(decisions, self.su_a.key) == 2
            assert scheduler.demand_of(self.su_a.key).total \
                == outstanding_before - 2

        # Steps 5-8: App1 finishes: it zeroes its outstanding demand, then
        # returns everything incrementally; App2 (wanting again) gets the
        # space back.
        remaining_demand = scheduler.demand_of(self.su_a.key).total
        if remaining_demand:
            scheduler.apply_request_delta(
                RequestDelta(self.su_a.key, cluster_delta=-remaining_demand))
        scheduler.apply_request_delta(
            RequestDelta.initial(self.su_b.key, 6))   # App2 wants more again
        regranted = 0
        for machine, count in scheduler.ledger.machines_of(self.su_a.key):
            decisions = scheduler.return_resource(self.su_a.key, machine,
                                                  count)
            regranted += granted(decisions, self.su_b.key)
        assert scheduler.ledger.total_units(self.su_a.key) == 0
        assert regranted > 0   # the returns fed the waiting App2
        scheduler.check_conservation()


class TestFigure5:
    """The scheduling-tree bookkeeping example."""

    def setup_method(self):
        # Rack1 = {M1, M2}, Rack2 = {M3, M4}, tiny machines so everything
        # queues; we only exercise the waiting-count arithmetic.
        self.scheduler = FuxiScheduler(policy=NoPreemption())
        for machine, rack in (("M1", "Rack1"), ("M2", "Rack1"),
                              ("M3", "Rack2"), ("M4", "Rack2")):
            self.scheduler.add_machine(
                machine, rack, ResourceVector.of(cpu=100, memory=100))
        self.scheduler.register_app("App1")
        self.unit = ScheduleUnit("App1", 1,
                                 ResourceVector.of(cpu=100, memory=100),
                                 priority=100)
        self.scheduler.define_unit(self.unit)
        # saturate the cluster with a filler app so App1 queues
        self.scheduler.register_app("filler")
        self.filler = ScheduleUnit("filler", 1,
                                   ResourceVector.of(cpu=100, memory=100),
                                   priority=100)
        self.scheduler.define_unit(self.filler)
        self.scheduler.apply_request_delta(
            RequestDelta.initial(self.filler.key, 4))

    def test_waiting_counts_decrement_with_assignment(self):
        scheduler = self.scheduler
        # App1 waits: 4 on M1, 4 on M2, total 14 (the paper's App1 row).
        scheduler.apply_request_delta(RequestDelta.initial(
            self.unit.key, 14, machine_hints={"M1": 4, "M2": 4}))
        demand = scheduler.demand_of(self.unit.key)
        assert demand.total == 14
        assert demand.machine_hints == {"M1": 4, "M2": 4}
        # "When any of these waiting requests can be satisfied, the
        # resources will be assigned ... and the relevant waiting requests
        # will be decreased by the amount of assigned units."
        decisions = scheduler.return_resource(self.filler.key, "M1", 1)
        assert granted(decisions, self.unit.key) == 1
        demand = scheduler.demand_of(self.unit.key)
        assert demand.total == 13
        assert demand.machine_hints["M1"] == 3        # M1 hint decremented
        assert demand.machine_hints["M2"] == 4        # M2 hint untouched
        # a free-up on an unhinted machine serves the cluster-level count
        decisions = scheduler.return_resource(self.filler.key, "M3", 1)
        assert granted(decisions, self.unit.key) == 1
        demand = scheduler.demand_of(self.unit.key)
        assert demand.total == 12
        assert demand.machine_hints == {"M1": 3, "M2": 4}

    def test_machine_waiter_precedes_cluster_waiter_on_that_machine(self):
        scheduler = self.scheduler
        scheduler.register_app("App5")
        app5 = ScheduleUnit("App5", 1,
                            ResourceVector.of(cpu=100, memory=100),
                            priority=100)
        scheduler.define_unit(app5)
        # App5 waits cluster-wide (the paper's App5: P4, 9 — same priority
        # class here), submitted BEFORE App1's machine-hinted request.
        scheduler.apply_request_delta(RequestDelta.initial(app5.key, 9))
        scheduler.apply_request_delta(RequestDelta.initial(
            self.unit.key, 4, machine_hints={"M1": 4}))
        # a free-up on M1 serves the machine-level waiter first even though
        # the cluster-level waiter queued earlier
        decisions = scheduler.return_resource(self.filler.key, "M1", 1)
        assert granted(decisions, self.unit.key) == 1
        assert granted(decisions, app5.key) == 0
