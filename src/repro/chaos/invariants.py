"""Cluster-wide invariants for chaos runs.

Two flavours:

- **step invariants** (:func:`default_invariants`) are cheap enough to run
  on sampled event-loop steps.  They look only at the *current primary's*
  soft state and go silent while no primary exists.  The scheduler-book
  checks stay armed even inside the recovery window: the rebuild path is
  required to keep pool, ledger and quota mutually consistent after every
  callback, and mid-recovery is exactly where a buggy rebuild would hide;
- **final invariants** (:meth:`InvariantChecker.check_final`) run once the
  workload has drained and the network is quiet again: the master's
  allocation view must agree with every live agent's hard-state books
  (delta-protocol consistency), and the scheduler ledger must be empty.

Checkers return human-readable problem strings; the
:class:`InvariantChecker` wraps them into :class:`Violation` records
stamped with the simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set


@dataclass(frozen=True)
class Violation:
    """One invariant breach, stamped with simulated time."""

    invariant: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] t={self.time:.3f}: {self.detail}"

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "time": self.time,
                "detail": self.detail}


def _primary_scheduler(cluster):
    """The primary's scheduler, or None while no primary exists.

    Deliberately *not* gated on the recovery window: the rebuild path
    (``restore_allocation``) is designed to keep pool, ledger and quota
    mutually consistent after every event-loop callback, so the book
    invariants must hold even mid-recovery — that is precisely where a
    buggy rebuild would hide.
    """
    primary = cluster.primary_master
    if primary is None or primary.scheduler is None:
        return None
    return primary.scheduler


class Invariant:
    """Base class: ``check`` returns problem strings (empty = healthy)."""

    name = "invariant"

    def check(self, cluster) -> List[str]:  # pragma: no cover - interface
        raise NotImplementedError

    def reset(self) -> None:
        """Forget cross-step state (stateful invariants override)."""


class ResourceConservation(Invariant):
    """free + allocated == capacity on every machine; never overcommitted."""

    name = "resource-conservation"

    def check(self, cluster) -> List[str]:
        scheduler = _primary_scheduler(cluster)
        if scheduler is None:
            return []
        return scheduler.conservation_violations()


class NoDoubleGrant(Invariant):
    """No ScheduleUnit ever holds more grants than its max_count."""

    name = "no-double-grant"

    def check(self, cluster) -> List[str]:
        scheduler = _primary_scheduler(cluster)
        if scheduler is None:
            return []
        return scheduler.overgrant_violations()


class QuotaLedgerConsistency(Invariant):
    """Per-group quota usage equals the sum of ledger grants."""

    name = "quota-ledger-consistency"

    def check(self, cluster) -> List[str]:
        scheduler = _primary_scheduler(cluster)
        if scheduler is None:
            return []
        return scheduler.quota_violations()


class WaitingShapeCensus(Invariant):
    """The scheduler's waiting-shape census equals the shapes recomputed
    from its demand books (a missing shape would let machine events skip
    demands they could serve)."""

    name = "waiting-shape-census"

    def check(self, cluster) -> List[str]:
        scheduler = _primary_scheduler(cluster)
        if scheduler is None:
            return []
        return scheduler.census_violations()


class SinglePrimary(Invariant):
    """At most one live FuxiMaster believes it is primary (lock lease)."""

    name = "single-primary"

    def check(self, cluster) -> List[str]:
        primaries = [m.name for m in cluster.masters
                     if m.alive and m.is_primary]
        if len(primaries) > 1:
            return [f"multiple primaries: {sorted(primaries)}"]
        return []


class BlacklistMonotonic(Invariant):
    """Escalated (cluster-disabled) machines never silently come back.

    The paper's blacklist escalates machines to cluster level and persists
    that decision in the master's hard state; a failover must not forget
    it.  Stateful: remembers every machine ever seen disabled by a primary
    and flags any later primary view that dropped one.
    """

    name = "blacklist-monotonic"

    def __init__(self) -> None:
        self._seen: Set[str] = set()

    def check(self, cluster) -> List[str]:
        primary = cluster.primary_master
        if primary is None or primary.recovering:
            return []
        current = set(primary.blacklist.disabled_machines())
        lost = self._seen - current
        self._seen |= current
        if lost:
            return ["cluster blacklist shrank: machines re-enabled "
                    f"{sorted(lost)}"]
        return []


class AgentBooksSane(Invariant):
    """Agent hard-state allocation books never record non-positive counts."""

    name = "agent-books-sane"

    def check(self, cluster) -> List[str]:
        problems = []
        for machine in sorted(cluster.agents):
            agent = cluster.agents[machine]
            if not agent.alive:
                continue
            for key, count in sorted(agent.allocation_books().items()):
                if count <= 0:
                    problems.append(
                        f"agent {machine} books {key!r} with count {count}")
        return problems


def default_invariants() -> List[Invariant]:
    """Fresh instances of every step invariant (stateful ones included)."""
    return [
        ResourceConservation(),
        NoDoubleGrant(),
        QuotaLedgerConsistency(),
        WaitingShapeCensus(),
        SinglePrimary(),
        BlacklistMonotonic(),
        AgentBooksSane(),
    ]


class InvariantChecker:
    """Evaluates invariants against a cluster and accumulates violations."""

    def __init__(self, invariants: Optional[Sequence[Invariant]] = None):
        self.invariants: List[Invariant] = (
            list(invariants) if invariants is not None
            else default_invariants())
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------ #
    # step checks (called from the event-loop hook)
    # ------------------------------------------------------------------ #

    def check_step(self, cluster) -> List[Violation]:
        """Run every step invariant; returns (and records) new violations."""
        fresh: List[Violation] = []
        now = cluster.loop.now
        for invariant in self.invariants:
            for detail in invariant.check(cluster):
                fresh.append(Violation(invariant.name, now, detail))
        self.violations.extend(fresh)
        return fresh

    # ------------------------------------------------------------------ #
    # final checks (after the workload drained and faults healed)
    # ------------------------------------------------------------------ #

    def check_final(self, cluster, app_ids: Sequence[str],
                    completed: Optional[Dict[str, object]] = None,
                    ) -> List[Violation]:
        """End-of-run checks: termination, drained books, view agreement."""
        fresh: List[Violation] = []
        now = cluster.loop.now
        results = completed if completed is not None else cluster.job_results
        missing = [app for app in app_ids if app not in results]
        if missing:
            fresh.append(Violation(
                "eventual-termination", now,
                f"jobs never finished: {sorted(missing)}"))

        primary = cluster.primary_master
        if primary is None or primary.scheduler is None:
            fresh.append(Violation(
                "single-primary", now,
                "no primary FuxiMaster after the run settled"))
        else:
            scheduler = primary.scheduler
            for detail in (scheduler.conservation_violations()
                           + scheduler.overgrant_violations()
                           + scheduler.quota_violations()
                           + scheduler.census_violations()):
                fresh.append(Violation("final-books", now, detail))
            leftovers = [
                f"{count}x {key!r} on {machine}"
                for key, machine, count in sorted(scheduler.ledger.entries())
                if count
            ]
            if leftovers:
                fresh.append(Violation(
                    "ledger-drained", now,
                    f"grants survived job completion: {leftovers}"))
            fresh.extend(self._view_agreement(cluster, primary, now))

        self.violations.extend(fresh)
        return fresh

    @staticmethod
    def _view_agreement(cluster, primary, now: float) -> List[Violation]:
        """Master soft state vs agent hard state (delta protocol, §3.1)."""
        fresh: List[Violation] = []
        for machine in sorted(cluster.agents):
            agent = cluster.agents[machine]
            if not agent.alive or cluster.topology.state(machine).down:
                continue
            master_view = {k: v for k, v in
                           primary.alloc_view(machine).items() if v}
            agent_view = {k: v for k, v in
                          agent.allocation_books().items() if v}
            if master_view != agent_view:
                fresh.append(Violation(
                    "master-agent-consistency", now,
                    f"on {machine}: master sees {master_view!r}, "
                    f"agent books {agent_view!r}"))
        return fresh
