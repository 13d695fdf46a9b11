"""Heartbeat cohorts: agents that beat in the same instant share one timer.

Every FuxiAgent beats every ``heartbeat_interval`` seconds from the moment
it was (re)started.  All agents of a cluster are started in the same
instant, so their timers fire back to back — adjacent in the loop's
``(time, seq)`` order, with nothing between them — and each firing does the
same thing: snapshot four fields, draw one edge delay, schedule one
delivery.  A :class:`HeartbeatCohort` is that group made explicit: one
loop event that, in arming order, snapshots every member into columns
(:class:`HeartbeatBatch`) and hands the bus the whole batch
(:meth:`repro.cluster.network.MessageBus.send_run`).  Firing the members
in one callback performs the same reads and writes in the same order as
firing them in consecutive events; DESIGN.md ("The heartbeat plane") has
the full argument and the fall-backs.

Membership follows the timer it replaces: :meth:`HeartbeatCohort.join`
where the agent armed its periodic timer, :meth:`HeartbeatCohort.leave`
where ``cancel_all_timers`` cancelled it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.core import messages as msg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import FuxiAgent


class HeartbeatBatch:
    """The beats of one cohort firing, as columns in member order.

    The per-firing columns are value snapshots taken at send time — a beat
    is in flight for a network delay, during which the agent's books may
    move.  ``samples`` holds references: a ``MachineState`` sample is
    replaced, never mutated.  The per-roster columns (``agents``,
    ``machines``) are never modified once built; a membership change
    builds new ones.
    """

    __slots__ = ("agents", "machines", "capacities", "samples", "versions",
                 "digests", "payload_bytes")

    def __init__(self, roster: "_Roster"):
        agents = self.agents = roster.agents
        self.machines = roster.machines
        states = roster.states
        # "can be changed at any time" (§3.2.1): read per firing
        self.capacities = [state.spec.capacity for state in states]
        samples = self.samples = [state.health_sample() for state in states]
        self.versions = [agent._book_version for agent in agents]
        self.digests = [agent._book_digest for agent in agents]
        #: ``AgentHeartbeat.payload_bytes()`` of each beat
        entry = msg.AgentHeartbeat.SAMPLE_ENTRY_BYTES
        self.payload_bytes = [fixed + entry * len(sample) for fixed, sample
                              in zip(roster.fixed_bytes, samples)]

    def message(self, position: int) -> msg.AgentHeartbeat:
        """The beat of member ``position`` as the message a single
        ``FuxiAgent._send_heartbeat`` would have sent at the firing."""
        agent = self.agents[position]
        return msg.AgentHeartbeat(
            machine=agent.machine, rack=agent.rack,
            capacity=self.capacities[position],
            health_sample=self.samples[position],
            book_version=self.versions[position],
            book_digest=self.digests[position])

    def absorb(self, actor: Any, order: List[int], times: List[float],
               start: int, end: int) -> int:
        """Offer the arrivals ``order[start:end]`` to the destination's
        roll-up (``absorb_heartbeats``).  A destination without one folds
        nothing, so every beat reaches it as a message — and so does one
        whose ``deliver`` was replaced on the instance: whoever intercepts
        deliveries (a test eating beats) must see every beat."""
        fold = getattr(actor, "absorb_heartbeats", None)
        if fold is None or "deliver" in actor.__dict__:
            return start
        return fold(self, order, times, start, end)


class _Roster:
    """What a cohort derives from its member list, rebuilt when it changes."""

    __slots__ = ("agents", "machines", "states", "fixed_bytes", "group")

    def __init__(self, agents: List["FuxiAgent"], bus: Any, dest: str):
        self.agents = agents
        self.machines = [agent.machine for agent in agents]
        self.states = [agent.machine_state for agent in agents]
        #: a beat's payload_bytes() without its health sample's share
        self.fixed_bytes = [msg.AgentHeartbeat.HEADER_BYTES
                            + len(agent.machine) + len(agent.rack)
                            for agent in agents]
        self.group = bus.edge_group([agent.name for agent in agents], dest)


class HeartbeatCohort:
    """Agents armed in the same instant, with the same interval and
    destination: one periodic loop event instead of one per agent."""

    __slots__ = ("loop", "bus", "dest", "interval", "fires_at", "members",
                 "_opened_in_step", "_event", "_roster")

    def __init__(self, loop: Any, bus: Any, dest: str, interval: float):
        self.loop = loop
        self.bus = bus
        self.dest = dest
        self.interval = interval
        self.fires_at = loop.now + interval
        #: in arming order; replaced, not mutated, when a member leaves (a
        #: batch in flight keeps the list it was fired with)
        self.members: List["FuxiAgent"] = []
        self._opened_in_step = loop.events_executed
        self._event = loop.call_at(self.fires_at, self, recycle=True)
        self._roster: Optional[_Roster] = None

    @classmethod
    def join(cls, agent: "FuxiAgent") -> "HeartbeatCohort":
        """Arm ``agent``'s periodic beat; returns the cohort it now is in.

        It joins the cohort opened last on its bus if that one fires when
        the agent's own timer would, to the same destination, and no loop
        step has run since it was opened — after one, an event scheduled
        for the same instant could have taken a sequence number between
        the cohort's and the agent's, and a shared event would fire the
        agent on the wrong side of it.  Otherwise the agent opens a cohort.
        """
        loop, bus = agent.loop, agent.bus
        interval = agent.config.heartbeat_interval
        dest = agent.config.master_address
        cohort = bus.open_cohort
        if (cohort is None
                or cohort._opened_in_step != loop.events_executed
                or cohort.fires_at != loop.now + interval
                or cohort.interval != interval or cohort.dest != dest):
            cohort = bus.open_cohort = cls(loop, bus, dest, interval)
        cohort.members.append(agent)
        cohort._roster = None
        return cohort

    def leave(self, agent: "FuxiAgent") -> None:
        """``agent``'s beat timer is cancelled (crash, dispose)."""
        self.members = [member for member in self.members
                        if member is not agent]
        self._roster = None
        if not self.members:
            if self._event is not None:
                self._event.cancel()
                self._event = None
            if self.bus.open_cohort is self:
                self.bus.open_cohort = None

    def __call__(self) -> None:
        """Fire every member, in arming order, and re-arm."""
        loop, bus = self.loop, self.bus
        members = self.members
        # this loop step stands for len(members) timer events
        loop.events_absorbed += len(members) - 1
        config = bus.config
        if config.duplicate_prob or config.reorder_prob:
            # a duplicated beat is two deliveries and a reordered one draws
            # more slots: the batch transport models neither
            for agent in members:
                agent._send_heartbeat()
        else:
            roster = self._roster
            if roster is None:
                roster = self._roster = _Roster(members, bus, self.dest)
            bus.send_run(roster.group, HeartbeatBatch(roster))
        self.fires_at = loop.now + self.interval
        # recycle=True: the handle is replaced here, inside the firing
        self._event = loop.call_at(self.fires_at, self, recycle=True)
