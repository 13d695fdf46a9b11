"""Discrete-event simulation kernel.

The kernel is deliberately small: a heap-based :class:`~repro.sim.events.EventLoop`
with a simulated clock, and an :class:`~repro.sim.actor.Actor` base class that
gives every simulated component (FuxiMaster, FuxiAgent, job masters, workers)
a mailbox and timer helpers.

Everything in the repository that "runs" — schedulers, failovers, fault
injection, GraySort — executes on this kernel, so a single seed makes every
experiment deterministic.
"""

from repro.sim.events import Event, EventLoop
from repro.sim.actor import Actor
from repro.sim.rng import SplitRandom

__all__ = ["Event", "EventLoop", "Actor", "SplitRandom"]
