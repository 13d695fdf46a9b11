"""Actor base class: named components with mailboxes and timers.

Every long-lived simulated component (FuxiMaster, FuxiAgent, application
masters, job/task masters, workers) is an Actor.  Actors communicate only
through a message bus (see :mod:`repro.cluster.network`), which models
latency and — when asked to — duplication and reordering.  An actor that has
crashed silently drops incoming messages; that is exactly how the real
failures the paper handles look to peers.
"""

from __future__ import annotations

from sys import intern as _intern
from typing import Any, Callable, Dict, Optional

from repro.sim.events import Event, EventLoop


class _PeriodicChain:
    """Re-arming callback for one periodic-timer registration.

    A plain object rather than a self-referential closure: a closure that
    re-schedules itself stays alive through its own cell — a cycle only the
    cyclic GC can reclaim.  One such cycle per timer of every finished
    actor made dead job graphs un-freeable by reference counting and grew
    the gen-2 collection pause that paper-scale p100 latency measured.
    This object participates only in cycles that run through the actor's
    ``_timers`` dict, which :meth:`Actor.cancel_all_timers` breaks.
    """

    __slots__ = ("owner", "key", "callback")

    def __init__(self, owner: "Actor", key: str,
                 callback: Callable[[], None]):
        self.owner = owner
        self.key = key
        self.callback = callback

    def __call__(self) -> None:
        owner = self.owner
        timers = owner._timers
        key = self.key
        timers.pop(key, None)
        self.callback()
        interval = owner._periodic.get(key)
        # ``key not in timers``: the callback may have re-registered the
        # timer (new chain, possibly new interval) — that chain wins.
        if interval is not None and owner.alive and key not in timers:
            timers[key] = owner.loop.call_after(interval, self, recycle=True)


class Actor:
    """A simulated component with an address, a mailbox, and timers."""

    def __init__(self, loop: EventLoop, name: str, bus: Optional["MessageBusLike"] = None):
        self.loop = loop
        # Interned: actor names are compared and hashed on every send and
        # timer tick; interning makes those pointer comparisons.
        self.name = _intern(name)
        self.bus = bus
        self.alive = True
        self._timers: Dict[str, Event] = {}
        self._periodic: Dict[str, float] = {}
        self._incarnation = 0
        if bus is not None:
            bus.register(self)

    # ------------------------------------------------------------------ #
    # messaging
    # ------------------------------------------------------------------ #

    def send(self, dest: str, message: Any) -> None:
        """Send ``message`` to the actor registered under ``dest``."""
        if self.bus is None:
            raise RuntimeError(f"actor {self.name!r} has no message bus")
        if not self.alive:
            return
        self.bus.send(self.name, dest, message)

    def deliver(self, sender: str, message: Any) -> None:
        """Called by the bus when a message arrives.  Dead actors drop it."""
        if not self.alive:
            return
        self.handle_message(sender, message)

    def handle_message(self, sender: str, message: Any) -> None:
        """Override in subclasses."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # timers
    # ------------------------------------------------------------------ #

    def set_timer(self, key: str, delay: float, callback: Callable[[], None]) -> None:
        """(Re)arm a named one-shot timer.  Re-arming cancels the previous one."""
        self._periodic.pop(key, None)
        self._arm(key, delay, callback)

    def _arm(self, key: str, delay: float, callback: Callable[[], None]) -> None:
        event = self._timers.pop(key, None)
        if event is not None:
            event.cancel()
        incarnation = self._incarnation

        def fire() -> None:
            if not self.alive or incarnation != self._incarnation:
                return
            self._timers.pop(key, None)
            callback()

        self._timers[key] = self.loop.call_after(delay, fire)

    def set_periodic_timer(self, key: str, interval: float,
                           callback: Callable[[], None]) -> None:
        """Arm a named timer that re-fires every ``interval`` seconds.

        The handler (or anyone else) can stop the cycle with
        :meth:`cancel_timer`; crashing the actor stops it too.

        Periodic timers ride the event loop's Event freelist: one
        :class:`_PeriodicChain` is created here and reused for every
        period, and the Event handle is recycled after each firing.  That
        is safe because the chain drops its own handle from ``_timers``
        before the loop recycles it, so cancellation never touches a
        reused Event.
        """
        self._periodic[key] = interval
        previous = self._timers.pop(key, None)
        if previous is not None:
            previous.cancel()
        self._timers[key] = self.loop.call_after(
            interval, _PeriodicChain(self, key, callback), recycle=True)

    def cancel_timer(self, key: str) -> None:
        self._periodic.pop(key, None)
        event = self._timers.pop(key, None)
        if event is not None:
            event.cancel()

    def cancel_all_timers(self) -> None:
        for event in self._timers.values():
            event.cancel()
        self._timers.clear()
        self._periodic.clear()

    # ------------------------------------------------------------------ #
    # crash / restart (used by the fault injector)
    # ------------------------------------------------------------------ #

    def dispose(self) -> None:
        """Tear down a *finished* actor so refcounting alone reclaims it.

        Unlike :meth:`crash` this is permanent (no restart): timers are
        cancelled, and subclasses break their internal back-references
        (e.g. the protocol hub) so the dead actor graph needs no
        cyclic-GC pass to be freed.
        """
        self.alive = False
        self._incarnation += 1
        self.cancel_all_timers()

    def crash(self) -> None:
        """Halt the actor: timers stop, future messages are dropped."""
        self.alive = False
        self.cancel_all_timers()
        self._incarnation += 1
        self.on_crash()

    def restart(self) -> None:
        """Bring a crashed actor back; subclasses run recovery in :meth:`on_restart`."""
        if self.alive:
            return
        self.alive = True
        self._incarnation += 1
        self.on_restart()

    def on_crash(self) -> None:
        """Hook for subclasses (e.g. drop volatile state)."""

    def on_restart(self) -> None:
        """Hook for subclasses (e.g. run failover recovery)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "crashed"
        return f"<{type(self).__name__} {self.name} {state}>"


class MessageBusLike:
    """Protocol the bus must satisfy (documented for type clarity)."""

    def register(self, actor: Actor) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def send(self, sender: str, dest: str, message: Any) -> None:  # pragma: no cover
        raise NotImplementedError
