"""Event-loop instrumentation feeding the metrics registry.

:func:`attach_loop_metrics` installs an :class:`~repro.sim.events.EventLoop`
hook that, every ``sample_every``-th executed event, records

- ``sim.callback_ms`` — callback wall time (log-bucket histogram; this is
  the one metric that is *not* reproducible across runs, which is why it
  lives in the registry rather than the trace);
- ``sim.queue_depth`` — pending-event count as a time series;
- ``sim.events_sampled`` — counter of sampled events (total executed
  events stay available as ``loop.events_executed``).

Sampling keeps the hook cheap: the unsampled path pays one modulo.  It is
one ``EventLoop.add_hook`` among the others; detaching removes only it.
"""

from __future__ import annotations

from repro.obs.histogram import MetricsRegistry
from repro.sim.events import EventLoop, LoopHook


def attach_loop_metrics(loop: EventLoop, registry: MetricsRegistry,
                        sample_every: int = 64) -> LoopHook:
    """Install callback-wall-time and queue-depth sampling on ``loop``;
    returns the hook's handle for :func:`detach_loop_metrics`."""
    callback_ms = registry.histogram("sim.callback_ms")
    queue_depth = registry.series("sim.queue_depth")

    def hook(lp: EventLoop, event, wall_seconds: float) -> None:
        callback_ms.record(wall_seconds * 1000.0)
        queue_depth.append(lp.now, float(lp.pending()))
        registry.increment("sim.events_sampled")

    return loop.add_hook(hook, sample_every=sample_every)


def detach_loop_metrics(loop: EventLoop, handle: LoopHook) -> None:
    """Remove the hook :func:`attach_loop_metrics` returned ``handle`` for."""
    loop.remove_hook(handle)
