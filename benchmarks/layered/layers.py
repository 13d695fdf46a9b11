"""Per-layer metrics: the tracer's aggregates plus the program's own
deterministic counters, all restricted to the timed window."""

from __future__ import annotations

from typing import Dict, Tuple

from driver import percentile

Metrics = Dict[str, Tuple[float, str]]


class Counters:
    """The program's cumulative counters at the window start; every
    counter the report prints is the end value minus these."""

    def __init__(self, loop):
        cluster = loop.cluster
        self.fm = cluster.metrics.counters()
        self.sent = cluster.bus.messages_sent
        self.dropped = cluster.bus.messages_dropped
        self.takeovers = sum(master.failovers for master in cluster.masters)
        self.scheduler = cluster.primary_master.scheduler
        self.stats = self.scheduler.stats.copy()


def untraced_metrics(seen: dict) -> Metrics:
    """From an untraced window's observation (see ``run.observe``)."""
    window = seen["window"]
    sched = sorted(seen["sched_ms"])
    return {
        "sim.events_per_s": (window.events / window.wall_s, "1/s"),
        "sim.us_per_event": (window.wall_s * 1e6 / window.events, "us"),
        "master.sched_ms_p99": (percentile(sched, 99.0), "ms"),
        "master.sched_ms_p999": (percentile(sched, 99.9), "ms"),
        "master.sched_ms_max": (sched[-1], "ms"),
    }


def traced_metrics(loop, window, tracer, before: Counters) -> Metrics:
    cluster = loop.cluster
    out: Metrics = {}
    for layer, row in tracer.by_layer().items():
        out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.self_share"] = (row["self_s"] / window.wall_s,
                                      "fraction")

    def fm(name: str) -> float:
        return cluster.metrics.counter(name) - before.fm.get(name, 0.0)

    def stat(name: str) -> int:
        total = sum(getattr(scheduler.stats, name)
                    for scheduler in window.schedulers)
        if any(s is before.scheduler for s in window.schedulers):
            total -= getattr(before.stats, name)
        return total

    granted = stat("units_granted")
    deltas = tracer.calls("StreamHub.send_delta")
    full_syncs = tracer.calls("StreamHub.send_full")
    out.update({
        "sim.events": (window.events, "count"),
        "network.sends": (cluster.bus.messages_sent - before.sent, "count"),
        "network.drops": (cluster.bus.messages_dropped - before.dropped,
                          "count"),
        "agent.heartbeats": (tracer.calls("FuxiAgent._send_heartbeat"),
                             "count"),
        "master.heartbeat_bytes": (fm("fm.heartbeat_bytes"), "bytes"),
        "master.digest_drift": (fm("fm.digest_drift"), "count"),
        "master.failovers": (sum(m.failovers for m in cluster.masters)
                             - before.takeovers, "count"),
        "master.failover_sim_s_max": (max(tracer.failover_sim_s, default=0.0),
                                      "sim_s"),
        "protocol.deltas": (deltas, "count"),
        "protocol.full_syncs": (full_syncs, "count"),
        "protocol.full_sync_ratio": (full_syncs / (deltas + full_syncs),
                                     "fraction"),
        "scheduler.decisions": (stat("decisions"), "count"),
        "scheduler.units_granted": (granted, "count"),
        "scheduler.units_revoked": (stat("units_revoked"), "count"),
        "scheduler.locality_hit_rate": (
            (stat("machine_local") + stat("rack_local")) / granted,
            "fraction"),
        "scheduler.candidates_per_grant": (
            tracer.calls("LocalityTree.candidates_for_machine") / granted,
            "ratio"),
        "pool.rank_calls": (tracer.calls("FreeResourcePool.best_fit_machines"),
                            "count"),
        "health.blacklist_disables": (fm("fm.blacklist_disables"), "count"),
        "health.heartbeat_timeouts": (fm("fm.heartbeat_timeouts"), "count"),
        "jobs.am_restarts": (fm("fm.am_restarts"), "count"),
        "jobs.backups_launched": (window.backups_launched, "count"),
        "driver.submit_s": (window.submit_s, "s"),
        "driver.reap_s": (window.reap_s, "s"),
        "driver.gc_s": (window.gc_s, "s"),
    })
    return out
