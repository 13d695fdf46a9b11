"""The pluggable scheduling-policy seam (PR 8).

:class:`FuxiScheduler` owns the *mechanism* — the fit-indexed
:class:`~repro.core.pool.FreeResourcePool`, the locality tree, the
allocation ledger, quota accounting and the digest-sync'd grant protocol.
A :class:`SchedulerPolicy` owns the *decisions*: whether a request is
placed the moment it arrives or deferred to node heartbeats, how the
cluster-wide candidate ranking is ordered, what a unit's effective
priority is, and whether §3.4 preemption is consulted.  Every policy —
Fuxi itself and every comparator in :mod:`repro.baselines` — therefore
runs on the same indexed pools, ledger, digest sync and event-loop
substrate, so arena benchmarks compare scheduling *policies*, never
bookkeeping implementations.

Policies are registered by name and selected by name
(``SchedulerConfig.policy`` / ``RunSpec(policy=...)``): the master
recreates its scheduler on failover and sweep workers unpickle specs,
so a policy selection must survive as a string, not a live object.

Fast-path guarantee: the default :class:`FuxiPolicy` sets
``passthrough = True`` and the scheduler skips *every* hook call on that
path — the Fuxi policy's grant stream is byte-identical to the
pre-policy-seam scheduler and pays no per-decision indirection.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Type, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.request import WaitingDemand
    from repro.core.scheduler import FuxiScheduler
    from repro.core.units import ScheduleUnit


class SchedulerPolicy:
    """Decision surface of one scheduling policy.

    Subclasses override the class-level behavior flags (read once by the
    scheduler/master, so they must be class constants) and any of the
    hook methods.  A policy instance belongs to exactly one scheduler
    (:meth:`attach`); it may keep per-app soft state — like the ledger's
    soft state, it is rebuilt from scratch on master failover.
    """

    #: registry name; also the value of ``SchedulerConfig.policy``
    name: str = "base"
    #: True only for :class:`FuxiPolicy`: the scheduler skips every hook
    #: on this path, guaranteeing the pre-seam byte-identical fast path.
    passthrough: bool = False
    #: honor machine/rack locality hints (False: all demand is "anywhere")
    use_hints: bool = True
    #: place a demand the moment its request delta arrives (False: the
    #: demand only waits in the queues until a machine event serves it)
    place_on_request: bool = True
    #: serve a machine's queues on every agent heartbeat (the master
    #: drives this — YARN node-heartbeat pacing, Mesos offer rounds)
    heartbeat_paced: bool = False
    #: at most one application is served per machine event (a Mesos-style
    #: exclusive resource offer)
    exclusive_event: bool = False
    #: machine events escalate to a full pass over every machine's queues
    #: (the Hadoop-1.0 single-master global recompute)
    global_recompute: bool = False
    #: consult the two-level preemption of §3.4 for starved requests
    enable_preemption: bool = True
    #: :meth:`effective_priority` can return a different value for the
    #: same waiting demand over time, so re-pushing a queue entry can move
    #: it.  Must be True for any policy overriding that hook: machine
    #: events then always run their full candidate scan (the scheduler's
    #: early exit relies on a rejected candidate's re-push being a no-op).
    drifting_priority: bool = False

    def __init__(self) -> None:
        self.scheduler: "FuxiScheduler" = None  # type: ignore[assignment]

    def attach(self, scheduler: "FuxiScheduler") -> None:
        """Bind to the owning scheduler (called once, from its __init__)."""
        self.scheduler = scheduler

    # -- decision hooks (never called on the passthrough fast path) ----- #

    def transform_unit(self, unit: "ScheduleUnit") -> "ScheduleUnit":
        """Rewrite a ScheduleUnit at definition time (e.g. fractional CPU)."""
        return unit

    def effective_priority(self, unit: "ScheduleUnit",
                           demand: "WaitingDemand") -> int:
        """The priority used for queue ordering (lower = served first)."""
        return unit.priority

    def rank_anywhere(self, unit: "ScheduleUnit", wanted: int,
                      budget: int) -> Iterable[Tuple[str, int]]:
        """Cluster-wide candidate ranking: (machine, fitting units) pairs."""
        return self.scheduler.pool.best_fit_machines(unit.resources,
                                                     limit=budget)

    # -- bookkeeping hooks (grant/revoke/return observation) ------------ #

    def on_grant(self, unit: "ScheduleUnit", machine: str,
                 count: int) -> None:
        """``count`` units of ``unit`` were granted on ``machine``."""

    def on_revoke(self, unit: "ScheduleUnit", machine: str,
                  count: int) -> None:
        """``count`` units were revoked (machine loss, app exit, preempt)."""

    def on_return(self, unit: "ScheduleUnit", machine: str,
                  count: int) -> None:
        """The application returned ``count`` finished units (§3.1 step 5)."""

    def on_app_exit(self, app_id: str) -> None:
        """The application left the cluster; drop its soft state."""


class FuxiPolicy(SchedulerPolicy):
    """The paper's incremental locality-tree policy — the passthrough.

    Every decision stays exactly where PR 3/6 put it: hints honored,
    best-fit most-free-first cluster ranking from the fit index, placement
    on request arrival, §3.4 preemption.  ``passthrough = True`` makes the
    scheduler skip all hook calls, so this class body is intentionally
    empty — it *documents* the default rather than implementing it twice.
    """

    name = "fuxi"
    passthrough = True


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

_REGISTRY: Dict[str, Type[SchedulerPolicy]] = {}
_builtin_loaded = False


def register_policy(cls: Type[SchedulerPolicy]) -> Type[SchedulerPolicy]:
    """Register a policy class under ``cls.name`` (usable as a decorator)."""
    if not cls.name or cls.name == "base":
        raise ValueError(f"{cls.__name__} needs a non-default 'name'")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_builtin() -> None:
    """Pull in the baseline policies exactly once, on first lookup.

    ``repro.core`` must not import ``repro.baselines`` at module level
    (layering: baselines build *on* the core), so registration of the
    comparator policies is deferred to the first registry miss.
    """
    global _builtin_loaded
    if _builtin_loaded:
        return
    _builtin_loaded = True
    import repro.baselines.policies  # noqa: F401  (registers on import)


def known_policies() -> Tuple[str, ...]:
    """All registered policy names, sorted."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))


def validate_policy_name(name: str) -> str:
    """Return ``name`` if registered; raise ValueError listing the options."""
    if name not in _REGISTRY:
        # Registry miss before the comparators loaded?  Load, retry.
        _ensure_builtin()
    if name not in _REGISTRY:
        raise ValueError(f"unknown scheduler policy {name!r}; registered "
                         f"policies: {', '.join(known_policies())}")
    return name


def create_policy(name: str) -> SchedulerPolicy:
    """Instantiate the policy registered under ``name``."""
    return _REGISTRY[validate_policy_name(name)]()


def policy_summaries() -> List[Tuple[str, str]]:
    """(name, first docstring line) per registered policy, sorted."""
    _ensure_builtin()
    out = []
    for name in known_policies():
        doc = (_REGISTRY[name].__doc__ or "").strip().splitlines()
        out.append((name, doc[0] if doc else ""))
    return out


register_policy(FuxiPolicy)
