"""FuxiCluster: one-call assembly of a complete simulated Fuxi deployment.

Wires the event loop, message bus, lock service, checkpoint store, a
hot-standby FuxiMaster pair, one FuxiAgent per machine, the block store, and
the job framework — and exposes the operations the experiments (and the
fault injector) need: submit jobs, run simulated time, crash machines or the
primary master, and sample cluster-wide utilization.

Typical use::

    topology = ClusterTopology.build(racks=4, machines_per_rack=25)
    cluster = FuxiCluster(topology, seed=42)
    cluster.warm_up()
    job = mapreduce_job("wc", mappers=100, reducers=10)
    app_id = cluster.submit_job(job)
    cluster.run_until_complete([app_id], timeout=600)
    result = cluster.job_results[app_id]
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.blockstore import BlockStore
from repro.cluster.faults import FaultInjector
from repro.cluster.lockservice import LockService
from repro.cluster.network import MessageBus, NetworkConfig
from repro.cluster.topology import ClusterTopology
from repro.core import messages as msg
from repro.core.agent import FuxiAgent, FuxiAgentConfig
from repro.core.appmaster import AppMasterConfig, ApplicationMaster
from repro.core.checkpoint import CheckpointStore
from repro.core.master import FuxiMaster, FuxiMasterConfig
from repro.core.quota import DEFAULT_GROUP
from repro.core.resources import CPU, MEMORY
from repro.jobs.jobmaster import DagJobMaster, JobResult
from repro.jobs.spec import JobSpec
from repro.jobs.worker import TaskWorker
from repro.obs.histogram import MetricsRegistry
from repro.obs.hooks import attach_loop_metrics
from repro.obs.live import ClusterSampler
from repro.obs.recorder import FlightRecorder
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.gctune import paused_gc
from repro.sim.rng import SplitRandom


class _ClusterServices(Actor):
    """The ``cluster-svc`` actor: message-reachable runtime services.

    Agents "fork" an application master by messaging this actor rather
    than calling into the runtime object, so the spawn arrives after a
    network delay drawn from the agent's stream like any other message,
    and the agent holds no reference to the runtime.
    """

    def __init__(self, loop: EventLoop, bus: MessageBus,
                 cluster: "FuxiCluster"):
        super().__init__(loop, "cluster-svc", bus)
        self.cluster = cluster

    def handle_message(self, sender: str, message) -> None:
        if isinstance(message, msg.AppMasterSpawn):
            self.cluster.start_app_master(message.app_id,
                                          message.description,
                                          message.machine)


class FuxiCluster:
    """A fully wired simulated cluster."""

    def __init__(self, topology: ClusterTopology, seed: int = 0,
                 network: Optional[NetworkConfig] = None,
                 master_config: Optional[FuxiMasterConfig] = None,
                 agent_config: Optional[FuxiAgentConfig] = None,
                 app_master_config: Optional[AppMasterConfig] = None,
                 standby_master: bool = True,
                 trace: bool = False):
        self.topology = topology
        self.rng = SplitRandom(seed)
        self.loop = EventLoop()
        self.bus = MessageBus(self.loop, self.rng, network)
        self.metrics = MetricsRegistry()
        # Tracing is opt-in: with trace=False every component holds the
        # shared NULL_TRACER and hot paths stay on the zero-overhead path.
        self.tracer = (Tracer(clock=lambda: self.loop.now) if trace
                       else NULL_TRACER)
        if trace:
            attach_loop_metrics(self.loop, self.metrics, sample_every=64)
        self.checkpoint = CheckpointStore()
        self.master_config = master_config or FuxiMasterConfig()
        self.agent_config = agent_config or FuxiAgentConfig()
        self.app_master_config = app_master_config or AppMasterConfig()
        self.locks = LockService(self.loop,
                                 default_lease=self.master_config.lease)
        self.blockstore = BlockStore(topology.machines(),
                                     topology.machine_rack_map(),
                                     rng=self.rng)
        self.job_snapshots: Dict[str, dict] = {}
        self.job_results: Dict[str, JobResult] = {}
        self.app_masters: Dict[str, ApplicationMaster] = {}
        self._am_factories: Dict[str, Callable] = {
            "dag": self._make_dag_master,
            "service": self._make_service_master,
        }
        self._job_seq = 0

        self.masters: List[FuxiMaster] = [
            FuxiMaster(self.loop, self.bus, "fuxi-master-0", self.locks,
                       self.checkpoint, self.master_config, self.metrics,
                       runtime=self, tracer=self.tracer)
        ]
        if standby_master:
            self.masters.append(
                FuxiMaster(self.loop, self.bus, "fuxi-master-1", self.locks,
                           self.checkpoint, self.master_config, self.metrics,
                           runtime=self, tracer=self.tracer))
        self.services = _ClusterServices(self.loop, self.bus, self)
        # one bound method for every agent, not one each
        create_worker = self._create_worker
        self.agents: Dict[str, FuxiAgent] = {
            machine: FuxiAgent(
                self.loop, self.bus, self.topology.state(machine),
                self.agent_config, worker_factory=create_worker,
                tracer=self.tracer)
            for machine in self.topology.machines()}
        self.faults = FaultInjector(self)
        self._burst_depth = 0
        self._burst_baseline = (0.0, 0.0)
        # live telemetry plane (PR 6): both are opt-in via the enable_*
        # helpers; None means no sampling/recording overhead at all
        self.sampler = None
        self.flight = None
        self.profiler = None

    def finalize(self) -> None:
        """End-of-run hook; a no-op.  The layered benchmark harness calls
        it, and :func:`repro.api.simulate` calls it when a run ends."""

    # ------------------------------------------------------------------ #
    # time control
    # ------------------------------------------------------------------ #

    @property
    def events_total(self) -> int:
        """Events of the whole run: the loop's steps plus the occurrences
        handled inside another event's callback (cohort members, beats of
        a delivery run) — what a loop with one event per occurrence
        executes.  ``summary_dict()["events"]`` and every pinned event
        count read this, so it does not move when occurrences are batched;
        an occurrence lost or doubled by the batching would move it."""
        loop = self.loop
        return loop.events_executed + loop.events_absorbed

    def run_for(self, seconds: float) -> None:
        self.run_until(self.loop.now + seconds)

    def run_until(self, when: float) -> None:
        self.loop.run_until(when)

    @paused_gc()
    def warm_up(self, seconds: float = 3.0) -> None:
        """Let election, heartbeats and machine registration settle.

        Registration builds the master's soft state for every machine and
        frees little, so automatic collection is paused meanwhile
        (:func:`repro.sim.gctune.paused_gc`)."""
        self.run_for(seconds)

    def run_until_complete(self, app_ids: List[str], timeout: float = 3600.0,
                           step: float = 1.0) -> bool:
        """Advance time until all jobs have results; True if they all did."""
        deadline = self.loop.now + timeout
        while self.loop.now < deadline:
            if all(app_id in self.job_results for app_id in app_ids):
                return True
            self.run_for(step)
        return all(app_id in self.job_results for app_id in app_ids)

    # ------------------------------------------------------------------ #
    # masters
    # ------------------------------------------------------------------ #

    @property
    def primary_master(self) -> Optional[FuxiMaster]:
        for master in self.masters:
            if master.alive and master.is_primary:
                return master
        return None

    def crash_primary_master(self) -> None:
        primary = self.primary_master
        if primary is not None:
            primary.crash()

    def restart_master(self, name: str) -> None:
        for master in self.masters:
            if master.name == name:
                master.restart()
                return
        raise KeyError(f"unknown master {name!r}")

    def restart_dead_masters(self) -> None:
        """Bring every crashed FuxiMaster process back (chaos recovery leg)."""
        for master in self.masters:
            if not master.alive:
                master.restart()

    # ------------------------------------------------------------------ #
    # machines
    # ------------------------------------------------------------------ #

    def crash_machine(self, machine: str) -> None:
        """Power off: agent and every worker process on the machine die."""
        self.topology.state(machine).down = True
        for worker in self.workers_on(machine):
            worker.crash()
            self.bus.unregister(worker.name)
        agent = self.agents.get(machine)
        if agent is not None:
            agent.crash()

    def crash_workers(self, machine: str) -> None:
        """Kill worker processes only (hung disks); the agent stays up."""
        for worker in self.workers_on(machine):
            worker.crash()
            self.bus.unregister(worker.name)

    def restart_machine(self, machine: str) -> None:
        state = self.topology.state(machine)
        state.reset_faults()
        agent = self.agents.get(machine)
        if agent is not None:
            agent.restart()

    def restart_agent(self, machine: str) -> None:
        """Agent process bounce (workers keep running) — §4.3.1 failover."""
        agent = self.agents.get(machine)
        if agent is None:
            raise KeyError(f"unknown machine {machine!r}")
        agent.crash()
        agent.restart()

    # ------------------------------------------------------------------ #
    # network degradation (chaos NetworkBurst)
    # ------------------------------------------------------------------ #

    def begin_network_burst(self, drop_prob: float,
                            extra_latency: float = 0.0) -> None:
        """Start a message loss/delay window; bursts may nest (worst wins)."""
        config = self.bus.config
        if self._burst_depth == 0:
            self._burst_baseline = (config.drop_prob, config.jitter)
        self._burst_depth += 1
        config.drop_prob = max(config.drop_prob, drop_prob)
        config.jitter = max(config.jitter, extra_latency)

    def end_network_burst(self) -> None:
        """End one burst; the baseline transport returns with the last one."""
        if self._burst_depth == 0:
            return
        self._burst_depth -= 1
        if self._burst_depth == 0:
            config = self.bus.config
            config.drop_prob, config.jitter = self._burst_baseline

    def workers_on(self, machine: str) -> List[TaskWorker]:
        """The live worker processes on ``machine``, in registration order."""
        return self.bus.hosted_on(machine)

    def live_workers(self) -> int:
        return sum(1 for name, actor in self.bus._actors.items()
                   if name.startswith("worker:") and actor.alive)

    # ------------------------------------------------------------------ #
    # jobs
    # ------------------------------------------------------------------ #

    def submit_job(self, spec: JobSpec, group: str = DEFAULT_GROUP,
                   app_id: Optional[str] = None,
                   description_overrides: Optional[dict] = None) -> str:
        """Submit a DAG job through the primary FuxiMaster (client RPC)."""
        if app_id is None:
            self._job_seq += 1
            app_id = f"job-{self._job_seq:04d}"
        description = spec.to_description()
        description["submitted_at"] = self.loop.now
        if description_overrides:
            description.update(description_overrides)
        primary = self.primary_master
        if primary is None:
            raise RuntimeError("no primary FuxiMaster (run warm_up first)")
        primary.submit_job(app_id, description, group)
        return app_id

    def register_app_master_type(self, type_name: str,
                                 factory: Callable) -> None:
        """factory(cluster, app_id, description, machine) -> ApplicationMaster"""
        self._am_factories[type_name] = factory

    def start_app_master(self, app_id: str, description: dict,
                         machine: str) -> None:
        """Called by agents executing LaunchAppMaster."""
        existing = self.app_masters.get(app_id)
        if existing is not None:
            if not existing.alive:
                existing.restart()
            return
        factory = self._am_factories.get(description.get("type", "dag"))
        if factory is None:
            raise KeyError(f"no app master factory for {description!r}")
        self.app_masters[app_id] = factory(self, app_id, description, machine)

    def _make_dag_master(self, cluster: "FuxiCluster", app_id: str,
                         description: dict, machine: str) -> DagJobMaster:
        return DagJobMaster(self.loop, self.bus, app_id, description,
                            services=self, config=self.app_master_config)

    def _make_service_master(self, cluster: "FuxiCluster", app_id: str,
                             description: dict, machine: str):
        from repro.jobs.service import ServiceMaster
        return ServiceMaster(self.loop, self.bus, app_id, description,
                             services=self, config=self.app_master_config)

    def submit_service(self, spec, group: str = DEFAULT_GROUP,
                       app_id: Optional[str] = None) -> str:
        """Submit a long-running replicated service (ServiceSpec)."""
        if app_id is None:
            self._job_seq += 1
            app_id = f"svc-{self._job_seq:04d}"
        description = spec.to_description()
        primary = self.primary_master
        if primary is None:
            raise RuntimeError("no primary FuxiMaster (run warm_up first)")
        primary.submit_job(app_id, description, group)
        return app_id

    def job_completed(self, app_id: str, result: JobResult) -> None:
        """Callback the job masters invoke on completion."""
        self.job_results[app_id] = result
        self.job_snapshots.pop(app_id, None)

    def reap_job(self, app_id: str) -> None:
        """Release a *finished* job's simulation objects.

        The entry in :attr:`job_results` survives; the finished application
        master and its bus registration are dropped.  Closed-loop runs call
        this per completed job — without it every finished job leaves a dead
        actor graph behind and GC pauses grow with run length.
        """
        master = self.app_masters.get(app_id)
        if master is None or not getattr(master, "finished", False):
            return
        del self.app_masters[app_id]
        master.dispose()
        self.bus.unregister(master.name)

    def crash_app_master(self, app_id: str) -> None:
        master = self.app_masters.get(app_id)
        if master is None:
            raise KeyError(f"unknown application {app_id!r}")
        master.crash()

    # ------------------------------------------------------------------ #
    # workers
    # ------------------------------------------------------------------ #

    def _create_worker(self, plan: msg.WorkPlan, machine: str) -> TaskWorker:
        existing = self.bus.actor(f"worker:{plan.worker_id}")
        if existing is not None and existing.alive:
            return existing  # idempotent re-launch
        return TaskWorker(self.loop, self.bus, plan,
                          self.topology.state(machine))

    # ------------------------------------------------------------------ #
    # utilization sampling (Figure 10)
    # ------------------------------------------------------------------ #

    def sample_utilization(self) -> Dict[str, Dict[str, float]]:
        """The four curves of Figure 10, per dimension, in absolute units."""
        # FA_planned input: live agents' granted-slot totals per unit key.
        # Integer counts are summed across agents first, so the float
        # products below do not depend on the order agents are visited.
        fa_counts: Dict[object, int] = {}
        for agent in self.agents.values():
            if not agent.alive:
                continue
            for unit_key, count in agent.allocations.items():
                fa_counts[unit_key] = fa_counts.get(unit_key, 0) + count
        fa_resources: Dict[object, object] = {}
        for unit_key in fa_counts:
            app = self.app_masters.get(unit_key.app_id)
            unit = app.units.get(unit_key) if app is not None else None
            if unit is not None:
                fa_resources[unit_key] = unit.resources
        primary = self.primary_master
        scheduler = primary.scheduler if primary is not None else None
        out: Dict[str, Dict[str, float]] = {}
        for dim in (CPU, MEMORY):
            fm_total = fm_planned = 0.0
            if scheduler is not None:
                fm_total = scheduler.pool.total_capacity().get(dim)
                fm_planned = scheduler.pool.total_allocated().get(dim)
            am_obtained = 0.0
            for app in self.app_masters.values():
                if not app.alive or app.finished:
                    continue
                for unit_key, machines in app.holdings.items():
                    unit = app.units.get(unit_key)
                    if unit is None:
                        continue
                    am_obtained += unit.resources.get(dim) * sum(machines.values())
            fa_planned = 0.0
            for unit_key, resources in fa_resources.items():
                fa_planned += resources.get(dim) * fa_counts[unit_key]
            out[dim] = {
                "FM_total": fm_total,
                "FM_planned": fm_planned,
                "AM_obtained": am_obtained,
                "FA_planned": fa_planned,
            }
        return out

    # ------------------------------------------------------------------ #
    # live telemetry (PR 6)
    # ------------------------------------------------------------------ #

    def telemetry_snapshot(self) -> Dict[str, float]:
        """One deterministic row of cluster state for the live sampler.

        Flattens the pool snapshot, the scheduler's queue depths by
        locality tier, the master's heartbeat/blacklist probe, and job
        progress into scalar columns.  Every value is a pure function of
        the seeded simulation — the sampler layers wall-clock rates on
        top under ``wall_``-prefixed names.

        During a failover window (no primary master) the scheduler-owned
        columns read zero; the sampler keeps sampling so the gap itself
        is visible in the feed.
        """
        loop = self.loop
        row: Dict[str, float] = {
            "time": loop.now,
            "events": float(self.events_total),
            "pending": float(loop.pending()),
        }
        primary = self.primary_master
        if primary is not None:
            pool = primary.scheduler.pool.snapshot()
            row["machines"] = float(pool["machines"])
            row["machines_disabled"] = float(pool["disabled"])
            for dim, amount in sorted(pool["free"].items()):
                row[f"free_{dim}"] = float(amount)
            for dim, amount in sorted(pool["allocated"].items()):
                row[f"alloc_{dim}"] = float(amount)
            for tier, depth in primary.scheduler.queue_depths().items():
                row[f"queue_{tier}"] = float(depth)
            row.update(primary.telemetry_probe())
        else:
            row["machines"] = 0.0
            row["machines_disabled"] = 0.0
            for tier in ("machine", "rack", "anywhere", "total"):
                row[f"queue_{tier}"] = 0.0
            row.update({"agents_seen": 0.0, "hb_stale_max": 0.0,
                        "hb_stale_mean": 0.0, "blacklisted": 0.0})
        running = sum(1 for app in self.app_masters.values()
                      if app.alive and not app.finished)
        row["jobs_running"] = float(running)
        row["jobs_finished"] = float(len(self.job_results))
        return row

    def enable_live_sampler(self, interval: float = 5.0,
                            capacity: Optional[int] = None) -> ClusterSampler:
        """Attach (or return the already-attached) cluster snapshot sampler."""
        if self.sampler is None:
            kwargs = {} if capacity is None else {"capacity": capacity}
            self.sampler = ClusterSampler(self, interval=interval,
                                          **kwargs).attach()
        return self.sampler

    def enable_flight_recorder(self,
                               capacity: Optional[int] = None) -> FlightRecorder:
        """Attach (or return the already-attached) flight recorder ring."""
        if self.flight is None:
            kwargs = {} if capacity is None else {"capacity": capacity}
            self.flight = FlightRecorder(**kwargs).attach(self.loop)
        return self.flight

    def enable_subsystem_profiler(self, sample_every: int = 16):
        """Attach (or return) the per-subsystem wall/event attributor."""
        if self.profiler is None:
            from repro.obs.live import SubsystemProfiler
            self.profiler = SubsystemProfiler().attach(
                self.loop, sample_every=sample_every)
        return self.profiler

    def enable_utilization_sampling(self, interval: float = 5.0) -> None:
        """Record the Figure-10 curves into the metrics registry."""

        def sample() -> None:
            now = self.loop.now
            for dim, curves in self.sample_utilization().items():
                for curve, value in curves.items():
                    self.metrics.record(f"util.{dim}.{curve}", now, value)
            self.loop.call_after(interval, sample)

        self.loop.call_after(0.0, sample)

    # ------------------------------------------------------------------ #
    # fault plans
    # ------------------------------------------------------------------ #

    def schedule_faults(self, plan) -> None:
        """Arm a :class:`~repro.cluster.faults.FaultPlan`."""
        self.faults.schedule(plan)

