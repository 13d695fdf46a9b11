"""Comparator schedulers (paper §6, Related Works + PAPERS.md).

Two layers:

- **Integrated policies** (:mod:`repro.baselines.policies`) — YARN-like,
  Mesos-like, Hadoop-1.0-like, HFSP-style size-based and DFRS-style
  fractional scheduling implemented as
  :class:`repro.core.policy.SchedulerPolicy` plug-ins on the *same*
  fit-indexed pool / ledger / digest-sync substrate as Fuxi.  Select
  them by name: ``RunSpec(policy="yarn")``,
  ``ClusterBuilder(...).policy("mesos")``, ``fuxi-sim ... --policy``.
  The arena benchmark (``benchmarks/bench_arena.py`` →
  ``BENCH_arena.json``) stages all six policies on identical seeds.

- **Standalone micro-models** (:mod:`repro.baselines._yarn` /
  ``_mesos`` / ``_hadoop10``) — the original protocol-cost models used
  by the ablation benchmarks, which count scheduling work and messages
  without a full cluster.
"""

from repro.baselines._hadoop10 import Hadoop10Scheduler, SlotRequest
from repro.baselines._mesos import (MesosFramework, MesosMaster, MesosOffer,
                                    MesosTask)
from repro.baselines._yarn import YarnContainer, YarnRequest, YarnScheduler
from repro.baselines.policies import (FractionalPolicy, Hadoop10Policy,
                                      MesosPolicy, SizeBasedPolicy,
                                      YarnPolicy)

__all__ = [
    "YarnScheduler",
    "YarnRequest",
    "YarnContainer",
    "MesosMaster",
    "MesosFramework",
    "MesosOffer",
    "MesosTask",
    "Hadoop10Scheduler",
    "SlotRequest",
    "YarnPolicy",
    "MesosPolicy",
    "Hadoop10Policy",
    "SizeBasedPolicy",
    "FractionalPolicy",
]
