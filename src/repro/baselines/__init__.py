"""Comparator schedulers (paper §6, Related Works + PAPERS.md).

YARN-like, Mesos-like, Hadoop-1.0-like, HFSP-style size-based and
DFRS-style fractional scheduling, implemented in
:mod:`repro.baselines.policies` as :class:`repro.core.policy.SchedulerPolicy`
plug-ins on the *same* fit-indexed pool / ledger / digest-sync substrate
as Fuxi.  Select them by name: ``RunSpec(policy="yarn")``,
``ClusterBuilder(...).policy("mesos")``, ``fuxi-sim ... --policy``, or
``FuxiScheduler(policy=create_policy("hadoop10"))``.  The arena benchmark
(``benchmarks/bench_arena.py`` → ``BENCH_arena.json``) stages all six
policies on identical seeds, and the design ablations
(:mod:`repro.experiments.ablations`, ``benchmarks/bench_ablation_*.py``)
drive the same plug-ins through the scheduler directly.
"""

from repro.baselines.policies import (FractionalPolicy, Hadoop10Policy,
                                      MesosPolicy, SizeBasedPolicy,
                                      YarnPolicy)

__all__ = [
    "YarnPolicy",
    "MesosPolicy",
    "Hadoop10Policy",
    "SizeBasedPolicy",
    "FractionalPolicy",
]
