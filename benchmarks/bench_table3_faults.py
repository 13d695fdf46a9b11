"""Table 3 / §5.4: fault injection slowdown.

Paper (300 nodes): normal 1,437 s; 5 % faults → +15.7 %; 10 % → 1,762 s,
+22.6 % by the makespans (the text quotes +19.6 %; the comparison uses
22.6 %, see ``repro.experiments.table3_faults``); an additional FuxiMaster
kill costs only ~13 s extra.
"""

from repro.experiments import table3_faults
from repro.experiments.table3_faults import Table3Config

CONFIG = Table3Config()   # 60 machines, 6,000 map instances


def test_table3_fault_slowdown(benchmark, publish):
    report = benchmark.pedantic(table3_faults.run, args=(CONFIG,),
                                rounds=1, iterations=1)
    publish(report)
    slow5 = report.comparison("5% faults slowdown").measured
    slow10 = report.comparison("10% faults slowdown").measured
    master_extra = report.comparison("master-kill extra time").measured
    # tens of percent, not a 2x re-run
    assert 0.0 < slow5 < 60.0
    assert slow10 < 80.0
    # 10% hurts at least roughly as much as 5%
    assert slow10 >= slow5 - 5.0
    # master failover is nearly free (paper: 13 s on a 1,662 s run)
    assert master_extra < 20.0
