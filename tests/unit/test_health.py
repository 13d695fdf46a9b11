"""Unit tests for pluggable node-health scoring (paper §4.3.2)."""

from repro.core.health import (DiskHealthPlugin, HealthMonitor, HealthPlugin,
                               LoadHealthPlugin, NetworkHealthPlugin)


def test_disk_plugin_penalizes_errors():
    plugin = DiskHealthPlugin(max_errors=5)
    assert plugin.evaluate({"disk_errors": 0}) == 1.0
    assert plugin.evaluate({"disk_errors": 5}) == 0.0
    assert 0 < plugin.evaluate({"disk_errors": 2}) < 1


def test_disk_plugin_penalizes_saturation():
    plugin = DiskHealthPlugin()
    healthy = plugin.evaluate({"disk_errors": 0, "disk_util": 0.0})
    busy = plugin.evaluate({"disk_errors": 0, "disk_util": 1.0})
    assert healthy > busy == 0.5


def test_load_plugin_tolerates_load_up_to_cores():
    plugin = LoadHealthPlugin()
    assert plugin.evaluate({"load1": 4, "cores": 4}) == 1.0
    assert plugin.evaluate({"load1": 8, "cores": 4}) == 0.5


def test_network_plugin():
    plugin = NetworkHealthPlugin(max_errors=10)
    assert plugin.evaluate({"net_errors": 0}) == 1.0
    assert plugin.evaluate({"net_errors": 20}) == 0.0


def test_monitor_combines_by_weight():
    monitor = HealthMonitor()
    score = monitor.record_sample("m1", {"disk_errors": 0, "load1": 0,
                                         "cores": 4, "net_errors": 0}, now=0.0)
    assert score == 1.0
    assert monitor.score("m1") == 1.0


def test_monitor_unknown_machine_is_healthy():
    assert HealthMonitor().score("mystery") == 1.0


def test_unavailable_requires_persistence():
    """'Once the score is too low for a long time' — grace period."""
    monitor = HealthMonitor(threshold=0.6, grace_seconds=30.0)
    bad = {"disk_errors": 100, "load1": 50, "cores": 4, "net_errors": 500}
    monitor.record_sample("m1", bad, now=0.0)
    assert monitor.unavailable_machines(now=10.0) == set()
    monitor.record_sample("m1", bad, now=20.0)
    assert monitor.unavailable_machines(now=31.0) == {"m1"}


def test_recovery_resets_grace_clock():
    monitor = HealthMonitor(threshold=0.6, grace_seconds=30.0)
    bad = {"disk_errors": 100, "load1": 50, "cores": 4, "net_errors": 500}
    good = {"disk_errors": 0, "load1": 0, "cores": 4, "net_errors": 0}
    monitor.record_sample("m1", bad, now=0.0)
    monitor.record_sample("m1", good, now=20.0)
    monitor.record_sample("m1", bad, now=25.0)
    assert monitor.unavailable_machines(now=40.0) == set()
    assert monitor.unavailable_machines(now=56.0) == {"m1"}


class GpuPlugin(HealthPlugin):
    name = "gpu"
    weight = 10.0

    def evaluate(self, sample):
        return 0.0 if sample.get("gpu_dead") else 1.0


def test_admin_can_add_custom_check_item():
    """'administrators can add more check items to the list'."""
    monitor = HealthMonitor()
    monitor.add_plugin(GpuPlugin())
    score = monitor.record_sample("m1", {"gpu_dead": 1, "disk_errors": 0,
                                         "load1": 0, "cores": 4,
                                         "net_errors": 0}, now=0.0)
    assert score < 0.5   # heavy custom plugin dominates


def test_forget_machine():
    monitor = HealthMonitor(threshold=0.9, grace_seconds=0.0)
    monitor.record_sample("m1", {"disk_errors": 100}, now=0.0)
    monitor.forget("m1")
    assert monitor.unavailable_machines(now=1.0) == set()
    assert monitor.score("m1") == 1.0


def test_equal_first_samples_share_one_score_and_copy():
    """A cluster's first samples are equal: the plugins score the first
    one, and every other machine takes its score and its copy."""
    calls = []

    class Counting(LoadHealthPlugin):
        def evaluate(self, sample):
            calls.append(sample)
            return super().evaluate(sample)

    monitor = HealthMonitor(plugins=[Counting()])
    sample = {"load1": 2.0, "cores": 4.0}
    for index in range(5):
        assert monitor.record_sample(f"m{index}", dict(sample),
                                     now=0.0) == 1.0
    assert len(calls) == 1
    copies = {id(monitor._machines[f"m{index}"].last_sample)
              for index in range(5)}
    assert len(copies) == 1
    # a sample that differs is scored, and a dip below the threshold is
    # still timed per machine
    assert monitor.record_sample("m5", {"load1": 40.0, "cores": 4.0},
                                 now=1.0) < 0.5
    assert len(calls) == 2
    monitor.record_sample("m6", {"load1": 40.0, "cores": 4.0}, now=2.0)
    assert len(calls) == 2
    assert monitor.unavailable_machines(now=61.5) == {"m5"}
    assert monitor.unavailable_machines(now=62.0) == {"m5", "m6"}


def test_added_plugin_rescores_a_first_sample():
    """add_plugin clears the shared memo: a new machine whose first sample
    equals the one scored before the change is scored by the new set."""
    monitor = HealthMonitor()
    sample = {"gpu_dead": 1, "disk_errors": 0, "load1": 0, "cores": 4,
              "net_errors": 0}
    assert monitor.record_sample("m1", dict(sample), now=0.0) == 1.0
    monitor.add_plugin(GpuPlugin())
    assert monitor.record_sample("m2", dict(sample), now=1.0) < 0.5
    assert monitor.record_sample("m1", dict(sample), now=1.0) < 0.5
