"""Tests for the network fault injector: degrades and partitions."""

import pytest

from repro.errors import NetworkError
from repro.monitoring.metrics import MetricRegistry
from repro.netsim import (
    FlowSimulator,
    NetworkFaultInjector,
    Topology,
    build_prp_topology,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def line(env):
    """A-B-C line with hosts on A and C; one path, easy arithmetic."""
    t = Topology()
    for name in "ABC":
        t.add_site(name)
    t.add_link("A", "B", 10.0, latency_s=0.0)
    t.add_link("B", "C", 10.0, latency_s=0.0)
    t.attach_host("ha", "A", nic_gbps=10.0)
    t.attach_host("hc", "C", nic_gbps=10.0)
    return t


def _gbps_to_Bps(gbps):
    return gbps * 1e9 / 8.0


class TestDegrade:
    def test_mid_flow_degrade_slows_transfer(self, env, line):
        sim = FlowSimulator(env)
        inj = NetworkFaultInjector(line, flowsim=sim, env=env)
        nbytes = _gbps_to_Bps(10.0) * 10.0  # 10 s at full rate
        done = sim.transfer(
            line.path_resources("ha", "hc"), nbytes, name="xfer"
        )
        inj.schedule(5.0, inj.degrade_link, "A", "B", 0.5)
        env.run(until=done)
        # 5 s at full rate + remaining half at half rate = 5 + 10 = 15 s.
        assert env.now == pytest.approx(15.0)

    def test_degrades_compose_against_original(self, env, line):
        inj = NetworkFaultInjector(line, env=env)
        link = line.get_link("A", "B")
        original = link.gbps
        inj.degrade_link("A", "B", 0.5)
        inj.degrade_link("A", "B", 0.1)  # relative to original, not 0.5x
        assert link.gbps == pytest.approx(original * 0.1)
        inj.restore_link("A", "B")
        assert link.gbps == pytest.approx(original)

    def test_bad_factor_rejected(self, env, line):
        inj = NetworkFaultInjector(line)
        with pytest.raises(NetworkError):
            inj.degrade_link("A", "B", 0.0)
        with pytest.raises(NetworkError):
            inj.degrade_link("A", "B", 1.5)


class TestHardCuts:
    def test_fail_stalls_and_heal_resumes(self, env, line):
        sim = FlowSimulator(env)
        inj = NetworkFaultInjector(line, flowsim=sim, env=env)
        nbytes = _gbps_to_Bps(10.0) * 10.0
        done = sim.transfer(
            line.path_resources("ha", "hc"), nbytes, name="xfer"
        )
        # Isolating C cuts B-C, which the ha -> hc path crosses.
        inj.schedule(4.0, inj.partition, ["C"])
        inj.schedule(9.0, inj.heal_partition)
        env.run(until=done)
        # 4 s transferred + 5 s stalled + 6 s remaining = 15 s.
        assert env.now == pytest.approx(15.0)


class TestPartitions:
    def test_partition_isolates_site_group(self, env):
        topo = build_prp_topology()
        inj = NetworkFaultInjector(topo, env=env)
        cut = inj.partition(["UCI"])
        assert cut  # something was actually severed
        assert not topo.reachable("UCI", "UCSD")
        inj.heal_partition()
        assert topo.reachable("UCI", "UCSD")

    def test_partition_unknown_site_rejected(self, env, line):
        inj = NetworkFaultInjector(line, env=env)
        with pytest.raises(NetworkError):
            inj.partition(["Atlantis"])

    def test_stacked_partitions_heal_lifo(self, env):
        topo = build_prp_topology()
        inj = NetworkFaultInjector(topo, env=env)
        inj.partition(["UCI"])
        inj.partition(["Stanford"])
        inj.heal_partition()  # Stanford first
        assert topo.reachable("Stanford", "UCSD")
        assert not topo.reachable("UCI", "UCSD")
        inj.heal_partition()
        assert topo.reachable("UCI", "UCSD")

    def test_hosts_follow_their_site(self, env, line):
        inj = NetworkFaultInjector(line, env=env)
        inj.partition(["C"])
        assert not line.reachable("ha", "hc")
        # The host access link itself is untouched; only the WAN is cut.
        assert line.get_link("hc", "C").up
        inj.heal_partition()
        assert line.reachable("ha", "hc")


class TestMetrics:
    def test_fault_counters_exported(self, env, line):
        registry = MetricRegistry(env)
        inj = NetworkFaultInjector(line, env=env, registry=registry)
        inj.degrade_link("A", "B", 0.5)
        inj.restore_link("A", "B")
        inj.partition(["C"])
        inj.heal_partition()
        assert registry.counter_sum("link_degradations_total") == 1.0
        assert registry.counter_sum("network_partitions_total") == 1.0


class TestScheduling:
    def test_schedule_requires_env(self, line):
        inj = NetworkFaultInjector(line)
        with pytest.raises(NetworkError):
            inj.schedule(1.0, inj.restore_link, "A", "B")
