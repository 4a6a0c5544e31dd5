"""Unit tests for PRP topology construction and routing."""

import pytest

from repro.errors import NetworkError, NoRouteError
from repro.netsim import FlowSimulator, Topology, build_prp_topology
from repro.netsim.topology import gbps_to_Bps
from repro.sim import Environment


@pytest.fixture
def small_topo():
    t = Topology()
    t.add_site("A")
    t.add_site("B")
    t.add_site("C")
    t.add_link("A", "B", 100.0, latency_s=0.01)
    t.add_link("B", "C", 10.0, latency_s=0.01)
    t.attach_host("host-a", "A", nic_gbps=10.0)
    t.attach_host("host-c", "C", nic_gbps=40.0)
    return t


class TestConstruction:
    def test_duplicate_site_rejected(self, small_topo):
        with pytest.raises(NetworkError):
            small_topo.add_site("A")

    def test_duplicate_link_rejected(self, small_topo):
        with pytest.raises(NetworkError):
            small_topo.add_link("B", "A", 10.0)

    def test_link_to_unknown_site_rejected(self, small_topo):
        with pytest.raises(NetworkError):
            small_topo.add_link("A", "Z", 10.0)

    def test_host_attach_to_unknown_site_rejected(self, small_topo):
        with pytest.raises(NetworkError):
            small_topo.attach_host("h", "Z")

    def test_duplicate_host_rejected(self, small_topo):
        with pytest.raises(NetworkError):
            small_topo.attach_host("host-a", "B")

    def test_nonpositive_capacity_rejected(self, small_topo):
        with pytest.raises(NetworkError):
            small_topo.add_link("A", "C", 0.0)


class TestRouting:
    def test_route_crosses_expected_hops(self, small_topo):
        route = small_topo.route("host-a", "host-c")
        names = [link.resource.name for link in route]
        assert len(route) == 4  # NIC, A-B, B-C, NIC
        assert "link:host-a<->A" in names[0]

    def test_route_to_self_is_empty(self, small_topo):
        assert small_topo.route("host-a", "host-a") == []

    def test_no_route_raises(self, small_topo):
        small_topo.add_site("island")
        with pytest.raises(NoRouteError):
            small_topo.route("host-a", "island")

    def test_path_latency_accumulates(self, small_topo):
        lat = small_topo.path_latency("host-a", "host-c")
        assert lat == pytest.approx(0.01 + 0.01 + 0.0001 + 0.0001)


def _hops(route):
    return [frozenset((link.a, link.b)) for link in route]


class TestRouteCache:
    """Memoised routes follow every graph change."""

    def test_fail_link_reroutes(self, small_topo):
        small_topo.add_link("A", "C", 10.0, latency_s=0.5)
        before = _hops(small_topo.route("host-a", "host-c"))
        assert frozenset(("A", "B")) in before
        small_topo.fail_link("A", "B")
        after = _hops(small_topo.route("host-a", "host-c"))
        assert frozenset(("A", "B")) not in after
        assert frozenset(("A", "C")) in after

    def test_restore_link_brings_back_original_route(self, small_topo):
        small_topo.add_link("A", "C", 10.0, latency_s=0.5)
        original = small_topo.route("host-a", "host-c")
        small_topo.fail_link("A", "B")
        assert small_topo.route("host-a", "host-c") != original
        small_topo.restore_link("A", "B")
        assert small_topo.route("host-a", "host-c") == original

    def test_fail_link_without_detour_has_no_route(self, small_topo):
        assert small_topo.reachable("host-a", "host-c")
        small_topo.fail_link("B", "C")
        with pytest.raises(NoRouteError):
            small_topo.route("host-a", "host-c")

    def test_new_link_and_host_change_routes(self, small_topo):
        assert len(small_topo.route("host-a", "host-c")) == 4
        small_topo.add_link("A", "C", 100.0, latency_s=0.001)
        assert _hops(small_topo.route("host-a", "host-c"))[1] == frozenset(("A", "C"))
        small_topo.add_site("D")
        small_topo.add_link("D", "C", 10.0)
        small_topo.attach_host("host-d", "D")
        assert len(small_topo.route("host-a", "host-d")) == 4

    def test_mutating_a_returned_route_leaves_the_cache_intact(self, small_topo):
        route = small_topo.route("host-a", "host-c")
        expected = list(route)
        route.reverse()
        route.pop()
        route.append(None)
        assert small_topo.route("host-a", "host-c") == expected
        assert small_topo.route("host-a", "host-c") is not small_topo.route(
            "host-a", "host-c"
        )


class TestPRPTopology:
    def test_matches_paper_scale(self):
        """§II: 'more than 20 institutions, including four NSF/DOE/NASA
        supercomputer centers' on '10G, 40G and 100G networks'."""
        topo = build_prp_topology()
        summary = topo.summary()
        assert summary["sites"] >= 20
        assert summary["core_sites"] >= 4
        assert summary["link_speeds_gbps"] == [10.0, 40.0, 100.0]

    def test_all_sites_reachable(self):
        topo = build_prp_topology()
        sites = list(topo.sites)
        for dst in sites[1:]:
            assert topo.route(sites[0], dst)

    def test_core_ring_is_100g(self):
        topo = build_prp_topology()
        route = topo.route("UCSD", "SDSC")
        assert all(link.gbps == 100.0 for link in route)

    def test_end_to_end_transfer_over_prp(self):
        """A 1 GB transfer UCSD->UCI lands in ~0.8s at 10G NIC line rate."""
        env = Environment()
        topo = build_prp_topology()
        topo.attach_host("dtn-ucsd", "UCSD", nic_gbps=10.0)
        topo.attach_host("dtn-uci", "UCI", nic_gbps=10.0)
        sim = FlowSimulator(env)
        done = sim.transfer(
            topo.path_resources("dtn-ucsd", "dtn-uci"),
            1e9,
            latency_s=topo.path_latency("dtn-ucsd", "dtn-uci"),
        )
        env.run(until=done)
        expected = 1e9 / gbps_to_Bps(10.0)
        assert env.now == pytest.approx(expected, rel=0.05)
