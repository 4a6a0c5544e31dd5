"""Integration tests for the Ceph-like cluster and CephFS facade."""

import pytest

from repro.errors import (
    ConflictError,
    NoRouteError,
    ObjectNotFoundError,
    StorageError,
)
from repro.netsim import FlowSimulator, Topology
from repro.sim import Environment
from repro.storage import CephCluster, CephFS

GB = 1e9


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def ceph(env):
    """A 6-OSD, 3-host cluster without network timing."""
    c = CephCluster(env)
    for i in range(6):
        c.add_osd(host=f"stor-{i % 3:02d}", capacity=10e12)
    c.create_pool("data", replication=3)
    return c


class TestSyncPath:
    def test_put_get_roundtrip(self, ceph):
        ceph.put_sync("data", "obj1", 5 * GB, payload={"kind": "test"})
        ref = ceph.get_sync("data", "obj1")
        assert ref.size == 5 * GB
        assert ref.payload == {"kind": "test"}

    def test_replicas_land_on_distinct_hosts(self, ceph):
        ceph.put_sync("data", "obj1", GB)
        holders = ceph.holders("data", "obj1")
        assert len(holders) == 3
        assert len({o.host for o in holders}) == 3

    def test_used_bytes_accounts_replication(self, ceph):
        ceph.put_sync("data", "obj1", GB)
        assert ceph.total_used() == pytest.approx(3 * GB)

    def test_overwrite_bumps_version_and_rebalances(self, ceph):
        ceph.put_sync("data", "k", GB)
        ref = ceph.put_sync("data", "k", 2 * GB)
        assert ref.version == 2
        assert ceph.total_used() == pytest.approx(6 * GB)

    def test_missing_object_raises(self, ceph):
        with pytest.raises(ObjectNotFoundError):
            ceph.get_sync("data", "ghost")

    def test_missing_pool_raises(self, ceph):
        with pytest.raises(ObjectNotFoundError):
            ceph.put_sync("nope", "k", 1)

    def test_duplicate_pool_rejected(self, ceph):
        with pytest.raises(ConflictError):
            ceph.create_pool("data")

    def test_delete_frees_space(self, ceph):
        ceph.put_sync("data", "k", GB)
        ceph.delete("data", "k")
        assert ceph.total_used() == 0
        assert not ceph.exists("data", "k")

    def test_list_keys_prefix(self, ceph):
        for name in ("a/1", "a/2", "b/1"):
            ceph.put_sync("data", name, 1)
        assert ceph.list_keys("data", prefix="a/") == ["a/1", "a/2"]

    def test_osd_full_rejected(self, env):
        ceph = CephCluster(env)
        for i in range(3):
            ceph.add_osd(host=f"h{i}", capacity=1 * GB)
        ceph.create_pool("data", replication=3)
        with pytest.raises(StorageError):
            ceph.put_sync("data", "big", 2 * GB)


class TestTimedPath:
    @pytest.fixture
    def timed(self, env):
        topo = Topology()
        topo.add_site("S")
        for host in ("client", "stor-00", "stor-01", "stor-02"):
            topo.attach_host(host, "S", nic_gbps=10.0)
        flows = FlowSimulator(env)
        ceph = CephCluster(env, flowsim=flows, topology=topo)
        for i in range(3):
            ceph.add_osd(host=f"stor-{i:02d}", capacity=10e12, disk_Bps=500e6)
        ceph.create_pool("data", replication=3)
        return ceph

    def test_put_takes_disk_limited_time(self, env, timed):
        """1 GB at 500 MB/s disk (slower than the 1.25 GB/s NIC): ~2s,
        but the client NIC carries 3 replicas at once -> 3GB/1.25GBps=2.4s."""
        done = timed.put("data", "k", 1 * GB, client_host="client")
        env.run(until=done)
        assert env.now == pytest.approx(2.4, rel=0.05)

    def test_get_served_by_primary(self, env, timed):
        env.run(until=timed.put("data", "k", 1 * GB, client_host="client"))
        start = env.now
        env.run(until=timed.get("data", "k", client_host="client"))
        # Single replica read: disk 500 MB/s is the bottleneck -> 2s.
        assert env.now - start == pytest.approx(2.0, rel=0.05)

    def test_parallel_puts_contend(self, env, timed):
        d1 = timed.put("data", "a", 1 * GB, client_host="client")
        d2 = timed.put("data", "b", 1 * GB, client_host="client")
        env.run(until=env.all_of([d1, d2]))
        # 6 GB total through one 1.25 GB/s client NIC: ~4.8s.
        assert env.now == pytest.approx(4.8, rel=0.1)

    def test_unroutable_get_and_put_fail_their_events(self, env, timed):
        """A route error met inside the transfer fails the returned
        event, as a cancelled flow fails its handle, instead of
        escaping the run from an unwatched process."""
        env.run(until=timed.put("data", "k", 1 * GB, client_host="client"))
        timed.topology.fail_link("client", "S")
        get = timed.get("data", "k", client_host="client")
        put = timed.put("data", "k2", 1 * GB, client_host="client")
        env.run(until=env.now + 1.0)
        for done in (get, put):
            assert done.processed and not done.ok
            assert isinstance(done.value, NoRouteError)
        assert not timed.exists("data", "k2")
        with pytest.raises(NoRouteError):
            env.run(until=get)


class TestFailureRecovery:
    def test_degraded_then_recovered(self, env, ceph):
        ceph.put_sync("data", "k", GB)
        victim = ceph.holders("data", "k")[0]
        ceph.fail_osd(victim.id)
        assert ceph.degraded_objects() == 1
        assert ceph.health()["status"] == "HEALTH_WARN"
        env.run()
        assert ceph.degraded_objects() == 0
        assert ceph.recovered_objects == 1

    def test_read_survives_single_osd_loss(self, env, ceph):
        ceph.put_sync("data", "k", GB, payload="precious")
        victim = ceph.holders("data", "k")[0]
        ceph.fail_osd(victim.id)
        assert ceph.get_sync("data", "k").payload == "precious"

    def test_object_lost_when_all_replicas_die(self, env, ceph):
        ceph.put_sync("data", "k", GB)
        for osd in list(ceph.holders("data", "k")):
            ceph.fail_osd(osd.id)
        env.run()
        assert ("data", "k") in ceph.lost_objects
        assert ceph.health()["status"] == "HEALTH_ERR"
        with pytest.raises(StorageError):
            ceph.get_sync("data", "k")

    def test_recovered_osd_rejoins_empty(self, env, ceph):
        ceph.put_sync("data", "k", GB)
        victim = ceph.holders("data", "k")[0]
        ceph.fail_osd(victim.id)
        env.run()
        ceph.recover_osd(victim.id)
        assert ceph.osds[victim.id].used == 0
        assert ceph.health()["status"] == "HEALTH_OK"

    def test_health_ok_initially(self, ceph):
        h = ceph.health()
        assert h["status"] == "HEALTH_OK"
        assert h["osds_up"] == 6


class TestCephFS:
    @pytest.fixture
    def fs(self, ceph):
        return CephFS(ceph)

    def test_write_read(self, fs):
        fs.write("/results/run1.nc", 100.0, payload=[1, 2, 3])
        assert fs.read("/results/run1.nc").payload == [1, 2, 3]
        assert fs.read_payload("results/run1.nc") == [1, 2, 3]

    def test_path_normalization(self, fs):
        fs.write("a//b/../c.txt", 1.0)
        assert fs.exists("/a/c.txt")

    def test_listdir(self, fs):
        fs.write("/data/x/1.nc", 1)
        fs.write("/data/x/2.nc", 1)
        fs.write("/data/y.nc", 1)
        assert fs.listdir("/data") == ["x", "y.nc"]
        assert fs.listdir("/data/x") == ["1.nc", "2.nc"]

    def test_du(self, fs):
        fs.write("/d/a", 10)
        fs.write("/d/b", 20)
        fs.write("/other", 5)
        assert fs.du("/d") == 30
        assert fs.du("/") == 35

    def test_remove(self, fs):
        fs.write("/f", 1)
        fs.remove("/f")
        assert not fs.exists("/f")

    def test_read_payload_missing(self, fs):
        fs.write("/meta-only", 1)
        with pytest.raises(ObjectNotFoundError):
            fs.read_payload("/meta-only")
