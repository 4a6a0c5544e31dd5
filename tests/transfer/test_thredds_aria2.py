"""Tests for THREDDS subsetting, the Aria2 downloader, and merging."""

import pytest

from repro.data import MerraArchive
from repro.data.netcdf import NetCDFFile
from repro.errors import TransferError
from repro.netsim import FlowSimulator, Topology
from repro.sim import Environment
from repro.transfer import (
    Aria2Downloader,
    MergePlanner,
    ThreddsServer,
    merge_cpu_seconds,
    merged_hdf_size,
)


@pytest.fixture
def archive():
    return MerraArchive(n_files=100, seed=1)


@pytest.fixture
def server(archive):
    return ThreddsServer(archive, host="its-dtn-02")


class TestThredds:
    def test_full_file_request(self, server, archive):
        req = server.resolve_many([5])[0]
        assert req.nbytes == archive.granule(5).full_bytes
        assert req.variables is None
        assert "its-dtn-02" in req.url

    def test_subset_request_is_smaller(self, server, archive):
        """§III-A: subsetting cuts the transfer roughly in half."""
        full = server.resolve_many([5])[0]
        sub = server.resolve_many([5], variables=("U", "V", "QV"))[0]
        assert sub.nbytes == pytest.approx(archive.granule(5).subset_bytes)
        assert sub.nbytes / full.nbytes == pytest.approx(246 / 455, rel=1e-6)

    def test_single_variable_scales_down(self, server):
        one = server.resolve_many([0], variables=("QV",))[0]
        three = server.resolve_many([0], variables=("U", "V", "QV"))[0]
        assert one.nbytes == pytest.approx(three.nbytes / 3)

    def test_unknown_variable_rejected(self, server):
        with pytest.raises(TransferError):
            server.resolve_many([0], variables=("GHOST",))

    def test_stats_accumulate(self, server):
        server.resolve_many([0])
        server.resolve_many([1], variables=("U",))
        assert server.requests_served == 2
        assert server.bytes_served > 0


class TestAria2:
    @pytest.fixture
    def world(self, server):
        env = Environment()
        topo = Topology()
        topo.add_site("UCSD")
        topo.attach_host("its-dtn-02", "UCSD", nic_gbps=10.0)
        topo.attach_host("worker-0", "UCSD", nic_gbps=10.0)
        flows = FlowSimulator(env)
        return env, topo, flows

    def test_batch_downloads_everything(self, world, server):
        env, topo, flows = world
        dl = Aria2Downloader(env, flows, topo, server, host="worker-0",
                             connections=20)
        reqs = server.resolve_many(range(10), variables=("U", "V", "QV"))
        proc = env.process(dl.download_batch(reqs))
        stats = env.run(until=proc)
        assert stats.files == 10
        assert stats.bytes == pytest.approx(sum(r.nbytes for r in reqs))
        assert stats.duration > 0

    def test_connection_limit_serializes(self, world, server):
        """1 connection must be ~N times slower than N connections is NOT
        true on a shared link — but overheads serialize, so 1-conn pays
        N x request_overhead while 20-conn pays ~ceil(N/20) x."""
        env, topo, flows = world
        reqs = server.resolve_many(range(10))
        slow = Aria2Downloader(env, flows, topo, server, "worker-0",
                               connections=1)
        proc = env.process(slow.download_batch(reqs))
        t_serial = env.run(until=proc)
        env2 = Environment()
        topo2 = Topology()
        topo2.add_site("UCSD")
        topo2.attach_host("its-dtn-02", "UCSD", nic_gbps=10.0)
        topo2.attach_host("worker-0", "UCSD", nic_gbps=10.0)
        flows2 = FlowSimulator(env2)
        fast = Aria2Downloader(env2, flows2, topo2, server, "worker-0",
                               connections=20)
        proc2 = env2.process(fast.download_batch(reqs))
        env2.run(until=proc2)
        assert env2.now < env.now

    def test_zero_requests_is_fine(self, world, server):
        env, topo, flows = world
        dl = Aria2Downloader(env, flows, topo, server, "worker-0")
        proc = env.process(dl.download_batch([]))
        stats = env.run(until=proc)
        assert stats.files == 0

    def test_bad_connection_count(self, world, server):
        env, topo, flows = world
        with pytest.raises(ValueError):
            Aria2Downloader(env, flows, topo, server, "worker-0", connections=0)


class TestMerge:
    def test_merged_size_saves_headers(self):
        sizes = [1e6, 1e6, 1e6]
        merged = merged_hdf_size(sizes)
        assert merged == pytest.approx(3e6 - 2 * NetCDFFile.HEADER_BYTES)

    def test_empty_merge(self):
        assert merged_hdf_size([]) == 0.0

    def test_cpu_time_scales_with_files_and_bytes(self):
        few_big = merge_cpu_seconds([1e9])
        many_small = merge_cpu_seconds([1e9 / 1000] * 1000)
        assert many_small > few_big  # per-file overhead dominates

    def test_planner_partitions_all_indices(self):
        planner = MergePlanner(files_per_merge=240)
        indices = list(range(1000))
        sizes = {i: 2e6 for i in indices}
        plans = planner.plan(indices, sizes, worker="w0")
        assert len(plans) == 5  # ceil(1000/240)
        covered = [i for p in plans for i in p.granule_indices]
        assert sorted(covered) == indices
        assert all(p.output_bytes < p.input_bytes for p in plans)

    def test_planner_validates(self):
        with pytest.raises(ValueError):
            MergePlanner(files_per_merge=0)
