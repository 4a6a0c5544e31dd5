"""A resolved chunk is a column store of the requests a list would hold.

``ThreddsServer.resolve_many`` returns a :class:`ResolvedChunk` that
builds each :class:`SubsetRequest` when read.  Every reader must see the
same requests, sizes and counters as the per-granule path, and a
download of the chunk must move exactly what a download of the
equivalent list moves.
"""

import dataclasses

import numpy as np
import pytest

from repro.data import MerraArchive
from repro.netsim import FlowSimulator, Topology
from repro.sim import Environment
from repro.transfer import Aria2Downloader, ResolvedChunk, ThreddsServer

VARIABLES = [None, ("U", "V", "QV"), ("QV",), ("V", "U")]


@pytest.fixture(scope="module")
def archive():
    return MerraArchive(n_files=500, seed=3)


def _indices(archive):
    rng = np.random.default_rng(11)
    return [0, archive.n_files - 1] + rng.choice(
        archive.n_files, size=120, replace=False
    ).tolist()


@pytest.mark.parametrize("variables", VARIABLES)
def test_items_equal_single_resolves_field_by_field(archive, variables):
    indices = _indices(archive)
    chunk = ThreddsServer(archive, host="its-dtn-02").resolve_many(
        indices, variables
    )
    assert isinstance(chunk, ResolvedChunk)
    assert len(chunk) == len(indices)
    for k, i in enumerate(indices):
        server = ThreddsServer(archive, host="its-dtn-02")
        expected = server.resolve_many([i], variables)[0]
        got = chunk[k]
        assert dataclasses.astuple(got) == dataclasses.astuple(expected)
        assert got.granule == expected.granule
        assert got.url == expected.url
    assert list(chunk) == [chunk[k] for k in range(len(chunk))]
    assert chunk[-1] == chunk[len(chunk) - 1]


@pytest.mark.parametrize("variables", VARIABLES)
def test_bytes_served_identical(archive, variables):
    indices = _indices(archive)
    batched = ThreddsServer(archive)
    batched.resolve_many(indices, variables)
    single = ThreddsServer(archive)
    for i in indices:
        single.resolve_many([i], variables)
    assert batched.bytes_served == single.bytes_served
    assert batched.requests_served == single.requests_served == len(indices)


@pytest.mark.parametrize("n", [1, 3, 7, 20])
def test_slices_keep_sizes_in_order(archive, n):
    chunk = ThreddsServer(archive).resolve_many(_indices(archive), ("U", "V"))
    as_list = list(chunk)
    for k in range(n):
        part = chunk[k::n]
        assert isinstance(part, ResolvedChunk)
        assert part.nbytes == [r.nbytes for r in as_list[k::n]]
        assert part == as_list[k::n]
    assert chunk[5:2] == []


def test_chunk_is_read_only_and_compares_as_a_list(archive):
    server = ThreddsServer(archive)
    chunk = server.resolve_many([4, 2, 9])
    assert chunk == list(chunk)
    assert list(chunk) == chunk
    assert chunk == server.resolve_many([4, 2, 9])
    assert chunk != server.resolve_many([4, 2, 8])
    assert chunk != list(chunk)[:2]
    with pytest.raises(TypeError):
        chunk[0] = chunk[1]
    with pytest.raises(IndexError):
        chunk[3]


def _world():
    env = Environment()
    topo = Topology()
    topo.add_site("UCSD")
    topo.attach_host("its-dtn-02", "UCSD", nic_gbps=10.0)
    topo.attach_host("worker-0", "UCSD", nic_gbps=10.0)
    return env, topo, FlowSimulator(env)


def _download(server, requests, coalesce):
    env, topo, flows = _world()
    dl = Aria2Downloader(
        env, flows, topo, server, host="worker-0", connections=4,
        coalesce_threshold=coalesce,
    )
    stats = env.run(until=env.process(dl.download_batch(requests)))
    return dataclasses.astuple(stats), env.now, flows.bytes_moved


@pytest.mark.parametrize("coalesce", [0, 8])
def test_download_of_chunk_equals_download_of_list(archive, coalesce):
    server = ThreddsServer(archive, host="its-dtn-02")
    chunk = server.resolve_many(_indices(archive)[:40], ("U", "V", "QV"))
    assert _download(server, chunk, coalesce) == _download(
        server, list(chunk), coalesce
    )
