"""Unit tests for nodes, FIONA specs, and resource accounting."""

import pytest

from repro.cluster import (
    Node,
    NodeSpec,
    ObjectMeta,
    Pod,
    ResourceRequirements,
    fiona8_node_spec,
    fiona_node_spec,
)
from repro.cluster.quantity import GiB
from repro.errors import ClusterError
from tests.cluster.conftest import sleeper_spec


def make_pod(name="p", **kwargs):
    return Pod(ObjectMeta(name=name), sleeper_spec(**kwargs))


class TestFionaSpecs:
    def test_basic_fiona_matches_paper(self):
        """Paper §II: dual 12-core CPUs, 96 GB RAM, 1 TB SSD, two 10GbE."""
        spec = fiona_node_spec("dtn-01")
        assert spec.cpu == 24
        assert spec.memory == 96 * GiB
        assert spec.gpus == 0
        assert spec.local_storage == 1024**4
        assert spec.nics_gbps == (10.0, 10.0)

    def test_fiona8_has_eight_gpus(self):
        """Paper §II: FIONA8 machines contain eight game GPUs each."""
        spec = fiona8_node_spec("fiona8-01")
        assert spec.gpus == 8
        assert spec.gpu_model == "nvidia-1080ti"

    def test_site_label_propagates(self):
        node = Node(fiona_node_spec("n", site="UCI"))
        assert node.meta.labels["site"] == "UCI"


class TestNodeAccounting:
    def test_free_equals_capacity_initially(self):
        node = Node(fiona8_node_spec("n"))
        assert node.free.cpu == 24
        assert node.free.gpu == 8

    def test_allocate_reduces_free(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(cpu=4, memory="8Gi", gpu=2)
        node.allocate(pod)
        assert node.free.cpu == 20
        assert node.free.gpu == 6
        assert node.free.memory == (96 - 8) * GiB

    def test_release_restores_free(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(cpu=4, gpu=2)
        node.allocate(pod)
        node.release(pod)
        assert node.free.cpu == 24
        assert node.free.gpu == 8
        assert node.pods == {}

    def test_release_is_idempotent(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(cpu=4)
        node.allocate(pod)
        node.release(pod)
        node.release(pod)
        assert node.free.cpu == 24

    def test_overcommit_rejected(self):
        node = Node(fiona_node_spec("n"))
        with pytest.raises(ClusterError):
            node.allocate(make_pod(cpu=25))

    def test_gpu_overcommit_rejected(self):
        node = Node(fiona8_node_spec("n"))
        node.allocate(make_pod("a", gpu=8))
        with pytest.raises(ClusterError):
            node.allocate(make_pod("b", gpu=1))

    def test_pod_request_is_fixed_at_creation(self):
        pod = make_pod(cpu="500m", memory="2Gi", gpu=1)
        assert pod.request == pod.spec.total_request()
        assert pod.request == ResourceRequirements(cpu=0.5, memory="2Gi", gpu=1)

    def test_free_clamps_cpu_overshoot_at_zero(self):
        """Float CPU sums may overshoot capacity within the 1e-9-core
        tolerance; ``free`` reports 0 and ``can_fit`` agrees with it."""
        node = Node(fiona_node_spec("n"))
        for i in range(240):
            node.allocate(make_pod(f"p{i}", cpu=0.1, memory="100Mi"))
        assert node.allocated.cpu > node.capacity.cpu  # the overshoot
        assert node.free.cpu == 0.0
        assert node.free.memory == (96 * 1024 - 240 * 100) * 1024**2
        small = ResourceRequirements(cpu=0.1)
        assert node.can_fit(small) is False
        assert small.fits_within(node.free) is False
        no_cpu = ResourceRequirements(memory="1Gi")
        assert node.can_fit(no_cpu) is True
        assert no_cpu.fits_within(node.free) is True

    def test_can_fit_matches_fits_within_free(self):
        node = Node(fiona8_node_spec("n"))
        node.allocate(make_pod("a", cpu=20, memory="90Gi", gpu=7))
        for request in (
            ResourceRequirements(cpu=4),
            ResourceRequirements(cpu=4.5),
            ResourceRequirements(memory="6Gi"),
            ResourceRequirements(memory="7Gi"),
            ResourceRequirements(gpu=1),
            ResourceRequirements(gpu=2),
            ResourceRequirements(ephemeral_storage=2 * 1024**4),
            ResourceRequirements(ephemeral_storage=2 * 1024**4 + 1),
        ):
            assert node.can_fit(request) == request.fits_within(node.free)


class TestDevicePlugin:
    def test_gpu_devices_assigned_on_allocate(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(gpu=3)
        node.allocate(pod)
        assert len(pod.assigned_gpus) == 3
        assert all(g.startswith("n/gpu") for g in pod.assigned_gpus)
        assert sum(d.allocated_to is not None for d in node.devices) == 3

    def test_devices_freed_on_release(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(gpu=8)
        node.allocate(pod)
        node.release(pod)
        assert all(d.allocated_to is None for d in node.devices)

    def test_distinct_devices_per_pod(self):
        node = Node(fiona8_node_spec("n"))
        a, b = make_pod("a", gpu=4), make_pod("b", gpu=4)
        node.allocate(a)
        node.allocate(b)
        assert set(a.assigned_gpus).isdisjoint(b.assigned_gpus)


class TestResourceRequirements:
    def test_add(self):
        total = ResourceRequirements(cpu=1, memory=100, gpu=1) + ResourceRequirements(
            cpu="500m", memory=50
        )
        assert total.cpu == 1.5
        assert total.memory == 150
        assert total.gpu == 1

    def test_fits_within(self):
        big = ResourceRequirements(cpu=8, memory=1000, gpu=2)
        small = ResourceRequirements(cpu=2, memory=500)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_negative_gpu_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequirements(gpu=-1)

    def test_fractional_gpu_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequirements(gpu=0.5)
