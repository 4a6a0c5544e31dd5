"""Tests for the CalVR distributed-visualization scenario (§VII)."""

import pytest

from repro.errors import ClusterError
from repro.testbed import build_nautilus_testbed
from repro.vizcluster import UNNOTICEABLE_LATENCY_S, VisualizationCluster
from repro.workflow import Workflow, WorkflowDriver
from tests.workflow.test_workflow_core import SleepStep


@pytest.fixture
def testbed():
    # 12 GPU nodes so 11 render nodes leave room for cohabitation.
    return build_nautilus_testbed(seed=6, scale=0.0001, n_fiona8=12)


@pytest.fixture
def calvr(testbed):
    # The paper drives displays at UC Merced from the SunCAVE at UCSD.
    testbed.topology.attach_host("suncave-ucsd", "UCSD", nic_gbps=10.0)
    testbed.topology.attach_host("display-ucm", "UCM", nic_gbps=10.0)
    return VisualizationCluster(testbed, input_host="suncave-ucsd")


class TestDeployment:
    def test_eleven_node_deployment(self, testbed, calvr):
        """§VII: 'a scalable OpenGL-based visualization application
        across 11 remote GPU nodes'."""
        nodes = testbed.gpu_nodes[:11]
        calvr.deploy(nodes)
        testbed.env.run(until=60)
        assert calvr.ready_renderers() == 11
        placement = calvr.renderer_placement()
        assert set(placement) == set(nodes)
        assert all(count == 1 for count in placement.values())

    def test_rejects_gpu_less_nodes(self, testbed, calvr):
        cpu_nodes = [
            n.spec.name
            for n in testbed.cluster.ready_nodes()
            if n.spec.gpus == 0
        ]
        with pytest.raises(ClusterError):
            calvr.deploy(cpu_nodes[:1])

    def test_cohabitation_with_compute(self, testbed, calvr):
        """§VII: 'graphics and machine learning processes can cohabitate'
        — ML pods run on the very nodes rendering VR content."""
        nodes = testbed.gpu_nodes[:4]
        calvr.deploy(nodes)
        testbed.env.run(until=60)

        class GpuStep(SleepStep):
            def execute(self, ctx):
                from repro.cluster import JobSpec
                from tests.cluster.conftest import sleeper_spec

                job = ctx.testbed.cluster.create_job(
                    "cohab",
                    JobSpec(
                        template=lambda i: sleeper_spec(
                            duration=30, gpu=4,
                            node_selector={
                                "kubernetes.io/hostname": nodes[0]
                            },
                        ),
                        completions=1,
                    ),
                    namespace=ctx.namespace,
                )
                yield job.completion_event

        report = WorkflowDriver(testbed).run(
            Workflow("cohab", [GpuStep(name="ml")])
        )
        assert report.succeeded
        # The renderer kept running throughout.
        assert calvr.renderer_placement()[nodes[0]] == 1


class TestInteraction:
    def test_wand_round_trip_unnoticeable(self, testbed, calvr):
        """§VII: wand input from San Diego drives Merced displays 'with
        unnoticeable latency'."""
        events = [calvr.send_wand_event("display-ucm") for _ in range(20)]
        testbed.env.run(until=testbed.env.all_of(events))
        report = calvr.interaction_report()
        assert report["events"] == 20
        assert report["unnoticeable_fraction"] == 1.0
        assert report["max_rtt_ms"] < UNNOTICEABLE_LATENCY_S * 1e3

    def test_rtt_reflects_topology(self, testbed, calvr):
        """RTT must be at least twice the one-way PRP latency."""
        one_way = testbed.topology.path_latency("suncave-ucsd", "display-ucm")
        done = calvr.send_wand_event("display-ucm")
        event = testbed.env.run(until=done)
        assert event.rtt_s >= 2 * one_way

    def test_empty_report(self, calvr):
        report = calvr.interaction_report()
        assert report["events"] == 0
