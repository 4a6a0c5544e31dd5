"""Tests for priority preemption."""

import pytest

from repro.cluster import Cluster, PodPhase, fiona8_node_spec
from repro.sim import Environment
from tests.cluster.conftest import sleeper_spec


@pytest.fixture
def env():
    return Environment()


class TestPreemption:
    def test_high_priority_pod_preempts_low(self, env):
        cluster = Cluster(env)
        cluster.add_node(fiona8_node_spec("gpu-a"))
        # Fill all 8 GPUs with low-priority work.
        low = [
            cluster.create_pod(f"low-{i}", sleeper_spec(duration=1e6, gpu=4))
            for i in range(2)
        ]
        env.run(until=30)
        assert all(p.phase is PodPhase.RUNNING for p in low)
        spec = sleeper_spec(duration=10, gpu=4)
        spec.priority = 100
        urgent = cluster.create_pod("urgent", spec)
        env.run(until=100)
        assert urgent.phase is PodPhase.SUCCEEDED
        # Exactly one victim was evicted.
        preempted = [p for p in low if p.phase is PodPhase.FAILED]
        assert len(preempted) == 1
        assert any(
            e.reason == "Preempted" for e in cluster.events_for("Pod")
        )

    def test_equal_priority_never_preempts(self, env):
        cluster = Cluster(env)
        cluster.add_node(fiona8_node_spec("gpu-a"))
        low = cluster.create_pod("holder", sleeper_spec(duration=200, gpu=8))
        env.run(until=30)
        pod = cluster.create_pod("peer", sleeper_spec(duration=10, gpu=8))
        env.run(until=100)
        assert pod.phase is PodPhase.PENDING
        assert low.phase is PodPhase.RUNNING
        env.run()
        assert pod.phase is PodPhase.SUCCEEDED  # after holder finishes

    def test_preemption_chooses_fewest_victims(self, env):
        cluster = Cluster(env)
        cluster.add_node(fiona8_node_spec("many"))
        cluster.add_node(fiona8_node_spec("one"))
        # "many" holds 4 small pods; "one" holds 1 big pod.
        for i in range(4):
            cluster.create_pod(
                f"small-{i}",
                sleeper_spec(
                    duration=1e6, gpu=2,
                    node_selector={"kubernetes.io/hostname": "many"},
                ),
            )
        big = cluster.create_pod(
            "big",
            sleeper_spec(
                duration=1e6, gpu=8,
                node_selector={"kubernetes.io/hostname": "one"},
            ),
        )
        env.run(until=30)
        spec = sleeper_spec(duration=10, gpu=8)
        spec.priority = 10
        urgent = cluster.create_pod("urgent", spec)
        env.run(until=100)
        assert urgent.phase is PodPhase.SUCCEEDED
        assert big.phase is PodPhase.FAILED  # single victim beats four
        assert urgent.node_name == "one"

    def test_preemption_respects_selectors(self, env):
        """A pod that can only run on node X must not preempt on node Y."""
        cluster = Cluster(env)
        cluster.add_node(fiona8_node_spec("x"))
        cluster.add_node(fiona8_node_spec("y"))
        victim = cluster.create_pod(
            "victim",
            sleeper_spec(duration=1e6, gpu=8,
                         node_selector={"kubernetes.io/hostname": "y"}),
        )
        env.run(until=30)
        spec = sleeper_spec(duration=10, gpu=8,
                            node_selector={"kubernetes.io/hostname": "x"})
        spec.priority = 10
        pod = cluster.create_pod("wants-x", spec)
        env.run(until=100)
        # x was free: scheduled without touching the pod on y.
        assert pod.phase is PodPhase.SUCCEEDED
        assert victim.phase is PodPhase.RUNNING

    def test_zero_priority_never_triggers_preemption(self, env):
        cluster = Cluster(env)
        cluster.add_node(fiona8_node_spec("gpu-a"))
        holder = cluster.create_pod("holder", sleeper_spec(duration=200, gpu=8))
        env.run(until=30)
        default_prio = cluster.create_pod("normal", sleeper_spec(duration=5, gpu=8))
        env.run(until=60)
        assert holder.phase is PodPhase.RUNNING
        assert default_prio.phase is PodPhase.PENDING
