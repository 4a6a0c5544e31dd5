"""Tests for pod liveness probes and the node heartbeat/lease controller."""

import pytest

from repro.cluster import (
    ContainerSpec,
    JobSpec,
    LivenessProbe,
    PodPhase,
    PodSpec,
    ResourceRequirements,
)
from repro.monitoring.metrics import MetricRegistry
from repro.testbed import build_nautilus_testbed

from .conftest import sleeper_spec


def _spec(main, liveness=None):
    return PodSpec(
        containers=[
            ContainerSpec(
                name="main",
                image="repro/liveness:1",
                main=main,
                resources=ResourceRequirements(cpu=1, memory="1Gi"),
            )
        ],
        liveness=liveness,
    )


def hung_spec(liveness, hang_s=1e6):
    """A container that makes no progress and never heartbeats."""

    def main(ctx):
        yield ctx.env.timeout(hang_s)

    return _spec(main, liveness)


def beating_spec(liveness, duration=60.0, beat_every=5.0):
    """A container that heartbeats while it works."""

    def main(ctx):
        elapsed = 0.0
        while elapsed < duration:
            yield ctx.env.timeout(beat_every)
            elapsed += beat_every
            ctx.heartbeat()
        return duration

    return _spec(main, liveness)


class TestLivenessProbe:
    def test_hung_pod_killed_and_charged_to_backoff_limit(self, cluster, env):
        cluster.metrics = MetricRegistry(env)
        probe = LivenessProbe(period_s=5.0, timeout_s=30.0)
        job = cluster.create_job(
            "hung",
            JobSpec(
                template=lambda i: hung_spec(probe),
                completions=1,
                backoff_limit=1,
            ),
        )
        job.completion_event.defuse()
        env.run()
        # Initial pod + one restart, both liveness-killed -> job fails.
        assert job.is_failed
        assert job.failed_count == 2
        assert (
            cluster.metrics.counter_sum("pod_liveness_restarts_total") == 2.0
        )
        reasons = [e.reason for e in cluster.events_for("Pod")]
        assert "LivenessFailed" in reasons

    def test_heartbeating_pod_survives(self, cluster, env):
        cluster.metrics = MetricRegistry(env)
        probe = LivenessProbe(period_s=5.0, timeout_s=12.0)
        pod = cluster.create_pod(
            "beater", beating_spec(probe, duration=60.0, beat_every=5.0)
        )
        env.run()
        assert pod.phase is PodPhase.SUCCEEDED
        assert (
            cluster.metrics.counter_sum("pod_liveness_restarts_total") == 0.0
        )

    def test_probe_pauses_while_no_container_runs(self, cluster, env):
        # The watchdog only counts time while containers are alive, so a
        # pod that is liveness-killed and restarted by its Job gets a
        # fresh window, not an instant re-kill.
        probe = LivenessProbe(period_s=2.0, timeout_s=10.0)
        job = cluster.create_job(
            "hung2",
            JobSpec(
                template=lambda i: hung_spec(probe),
                completions=1,
                backoff_limit=2,
            ),
        )
        job.completion_event.defuse()
        env.run()
        assert job.failed_count == 3  # each attempt lived its full window


class TestNodeLeases:
    def test_partition_expires_leases_then_heals(self):
        tb = build_nautilus_testbed(seed=3, scale=0.001)
        env = tb.env
        tb.enable_node_leases(interval_s=15.0, grace_periods=3)
        faults = tb.network_faults()
        stanford = [
            name
            for name, node in tb.cluster.nodes.items()
            if node.spec.site == "Stanford"
        ]
        assert stanford  # the PRP build places nodes there

        job = tb.cluster.create_job(
            "work",
            JobSpec(
                template=lambda i: sleeper_spec(duration=400.0),
                completions=8,
                parallelism=8,
            ),
        )
        env.run(until=60.0)
        faults.partition(["Stanford"])

        # Three missed 15 s heartbeats -> NotReady via the same path as
        # a hard node failure.
        env.run(until=160.0)
        for name in stanford:
            assert not tb.cluster.get_node(name).ready
        expired = tb.registry.counter_sum("node_lease_expirations_total")
        assert expired == float(len(stanford))
        assert tb.registry.counter_sum("network_partitions_total") == 1.0

        faults.heal_partition()
        results = env.run(until=job.completion_event)
        assert job.is_complete
        assert set(results) == set(range(8))
        # Heartbeats resumed -> the lease controller auto-recovered the
        # nodes it failed.
        env.run(until=env.now + 30.0)
        for name in stanford:
            assert tb.cluster.get_node(name).ready

    def test_lease_controller_only_recovers_its_own_failures(self):
        tb = build_nautilus_testbed(seed=3, scale=0.001)
        env = tb.env
        tb.enable_node_leases(interval_s=15.0, grace_periods=3)
        victim = sorted(tb.cluster.nodes)[0]
        tb.cluster.fail_node(victim)  # hard failure, not lease expiry
        env.run(until=120.0)
        # Heartbeats are fine (no partition), but the controller must
        # not resurrect a node an operator/chaos failed directly.
        assert not tb.cluster.get_node(victim).ready
