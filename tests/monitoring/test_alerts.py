"""Tests for the alerting engine."""

import pytest

from repro.monitoring.alerts import (
    AlertManager,
    AlertRule,
    AlertState,
    aggregate_above,
    gauge_above,
)
from repro.monitoring.metrics import MetricRegistry
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry(env):
    return MetricRegistry(env)


@pytest.fixture
def manager(env, registry):
    return AlertManager(env, registry, interval=10.0)


class TestAlertLifecycle:
    def test_fires_after_for_duration(self, env, registry, manager):
        manager.add_rule(AlertRule(
            name="HotNode",
            condition=gauge_above("cpu", 20.0),
            for_seconds=25.0,
        ))

        def load(env):
            registry.set_gauge("cpu", 30.0, {"node": "a"})
            yield env.timeout(100)

        env.process(load(env))
        env.run(until=15)
        assert manager.state("HotNode") is AlertState.PENDING
        env.run(until=40)
        assert manager.state("HotNode") is AlertState.FIRING
        assert len(manager.firing()) == 1

    def test_resolves_when_condition_clears(self, env, registry, manager):
        manager.add_rule(AlertRule(
            name="HotNode", condition=gauge_above("cpu", 20.0)
        ))

        def load(env):
            registry.set_gauge("cpu", 30.0)
            yield env.timeout(35)
            registry.set_gauge("cpu", 5.0)
            yield env.timeout(35)

        env.process(load(env))
        env.run(until=80)
        assert manager.state("HotNode") is AlertState.INACTIVE
        assert manager.history[0].resolved_at is not None
        assert not manager.firing()

    def test_flapping_below_for_never_fires(self, env, registry, manager):
        manager.add_rule(AlertRule(
            name="Flappy", condition=gauge_above("x", 1.0), for_seconds=25.0
        ))

        def flap(env):
            for _ in range(5):
                registry.set_gauge("x", 2.0)
                yield env.timeout(10)
                registry.set_gauge("x", 0.0)
                yield env.timeout(10)

        env.process(flap(env))
        env.run(until=120)
        assert manager.state("Flappy") is not AlertState.FIRING
        assert manager.history == []

    def test_notifier_called_on_fire(self, env, registry, manager):
        seen = []
        manager.notifiers.append(seen.append)
        manager.add_rule(AlertRule(
            name="N", condition=gauge_above("x", 0.5), severity="critical"
        ))
        registry.set_gauge("x", 1.0)
        env.run(until=20)
        assert len(seen) == 1
        assert seen[0].severity == "critical"

    def test_broken_condition_does_not_crash(self, env, registry, manager):
        manager.add_rule(AlertRule(
            name="Broken", condition=lambda r: 1 / 0
        ))
        env.run(until=50)
        assert manager.state("Broken") is AlertState.INACTIVE

    def test_duplicate_rule_rejected(self, manager):
        manager.add_rule(AlertRule(name="A", condition=lambda r: False))
        with pytest.raises(ValueError):
            manager.add_rule(AlertRule(name="A", condition=lambda r: False))

    def test_bad_interval(self, env, registry):
        with pytest.raises(ValueError):
            AlertManager(env, registry, interval=0)


class TestConditions:
    def test_gauge_above(self, registry):
        cond = gauge_above("m", 10.0)
        assert not cond(registry)
        registry.set_gauge("m", 5.0, {"a": "1"})
        assert not cond(registry)
        registry.set_gauge("m", 15.0, {"a": "2"})
        assert cond(registry)

    def test_aggregate_above(self, registry):
        cond = aggregate_above("m", 10.0)
        registry.set_gauge("m", 6.0, {"a": "1"})
        registry.set_gauge("m", 6.0, {"a": "2"})
        assert cond(registry)


class TestNautilusIntegration:
    def test_ceph_degraded_alert_fires_on_osd_loss(self):
        """Wire an alert to the testbed's health and kill an OSD."""
        from repro.testbed import build_nautilus_testbed

        testbed = build_nautilus_testbed(seed=5, scale=0.0001)
        manager = AlertManager(testbed.env, testbed.registry, interval=5.0)
        testbed.sampler.add_probe(
            "ceph_degraded_objects",
            lambda: float(testbed.ceph.degraded_objects()),
        )
        manager.add_rule(AlertRule(
            name="CephDegraded",
            condition=gauge_above("ceph_degraded_objects", 0.0),
            severity="critical",
        ))
        testbed.ceph.put_sync("merra", "obj", 1e9)
        victim = testbed.ceph.holders("merra", "obj")[0]

        def chaos(env):
            yield env.timeout(30)
            testbed.ceph.fail_osd(victim.id)

        testbed.env.process(chaos(testbed.env))
        testbed.env.run(until=60)
        # Degraded -> alert fires; recovery then re-replicates and the
        # alert resolves.
        assert any(a.rule == "CephDegraded" for a in manager.history)
        testbed.env.run(until=400)
        assert manager.state("CephDegraded") is AlertState.INACTIVE
