"""Control-plane behavior under overload.

Three properties the multi-tenant story depends on:

1. **Preemption ordering** — when a high-priority pod cannot fit, the
   scheduler evicts the *lowest*-priority victims first and leaves
   higher-priority pods running.
2. **Fair-share starvation-freedom** — a light tenant submitting into a
   cluster already saturated by a heavy tenant still gets scheduled
   promptly; weighted DRF ordering prevents FIFO starvation.
3. **Backpressure determinism** — the gateway's admit/queue/reject
   decision sequence (including ``retry_after_s`` hints) is identical
   run-to-run on a fixed seed.
"""

import numpy as np
import pytest

from repro.analysis import ClusterSpecView, node_views, pod_view_from_spec
from repro.analysis.cluster_rules import run_spec_rules
from repro.cluster import (
    Cluster,
    PodPhase,
    fiona8_node_spec,
    fiona_node_spec,
)
from repro.cluster.namespace import ResourceQuota
from repro.gateway import (
    ADMITTED,
    QUEUED,
    REJECTED,
    SHED,
    AdmissionGateway,
    BreakerState,
    GatewayConfig,
    TenantPolicy,
)
from repro.sim import Environment
from repro.sim.rng import derive_seed
from tests.cluster.conftest import sleeper_spec


# ------------------------------------------------------ preemption ordering


class TestPreemptionOrdering:
    def _one_node_cluster(self, env):
        c = Cluster(env)
        c.add_node(fiona8_node_spec("fiona8-00"))
        return c

    def test_lowest_priority_victims_evicted_first(self):
        env = Environment()
        cluster = self._one_node_cluster(env)
        # Fill all 8 GPUs: two batch(10) + two normal(100) pods.
        batch = [
            cluster.create_pod(
                f"batch-{i}",
                sleeper_spec(duration=500, gpu=2, priority_class="batch"),
            )
            for i in range(2)
        ]
        normal = [
            cluster.create_pod(
                f"normal-{i}",
                sleeper_spec(duration=500, gpu=2, priority_class="normal"),
            )
            for i in range(2)
        ]
        env.run(until=60)
        assert all(p.phase is PodPhase.RUNNING for p in batch + normal)

        # A high(1000) pod needing 4 GPUs must evict exactly the two
        # batch pods — never the normal ones.
        high = cluster.create_pod(
            "high-0", sleeper_spec(duration=50, gpu=4, priority_class="high")
        )
        env.run(until=200)
        assert high.phase in (PodPhase.RUNNING, PodPhase.SUCCEEDED)
        for p in batch:
            assert p.phase is PodPhase.FAILED
            assert p.termination_reason == "Preempted"
        for p in normal:
            assert p.phase is PodPhase.RUNNING

    def test_preempting_pod_gets_freed_capacity_first(self):
        """Victim capacity must go to the high-priority pod that caused
        the eviction, not to other pending low-priority pods."""
        env = Environment()
        cluster = self._one_node_cluster(env)
        low = cluster.create_pod(
            "low", sleeper_spec(duration=500, gpu=8, priority_class="batch")
        )
        env.run(until=60)
        assert low.phase is PodPhase.RUNNING
        # Queue a batch pod first, then the high pod that triggers the
        # eviction: priority-tier ordering must bind high first.
        waiting = cluster.create_pod(
            "waiting", sleeper_spec(duration=50, gpu=8, priority_class="batch")
        )
        high = cluster.create_pod(
            "high", sleeper_spec(duration=50, gpu=8, priority_class="high")
        )
        env.run(until=300)
        assert low.termination_reason == "Preempted"
        assert high.phase is PodPhase.SUCCEEDED
        assert waiting.phase in (PodPhase.RUNNING, PodPhase.SUCCEEDED)
        assert high.start_time < waiting.start_time

    def test_best_effort_never_preempts(self):
        env = Environment()
        cluster = self._one_node_cluster(env)
        low = cluster.create_pod(
            "low", sleeper_spec(duration=500, gpu=8, priority_class="batch")
        )
        env.run(until=60)
        zero = cluster.create_pod(
            "zero", sleeper_spec(duration=10, gpu=8)  # priority 0
        )
        env.run(until=200)
        assert low.phase is PodPhase.RUNNING
        assert zero.phase is PodPhase.PENDING


# --------------------------------------------- fair-share starvation-freedom


class TestFairShareStarvationFreedom:
    def test_light_tenant_not_starved_behind_heavy_backlog(self):
        env = Environment()
        cluster = Cluster(env)
        cluster.add_node(fiona_node_spec("dtn-00"))  # CPU-only node
        cluster.create_namespace("heavy", weight=1.0)
        cluster.create_namespace("light", weight=1.0)

        # Saturate: each pod takes half the node's CPU for 30s, so two
        # run at a time and a deep heavy backlog forms.
        cpu = cluster.nodes["dtn-00"].capacity.cpu / 2
        heavy = [
            cluster.create_pod(
                f"h{i}",
                sleeper_spec(duration=30, cpu=cpu),
                namespace="heavy",
            )
            for i in range(12)
        ]
        env.run(until=5)
        light = [
            cluster.create_pod(
                f"l{i}",
                sleeper_spec(duration=30, cpu=cpu),
                namespace="light",
            )
            for i in range(2)
        ]
        env.run()
        assert all(p.phase is PodPhase.SUCCEEDED for p in heavy + light)
        # Starvation-freedom: the light pods bound while most of the
        # heavy backlog was still waiting — strictly before the last
        # heavy pod, and within the first half of the heavy binds.
        heavy_starts = sorted(p.start_time for p in heavy)
        for p in light:
            assert p.start_time < heavy_starts[-1]
            assert p.start_time <= heavy_starts[len(heavy) // 2]

    def test_namespace_weight_biases_share(self):
        """A weight-4 tenant's equal backlog drains ahead of a weight-1
        tenant's: its median bind time is strictly earlier."""
        env = Environment()
        cluster = Cluster(env)
        cluster.add_node(fiona_node_spec("dtn-00"))
        cluster.create_namespace("gold", weight=4.0)
        cluster.create_namespace("bronze", weight=1.0)
        cpu = cluster.nodes["dtn-00"].capacity.cpu / 2
        gold, bronze = [], []
        for i in range(8):
            gold.append(
                cluster.create_pod(
                    f"g{i}", sleeper_spec(duration=30, cpu=cpu), namespace="gold"
                )
            )
            bronze.append(
                cluster.create_pod(
                    f"b{i}",
                    sleeper_spec(duration=30, cpu=cpu),
                    namespace="bronze",
                )
            )
        env.run()
        assert all(p.phase is PodPhase.SUCCEEDED for p in gold + bronze)
        median_gold = sorted(p.start_time for p in gold)[4]
        median_bronze = sorted(p.start_time for p in bronze)[4]
        assert median_gold < median_bronze


# ------------------------------------------------- backpressure determinism


def _run_backpressure_scenario(seed: int):
    """One seeded burst of submissions through a tight gateway; returns
    the full decision log."""
    env = Environment()
    cluster = Cluster(env)
    cluster.add_node(fiona_node_spec("dtn-00"))
    gateway = AdmissionGateway(
        cluster,
        GatewayConfig(max_queue_depth=2, pending_timeout_s=0.0),
    )
    gateway.register_tenant(
        "acme", TenantPolicy(rate=0.2, burst=1.0)
    )
    rng = np.random.default_rng(derive_seed(seed, "backpressure-test"))
    decisions = []

    def submitter():
        for i in range(12):
            yield env.timeout(float(rng.uniform(0.0, 2.0)))
            decision = gateway.submit(
                f"p{i}", sleeper_spec(duration=5, cpu=1), tenant="acme"
            )
            decisions.append(decision)

    env.process(submitter())
    env.run(until=300)
    return [
        (
            d.pod_name,
            d.outcome,
            d.reason,
            round(d.retry_after_s, 9),
            round(d.submitted_at, 9),
        )
        for d in decisions
    ]


class TestBackpressureDeterminism:
    def test_identical_decision_log_on_fixed_seed(self):
        first = _run_backpressure_scenario(seed=11)
        second = _run_backpressure_scenario(seed=11)
        assert first == second
        outcomes = {outcome for _n, outcome, _r, _ra, _t in first}
        assert REJECTED in outcomes, "scenario never hit backpressure"
        rejected = [d for d in first if d[1] == REJECTED]
        assert all(r[2] == "Backpressure" for r in rejected)
        assert all(r[3] > 0.0 for r in rejected), "no retry_after hint"

    def test_different_seed_changes_the_log(self):
        assert _run_backpressure_scenario(seed=11) != _run_backpressure_scenario(
            seed=12
        )


# ------------------------------------------------------- gateway behaviors


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def gw_cluster(env):
    c = Cluster(env)
    c.add_node(fiona8_node_spec("fiona8-00"))
    return c


class TestGateway:
    def test_burst_admits_then_queues_then_rejects(self, env, gw_cluster):
        gateway = AdmissionGateway(
            gw_cluster, GatewayConfig(max_queue_depth=2)
        )
        gateway.register_tenant("acme", TenantPolicy(rate=1.0, burst=2.0))
        outcomes = [
            gateway.submit(
                f"p{i}", sleeper_spec(duration=1, cpu=0.5), tenant="acme"
            ).outcome
            for i in range(6)
        ]
        assert outcomes == [
            ADMITTED, ADMITTED, QUEUED, QUEUED, REJECTED, REJECTED
        ]
        last = gateway.decisions[-1]
        assert last.reason == "Backpressure"
        assert last.retry_after_s > 0
        # The queue drains at the sustained rate; queued decisions
        # resolve to admitted.
        env.run(until=60)
        finals = [d.outcome for d in gateway.decisions if d.pod_name == "p2"]
        assert finals == [ADMITTED]

    def test_quota_rejection_is_structured(self, env, gw_cluster):
        gateway = AdmissionGateway(gw_cluster, GatewayConfig())
        gateway.register_tenant(
            "acme",
            TenantPolicy(rate=10.0, burst=10.0, quota=ResourceQuota(max_pods=1)),
        )
        first = gateway.submit("a", sleeper_spec(duration=5), tenant="acme")
        second = gateway.submit("b", sleeper_spec(duration=5), tenant="acme")
        assert first.outcome == ADMITTED
        assert (second.outcome, second.reason) == (REJECTED, "QuotaExceeded")

    def test_lint_rejects_unschedulable_spec(self, env, gw_cluster):
        gateway = AdmissionGateway(gw_cluster, GatewayConfig())
        gateway.register_tenant("acme", TenantPolicy(rate=10.0, burst=10.0))
        decision = gateway.submit(
            "huge", sleeper_spec(duration=5, gpu=16), tenant="acme"
        )
        assert decision.outcome == REJECTED
        assert decision.reason == "AdmissionLint:SPEC001"
        assert ("acme", "huge") not in gw_cluster.pods

    def test_lint_admits_spec_with_only_warnings(self, env, gw_cluster):
        # No requests at all draws a SPEC002 warning; warnings never
        # reject, so SPEC001 (above) is the gateway's only lint reject.
        bare = sleeper_spec(duration=5, cpu=0, memory=0)
        view = ClusterSpecView(
            nodes=node_views(gw_cluster),
            pods=(pod_view_from_spec("bare", bare, "acme"),),
        )
        assert [f.code for f in run_spec_rules(view)] == ["SPEC002"]
        gateway = AdmissionGateway(gw_cluster, GatewayConfig())
        gateway.register_tenant("acme", TenantPolicy(rate=10.0, burst=10.0))
        decision = gateway.submit("bare", bare, tenant="acme")
        assert (decision.outcome, decision.reason) == (ADMITTED, "")
        assert ("acme", "bare") in gw_cluster.pods

    def test_scheduling_timeout_sheds_and_trips_breaker(self, env, gw_cluster):
        gateway = AdmissionGateway(
            gw_cluster,
            GatewayConfig(
                pending_timeout_s=30.0,
                breaker_failure_threshold=2,
                breaker_cooldown_s=100.0,
            ),
        )
        gateway.register_tenant("acme", TenantPolicy(rate=10.0, burst=10.0))
        # 8 GPUs each, three pods: the first binds, the rest can never
        # fit and are shed by the watchdog after 30s.
        pods = [
            gateway.submit(
                f"p{i}", sleeper_spec(duration=500, gpu=8), tenant="acme"
            ).pod
            for i in range(3)
        ]
        env.run(until=60)
        assert pods[0].phase is PodPhase.RUNNING
        for pod in pods[1:]:
            assert pod.phase is PodPhase.FAILED
            assert gateway.shed_reasons[pod.meta.uid] == "SchedulingTimeout"
        # Two sheds tripped the breaker: the next submission is shed at
        # the door with a retry hint.
        assert gateway.breaker_state("acme") is BreakerState.OPEN
        decision = gateway.submit(
            "late", sleeper_spec(duration=5), tenant="acme"
        )
        assert (decision.outcome, decision.reason) == (SHED, "CircuitOpen")
        assert decision.retry_after_s > 0

    def test_breaker_half_opens_and_recovers(self, env, gw_cluster):
        gateway = AdmissionGateway(
            gw_cluster,
            GatewayConfig(
                pending_timeout_s=30.0,
                breaker_failure_threshold=1,
                breaker_cooldown_s=50.0,
            ),
        )
        gateway.register_tenant("acme", TenantPolicy(rate=10.0, burst=10.0))
        gateway.submit("p0", sleeper_spec(duration=500, gpu=8), tenant="acme")
        doomed = gateway.submit(
            "p1", sleeper_spec(duration=500, gpu=8), tenant="acme"
        )
        env.run(until=40)  # watchdog sheds p1 -> breaker opens
        assert doomed.pod.phase is PodPhase.FAILED
        assert gateway.breaker_state("acme") is BreakerState.OPEN
        env.run(until=100)  # past cooldown
        assert gateway.breaker_state("acme") is BreakerState.HALF_OPEN
        # The half-open probe admits; the pod binding (Running) closes
        # the breaker again.
        probe = gateway.submit(
            "probe", sleeper_spec(duration=5, cpu=0.5), tenant="acme"
        )
        assert probe.outcome == ADMITTED
        env.run(until=130)
        assert gateway.breaker_state("acme") is BreakerState.CLOSED

    def test_tenant_default_priority_class_is_stamped(self, env, gw_cluster):
        gateway = AdmissionGateway(gw_cluster, GatewayConfig())
        gateway.register_tenant(
            "acme", TenantPolicy(rate=10.0, burst=10.0, priority_class="high")
        )
        decision = gateway.submit(
            "p", sleeper_spec(duration=5), tenant="acme"
        )
        assert decision.pod.spec.priority_class == "high"
        assert decision.pod.spec.priority == 1000
        # An explicit class on the spec wins over the tenant default.
        explicit = gateway.submit(
            "q",
            sleeper_spec(duration=5, priority_class="batch"),
            tenant="acme",
        )
        assert explicit.pod.spec.priority_class == "batch"

    def test_admit_helper_waits_out_the_queue(self, env, gw_cluster):
        gateway = AdmissionGateway(gw_cluster, GatewayConfig())
        gateway.register_tenant("acme", TenantPolicy(rate=0.5, burst=1.0))
        results = []

        def flow():
            for i in range(3):
                decision = yield from gateway.admit(
                    f"p{i}", sleeper_spec(duration=1, cpu=0.5), tenant="acme"
                )
                results.append((decision.pod_name, decision.outcome))

        env.process(flow())
        env.run(until=60)
        assert results == [(f"p{i}", ADMITTED) for i in range(3)]
