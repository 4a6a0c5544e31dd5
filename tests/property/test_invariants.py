"""Property-based invariants across substrates (hypothesis).

These pin the load-bearing guarantees the workflow layer builds on:
nodes are never over-allocated, node and quota accounting match the
pods they hold, jobs complete exactly, flows conserve bytes and never
oversubscribe capacity, and the reliable queue delivers exactly-once
under crashes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    JobSpec,
    PodPhase,
    ResourceQuota,
    ResourceRequirements,
    fiona8_node_spec,
    fiona_node_spec,
)
from repro.errors import QueueEmptyError, QuotaExceededError
from repro.netsim.flows import CapacityResource, FlowSimulator
from repro.sim import Environment
from repro.transfer import RedisQueue
from tests.cluster.conftest import sleeper_spec


class TestClusterInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),  # cpu
                st.integers(min_value=0, max_value=4),  # gpu
                st.floats(min_value=1.0, max_value=100.0),  # duration
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_nodes_never_overallocated(self, data):
        env = Environment()
        cluster = Cluster(env)
        for i in range(3):
            cluster.add_node(fiona8_node_spec(f"n{i}"))

        violations = []

        def check(_pod, _old, _new):
            for node in cluster.nodes.values():
                if (
                    node.allocated.cpu > node.capacity.cpu + 1e-9
                    or node.allocated.gpu > node.capacity.gpu
                    or node.allocated.memory > node.capacity.memory
                ):
                    violations.append(repr(node))

        cluster.phase_hooks.append(check)
        for i, (cpu, gpu, duration) in enumerate(data):
            cluster.create_pod(
                f"p{i}", sleeper_spec(duration=duration, cpu=cpu, gpu=gpu)
            )
        env.run()
        assert violations == []
        # Every feasible pod completed; all resources returned.
        for node in cluster.nodes.values():
            assert node.allocated.cpu == pytest.approx(0.0)
            assert node.allocated.gpu == 0
        for pod in cluster.list_pods():
            assert pod.phase is PodPhase.SUCCEEDED

    @settings(max_examples=15, deadline=None)
    @given(
        completions=st.integers(min_value=1, max_value=12),
        parallelism=st.integers(min_value=1, max_value=12),
    )
    def test_job_exact_completions_and_parallelism_cap(
        self, completions, parallelism
    ):
        env = Environment()
        cluster = Cluster(env)
        for i in range(4):
            cluster.add_node(fiona8_node_spec(f"n{i}"))
        peak = [0]

        def track(_pod, _old, _new):
            running = len(cluster.list_pods(phase=PodPhase.RUNNING))
            peak[0] = max(peak[0], running)

        cluster.phase_hooks.append(track)
        job = cluster.create_job(
            "j",
            JobSpec(
                template=lambda i: sleeper_spec(duration=5 + i),
                completions=completions,
                parallelism=parallelism,
            ),
        )
        env.run()
        assert job.is_complete
        assert job.succeeded_indices == set(range(completions))
        assert peak[0] <= parallelism


#: (cpu, memory, gpu) shapes; 0.1 and 0.3 cores overshoot a full node's
#: CPU by float rounding, the large ones force preemption.
_SHAPES = [
    (0.1, "100Mi", 0),
    (0.3, "1Gi", 0),
    (4, "8Gi", 1),
    (12, "40Gi", 2),
    (1, "2Gi", 8),
]
_CLASSES = ["batch", "normal", "high"]
_NAMESPACES = ["a", "b", "tight"]

ACCOUNTING_OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "create", "create", "delete", "wait"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=40,
)


def _summed(requests) -> ResourceRequirements:
    total = ResourceRequirements()
    for request in requests:
        total = total + request
    return total


def _assert_accounting(cluster: Cluster) -> None:
    for node in cluster.nodes.values():
        expected = _summed(p.request for p in node.pods.values())
        assert node.allocated.cpu == pytest.approx(expected.cpu, abs=1e-9)
        assert (
            node.allocated.memory,
            node.allocated.gpu,
            node.allocated.ephemeral_storage,
        ) == (expected.memory, expected.gpu, expected.ephemeral_storage)
        assert all(
            not p.is_terminal and p.node_name == node.spec.name
            for p in node.pods.values()
        )
        # The GPU gauge records the count, not the devices.
        assigned = sum(d.allocated_to is not None for d in node.devices)
        assert assigned == node.allocated.gpu
    for name, ns in cluster.namespaces.items():
        live = [
            p
            for (pod_ns, _), p in cluster.pods.items()
            if pod_ns == name and not p.is_terminal
        ]
        expected = _summed(p.request for p in live)
        assert ns.used.cpu == pytest.approx(expected.cpu, abs=1e-9)
        assert (ns.used.memory, ns.used.gpu) == (expected.memory, expected.gpu)
        assert ns.pod_count == len(live)
    for pod in cluster.pending_pods():
        for node in cluster.nodes.values():
            assert node.can_fit(pod.request) == pod.request.fits_within(node.free)


class TestAccountingInvariants:
    @settings(max_examples=40, deadline=None)
    @given(ops=ACCOUNTING_OPS)
    def test_allocated_and_quota_track_pod_requests(self, ops):
        """Random creates, deletes and waits (pods finish, high-priority
        pods preempt): after every kernel step each node's allocation and
        each namespace's quota charge equal the summed ``request`` of the
        pods they hold, its assigned GPU devices number ``allocated.gpu``,
        and ``can_fit`` agrees with ``free``."""
        env = Environment()
        cluster = Cluster(env)
        cluster.add_node(fiona_node_spec("cpu-0"))
        cluster.add_node(fiona8_node_spec("gpu-0"))
        cluster.create_namespace("a")
        cluster.create_namespace("b", weight=2.0)
        cluster.create_namespace("tight", quota=ResourceQuota(cpu=6, gpu=2))
        pods = []

        def driver(env):
            for op, k in ops:
                if op == "create":
                    cpu, memory, gpu = _SHAPES[k % len(_SHAPES)]
                    spec = sleeper_spec(
                        duration=1 + k % 40,
                        cpu=cpu,
                        memory=memory,
                        gpu=gpu,
                        priority_class=_CLASSES[(k // 7) % len(_CLASSES)],
                    )
                    try:
                        pods.append(
                            cluster.create_pod(
                                f"p{len(pods)}",
                                spec,
                                namespace=_NAMESPACES[(k // 3) % len(_NAMESPACES)],
                            )
                        )
                    except QuotaExceededError:
                        pass
                elif op == "delete" and pods:
                    cluster.delete_pod(pods[k % len(pods)])
                else:
                    yield env.timeout(k % 25)
            yield env.timeout(0)

        env.process(driver(env))
        while env.peek() < float("inf"):
            env.step()
            _assert_accounting(cluster)
        for node in cluster.nodes.values():
            assert node.pods == {}
            assert node.allocated.cpu == pytest.approx(0.0, abs=1e-9)
            assert node.allocated.gpu == 0 and node.allocated.memory == 0


class TestFlowInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        caps=st.lists(
            st.floats(min_value=10.0, max_value=1e4), min_size=1, max_size=3
        ),
        sizes=st.lists(
            st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=10
        ),
        seed=st.integers(0, 1000),
    )
    def test_all_flows_complete_and_bytes_conserved(self, caps, sizes, seed):
        env = Environment()
        sim = FlowSimulator(env)
        resources = [CapacityResource(f"r{i}", c) for i, c in enumerate(caps)]
        rng = np.random.default_rng(seed)
        events = []
        for size in sizes:
            k = int(rng.integers(1, len(resources) + 1))
            picks = list(rng.choice(len(resources), size=k, replace=False))
            events.append(
                sim.transfer([resources[i] for i in picks], size)
            )
        env.run(until=env.all_of(events))
        assert sim.completed_count == len(sizes)
        assert sim.bytes_moved == pytest.approx(sum(sizes))
        assert sim.active_flows == 0

    @settings(max_examples=15, deadline=None)
    @given(
        n_flows=st.integers(min_value=2, max_value=12),
        cap=st.floats(min_value=100.0, max_value=1e4),
    )
    def test_shared_link_never_oversubscribed_mid_run(self, n_flows, cap):
        env = Environment()
        sim = FlowSimulator(env)
        link = CapacityResource("l", cap)
        for i in range(n_flows):
            sim.transfer([link], cap * (i + 1))  # staggered sizes

        samples = []

        def sampler(env):
            while True:
                yield env.timeout(0.5)
                samples.append(sim.sample_rates([link])["l"])

        env.process(sampler(env))
        env.run(until=n_flows * (n_flows + 1) / 2 + 2)
        assert samples
        assert all(rate <= cap * (1 + 1e-9) for rate in samples)
        # Work conservation while flows were active.
        active_samples = [r for r in samples if r > 0]
        assert all(r == pytest.approx(cap) for r in active_samples)


class TestQueueInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        n_messages=st.integers(min_value=1, max_value=40),
        crash_pattern=st.lists(st.booleans(), min_size=1, max_size=10),
        seed=st.integers(0, 100),
    )
    def test_exactly_once_under_crashes(self, n_messages, crash_pattern, seed):
        """Workers randomly crash mid-message; every message is acked
        exactly once in the end."""
        env = Environment()
        queue = RedisQueue(env)
        queue.push_all(range(n_messages))
        processed: list[int] = []
        rng = np.random.default_rng(seed)

        def worker(env, name, crashy):
            while True:
                try:
                    msg = queue.try_pop(name)
                except QueueEmptyError:
                    return
                yield env.timeout(1.0)
                if crashy and rng.random() < 0.3:
                    # Crash: lose everything held; the Job controller's
                    # replacement pod recovers it.
                    queue.recover(name)
                    return
                processed.append(msg.body)
                queue.ack(name, msg)

        generation = [0]

        def supervisor(env):
            """Respawn crashed workers until the queue drains."""
            while not queue.drained:
                procs = [
                    env.process(
                        worker(env, f"w{generation[0]}-{k}", crash_pattern[k % len(crash_pattern)]),
                        name=f"w{k}",
                    )
                    for k in range(3)
                ]
                generation[0] += 1
                yield env.all_of(procs)

        env.process(supervisor(env))
        env.run()
        assert sorted(processed) == list(range(n_messages))
        assert queue.acked_total == n_messages
        assert queue.drained
