"""Exactness of the scheduler's queue order and preemption plans.

:meth:`Scheduler.order_queue` sums each namespace's projected usage in
plain numbers, and :meth:`Scheduler.preemption_plan` skips nodes with no
lower-priority pod before building their free capacity.  Both must give
exactly what the ``ResourceRequirements``-based code below gives: the
same pods in the same order, the same node and the same victims.  The
oracle is a frozen copy of that code; do not edit it to make a test
pass.
"""

from __future__ import annotations

import typing as _t

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    Node,
    NodeSpec,
    ObjectMeta,
    Pod,
    PodPhase,
    ResourceRequirements,
    Scheduler,
    SchedulingStrategy,
)
from repro.sim import Environment
from tests.cluster.conftest import sleeper_spec

# -- the oracle: the ResourceRequirements-based code -------------------------


def oracle_dominant_share(
    used: ResourceRequirements, capacity: _t.Mapping[str, float]
) -> float:
    fractions = []
    for dim in ("cpu", "memory", "gpu"):
        cap = capacity.get(dim, 0.0)
        if cap > 0:
            fractions.append(getattr(used, dim) / cap)
    return max(fractions) if fractions else 0.0


def oracle_order_queue(
    pods: _t.Sequence[Pod],
    usage: _t.Mapping[str, ResourceRequirements],
    capacity: _t.Mapping[str, float],
    weights: _t.Mapping[str, float],
) -> list[Pod]:
    zero = ResourceRequirements()
    projected: dict[str, ResourceRequirements] = {}
    keyed: list[tuple[float, float, int, Pod]] = []
    for index, pod in enumerate(pods):
        ns = pod.meta.namespace
        acc = projected.get(ns)
        if acc is None:
            acc = usage.get(ns, zero)
        acc = acc + pod.request
        projected[ns] = acc
        weight = max(float(weights.get(ns, 1.0)), 1e-9)
        share = oracle_dominant_share(acc, capacity) / weight
        keyed.append((-float(pod.spec.priority), share, index, pod))
    keyed.sort(key=lambda item: item[:3])
    return [pod for _prio, _share, _idx, pod in keyed]


def oracle_preemption_plan(
    pod: Pod, nodes: _t.Iterable[Node]
) -> tuple[Node, list[Pod]] | None:
    request = pod.request
    best: tuple[int, str, Node, list[Pod]] | None = None
    for node in nodes:
        if not node.ready or node.unschedulable:
            continue
        if any(
            node.meta.labels.get(k) != v
            for k, v in pod.spec.node_selector.items()
        ):
            continue
        if set(node.spec.taints) - pod.spec.tolerations:
            continue
        victims_pool = sorted(
            (
                p
                for p in node.pods.values()
                if p.spec.priority < pod.spec.priority
            ),
            key=lambda p: (p.spec.priority, p.meta.name),
        )
        free = node.free
        chosen: list[Pod] = []
        for victim in victims_pool:
            if request.fits_within(free):
                break
            free = free + victim.request
            chosen.append(victim)
        if not request.fits_within(free) or not chosen:
            continue
        key = (len(chosen), node.spec.name)
        if best is None or key < (best[0], best[1]):
            best = (len(chosen), node.spec.name, node, chosen)
    if best is None:
        return None
    return best[2], best[3]


# -- strategies ---------------------------------------------------------------

NAMESPACES = ("alpha", "beta", "gamma", "delta")
CPUS = st.sampled_from([0, 0.1, 0.25, 0.3, 0.5, 1, 1.5, 2, 3.7, 8, 24])
MEMORY = st.sampled_from([0, 1, 2**20, 3 * 2**29, 2**30, 7 * 2**30, 96 * 2**30])
GPUS = st.integers(min_value=0, max_value=9)
TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)


@st.composite
def pod_lists(draw) -> list[Pod]:
    """Pending lists with repeated namespaces, two or three priority
    classes and some terminal pods."""
    classes = draw(
        st.lists(
            st.sampled_from([0, 10, 100, 1000]),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    pods = []
    for i in range(draw(st.integers(min_value=0, max_value=24))):
        pod = Pod(
            ObjectMeta(name=f"p{i}", namespace=draw(st.sampled_from(NAMESPACES))),
            sleeper_spec(
                cpu=draw(CPUS),
                memory=draw(MEMORY),
                gpu=draw(GPUS),
                priority=draw(st.sampled_from(classes)),
            ),
        )
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            pod.phase = draw(st.sampled_from(TERMINAL))
        pods.append(pod)
    return pods


@st.composite
def usages(draw) -> dict[str, ResourceRequirements]:
    """Charged usage for some namespaces (the rest default to zero)."""
    names = draw(st.lists(st.sampled_from(NAMESPACES), unique=True))
    return {
        ns: ResourceRequirements(
            cpu=draw(CPUS), memory=draw(MEMORY), gpu=draw(GPUS)
        )
        for ns in names
    }


@st.composite
def weight_maps(draw) -> dict[str, float]:
    names = draw(st.lists(st.sampled_from(NAMESPACES), unique=True))
    return {
        ns: draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 1e-12]))
        for ns in names
    }


@st.composite
def capacities(draw) -> dict[str, float]:
    """Cluster capacity, sometimes with a zero or missing dimension."""
    capacity = {}
    for dim, values in (
        ("cpu", [0.0, 24.0, 48.0, 96.5]),
        ("memory", [0.0, float(96 * 2**30), float(384 * 2**30)]),
        ("gpu", [0.0, 8.0, 32.0]),
    ):
        if draw(st.booleans()) or dim == "cpu":
            capacity[dim] = draw(st.sampled_from(values))
    return capacity


def _names(pods: _t.Iterable[Pod]) -> list[str]:
    return [pod.meta.name for pod in pods]


# -- order_queue --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(pod_lists(), usages(), capacities(), weight_maps())
def test_order_queue_matches_oracle(pods, usage, capacity, weights):
    got = Scheduler().order_queue(pods, usage, capacity, weights)
    want = oracle_order_queue(pods, usage, capacity, weights)
    assert [id(p) for p in got] == [id(p) for p in want], (
        _names(got),
        _names(want),
    )


# -- preemption_plan ------------------------------------------------------------


@st.composite
def preemption_cases(draw) -> tuple[Pod, list[Node]]:
    """A preemptor and nodes carrying running pods; nodes may be not
    ready, cordoned, tainted or labelled away from the preemptor's
    selector."""
    nodes = []
    serial = 0
    for n in range(draw(st.integers(min_value=0, max_value=5))):
        spec = NodeSpec(
            name=draw(st.sampled_from(["a", "b", "c", "d", "e"])) + str(n),
            cpu=draw(st.sampled_from([4.0, 8.0, 24.0])),
            memory=draw(st.sampled_from([8 * 2**30, 96 * 2**30])),
            gpus=draw(st.sampled_from([0, 2, 8])),
            labels={"zone": draw(st.sampled_from(["east", "west"]))},
            taints={"dedicated": "x"} if draw(st.integers(0, 4)) == 0 else {},
        )
        node = Node(spec)
        node.ready = draw(st.integers(0, 5)) != 0
        node.unschedulable = draw(st.integers(0, 5)) == 0
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            pod = Pod(
                ObjectMeta(name=f"r{serial}", namespace="ns"),
                sleeper_spec(
                    cpu=draw(st.sampled_from([0.5, 1, 2, 3.7])),
                    memory=draw(st.sampled_from([2**30, 4 * 2**30])),
                    gpu=draw(st.integers(min_value=0, max_value=2)),
                    priority=draw(st.sampled_from([0, 10, 100, 1000])),
                ),
            )
            serial += 1
            if node.can_fit(pod.request):
                node.allocate(pod)
        nodes.append(node)
    selector = draw(st.sampled_from([{}, {}, {"zone": "east"}]))
    tolerations = draw(st.sampled_from([set(), set(), {"dedicated"}]))
    preemptor = Pod(
        ObjectMeta(name="wanter"),
        sleeper_spec(
            cpu=draw(st.sampled_from([1, 4, 8, 24, 30])),
            memory=draw(st.sampled_from([2**30, 8 * 2**30])),
            gpu=draw(st.sampled_from([0, 1, 2, 8])),
            priority=draw(st.sampled_from([10, 100, 1000])),
            node_selector=selector,
            tolerations=tolerations,
        ),
    )
    return preemptor, nodes


def _plan_ids(plan):
    if plan is None:
        return None
    node, victims = plan
    return id(node), [id(v) for v in victims]


@settings(max_examples=300, deadline=None)
@given(preemption_cases())
def test_preemption_plan_matches_oracle(case):
    pod, nodes = case
    got = Scheduler().preemption_plan(pod, nodes)
    assert _plan_ids(got) == _plan_ids(oracle_preemption_plan(pod, nodes))


# -- a whole scheduling run checked call by call ----------------------------------


class OracleCheckedScheduler(Scheduler):
    """Checks every ``order_queue`` and ``preemption_plan`` call of a
    live cluster against the oracle."""

    def __init__(self):
        super().__init__(SchedulingStrategy.SPREAD)
        self.orders = 0
        self.plans = 0

    def order_queue(self, pods, usage, capacity, weights):
        got = super().order_queue(pods, usage, capacity, weights)
        want = oracle_order_queue(pods, dict(usage), capacity, dict(weights))
        assert [id(p) for p in got] == [id(p) for p in want]
        self.orders += 1
        return got

    def preemption_plan(self, pod, nodes):
        nodes = list(nodes)
        got = super().preemption_plan(pod, nodes)
        assert _plan_ids(got) == _plan_ids(oracle_preemption_plan(pod, nodes))
        self.plans += 1
        return got


@settings(max_examples=25, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(
            st.sampled_from(NAMESPACES),
            st.sampled_from([0, 10, 100]),
            st.sampled_from([1, 2, 3.7, 12]),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=40.0),
        ),
        min_size=1,
        max_size=30,
    ),
    weights=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=4, max_size=4),
)
def test_live_cluster_calls_match_oracle(arrivals, weights):
    env = Environment()
    sched = OracleCheckedScheduler()
    cluster = Cluster(env, scheduler=sched)
    for i, zone in enumerate(["east", "west", "east"]):
        cluster.add_node(
            NodeSpec(
                name=f"n{i}",
                cpu=24.0,
                memory=96 * 2**30,
                gpus=8,
                labels={"zone": zone},
                taints={"dedicated": "x"} if i == 2 else {},
            )
        )
    for ns, weight in zip(NAMESPACES, weights):
        cluster.create_namespace(ns, weight=weight)

    def arrive(i, ns, priority, cpu, gpu, delay):
        yield env.timeout(delay)
        cluster.create_pod(
            f"p{i}",
            sleeper_spec(
                duration=25.0,
                cpu=cpu,
                gpu=gpu,
                priority=priority,
                node_selector={"zone": "east"} if i % 5 == 0 else {},
            ),
            namespace=ns,
        )

    for i, arrival in enumerate(arrivals):
        env.process(arrive(i, *arrival))
    env.process(_churn(env, cluster))
    env.run(until=400)
    assert sched.orders > 0


def _churn(env, cluster):
    """Take a node down and cordon another mid-run, then restore both."""
    yield env.timeout(10)
    cluster.fail_node("n1")
    cluster.cordon("n0")
    yield env.timeout(30)
    cluster.recover_node("n1")
    cluster.uncordon("n0")


@pytest.mark.parametrize("gpu_cap", [0.0, 16.0])
def test_order_queue_zero_gpu_capacity(gpu_cap):
    """With no GPU capacity the GPU dimension is left out of the share."""
    pods = [
        Pod(ObjectMeta(name=f"p{i}", namespace=ns), sleeper_spec(cpu=1, gpu=4))
        for i, ns in enumerate(["alpha", "alpha", "beta"])
    ]
    capacity = {"cpu": 10.0, "memory": float(2**40), "gpu": gpu_cap}
    got = Scheduler().order_queue(pods, {}, capacity, {})
    assert got == oracle_order_queue(pods, {}, capacity, {})
