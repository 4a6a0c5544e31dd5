"""Unit tests for the scheduler's filter/score phases in isolation."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cluster import (
    Cluster,
    Node,
    ObjectMeta,
    Pod,
    PodPhase,
    Scheduler,
    SchedulingStrategy,
    fiona8_node_spec,
    fiona_node_spec,
)
from repro.sim import Environment
from tests.cluster.conftest import sleeper_spec


def make_pod(name="p", **kwargs):
    return Pod(ObjectMeta(name=name), sleeper_spec(**kwargs))


@pytest.fixture
def scheduler():
    return Scheduler(SchedulingStrategy.SPREAD)


def reason_for(scheduler, pod, node):
    """The filter's reason for one node ("" when the pod fits)."""
    [(got, reason)] = scheduler.explain(pod, [node])
    assert got is node
    return reason


class TestFilterPhase:
    def test_not_ready_filtered(self, scheduler):
        node = Node(fiona_node_spec("n"))
        node.ready = False
        reason = reason_for(scheduler, make_pod(), node)
        assert reason
        assert "not ready" in reason

    def test_selector_mismatch_reason(self, scheduler):
        node = Node(fiona_node_spec("n", site="UCSD"))
        pod = make_pod(node_selector={"site": "UCI"})
        reason = reason_for(scheduler, pod, node)
        assert reason
        assert "site=UCI" in reason

    def test_taint_reason(self, scheduler):
        spec = fiona_node_spec("n")
        spec.taints["gpu-only"] = "true"
        reason = reason_for(scheduler, make_pod(), Node(spec))
        assert reason
        assert "taint" in reason

    def test_two_taint_reason_independent_of_hash_seed(self):
        """A set's iteration order follows the string hash seed; the
        reason lists the untolerated taints sorted whatever the seed."""
        script = (
            "from repro.cluster import Node, ObjectMeta, Pod, Scheduler, "
            "fiona_node_spec\n"
            "from tests.cluster.conftest import sleeper_spec\n"
            "spec = fiona_node_spec('n')\n"
            "spec.taints['gpu-only'] = 'true'\n"
            "spec.taints['dedicated'] = 'x'\n"
            "pod = Pod(ObjectMeta(name='p'), sleeper_spec())\n"
            "[(_, reason)] = Scheduler().explain(pod, [Node(spec)])\n"
            "print(reason)\n"
        )
        repo = pathlib.Path(__file__).resolve().parents[2]
        reasons = set()
        for hash_seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join([str(repo / "src"), str(repo)])
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=120, cwd=str(repo), env=env,
            )
            assert done.returncode == 0, done.stderr[-2000:]
            reasons.add(done.stdout)
        assert reasons == {"untolerated taints {'dedicated', 'gpu-only'}\n"}

    def test_resource_reason(self, scheduler):
        node = Node(fiona_node_spec("n"))
        reason = reason_for(scheduler, make_pod(cpu=100), node)
        assert reason
        assert "resources" in reason

    def test_explain_covers_all_nodes(self, scheduler):
        nodes = [Node(fiona_node_spec(f"n{i}")) for i in range(3)]
        nodes[0].ready = False
        results = scheduler.explain(make_pod(cpu=1), nodes)
        assert len(results) == 3
        assert [node for node, _reason in results] == nodes
        assert [not reason for _node, reason in results] == [False, True, True]


class TestScorePhase:
    def test_spread_prefers_empty_node(self, scheduler):
        busy = Node(fiona_node_spec("busy"))
        busy.allocate(make_pod("holder", cpu=12))
        empty = Node(fiona_node_spec("empty"))
        pod = make_pod(cpu=1)
        assert scheduler.score_node(pod, empty) > scheduler.score_node(pod, busy)

    def test_binpack_prefers_loaded_node(self):
        scheduler = Scheduler(SchedulingStrategy.BIN_PACK)
        busy = Node(fiona_node_spec("busy"))
        busy.allocate(make_pod("holder", cpu=12))
        empty = Node(fiona_node_spec("empty"))
        pod = make_pod(cpu=1)
        assert scheduler.score_node(pod, busy) > scheduler.score_node(pod, empty)

    def test_image_locality_bonus(self, scheduler):
        warm = Node(fiona_node_spec("warm"))
        cold = Node(fiona_node_spec("cold"))
        pod = make_pod(cpu=1)
        warm.image_cache.add(pod.spec.containers[0].image)
        assert scheduler.score_node(pod, warm) > scheduler.score_node(pod, cold)

    def test_cpu_pod_avoids_gpu_node(self, scheduler):
        gpu_node = Node(fiona8_node_spec("gpu"))
        cpu_node = Node(fiona_node_spec("cpu"))
        pod = make_pod(cpu=1, gpu=0)
        assert scheduler.score_node(pod, cpu_node) > scheduler.score_node(
            pod, gpu_node
        )

    def test_select_deterministic_tie_break(self, scheduler):
        nodes = [Node(fiona_node_spec(name)) for name in ("zeb", "alpha", "mid")]
        pod = make_pod(cpu=1)
        chosen = scheduler.select(pod, nodes)
        assert chosen.spec.name == "alpha"  # lexicographic on ties

    def test_select_none_when_infeasible(self, scheduler):
        nodes = [Node(fiona_node_spec("n"))]
        assert scheduler.select(make_pod(cpu=999), nodes) is None


class TestPreemptionPlan:
    def test_no_plan_without_lower_priority(self, scheduler):
        node = Node(fiona8_node_spec("n"))
        holder = make_pod("holder", gpu=8)
        holder.spec.priority = 5
        node.allocate(holder)
        node.pods[holder.meta.uid] = holder
        wanter = make_pod("wanter", gpu=8)
        wanter.spec.priority = 5  # equal, not higher
        assert scheduler.preemption_plan(wanter, [node]) is None

    def test_plan_lists_minimal_victims(self, scheduler):
        node = Node(fiona8_node_spec("n"))
        small = []
        for i in range(4):
            p = make_pod(f"s{i}", gpu=2)
            node.allocate(p)
            small.append(p)
        wanter = make_pod("wanter", gpu=4)
        wanter.spec.priority = 10
        plan = scheduler.preemption_plan(wanter, [node])
        assert plan is not None
        target, victims = plan
        assert target is node
        assert len(victims) == 2  # exactly enough to free 4 GPUs


class CountingScheduler(Scheduler):
    """Logs every select / preemption_plan call by pod name, with a
    ``"pass"`` marker per scheduling pass (order_queue runs once a pass)."""

    def __init__(self):
        super().__init__(SchedulingStrategy.SPREAD)
        self.log: list[tuple[str, str]] = []

    def order_queue(self, pods, usage, capacity, weights):
        self.log.append(("pass", ""))
        return super().order_queue(pods, usage, capacity, weights)

    def select(self, pod, nodes):
        self.log.append(("select", pod.meta.name))
        return super().select(pod, nodes)

    def preemption_plan(self, pod, nodes):
        self.log.append(("plan", pod.meta.name))
        return super().preemption_plan(pod, nodes)

    def passes(self) -> list[list[tuple[str, str]]]:
        """The log split into one list of calls per pass."""
        out: list[list[tuple[str, str]]] = []
        for entry in self.log:
            if entry[0] == "pass":
                out.append([])
            else:
                out[-1].append(entry)
        return out


class TestFailedShapeMemo:
    """Within one scheduling pass a pod shape that found neither a node
    nor a preemption plan is not tried again."""

    @pytest.fixture
    def sched(self):
        return CountingScheduler()

    def _cluster(self, env, sched, *node_specs):
        cluster = Cluster(env, scheduler=sched)
        for spec in node_specs:
            cluster.add_node(spec)
        return cluster

    def test_identical_unschedulable_pods_select_once(self, sched):
        env = Environment()
        cluster = self._cluster(env, sched, fiona_node_spec("n"))
        pods = [
            cluster.create_pod(f"big-{i}", sleeper_spec(cpu=999))
            for i in range(6)
        ]
        env.run(until=1)
        (first_pass,) = sched.passes()
        assert first_pass == [("select", "big-0")]
        assert all(p.phase is PodPhase.PENDING for p in pods)
        assert len(cluster.pending_pods()) == 6

    def test_identical_high_priority_pods_plan_once(self, sched):
        env = Environment()
        cluster = self._cluster(env, sched, fiona_node_spec("n"))
        for i in range(4):
            cluster.create_pod(f"urgent-{i}", sleeper_spec(cpu=999, priority=10))
        env.run(until=1)
        (first_pass,) = sched.passes()
        assert first_pass == [("select", "urgent-0"), ("plan", "urgent-0")]

    def test_other_shapes_are_still_tried(self, sched):
        env = Environment()
        node = fiona_node_spec("n", site="UCSD")
        node.taints["dedicated"] = "true"
        cluster = self._cluster(env, sched, node)
        cluster.create_pod("base", sleeper_spec(cpu=999))
        cluster.create_pod("same", sleeper_spec(cpu=999))
        cluster.create_pod("cpu", sleeper_spec(cpu=998))
        cluster.create_pod("memory", sleeper_spec(cpu=999, memory="2Gi"))
        cluster.create_pod("gpu", sleeper_spec(cpu=999, gpu=1))
        cluster.create_pod("priority", sleeper_spec(cpu=999, priority=5))
        cluster.create_pod(
            "selector", sleeper_spec(cpu=999, node_selector={"site": "UCSD"})
        )
        cluster.create_pod(
            "toleration", sleeper_spec(cpu=999, tolerations={"dedicated"})
        )
        env.run(until=1)
        (first_pass,) = sched.passes()
        selected = [name for call, name in first_pass if call == "select"]
        assert "same" not in selected
        assert sorted(selected) == sorted(
            ["base", "cpu", "memory", "gpu", "priority", "selector", "toleration"]
        )

    def test_preemption_clears_the_memo(self, sched):
        env = Environment()
        cluster = self._cluster(env, sched, fiona8_node_spec("gpu-a"))
        low = [
            cluster.create_pod(f"low-{i}", sleeper_spec(duration=1e6, gpu=2))
            for i in range(4)
        ]
        env.run(until=30)
        assert all(p.phase is PodPhase.RUNNING for p in low)
        sched.log.clear()
        # Same priority tier and namespace: tried in arrival order.
        cluster.create_pod("a", sleeper_spec(cpu=999, priority=10))
        cluster.create_pod("b", sleeper_spec(duration=10, gpu=8, priority=10))
        cluster.create_pod("c", sleeper_spec(cpu=999, priority=10))
        cluster.create_pod("d", sleeper_spec(cpu=999, priority=10))
        env.run(until=31)
        first_pass = sched.passes()[0]
        # "a" fails with no plan; "b" preempts, which frees capacity, so
        # "c" (a's shape) is tried again; "c" fails too, so "d" is not.
        assert first_pass == [
            ("select", "a"),
            ("plan", "a"),
            ("select", "b"),
            ("plan", "b"),
            ("select", "c"),
            ("plan", "c"),
        ]
        assert any(
            e.reason == "Preempted" for e in cluster.events_for("Pod")
        )
