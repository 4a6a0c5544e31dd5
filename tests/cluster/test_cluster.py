"""Integration tests: pod lifecycle, scheduling, self-healing, namespaces."""

import pytest

from repro.cluster import (
    Cluster,
    JobSpec,
    PodPhase,
    ReplicaSetSpec,
    ResourceQuota,
    fiona8_node_spec,
    fiona_node_spec,
)
from repro.cluster.cluster import POD_STARTUP_SECONDS
from repro.errors import ConflictError, NotFoundError, QuotaExceededError
from repro.sim import Environment
from tests.cluster.conftest import crasher_spec, sleeper_spec


class TestPodLifecycle:
    def test_pod_runs_to_completion(self, cluster, env):
        pod = cluster.create_pod("p1", sleeper_spec(duration=30))
        assert pod.phase is PodPhase.PENDING
        env.run()
        assert pod.phase is PodPhase.SUCCEEDED
        assert pod.result == 30
        assert pod.node_name is not None

    def test_image_pull_and_startup_latency(self, cluster, env):
        pod = cluster.create_pod("p1", sleeper_spec(duration=10))
        env.run()
        node = cluster.get_node(pod.node_name)
        expected = node.spec.image_pull_seconds + POD_STARTUP_SECONDS + 10
        assert pod.finish_time == pytest.approx(expected)

    def test_warm_image_skips_pull(self, cluster, env):
        first = cluster.create_pod("p1", sleeper_spec(duration=5))
        env.run()
        node = cluster.get_node(first.node_name)
        # Force the second pod onto the same node via hostname selector.
        second = cluster.create_pod(
            "p2",
            sleeper_spec(
                duration=5,
                node_selector={"kubernetes.io/hostname": node.spec.name},
            ),
        )
        start = env.now
        env.run()
        assert second.finish_time - start == pytest.approx(POD_STARTUP_SECONDS + 5)

    def test_resources_released_after_completion(self, cluster, env):
        cluster.create_pod("p1", sleeper_spec(duration=5, cpu=8))
        env.run()
        assert all(n.allocated.cpu == 0 for n in cluster.nodes.values())
        ns = cluster.get_namespace("default")
        assert ns.used.cpu == 0
        assert ns.pod_count == 0

    def test_failing_container_fails_pod(self, cluster, env):
        pod = cluster.create_pod("p1", crasher_spec(after=5))
        env.run()
        assert pod.phase is PodPhase.FAILED
        assert isinstance(pod.failure, RuntimeError)

    def test_duplicate_pod_name_rejected(self, cluster, env):
        cluster.create_pod("p1", sleeper_spec(duration=100))
        with pytest.raises(ConflictError):
            cluster.create_pod("p1", sleeper_spec())

    def test_name_reusable_after_termination(self, cluster, env):
        cluster.create_pod("p1", sleeper_spec(duration=1))
        env.run()
        cluster.create_pod("p1", sleeper_spec(duration=1))
        env.run()

    def test_delete_running_pod(self, cluster, env):
        pod = cluster.create_pod("p1", sleeper_spec(duration=1000))
        env.run(until=100)
        assert pod.phase is PodPhase.RUNNING
        cluster.delete_pod(pod)
        env.run()
        assert pod.phase is PodPhase.FAILED
        assert all(n.allocated.cpu == 0 for n in cluster.nodes.values())

    def test_delete_pod_bound_in_the_same_instant(self, cluster, env):
        """A pod deleted after its bind but before its kubelet ran still
        fails cleanly and returns its node and quota charge."""
        deleted = []

        def driver(env):
            pod = cluster.create_pod("p1", sleeper_spec(duration=1000))
            yield env.timeout(0)
            assert pod.node_name is not None
            cluster.delete_pod(pod)
            deleted.append(pod)

        env.process(driver(env))
        env.run()
        assert deleted[0].phase is PodPhase.FAILED
        assert deleted[0].termination_reason == "Deleted"
        assert all(n.pods == {} for n in cluster.nodes.values())
        assert cluster.get_namespace("default").pod_count == 0

    def test_pod_events_logged(self, cluster, env):
        cluster.create_pod("p1", sleeper_spec(duration=1))
        env.run()
        reasons = [e.reason for e in cluster.events_for("Pod", "p1")]
        assert reasons[:2] == ["Created", "Scheduled"]
        assert "Started" in reasons
        assert "Succeeded" in reasons


class TestScheduling:
    def test_gpu_pod_lands_on_gpu_node(self, cluster, env):
        pod = cluster.create_pod("g1", sleeper_spec(duration=5, gpu=2))
        env.run()
        assert pod.node_name.startswith("fiona8")
        assert len(pod.assigned_gpus) == 2

    def test_node_selector_respected(self, cluster, env):
        pod = cluster.create_pod(
            "p1", sleeper_spec(duration=5, node_selector={"site": "UCI"})
        )
        env.run()
        assert cluster.get_node(pod.node_name).spec.site == "UCI"

    def test_unschedulable_pod_stays_pending(self, cluster, env):
        pod = cluster.create_pod("p1", sleeper_spec(gpu=100))
        env.run()
        assert pod.phase is PodPhase.PENDING
        assert pod in cluster.pending_pods()

    def test_pending_pod_scheduled_when_capacity_frees(self, cluster, env):
        # Fill all GPU capacity (2 nodes x 8 GPUs).
        for i in range(2):
            cluster.create_pod(f"big{i}", sleeper_spec(duration=50, gpu=8))
        waiter = cluster.create_pod("waiter", sleeper_spec(duration=5, gpu=8))
        env.run(until=30)
        assert waiter.phase is PodPhase.PENDING
        env.run()
        assert waiter.phase is PodPhase.SUCCEEDED

    def test_pending_pod_scheduled_when_node_joins(self, cluster, env):
        cluster.create_pod("hog1", sleeper_spec(duration=9999, gpu=8, cpu=20))
        cluster.create_pod("hog2", sleeper_spec(duration=9999, gpu=8, cpu=20))
        pod = cluster.create_pod("p1", sleeper_spec(duration=5, gpu=8, cpu=20))
        env.run(until=50)
        assert pod.phase is PodPhase.PENDING
        cluster.add_node(fiona8_node_spec("fiona8-new"))
        env.run(until=200)
        assert pod.phase is PodPhase.SUCCEEDED

    def test_spread_distributes_load(self, env):
        cluster = Cluster(env)
        for i in range(4):
            cluster.add_node(fiona_node_spec(f"n{i}"))
        for i in range(4):
            cluster.create_pod(f"p{i}", sleeper_spec(duration=100, cpu=4))
        env.run(until=50)
        used_nodes = {
            p.node_name for p in cluster.list_pods(phase=PodPhase.RUNNING)
        }
        assert len(used_nodes) == 4

    @pytest.mark.parametrize("cpu,fits", [(0.1, 240), (0.3, 80)])
    def test_full_node_leaves_next_pod_pending(self, env, cpu, fits):
        """Float CPU sums overshoot a full node's capacity by ~1e-14; the
        pod that does not fit stays Pending and nothing raises."""
        cluster = Cluster(env)
        cluster.add_node(fiona_node_spec("n0"))
        pods = [
            cluster.create_pod(
                f"p{i}", sleeper_spec(duration=100, cpu=cpu, memory="100Mi")
            )
            for i in range(fits + 1)
        ]
        env.run(until=50)
        running = [p for p in pods if p.phase is PodPhase.RUNNING]
        assert len(running) == fits
        assert pods[-1].phase is PodPhase.PENDING
        assert pods[-1] in cluster.pending_pods()
        env.run()
        assert all(p.phase is PodPhase.SUCCEEDED for p in pods)

    def test_taints_require_toleration(self, env):
        cluster = Cluster(env)
        spec = fiona_node_spec("tainted")
        spec.taints["reserved"] = "true"
        cluster.add_node(spec)
        blocked = cluster.create_pod("no-tol", sleeper_spec(duration=1))
        allowed = cluster.create_pod(
            "tol", sleeper_spec(duration=1, tolerations={"reserved"})
        )
        env.run()
        assert blocked.phase is PodPhase.PENDING
        assert allowed.phase is PodPhase.SUCCEEDED


class TestSelfHealing:
    def test_node_failure_fails_its_pods(self, cluster, env):
        pod = cluster.create_pod("p1", sleeper_spec(duration=1000))
        env.run(until=100)
        node_name = pod.node_name
        cluster.fail_node(node_name)
        env.run(until=101)
        assert pod.phase is PodPhase.FAILED
        assert cluster.get_node(node_name).pods == {}

    def test_job_reschedules_pods_from_lost_node(self, cluster, env):
        job = cluster.create_job(
            "j1",
            JobSpec(template=lambda i: sleeper_spec(duration=100), completions=1),
        )
        env.run(until=50)
        (pod,) = job.active.values()
        cluster.fail_node(pod.node_name)
        env.run()
        assert job.is_complete
        # The replacement ran on a different (still-ready) node.
        assert len(cluster.events_for("Node")) >= 1

    def test_recovered_node_accepts_pods_again(self, cluster, env):
        for name in list(cluster.nodes):
            cluster.fail_node(name)
        pod = cluster.create_pod("p1", sleeper_spec(duration=5))
        env.run(until=10)
        assert pod.phase is PodPhase.PENDING
        cluster.recover_node("dtn-ucsd-01")
        env.run()
        assert pod.phase is PodPhase.SUCCEEDED


class TestJobs:
    def test_job_runs_all_completions(self, cluster, env):
        job = cluster.create_job(
            "j1",
            JobSpec(
                template=lambda i: sleeper_spec(duration=10 + i),
                completions=5,
                parallelism=2,
            ),
        )
        env.run()
        assert job.is_complete
        assert job.succeeded_indices == set(range(5))
        assert job.results[3] == 13

    def test_parallelism_cap_respected(self, cluster, env):
        job = cluster.create_job(
            "j1",
            JobSpec(
                template=lambda i: sleeper_spec(duration=50),
                completions=6,
                parallelism=2,
            ),
        )
        env.run(until=30)
        assert job.active_count <= 2
        env.run()
        assert job.is_complete

    def test_backoff_limit_fails_job(self, cluster, env):
        job = cluster.create_job(
            "j1",
            JobSpec(
                template=lambda i: crasher_spec(after=1),
                completions=1,
                backoff_limit=2,
            ),
        )
        job.completion_event.defuse()
        env.run()
        assert job.is_failed
        assert job.failed_count == 3  # initial + 2 retries

    def test_waiting_on_completion_event(self, cluster, env):
        job = cluster.create_job(
            "j1",
            JobSpec(template=lambda i: sleeper_spec(duration=7), completions=2,
                    parallelism=2),
        )

        def waiter(env):
            results = yield job.completion_event
            return results

        p = env.process(waiter(env))
        results = env.run(until=p)
        assert set(results) == {0, 1}

    def test_job_duration_measured(self, cluster, env):
        job = cluster.create_job(
            "j1", JobSpec(template=lambda i: sleeper_spec(duration=10))
        )
        env.run()
        assert job.duration > 10


class TestReplicaSets:
    def test_maintains_replicas(self, cluster, env):
        rs = cluster.create_replicaset(
            "rs1", ReplicaSetSpec(template=lambda i: sleeper_spec(duration=20),
                                  replicas=3)
        )
        env.run(until=18)  # image pull (15s) + startup (2s) already elapsed
        assert rs.ready_count == 3
        # Replicas that finish (t=37) are replaced and running again by t=56.
        env.run(until=56)
        assert rs.ready_count == 3

    def test_scale_up_and_down(self, cluster, env):
        rs = cluster.create_replicaset(
            "rs1", ReplicaSetSpec(template=lambda i: sleeper_spec(duration=1e6),
                                  replicas=2)
        )
        env.run(until=10)
        rs.scale(4)
        env.run(until=40)
        assert rs.ready_count == 4
        rs.scale(1)
        env.run(until=50)
        assert rs.ready_count == 1

    def test_delete_tears_down(self, cluster, env):
        rs = cluster.create_replicaset(
            "rs1", ReplicaSetSpec(template=lambda i: sleeper_spec(duration=1e6),
                                  replicas=2)
        )
        env.run(until=10)
        rs.delete()
        env.run(until=20)
        assert rs.ready_count == 0
        assert not cluster.list_pods(phase=PodPhase.RUNNING)


class TestNamespaces:
    def test_quota_blocks_admission(self, cluster, env):
        cluster.create_namespace("ml", quota=ResourceQuota(gpu=4))
        cluster.create_pod("a", sleeper_spec(duration=100, gpu=3), namespace="ml")
        with pytest.raises(QuotaExceededError):
            cluster.create_pod("b", sleeper_spec(gpu=2), namespace="ml")

    def test_quota_released_on_completion(self, cluster, env):
        cluster.create_namespace("ml", quota=ResourceQuota(gpu=4))
        cluster.create_pod("a", sleeper_spec(duration=10, gpu=4), namespace="ml")
        env.run()
        cluster.create_pod("b", sleeper_spec(duration=10, gpu=4), namespace="ml")
        env.run()

    def test_namespace_isolation_of_names(self, cluster, env):
        cluster.create_namespace("alpha")
        cluster.create_namespace("beta")
        cluster.create_pod("same", sleeper_spec(duration=1e5), namespace="alpha")
        cluster.create_pod("same", sleeper_spec(duration=1e5), namespace="beta")
        assert len(cluster.list_pods()) == 2
        assert len(cluster.list_pods(namespace="alpha")) == 1

    def test_administrator_manages_users(self, cluster):
        ns = cluster.create_namespace("lab", administrator="pi@ucsd.edu")
        ns.add_user("student@ucsd.edu", added_by="pi@ucsd.edu")
        assert "student@ucsd.edu" in ns.users
        with pytest.raises(PermissionError):
            ns.add_user("foe@x.com", added_by="student@ucsd.edu")

    def test_unknown_namespace_rejected(self, cluster):
        with pytest.raises(NotFoundError):
            cluster.create_pod("p", sleeper_spec(), namespace="ghost")


class TestServices:
    def test_endpoints_track_running_pods(self, cluster, env):
        svc = cluster.create_service("workers", selector={"app": "train"})
        rs = cluster.create_replicaset(
            "train",
            ReplicaSetSpec(template=lambda i: sleeper_spec(duration=1e6), replicas=2),
            labels={"app": "train"},
        )
        assert svc.endpoints() == []
        env.run(until=30)
        assert len(svc.endpoints()) == 2
        rs.scale(0)
        env.run(until=40)
        assert svc.endpoints() == []

    def test_hostname_resolution(self, cluster, env):
        cluster.create_namespace("ml")
        svc = cluster.create_service("ps", selector={"role": "ps"}, namespace="ml")
        assert svc.hostname == "ps.ml.svc.cluster.local"
