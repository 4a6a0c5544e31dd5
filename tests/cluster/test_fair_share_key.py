"""The fair-share key of a live scheduling pass counts each pod once.

``Cluster.create_pod`` charges a pod's request to its namespace's
``used`` when the pod is admitted, so the ``usage`` a pass hands to
``Scheduler.order_queue`` already holds every pending pod, and the key
adds each queued pod's request on top of it. This test records the
order of a live pass, so ``order_queue`` sees exactly the inputs
``Cluster._scheduling_pass`` builds.

Capacity is 10 CPU. Namespace ``a`` has one pending 4-CPU pod;
namespace ``b`` has a running 5-CPU pod and a pending 1-CPU pod.
Counted once, ``a`` stands at 4/10 and ``b`` at 6/10, so ``a`` goes
first. Counted twice, ``a`` stands at 8/10 and ``b`` at 7/10, and ``b``
goes first. The fix moves the drill pins, so it waits for ROADMAP
item 1's contract for changes that move outputs; this test flips to a
pass when it lands.
"""

import pytest

from repro.cluster import Cluster, NodeSpec, PodPhase, Scheduler
from repro.sim import Environment
from tests.cluster.conftest import sleeper_spec


class RecordingScheduler(Scheduler):
    """Keeps the queue order of every pass."""

    def __init__(self):
        super().__init__()
        self.orders: list[list[str]] = []

    def order_queue(self, pods, usage, capacity, weights):
        queue = super().order_queue(pods, usage, capacity, weights)
        self.orders.append([pod.meta.name for pod in queue])
        return queue


@pytest.mark.xfail(
    strict=True,
    reason="order_queue adds pending requests to usage that already holds them",
)
def test_pending_pods_count_once_in_the_fair_share_key():
    env = Environment()
    scheduler = RecordingScheduler()
    cluster = Cluster(env, scheduler=scheduler)
    cluster.add_node(NodeSpec(name="n0", cpu=10.0, memory=64 * 2**30, gpus=0))
    cluster.create_namespace("a")
    cluster.create_namespace("b")
    running = cluster.create_pod(
        "b-running", sleeper_spec(duration=1000.0, cpu=5), namespace="b"
    )
    env.run(until=60.0)  # past the image pull
    assert running.phase is PodPhase.RUNNING

    cluster.create_pod("a-pending", sleeper_spec(cpu=4), namespace="a")
    cluster.create_pod("b-pending", sleeper_spec(cpu=1), namespace="b")
    env.run(until=61.0)
    assert scheduler.orders[-1] == ["a-pending", "b-pending"]
