"""Distributed GPU visualization: the CalVR scenario of paper §VII.

"In January 2019, Calit2 visualization researchers ... used the CHASE-CI
infrastructure to schedule and debug a scalable OpenGL-based
visualization application across 11 remote GPU nodes.  They were able to
lead a Virtual Reality content demonstration at University of
California, Merced from an immersive visualization space at University
of California, San Diego ... driving graphical displays in Merced with
input from a motion tracked wand in San Diego with unnoticeable latency.
Kubernetes object labeling conventions enabled straightforward targeting
of specific nodes ... It is notable that graphics and machine learning
processes can cohabitate."

This module reproduces that usage: label-targeted placement of render
pods on specific GPU nodes, wand-event round-trips measured over the PRP
topology, and cohabitation with compute pods on the same hardware.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster import ContainerSpec, PodSpec, ReplicaSetSpec, ResourceRequirements
from repro.cluster.pod import PodPhase
from repro.errors import ClusterError
from repro.sim import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.testbed import NautilusTestbed

__all__ = ["WandEvent", "VisualizationCluster"]

#: Latency below which tracked-input interaction feels instantaneous.
UNNOTICEABLE_LATENCY_S = 0.050

#: A motion-tracker update packet (pose + orientation + buttons).
WAND_EVENT_BYTES = 512.0


@dataclasses.dataclass
class WandEvent:
    """One measured input round trip."""

    sent_at: float
    rtt_s: float

    @property
    def unnoticeable(self) -> bool:
        return self.rtt_s <= UNNOTICEABLE_LATENCY_S


class VisualizationCluster:
    """A CalVR-style render fleet driven from a remote input site.

    Parameters
    ----------
    testbed:
        The Nautilus deployment.
    input_host:
        Hostname of the machine holding the motion-tracked wand (the
        SunCAVE at UCSD in the paper).
    """

    #: Namespace for the render pods.
    namespace = "calvr"

    def __init__(self, testbed: "NautilusTestbed", input_host: str):
        self.testbed = testbed
        self.input_host = input_host
        if self.namespace not in testbed.cluster.namespaces:
            testbed.cluster.create_namespace(self.namespace)
        self._rs = None
        self.render_nodes: list[str] = []
        self.events: list[WandEvent] = []

    # -- deployment -----------------------------------------------------------------

    def deploy(self, node_names: _t.Sequence[str]) -> None:
        """Pin one render pod to each named GPU node via hostname labels
        ("Kubernetes object labeling conventions enabled straightforward
        targeting of specific nodes")."""
        cluster = self.testbed.cluster
        for name in node_names:
            node = cluster.get_node(name)
            if node.spec.gpus < 1:
                raise ClusterError(f"{name} has no GPUs to render with")
        self.render_nodes = list(node_names)

        def template(index: int) -> PodSpec:
            target = node_names[index % len(node_names)]

            def main(ctx):
                while True:  # render loop runs until torn down
                    yield ctx.env.timeout(30.0)

            return PodSpec(
                containers=[
                    ContainerSpec(
                        name="calvr-render",
                        image="calit2/calvr:5.0",
                        main=main,
                        resources=ResourceRequirements(
                            cpu=2, memory="8Gi", gpu=1
                        ),
                    )
                ],
                node_selector={"kubernetes.io/hostname": target},
            )

        self._rs = cluster.create_replicaset(
            f"calvr-{len(cluster.replicasets)}",
            ReplicaSetSpec(template=template, replicas=len(node_names)),
            namespace=self.namespace,
            labels={"app": "calvr"},
        )

    def ready_renderers(self) -> int:
        if self._rs is None:
            return 0
        return self._rs.ready_count

    def renderer_placement(self) -> dict[str, int]:
        """node name -> number of running render pods (should be 1 each)."""
        placement: dict[str, int] = {}
        for pod in self.testbed.cluster.list_pods(
            namespace=self.namespace, phase=PodPhase.RUNNING
        ):
            placement[pod.node_name] = placement.get(pod.node_name, 0) + 1
        return placement

    # -- interaction ---------------------------------------------------------------

    def send_wand_event(self, display_host: str) -> Event:
        """One tracked-wand input round trip to a display host.

        Returns an event that fires with the recorded :class:`WandEvent`.
        The RTT is two one-way PRP latencies plus the (tiny) serialization
        time of the tracker packet on the path.
        """
        topo = self.testbed.topology
        env = self.testbed.env
        sent_at = env.now
        one_way = topo.path_latency(self.input_host, display_host)
        done = env.event()

        def round_trip():
            yield self.testbed.flowsim.transfer(
                topo.path_resources(self.input_host, display_host),
                WAND_EVENT_BYTES,
                latency_s=one_way,
                name="wand:event",
            )
            yield self.testbed.flowsim.transfer(
                topo.path_resources(display_host, self.input_host),
                WAND_EVENT_BYTES,
                latency_s=one_way,
                name="wand:ack",
            )
            event = WandEvent(sent_at=sent_at, rtt_s=env.now - sent_at)
            self.events.append(event)
            done.succeed(event)

        env.process(round_trip(), name="wand-roundtrip")
        return done

    def interaction_report(self) -> dict[str, float]:
        """Latency statistics over all measured wand events."""
        if not self.events:
            return {"events": 0.0, "mean_rtt_ms": 0.0, "max_rtt_ms": 0.0,
                    "unnoticeable_fraction": 0.0}
        rtts = [e.rtt_s for e in self.events]
        return {
            "events": float(len(rtts)),
            "mean_rtt_ms": 1e3 * sum(rtts) / len(rtts),
            "max_rtt_ms": 1e3 * max(rtts),
            "unnoticeable_fraction": (
                sum(e.unnoticeable for e in self.events) / len(self.events)
            ),
        }
