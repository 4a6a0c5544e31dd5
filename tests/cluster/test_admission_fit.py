"""The admission gateway's unschedulable check equals SPEC001's.

The gateway rejects a pod no node could ever fit by asking
:func:`repro.cluster.objects.fits_empty_node` of every live node; the
lint rule SPEC001 asks the same predicate of each node view.  Their
verdicts must agree on every request and node set, ready or not.
"""

from __future__ import annotations

import ast
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ClusterSpecView, node_views, pod_view_from_spec
from repro.analysis.cluster_rules import check_unschedulable
from repro.cluster import (
    Cluster,
    ContainerSpec,
    NodeSpec,
    PodSpec,
    ResourceRequirements,
    fits_empty_node,
)
from repro.gateway import REJECTED, AdmissionGateway, GatewayConfig, TenantPolicy
from repro.sim import Environment

GATEWAY_SRC = (
    pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "gateway"
)

NODE_CPUS = [4.0, 23.999999999, 24.0, 0.3]
NODE_MEMORY = [8 * 2**30, 96 * 2**30]
NODE_GPUS = [0, 2, 8]


@st.composite
def node_sets(draw) -> list[tuple[NodeSpec, str]]:
    """Nodes with a state each: ready or not ready."""
    count = draw(st.integers(min_value=0, max_value=4))
    return [
        (
            NodeSpec(
                name=f"n{i}",
                cpu=draw(st.sampled_from(NODE_CPUS)),
                memory=draw(st.sampled_from(NODE_MEMORY)),
                gpus=draw(st.sampled_from(NODE_GPUS)),
            ),
            draw(st.sampled_from(["ready", "ready", "not-ready"])),
        )
        for i in range(count)
    ]


@st.composite
def requests(draw) -> list[ResourceRequirements]:
    """One to three containers' requests; CPU totals land on, just
    inside or just outside the 1e-9-core tolerance of a node's CPUs."""
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        base = draw(st.sampled_from(NODE_CPUS + [0.0, 1.0, 8.0]))
        delta = draw(st.sampled_from([0.0, 0.0, 5e-10, 1e-9, 2e-9, -1e-9]))
        out.append(
            ResourceRequirements(
                cpu=max(0.0, base + delta),
                memory=draw(st.sampled_from([0, 2**30] + NODE_MEMORY)),
                gpu=draw(st.integers(min_value=0, max_value=9)),
            )
        )
    return out


def _spec(resources: list[ResourceRequirements]) -> PodSpec:
    def main(ctx):
        yield ctx.env.timeout(1.0)

    return PodSpec(
        containers=[
            ContainerSpec(name=f"c{i}", image="repro/fit:1", main=main, resources=r)
            for i, r in enumerate(resources)
        ]
    )


@settings(max_examples=300, deadline=None)
@given(nodes=node_sets(), resources=requests())
def test_gateway_verdict_equals_spec001(nodes, resources):
    env = Environment()
    cluster = Cluster(env)
    for spec, state in nodes:
        cluster.add_node(spec)
        if state == "not-ready":
            cluster.fail_node(spec.name)
    gateway = AdmissionGateway(cluster, GatewayConfig())
    gateway.register_tenant("acme", TenantPolicy(rate=100.0, burst=100.0))
    spec = _spec(resources)
    lint = ClusterSpecView(
        nodes=node_views(cluster),
        pods=(pod_view_from_spec("p", spec, "acme"),),
    )
    spec001 = any(check_unschedulable(lint))
    decision = gateway.submit("p", spec, tenant="acme")
    rejected = (decision.outcome, decision.reason) == (
        REJECTED,
        "AdmissionLint:SPEC001",
    )
    assert rejected == spec001


def test_fits_empty_node_cpu_tolerance():
    capacity = ResourceRequirements(cpu=24.0, memory=2**30, gpu=8)
    assert fits_empty_node(ResourceRequirements(cpu=24.0 + 5e-10), capacity)
    assert fits_empty_node(ResourceRequirements(cpu=24.0 + 1e-9), capacity)
    assert not fits_empty_node(ResourceRequirements(cpu=24.0 + 2e-9), capacity)
    assert not fits_empty_node(ResourceRequirements(memory=2**30 + 1), capacity)
    assert not fits_empty_node(ResourceRequirements(gpu=9), capacity)


def test_gateway_does_not_import_analysis():
    """The gateway judges admission on live objects: no module under
    ``repro/gateway`` imports ``repro.analysis``."""
    offenders = []
    sources = sorted(GATEWAY_SRC.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # Resolve relative imports against ``repro.gateway``.
                parts = ["repro", "gateway"][: 3 - node.level] if node.level else []
                base = ".".join(parts + ([node.module] if node.module else []))
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                if name == "repro.analysis" or name.startswith("repro.analysis."):
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, offenders
