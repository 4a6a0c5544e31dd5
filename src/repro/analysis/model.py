"""Lint views: the neutral shapes rules actually inspect.

Rules never touch live :class:`~repro.cluster.cluster.Cluster` or
:class:`~repro.workflow.Workflow` objects directly — they see small
frozen view dataclasses built from live objects by the adapters below.
That buys two things: the same rule runs over the built testbed and the
CONNECT workflow (``repro lint``) and over in-memory workflow objects
(``Workflow.__init__``); and the analysis package never imports the
workflow layer, so the workflow layer is free to import the analysis
engine without a cycle.  The one cluster import is the admission-fit
predicate :func:`~repro.cluster.objects.fits_empty_node`, which SPEC001
and the admission gateway share, so the gateway judges live nodes
without building views.

Adapters here are duck-typed: any object with the right attributes
(``depends_on``, ``timeout_s``, ``spec.total_request()``...) converts.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.objects import fits_empty_node

__all__ = [
    "NodeView",
    "PodView",
    "JobView",
    "NamespaceView",
    "ServiceView",
    "ClusterSpecView",
    "StepView",
    "WorkflowView",
    "TenantView",
    "GatewayView",
    "ClientRetryView",
    "DeploymentView",
    "cluster_view",
    "node_views",
    "pod_view_from_spec",
    "workflow_view",
]


# --------------------------------------------------------------------- cluster


@dataclasses.dataclass(frozen=True)
class NodeView:
    """Allocatable capacity of one machine."""

    name: str
    cpu: float = 0.0
    memory: float = 0.0
    gpu: int = 0

    def fits(self, pod: "PodView") -> bool:
        """Could the pod's request ever fit on an *empty* copy of this
        node?  (Admission feasibility, not current free capacity; the
        admission gateway asks the same :func:`fits_empty_node`.)"""
        return fits_empty_node(pod, self)


@dataclasses.dataclass(frozen=True)
class PodView:
    """One pod spec (standalone, or a controller's template)."""

    name: str
    namespace: str = "default"
    cpu: float = 0.0
    memory: float = 0.0
    gpu: int = 0
    labels: _t.Mapping[str, str] = dataclasses.field(default_factory=dict)
    #: any container declared an explicit cpu or memory request
    has_requests: bool = True
    #: pod is meant to run indefinitely (service/replica workloads)
    long_running: bool = False
    has_liveness: bool = False
    #: "Pod", "Job", "ReplicaSet" — what declared this spec
    kind: str = "Pod"
    #: named PriorityClass, when declared ("" otherwise)
    priority_class: str = ""
    #: spec carries an explicit priority (a class name or a nonzero
    #: numeric priority) — the fleet-wide signal SPEC008 keys on
    has_priority: bool = False

    def matches(self, selector: _t.Mapping[str, str]) -> bool:
        return all(self.labels.get(k) == v for k, v in selector.items())


@dataclasses.dataclass(frozen=True)
class JobView:
    """A batch Job: template pod × parallelism, with a failure budget."""

    name: str
    namespace: str = "default"
    backoff_limit: int = 6
    completions: int = 1
    parallelism: int = 1
    template: "PodView | None" = None


@dataclasses.dataclass(frozen=True)
class NamespaceView:
    """A virtual cluster and its (optional) quota ceiling."""

    name: str
    quota_cpu: float = float("inf")
    quota_memory: float = float("inf")
    quota_gpu: float = float("inf")
    quota_pods: float = float("inf")

    @property
    def has_quota(self) -> bool:
        return any(
            q != float("inf")
            for q in (self.quota_cpu, self.quota_memory, self.quota_gpu,
                      self.quota_pods)
        )


@dataclasses.dataclass(frozen=True)
class ServiceView:
    name: str
    namespace: str = "default"
    selector: _t.Mapping[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class ClusterSpecView:
    """Everything the spec pack needs to judge a deployment."""

    nodes: tuple[NodeView, ...] = ()
    namespaces: tuple[NamespaceView, ...] = ()
    pods: tuple[PodView, ...] = ()
    jobs: tuple[JobView, ...] = ()
    services: tuple[ServiceView, ...] = ()

    def all_pods(self) -> "list[PodView]":
        """Standalone pods plus each job's template, once per parallel slot."""
        out = list(self.pods)
        for job in self.jobs:
            if job.template is not None:
                out.extend([job.template] * max(1, job.parallelism))
        return out


# -------------------------------------------------------------------- workflow


@dataclasses.dataclass(frozen=True)
class StepView:
    """One workflow step as the DAG pack sees it."""

    name: str
    depends_on: tuple[str, ...] = ()
    timeout_s: "float | None" = None
    max_retries: int = 0
    #: step talks to external services (THREDDS catalog, aria2 streams)
    network_bound: bool = False
    #: a checkpoint written after this step supports resume_from
    checkpointable: bool = True
    #: concurrent GPU demand while the step runs
    gpus: int = 0
    image: str = ""


@dataclasses.dataclass(frozen=True)
class WorkflowView:
    name: str
    steps: tuple[StepView, ...] = ()
    #: total GPUs in the target testbed, when known (None disables
    #: aggregate-capacity rules)
    total_gpus: "int | None" = None

    def deps(self) -> dict[str, tuple[str, ...]]:
        return {s.name: s.depends_on for s in self.steps}

    def step(self, name: str) -> StepView:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


# ------------------------------------------------------------------ deployment


@dataclasses.dataclass(frozen=True)
class TenantView:
    """One gateway tenant (or a group of identical tenants)."""

    name: str
    rate: float = float("inf")  # sustained submissions/sec (token refill)
    burst: float = float("inf")  # bucket capacity
    weight: float = 1.0  # fair-share weight
    priority_class: str = ""
    namespace: str = ""
    #: identical tenants collapsed into one view row
    count: int = 1


@dataclasses.dataclass(frozen=True)
class GatewayView:
    """Admission-gateway configuration as the deploy pack sees it."""

    max_queue_depth: int = 0
    pending_timeout_s: float = 0.0
    breaker_failure_threshold: int = 0
    breaker_cooldown_s: float = 0.0
    tenants: tuple[TenantView, ...] = ()

    @property
    def has_rate_limits(self) -> bool:
        return any(t.rate != float("inf") for t in self.tenants)

    @property
    def has_breaker(self) -> bool:
        return self.breaker_failure_threshold > 0


@dataclasses.dataclass(frozen=True)
class ClientRetryView:
    """The submitting client's retry policy (loadgen tenant runner)."""

    max_submit_retries: int = 0
    max_pod_retries: int = 0
    #: client sleeps at least the gateway's retry_after hint before
    #: resubmitting (the anti-retry-storm contract)
    honors_retry_after: bool = True
    #: minimum backoff between resubmissions, seconds
    backoff_base_s: float = 1.0


@dataclasses.dataclass(frozen=True)
class DeploymentView:
    """The cross-layer join the ``deploy`` pack inspects.

    Any part may be absent (``None``/empty): rules check what is
    present and stay quiet about the rest, so a gateway-only view
    still exercises retry-storm rules without declaring a cluster.
    """

    cluster: "ClusterSpecView | None" = None
    gateway: "GatewayView | None" = None
    workflows: tuple[WorkflowView, ...] = ()
    client: "ClientRetryView | None" = None
    #: per-transfer attempts of network-bound steps (repro.netsim)
    transfer_retry_attempts: int = 1


# -------------------------------------------------------------------- adapters

#: substrings of a container image name that imply WAN transfers
_NETWORK_IMAGE_HINTS = ("thredds", "aria2", "download", "transfer", "rsync", "s3")


def pod_view_from_spec(
    name: str,
    spec: _t.Any,
    namespace: str,
    labels: _t.Mapping[str, str] | None = None,
    kind: str = "Pod",
    long_running: bool = False,
) -> PodView:
    """Adapt a live :class:`~repro.cluster.pod.PodSpec`."""
    total = spec.total_request()
    has_requests = any(
        c.resources.cpu > 0 or c.resources.memory > 0 for c in spec.containers
    )
    priority_class = str(getattr(spec, "priority_class", "") or "")
    return PodView(
        name=name,
        namespace=namespace,
        cpu=total.cpu,
        memory=float(total.memory),
        gpu=total.gpu,
        labels=dict(labels or {}),
        has_requests=has_requests,
        long_running=long_running,
        has_liveness=getattr(spec, "liveness", None) is not None,
        kind=kind,
        priority_class=priority_class,
        has_priority=bool(priority_class)
        or int(getattr(spec, "priority", 0) or 0) != 0,
    )


def node_views(cluster: _t.Any) -> tuple[NodeView, ...]:
    """Each node's allocatable capacity, in name order."""
    return tuple(
        NodeView(
            name=node.spec.name,
            cpu=node.capacity.cpu,
            memory=float(node.capacity.memory),
            gpu=node.capacity.gpu,
        )
        for _name, node in sorted(cluster.nodes.items())
    )


def cluster_view(cluster: _t.Any) -> ClusterSpecView:
    """Adapt a live :class:`~repro.cluster.cluster.Cluster`.

    Job templates are materialized at index 0 (templates are pure
    spec-builders in this codebase); ReplicaSet pods count as
    long-running for the liveness-probe rule.
    """
    namespaces = tuple(
        NamespaceView(
            name=ns.name,
            quota_cpu=ns.quota.cpu,
            quota_memory=float(ns.quota.memory),
            quota_gpu=ns.quota.gpu,
            quota_pods=ns.quota.max_pods,
        )
        for _name, ns in sorted(cluster.namespaces.items())
    )
    service_owned = {rs.meta.uid for rs in cluster.replicasets.values()}
    pods = tuple(
        pod_view_from_spec(
            pod.meta.name,
            pod.spec,
            pod.meta.namespace,
            pod.meta.labels,
            long_running=pod.owner_uid in service_owned,
        )
        for _key, pod in sorted(cluster.pods.items())
        if not pod.is_terminal
    )
    jobs = []
    for _key, job in sorted(cluster.jobs.items()):
        try:
            template = pod_view_from_spec(
                f"{job.meta.name}-template",
                job.spec.template(0),
                job.meta.namespace,
                kind="Job",
            )
        except Exception:  # template needs runtime context: skip its pods
            template = None
        jobs.append(
            JobView(
                name=job.meta.name,
                namespace=job.meta.namespace,
                backoff_limit=job.spec.backoff_limit,
                completions=job.spec.completions,
                parallelism=job.spec.parallelism,
                template=template,
            )
        )
    services = tuple(
        ServiceView(
            name=svc.meta.name,
            namespace=svc.meta.namespace,
            selector=dict(svc.selector),
        )
        for _key, svc in sorted(cluster.services.items())
    )
    return ClusterSpecView(
        nodes=node_views(cluster),
        namespaces=namespaces,
        pods=pods,
        jobs=tuple(jobs),
        services=services,
    )


def workflow_view(
    workflow: _t.Any, total_gpus: "int | None" = None
) -> WorkflowView:
    """Adapt a live :class:`~repro.workflow.Workflow` (or anything with a
    ``name`` and a ``steps`` mapping of step-like objects)."""
    steps = []
    for step in workflow.steps.values():
        image = getattr(step, "image", "") or ""
        network = bool(getattr(step, "network_bound", False)) or any(
            hint in image.lower() for hint in _NETWORK_IMAGE_HINTS
        )
        if hasattr(step, "gpu_demand"):
            gpus = int(step.gpu_demand())
        else:
            params = getattr(step, "params", {}) or {}
            gpus = int(params.get("n_gpus", params.get("gpus", 0)))
        steps.append(
            StepView(
                name=step.name,
                depends_on=tuple(getattr(step, "depends_on", ())),
                timeout_s=getattr(step, "timeout_s", None),
                max_retries=int(getattr(step, "max_retries", 0)),
                network_bound=network,
                checkpointable=bool(getattr(step, "checkpointable", True)),
                gpus=gpus,
                image=image,
            )
        )
    return WorkflowView(
        name=workflow.name,
        steps=tuple(steps),
        total_gpus=total_gpus,
    )
