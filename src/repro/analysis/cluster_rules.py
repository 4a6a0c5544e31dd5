"""Rule pack ``spec``: cluster-spec admission lint.

The paper's virtual-cluster story (§IV, §V) assumes workloads are
well-formed before the scheduler sees them — on Nautilus that's
admission control plus community linting of manifests.  These rules
catch the spec mistakes that otherwise surface as runtime mysteries:
pods Pending forever because no FIONA can ever fit them, jobs that give
up on the first transient fault, services selecting nothing.

Every rule takes a :class:`~repro.analysis.model.ClusterSpecView` and
yields findings.  The whole pack runs over the built testbed (``repro
lint`` with no arguments); SPEC001 alone runs at the admission gateway
over each submitted pod.
"""

from __future__ import annotations

import typing as _t

from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.model import ClusterSpecView, PodView
from repro.analysis.registry import rule

__all__ = ["run_spec_rules"]


def _fmt_req(pod: PodView) -> str:
    parts = [f"cpu={pod.cpu:g}"]
    if pod.memory:
        parts.append(f"memory={pod.memory / 2**30:.1f}Gi")
    if pod.gpu:
        parts.append(f"gpu={pod.gpu}")
    return ", ".join(parts)


@rule(
    "SPEC001",
    "unschedulable-request",
    pack="spec",
    severity=Severity.ERROR,
    description="Pod requests more CPU/memory/GPU than any node's capacity",
)
def check_unschedulable(view: ClusterSpecView) -> _t.Iterator[Finding]:
    if not view.nodes:
        return
    max_gpu = max(n.gpu for n in view.nodes)
    seen: set[tuple] = set()
    for pod in view.all_pods():
        key = (pod.kind, pod.namespace, pod.name)
        if key in seen:  # job templates repeat per parallel slot
            continue
        seen.add(key)
        if any(node.fits(pod) for node in view.nodes):
            continue
        if pod.gpu > max_gpu:
            detail = (
                f"requests {pod.gpu} GPUs but the largest node has {max_gpu}"
            )
            fix = (
                f"shard the work across pods of <= {max_gpu} GPUs "
                "(one FIONA8 carries 8)"
            )
        else:
            detail = f"request ({_fmt_req(pod)}) exceeds every node's capacity"
            fix = "lower the request or add a larger node to the testbed"
        yield Finding(
            code="SPEC001",
            severity=Severity.ERROR,
            message=f"pod {pod.name!r} is unschedulable: {detail}",
            location=Location(
                kind=pod.kind, name=pod.name, namespace=pod.namespace
            ),
            suggestion=fix,
        )


@rule(
    "SPEC002",
    "missing-resource-requests",
    pack="spec",
    severity=Severity.WARNING,
    description="Pod declares no CPU or memory requests at all",
)
def check_missing_requests(view: ClusterSpecView) -> _t.Iterator[Finding]:
    seen: set[tuple] = set()
    for pod in view.all_pods():
        key = (pod.kind, pod.namespace, pod.name)
        if key in seen or pod.has_requests:
            seen.add(key)
            continue
        seen.add(key)
        yield Finding(
            code="SPEC002",
            severity=Severity.WARNING,
            message=(
                f"pod {pod.name!r} declares no resource requests; the "
                "scheduler will pack it blindly and quota cannot account it"
            ),
            location=Location(
                kind=pod.kind, name=pod.name, namespace=pod.namespace
            ),
            suggestion="declare cpu/memory requests on every container",
        )


@rule(
    "SPEC003",
    "missing-liveness-probe",
    pack="spec",
    severity=Severity.WARNING,
    description="Long-running pod has no liveness probe",
)
def check_missing_liveness(view: ClusterSpecView) -> _t.Iterator[Finding]:
    seen: set[tuple] = set()
    for pod in view.all_pods():
        key = (pod.kind, pod.namespace, pod.name)
        if key in seen or not pod.long_running or pod.has_liveness:
            seen.add(key)
            continue
        seen.add(key)
        yield Finding(
            code="SPEC003",
            severity=Severity.WARNING,
            message=(
                f"long-running pod {pod.name!r} has no liveness probe; a "
                "hang (e.g. behind a network partition) will never be "
                "detected or restarted"
            ),
            location=Location(
                kind=pod.kind, name=pod.name, namespace=pod.namespace
            ),
            suggestion="attach a LivenessProbe so the kubelet restarts hung pods",
        )


@rule(
    "SPEC004",
    "job-without-retry-budget",
    pack="spec",
    severity=Severity.WARNING,
    description="Job has backoff_limit 0: one pod failure fails the job",
)
def check_job_retry(view: ClusterSpecView) -> _t.Iterator[Finding]:
    for job in view.jobs:
        if job.backoff_limit > 0:
            continue
        yield Finding(
            code="SPEC004",
            severity=Severity.WARNING,
            message=(
                f"job {job.name!r} has backoff_limit=0; any transient pod "
                "failure (NodeLost, liveness kill) fails the whole job"
            ),
            location=Location(
                kind="Job", name=job.name, namespace=job.namespace
            ),
            suggestion="set backoff_limit >= 1 (the paper's jobs tolerate "
                       "node churn, §V)",
        )


@rule(
    "SPEC005",
    "namespace-quota-oversubscribed",
    pack="spec",
    severity=Severity.ERROR,
    description="Declared pods exceed their namespace's ResourceQuota",
)
def check_quota_oversubscription(view: ClusterSpecView) -> _t.Iterator[Finding]:
    quotas = {ns.name: ns for ns in view.namespaces if ns.has_quota}
    if not quotas:
        return
    sums: dict[str, dict[str, float]] = {
        name: {"cpu": 0.0, "memory": 0.0, "gpu": 0.0, "pods": 0.0}
        for name in quotas
    }
    for pod in view.all_pods():
        agg = sums.get(pod.namespace)
        if agg is None:
            continue
        agg["cpu"] += pod.cpu
        agg["memory"] += pod.memory
        agg["gpu"] += pod.gpu
        agg["pods"] += 1
    for name in sorted(quotas):
        ns, agg = quotas[name], sums[name]
        over = []
        if agg["cpu"] > ns.quota_cpu + 1e-9:
            over.append(f"cpu {agg['cpu']:g} > {ns.quota_cpu:g}")
        if agg["memory"] > ns.quota_memory:
            over.append(
                f"memory {agg['memory'] / 2**30:.1f}Gi > "
                f"{ns.quota_memory / 2**30:.1f}Gi"
            )
        if agg["gpu"] > ns.quota_gpu:
            over.append(f"gpu {agg['gpu']:g} > {ns.quota_gpu:g}")
        if agg["pods"] > ns.quota_pods:
            over.append(f"pods {agg['pods']:g} > {ns.quota_pods:g}")
        if over:
            yield Finding(
                code="SPEC005",
                severity=Severity.ERROR,
                message=(
                    f"namespace {name!r} quota is oversubscribed by its "
                    f"declared pods: {'; '.join(over)}"
                ),
                location=Location(kind="Namespace", name=name),
                suggestion="raise the quota or trim pod parallelism — "
                           "admission will reject the overflow at runtime",
            )


@rule(
    "SPEC006",
    "quota-exceeds-cluster",
    pack="spec",
    severity=Severity.WARNING,
    description="Namespace quota promises more than the whole cluster has",
)
def check_quota_vs_cluster(view: ClusterSpecView) -> _t.Iterator[Finding]:
    if not view.nodes:
        return
    total_cpu = sum(n.cpu for n in view.nodes)
    total_mem = sum(n.memory for n in view.nodes)
    total_gpu = sum(n.gpu for n in view.nodes)
    for ns in view.namespaces:
        if not ns.has_quota:
            continue
        over = []
        if ns.quota_cpu != float("inf") and ns.quota_cpu > total_cpu + 1e-9:
            over.append(f"cpu {ns.quota_cpu:g} > cluster {total_cpu:g}")
        if ns.quota_memory != float("inf") and ns.quota_memory > total_mem:
            over.append("memory quota exceeds cluster memory")
        if ns.quota_gpu != float("inf") and ns.quota_gpu > total_gpu:
            over.append(f"gpu {ns.quota_gpu:g} > cluster {total_gpu:g}")
        if over:
            yield Finding(
                code="SPEC006",
                severity=Severity.WARNING,
                message=(
                    f"namespace {ns.name!r} quota promises more than the "
                    f"cluster holds: {'; '.join(over)}"
                ),
                location=Location(kind="Namespace", name=ns.name),
                suggestion="size quotas within aggregate node capacity so "
                           "admitted pods can actually schedule",
            )


@rule(
    "SPEC007",
    "service-selects-nothing",
    pack="spec",
    severity=Severity.WARNING,
    description="Service label selector matches zero declared pods",
)
def check_service_selector(view: ClusterSpecView) -> _t.Iterator[Finding]:
    pods = view.all_pods()
    for svc in view.services:
        if not svc.selector:
            continue
        matched = any(
            pod.namespace == svc.namespace and pod.matches(svc.selector)
            for pod in pods
        )
        if matched:
            continue
        selector = ",".join(f"{k}={v}" for k, v in sorted(svc.selector.items()))
        yield Finding(
            code="SPEC007",
            severity=Severity.WARNING,
            message=(
                f"service {svc.name!r} selector [{selector}] matches no "
                f"pod in namespace {svc.namespace!r}; lookups will resolve "
                "to zero endpoints"
            ),
            location=Location(
                kind="Service", name=svc.name, namespace=svc.namespace
            ),
            suggestion="align the selector with the pods' labels (or delete "
                       "the stale service)",
        )


@rule(
    "SPEC008",
    "missing-priority-class",
    pack="spec",
    severity=Severity.WARNING,
    description="Pod declares no priority class while the deployment "
                "uses priorities elsewhere",
)
def check_missing_priority(view: ClusterSpecView) -> _t.Iterator[Finding]:
    """Flag unprioritized pods *once the deployment opted into priorities*.

    A cluster where nothing declares a priority is fine — every pod is
    implicitly best-effort and the scheduler treats them uniformly, so
    legacy deployments stay silent.  But as soon as one spec carries a
    priority class (or a nonzero numeric priority), unclassed pods
    silently become universal preemption victims; each one deserves an
    explicit decision (or a baseline entry grandfathering it).
    """
    pods = view.all_pods()
    if not any(pod.has_priority for pod in pods):
        return
    seen: set[tuple] = set()
    for pod in pods:
        key = (pod.kind, pod.namespace, pod.name)
        if key in seen or pod.has_priority:
            seen.add(key)
            continue
        seen.add(key)
        yield Finding(
            code="SPEC008",
            severity=Severity.WARNING,
            message=(
                f"pod {pod.name!r} has no priority class but this "
                "deployment uses priorities; it will be preempted before "
                "every classed pod"
            ),
            location=Location(
                kind=pod.kind, name=pod.name, namespace=pod.namespace
            ),
            suggestion="set priority_class (best-effort/batch/normal/"
                       "high/system) to make the preemption order explicit",
        )


def run_spec_rules(
    view: ClusterSpecView, rules: _t.Iterable | None = None
) -> "list[Finding]":
    """Run (a subset of) the spec pack over one cluster view."""
    from repro.analysis.registry import registry

    findings: list[Finding] = []
    for r in rules if rules is not None else registry.rules(pack="spec"):
        findings.extend(r.check(view))
    return findings
