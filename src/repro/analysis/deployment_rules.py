"""Rule pack ``deploy``: cross-layer deployment lint.

Every individual config in PR 6's overload drill is defensible alone —
the gateway's rate limits, the client's retry budgets, the namespace
quotas, the workflow fan-outs.  What fails in production is their
*product*: a client that retries without honoring backpressure hints
turns the circuit breaker into an amplifier; a quota sized below one
step's request admits tenants that can never run a workflow; enough
long-running high-priority pods make lower classes starve forever no
matter what fair-share promises.  These rules inspect the joined
:class:`~repro.analysis.model.DeploymentView` — cluster + gateway +
workflows + client retry policy — and flag exactly those interaction
bugs:

- ``DEPLOY001`` (error) — retry storm: bounded client retries that
  ignore ``retry_after`` hints (or back off zero seconds) against a
  rate-limited/breaker-protected gateway.
- ``DEPLOY002`` (error) — priority starvation: long-running
  higher-class pods pin >= the whole cluster's GPUs (or CPUs) while
  lower-class tenants submit workflows needing them; fair-share weights
  cannot help because preemption only ever flows downhill.
- ``DEPLOY003`` (error/warning) — quota infeasibility: a single
  workflow step outgrows its tenant namespace's quota (error: it can
  never bind), or a concurrent step wave does (warning: it serializes).
- ``DEPLOY004`` (warning) — burst infeasibility: one workflow's
  concurrent submission wave exceeds token burst + admission queue, so
  part of every wave is rejected by design.
- ``DEPLOY005`` (warning) — nested retry amplification: submit retries
  × pod retries × per-transfer attempts multiply past a storm bound
  (64 attempts for one logical pod).

The PR 6 loadtest defaults pass clean — the drill's client honors
``retry_after``, its amplification product is 45, and its inference
fan-out fits burst + queue; that cleanliness is asserted in CI.
"""

from __future__ import annotations

import math
import typing as _t

from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.model import DeploymentView, WorkflowView
from repro.analysis.registry import rule

__all__ = ["run_deployment_rules", "DEPLOY_CODES", "priority_rank"]

DEPLOY_CODES = (
    "DEPLOY001", "DEPLOY002", "DEPLOY003", "DEPLOY004", "DEPLOY005",
)

#: worst-case admission attempts for one logical pod before we call the
#: retry tree a storm (DEPLOY005)
RETRY_AMPLIFICATION_BOUND = 64

_FALLBACK_PRIORITIES = {
    "best-effort": 0, "batch": 10, "normal": 100, "high": 1000,
    "system": 10000,
}


def priority_rank(name: str) -> int:
    """Numeric priority of a class name (scheduler's table when
    importable, its frozen mirror otherwise; unknown names rank 0)."""
    try:  # lazy: keeps analysis importable without the cluster layer
        from repro.cluster.pod import PRIORITY_CLASSES
    except Exception:  # pragma: no cover - cluster layer always present here
        PRIORITY_CLASSES = _FALLBACK_PRIORITIES
    return PRIORITY_CLASSES.get(name, 0)


def _max_concurrent(workflow: WorkflowView, weigh=len) -> "tuple[float, list[str]]":
    """Greedy max-weight antichain of steps that may run concurrently.

    Same construction DAG007 uses: steps with no dependency path either
    way can be launched together by the driver, so the heaviest such
    clique is the workflow's worst-case concurrent demand.  ``weigh``
    maps a step list to a weight; default is the count.
    """
    from repro.analysis.graph import concurrent_pairs, reachable_from

    deps = workflow.deps()
    pairs = concurrent_pairs(deps)
    names = sorted(deps)
    best_weight: float = 0.0
    best: list[str] = []
    for seed in names:
        clique = [seed]
        for cand in names:
            if cand == seed:
                continue
            if all(frozenset((cand, member)) in pairs for member in clique):
                clique.append(cand)
        weight = weigh([workflow.step(n) for n in sorted(clique)])
        if weight > best_weight:
            best_weight = weight
            best = sorted(clique)
    return best_weight, best


@rule(
    "DEPLOY001",
    "retry-storm-loop",
    pack="deploy",
    severity=Severity.ERROR,
    description="Client retries ignore gateway backpressure hints, closing "
                "a retry-storm loop with rate limits / circuit breaker",
)
def check_retry_storm(view: DeploymentView) -> _t.Iterator[Finding]:
    gw, client = view.gateway, view.client
    if gw is None or client is None or client.max_submit_retries <= 0:
        return
    if not (gw.has_rate_limits or gw.has_breaker):
        return
    if client.honors_retry_after and client.backoff_base_s > 0:
        return
    if not client.honors_retry_after:
        why = "ignores the gateway's retry_after hints"
    else:
        why = f"backs off {client.backoff_base_s:g}s between attempts"
    defense = []
    if gw.has_rate_limits:
        defense.append("token-bucket rate limits")
    if gw.has_breaker:
        defense.append(
            f"a circuit breaker (threshold {gw.breaker_failure_threshold})"
        )
    yield Finding(
        code="DEPLOY001",
        severity=Severity.ERROR,
        message=(
            f"client retries up to {client.max_submit_retries} times but "
            f"{why}; against {' and '.join(defense)} every rejection "
            "triggers an immediate resubmission — a retry storm that "
            "keeps the breaker open and starves well-behaved tenants"
        ),
        location=Location(kind="Client", name="retry-policy"),
        suggestion="honor decision.retry_after_s (sleep at least the hint, "
                   "plus jitter) before resubmitting",
    )


@rule(
    "DEPLOY002",
    "priority-starvation",
    pack="deploy",
    severity=Severity.ERROR,
    description="Long-running higher-priority pods pin the whole cluster "
                "while lower-class tenants need it",
)
def check_priority_starvation(view: DeploymentView) -> _t.Iterator[Finding]:
    cluster, gw = view.cluster, view.gateway
    if cluster is None or gw is None or not cluster.nodes:
        return
    total_gpu = sum(n.gpu for n in cluster.nodes)
    total_cpu = sum(n.cpu for n in cluster.nodes)
    by_class: dict[str, dict[str, float]] = {}
    for pod in cluster.all_pods():
        if not pod.long_running or not pod.priority_class:
            continue
        agg = by_class.setdefault(
            pod.priority_class, {"gpu": 0.0, "cpu": 0.0}
        )
        agg["gpu"] += pod.gpu
        agg["cpu"] += pod.cpu
    if not by_class:
        return
    needs_gpu = any(
        step.gpus > 0 for wf in view.workflows for step in wf.steps
    ) or not view.workflows
    for tenant in sorted(gw.tenants, key=lambda t: t.name):
        rank = priority_rank(tenant.priority_class)
        pinned_gpu = sum(
            agg["gpu"] for cls, agg in by_class.items()
            if priority_rank(cls) > rank
        )
        pinned_cpu = sum(
            agg["cpu"] for cls, agg in by_class.items()
            if priority_rank(cls) > rank
        )
        starved = []
        if needs_gpu and total_gpu > 0 and pinned_gpu >= total_gpu:
            starved.append(
                f"all {total_gpu:g} GPUs are pinned by long-running "
                "higher-priority pods"
            )
        if pinned_cpu >= total_cpu > 0:
            starved.append(
                f"all {total_cpu:g} CPUs are pinned by long-running "
                "higher-priority pods"
            )
        if not starved:
            continue
        yield Finding(
            code="DEPLOY002",
            severity=Severity.ERROR,
            message=(
                f"tenant {tenant.name!r} (class "
                f"{tenant.priority_class or 'unclassed'!r}) can never "
                f"bind a pod: {'; '.join(starved)}; preemption only "
                "evicts lower priorities, so fair-share weight "
                f"{tenant.weight:g} is irrelevant"
            ),
            location=Location(kind="Tenant", name=tenant.name),
            suggestion="cap long-running high-class demand below cluster "
                       "capacity, or raise the tenant's priority class",
        )


@rule(
    "DEPLOY003",
    "quota-infeasible-workflow",
    pack="deploy",
    severity=Severity.ERROR,
    description="Workflow steps outgrow their tenant namespace's quota "
                "(single step: error; concurrent wave: warning)",
)
def check_quota_infeasible(view: DeploymentView) -> _t.Iterator[Finding]:
    cluster, gw = view.cluster, view.gateway
    if cluster is None or gw is None or not view.workflows:
        return
    quotas = {
        ns.name: ns for ns in cluster.namespaces
        if ns.quota_gpu != float("inf")
    }
    if not quotas:
        return
    for tenant in sorted(gw.tenants, key=lambda t: t.name):
        ns = quotas.get(tenant.namespace)
        if ns is None:
            continue
        for wf in view.workflows:
            worst = max(wf.steps, key=lambda s: (s.gpus, s.name), default=None)
            if worst is not None and worst.gpus > ns.quota_gpu:
                yield Finding(
                    code="DEPLOY003",
                    severity=Severity.ERROR,
                    message=(
                        f"step {worst.name!r} of workflow {wf.name!r} "
                        f"requests {worst.gpus} GPUs but tenant "
                        f"{tenant.name!r}'s namespace {ns.name!r} caps at "
                        f"{ns.quota_gpu:g}; the step can never be admitted"
                    ),
                    location=Location(kind="Tenant", name=tenant.name),
                    suggestion="shard the step below the quota or raise "
                               "the namespace quota",
                )
                continue  # the wave finding would be redundant noise
            gpu_wave, clique = _max_concurrent(
                wf, weigh=lambda steps: sum(s.gpus for s in steps)
            )
            if gpu_wave > ns.quota_gpu:
                yield Finding(
                    code="DEPLOY003",
                    severity=Severity.WARNING,
                    message=(
                        f"workflow {wf.name!r}'s concurrent steps "
                        f"[{', '.join(clique)}] demand {gpu_wave:g} GPUs "
                        f"at once but namespace {ns.name!r} caps at "
                        f"{ns.quota_gpu:g}; the wave will serialize "
                        f"behind the quota for tenant {tenant.name!r}"
                    ),
                    location=Location(kind="Tenant", name=tenant.name),
                    suggestion="add dependencies to stagger the wave, or "
                               "size the quota for the full wave",
                )


@rule(
    "DEPLOY004",
    "burst-exceeds-admission",
    pack="deploy",
    severity=Severity.WARNING,
    description="One workflow's concurrent submission wave exceeds token "
                "burst + admission queue",
)
def check_burst_infeasible(view: DeploymentView) -> _t.Iterator[Finding]:
    gw = view.gateway
    if gw is None or not view.workflows:
        return
    for tenant in sorted(gw.tenants, key=lambda t: t.name):
        if tenant.burst == float("inf"):
            continue
        headroom = math.floor(tenant.burst) + gw.max_queue_depth
        for wf in view.workflows:
            wave, clique = _max_concurrent(wf)
            if wave <= headroom:
                continue
            yield Finding(
                code="DEPLOY004",
                severity=Severity.WARNING,
                message=(
                    f"workflow {wf.name!r} submits {wave:g} pods at once "
                    f"([{', '.join(clique)}]) but tenant {tenant.name!r} "
                    f"can admit at most {headroom:g} (burst "
                    f"{tenant.burst:g} + queue {gw.max_queue_depth}); "
                    "part of every wave is rejected by construction"
                ),
                location=Location(kind="Tenant", name=tenant.name),
                suggestion="lower the fan-out, raise the burst, or deepen "
                           "the admission queue",
            )


@rule(
    "DEPLOY005",
    "nested-retry-amplification",
    pack="deploy",
    severity=Severity.WARNING,
    description="Submit × pod × transfer retry budgets multiply past the "
                "storm bound",
)
def check_retry_amplification(view: DeploymentView) -> _t.Iterator[Finding]:
    client = view.client
    if client is None:
        return
    transfer = max(1, view.transfer_retry_attempts)
    network_bound = any(
        step.network_bound for wf in view.workflows for step in wf.steps
    )
    per_pod = (client.max_submit_retries + 1) * (client.max_pod_retries + 1)
    worst = per_pod * (transfer if network_bound else 1)
    if worst <= RETRY_AMPLIFICATION_BOUND:
        return
    factors = [
        f"{client.max_submit_retries + 1} submit attempts",
        f"{client.max_pod_retries + 1} pod attempts",
    ]
    if network_bound and transfer > 1:
        factors.append(f"{transfer} transfer attempts")
    yield Finding(
        code="DEPLOY005",
        severity=Severity.WARNING,
        message=(
            f"retry budgets multiply to {worst} worst-case admission "
            f"attempts per logical pod ({' x '.join(factors)}), above "
            f"the storm bound of {RETRY_AMPLIFICATION_BOUND}; under "
            "chaos the fleet amplifies its own failures"
        ),
        location=Location(kind="Client", name="retry-policy"),
        suggestion="budget retries at one layer (usually pod resubmission) "
                   "and cap the product below the bound",
    )


def run_deployment_rules(
    view: DeploymentView, rules: _t.Iterable | None = None
) -> "list[Finding]":
    """Run (a subset of) the deploy pack over one deployment view."""
    from repro.analysis.registry import registry

    findings: list[Finding] = []
    for r in rules if rules is not None else registry.rules(pack="deploy"):
        findings.extend(r.check(view))
    return findings
