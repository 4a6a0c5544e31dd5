"""The multi-tenant admission gateway: the cluster's overload front door.

Nautilus serves many research groups on shared CHASE-CI hardware; the
raw :class:`~repro.cluster.Cluster` API will happily accept an unbounded
flood of pods from one of them.  The gateway sits in front of
``create_pod`` and makes overload survivable:

- **Rate limits** — each tenant gets a :class:`~repro.gateway.ratelimit.
  TokenBucket`; submissions beyond the sustained rate wait in a bounded
  per-tenant queue.
- **Backpressure** — when the queue is full the submission is *rejected*
  with a structured reason and a ``retry_after_s`` hint instead of
  growing the queue without bound.
- **Admission lint** — the check of the static-analysis rule SPEC001
  runs synchronously against every spec: a pod no node could ever fit
  (:func:`~repro.cluster.objects.fits_empty_node` over every node,
  ready or not) is rejected before any state changes.
- **Quotas** — each tenant's namespace carries a ResourceQuota; quota
  breaches are structured rejections.
- **Scheduling-timeout shedding** — an admitted pod that cannot bind
  within ``pending_timeout_s`` is deleted and recorded as *shed* (reason
  ``SchedulingTimeout``) so callers can distinguish "the cluster chose
  to drop me" from "my pod crashed".
- **Circuit breakers** — repeated failures trip a per-tenant
  :class:`~repro.gateway.breaker.CircuitBreaker`; an open breaker sheds
  that tenant's traffic at the door (reason ``CircuitOpen``) and
  half-opens onto a probe after a cooldown.

Every decision is returned as an :class:`AdmissionDecision` and counted
through :mod:`repro.monitoring.metrics` (``gateway_admitted_total``,
``gateway_rejected_total{reason}``, ``gateway_shed_total``,
``gateway_queue_depth``).
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

from repro.cluster.namespace import ResourceQuota
from repro.cluster.objects import fits_empty_node
from repro.cluster.pod import PRIORITY_CLASSES, Pod, PodPhase, PodSpec
from repro.errors import (
    ClusterError,
    ConflictError,
    NotFoundError,
    QuotaExceededError,
)
from repro.gateway.breaker import BreakerState, CircuitBreaker
from repro.gateway.ratelimit import TokenBucket

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.monitoring.metrics import MetricRegistry
    from repro.sim import Event

__all__ = [
    "TenantPolicy",
    "GatewayConfig",
    "AdmissionDecision",
    "AdmissionGateway",
    "ADMITTED",
    "QUEUED",
    "REJECTED",
    "SHED",
]

#: Decision outcomes.  ``rejected`` means the gateway refused up front
#: (lint, quota, conflict, backpressure); ``shed`` means the gateway
#: dropped traffic to protect the cluster (open breaker, scheduling
#: timeout).  Both carry a structured ``reason``.
ADMITTED = "admitted"
QUEUED = "queued"
REJECTED = "rejected"
SHED = "shed"


@dataclasses.dataclass
class TenantPolicy:
    """Per-tenant admission policy.

    Parameters
    ----------
    rate, burst:
        Token-bucket sustained rate (submissions/s) and burst capacity.
    quota:
        Resource quota applied to the tenant's namespace.
    weight:
        Fair-share weight for the scheduler's queue ordering.
    priority_class:
        Default :data:`~repro.cluster.pod.PRIORITY_CLASSES` name stamped
        onto specs that carry neither a class nor an explicit priority.
    """

    rate: float = 2.0
    burst: float = 8.0
    quota: ResourceQuota | None = None
    weight: float = 1.0
    priority_class: str = ""

    def __post_init__(self) -> None:
        if self.priority_class and self.priority_class not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown priority class {self.priority_class!r} "
                f"(known: {sorted(PRIORITY_CLASSES)})"
            )


@dataclasses.dataclass
class GatewayConfig:
    """Gateway-wide knobs (per-tenant policy lives in TenantPolicy)."""

    #: Bounded queue depth per tenant; beyond it submissions are
    #: rejected with reason ``Backpressure``.
    max_queue_depth: int = 32
    #: Admitted pods still unbound after this long are deleted and
    #: recorded as shed (``SchedulingTimeout``).  0 disables shedding.
    pending_timeout_s: float = 600.0
    #: Consecutive failures before a tenant's breaker opens.
    breaker_failure_threshold: int = 5
    #: How long an open breaker sheds before half-opening on a probe.
    breaker_cooldown_s: float = 120.0


@dataclasses.dataclass
class AdmissionDecision:
    """The gateway's answer to one submission.

    ``outcome`` starts as one of admitted/queued/rejected/shed; a
    *queued* decision is later resolved in place (outcome mutates to
    admitted or rejected) and its ``resolved`` event fires with the
    decision as value, so sim processes can ``yield decision.resolved``.
    """

    tenant: str
    pod_name: str
    outcome: str
    reason: str = ""
    retry_after_s: float = 0.0
    pod: Pod | None = None
    submitted_at: float = 0.0
    resolved_at: float = 0.0
    resolved: "Event | None" = None

    @property
    def final(self) -> bool:
        return self.outcome is not QUEUED

    def __repr__(self) -> str:  # pragma: no cover
        extra = f" {self.reason}" if self.reason else ""
        return (
            f"<AdmissionDecision {self.tenant}/{self.pod_name} "
            f"{self.outcome}{extra}>"
        )


class _Tenant:
    """Gateway-internal per-tenant state."""

    def __init__(
        self,
        name: str,
        policy: TenantPolicy,
        bucket: TokenBucket,
        breaker: CircuitBreaker,
    ):
        self.name = name
        self.policy = policy
        self.bucket = bucket
        self.breaker = breaker
        self.queue: collections.deque[
            tuple[AdmissionDecision, str, PodSpec, dict | None]
        ] = collections.deque()
        self.draining = False


class AdmissionGateway:
    """Multi-tenant admission control in front of a :class:`Cluster`."""

    def __init__(
        self,
        cluster: "Cluster",
        config: GatewayConfig | None = None,
        metrics: "MetricRegistry | None" = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config or GatewayConfig()
        self.metrics = metrics if metrics is not None else cluster.metrics
        self.tenants: dict[str, _Tenant] = {}
        #: every decision ever made, in submission order (for reports)
        self.decisions: list[AdmissionDecision] = []
        #: pod uid -> shed reason, for pods the gateway deleted
        self.shed_reasons: dict[str, str] = {}
        # Pods whose fate feeds the tenant breaker: uid -> tenant name.
        self._watched: dict[str, str] = {}
        cluster.phase_hooks.append(self._on_phase_change)

    # ------------------------------------------------------------- tenants

    def register_tenant(
        self, name: str, policy: TenantPolicy | None = None
    ) -> _Tenant:
        """Register a tenant, creating its namespace with quota+weight."""
        if name in self.tenants:
            raise ConflictError(f"tenant {name!r} already registered")
        policy = policy or TenantPolicy()
        if name not in self.cluster.namespaces:
            self.cluster.create_namespace(
                name, quota=policy.quota, weight=policy.weight
            )
        else:
            ns = self.cluster.namespaces[name]
            if policy.quota is not None:
                ns.quota = policy.quota
            ns.weight = policy.weight
        tenant = _Tenant(
            name,
            policy,
            TokenBucket(self.env, policy.rate, policy.burst),
            CircuitBreaker(
                self.env,
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            ),
        )
        self.tenants[name] = tenant
        return tenant

    def _tenant(self, name: str) -> _Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise NotFoundError(f"tenant {name!r} not registered") from None

    def breaker_state(self, tenant: str) -> BreakerState:
        return self._tenant(tenant).breaker.state

    def queue_depth(self, tenant: str | None = None) -> int:
        """Queued submissions for one tenant (or all tenants)."""
        if tenant is not None:
            return len(self._tenant(tenant).queue)
        return sum(len(t.queue) for t in self.tenants.values())

    def saturated(self, threshold: float = 0.5) -> bool:
        """Is the gateway under sustained overload?

        True when aggregate queued submissions exceed ``threshold`` times
        the aggregate queue capacity — the signal graceful-degradation
        policies key off to drop optional work.
        """
        if not self.tenants:
            return False
        capacity = self.config.max_queue_depth * len(self.tenants)
        return self.queue_depth() >= threshold * capacity

    # ------------------------------------------------------------ admission

    def submit(
        self,
        name: str,
        spec: PodSpec,
        tenant: str,
        labels: dict[str, str] | None = None,
    ) -> AdmissionDecision:
        """Submit a pod through the gateway.  Never raises for admission
        failures — every outcome is a structured :class:`AdmissionDecision`."""
        t = self._tenant(tenant)
        self._stamp_priority(spec, t.policy)

        # 1. Circuit breaker: an open breaker sheds at the door.
        if not t.breaker.allow():
            return self._finish(
                AdmissionDecision(
                    tenant=tenant,
                    pod_name=name,
                    outcome=SHED,
                    reason="CircuitOpen",
                    retry_after_s=t.breaker.retry_after(),
                    submitted_at=self.env.now,
                )
            )

        # 2. Synchronous spec lint: structurally-bad specs never queue.
        lint_reason = self._lint(spec)
        if lint_reason is not None:
            t.breaker.record_failure()
            return self._finish(
                AdmissionDecision(
                    tenant=tenant,
                    pod_name=name,
                    outcome=REJECTED,
                    reason=lint_reason,
                    submitted_at=self.env.now,
                )
            )

        # 3. Rate limit: in-budget submissions go straight through.
        if t.bucket.try_take():
            decision = AdmissionDecision(
                tenant=tenant,
                pod_name=name,
                outcome=ADMITTED,
                submitted_at=self.env.now,
            )
            self._try_create(decision, t, name, spec, labels)
            return self._finish(decision)

        # 4. Bounded queue with explicit backpressure.
        if len(t.queue) >= self.config.max_queue_depth:
            return self._finish(
                AdmissionDecision(
                    tenant=tenant,
                    pod_name=name,
                    outcome=REJECTED,
                    reason="Backpressure",
                    retry_after_s=t.bucket.time_until(len(t.queue) + 1.0),
                    submitted_at=self.env.now,
                )
            )
        decision = AdmissionDecision(
            tenant=tenant,
            pod_name=name,
            outcome=QUEUED,
            submitted_at=self.env.now,
            resolved=self.env.event(),
        )
        t.queue.append((decision, name, spec, labels))
        self._count("gateway_queued_total", {"tenant": tenant})
        self._gauge_queue_depth()
        if not t.draining:
            t.draining = True
            self.env.process(
                self._drain(t), name=f"gateway-drain:{tenant}"
            )
        return decision

    def admit(
        self,
        name: str,
        spec: PodSpec,
        tenant: str,
        labels: dict[str, str] | None = None,
    ):
        """Process-style helper: submit and wait out the queue.

        ``decision = yield from gateway.admit(...)`` inside a sim process
        returns a *final* decision (admitted/rejected/shed).
        """
        decision = self.submit(name, spec, tenant, labels)
        if not decision.final:
            assert decision.resolved is not None
            yield decision.resolved
        return decision

    # ------------------------------------------------------------- internals

    def _stamp_priority(self, spec: PodSpec, policy: TenantPolicy) -> None:
        """Default the tenant's priority class onto unclassed specs."""
        if (
            policy.priority_class
            and not spec.priority_class
            and spec.priority == 0
        ):
            spec.priority_class = policy.priority_class
            spec.priority = PRIORITY_CLASSES[policy.priority_class]

    def _lint(self, spec: PodSpec) -> str | None:
        """SPEC001 (unschedulable request) for one pod; a reason string
        means reject.  The rule's verdict, read off the live nodes: with
        at least one node, ready or not, the spec's total request must
        fit an empty one of them.  It is the one spec rule that can fail
        a single pod: the other error rule, SPEC005, judges a
        namespace's pods together, and warnings never reject."""
        nodes = self.cluster.nodes
        if not nodes:
            return None
        request = spec.total_request()
        if any(fits_empty_node(request, n.capacity) for n in nodes.values()):
            return None
        return "AdmissionLint:SPEC001"

    def _try_create(
        self,
        decision: AdmissionDecision,
        t: _Tenant,
        name: str,
        spec: PodSpec,
        labels: dict[str, str] | None,
    ) -> None:
        """Attempt the actual ``create_pod``; mutates ``decision``."""
        try:
            pod = self.cluster.create_pod(
                name, spec, namespace=t.name, labels=labels
            )
        except QuotaExceededError:
            decision.outcome = REJECTED
            decision.reason = "QuotaExceeded"
            t.breaker.record_failure()
        except ConflictError:
            decision.outcome = REJECTED
            decision.reason = "Conflict"
        except ClusterError as exc:
            decision.outcome = REJECTED
            decision.reason = type(exc).__name__
            t.breaker.record_failure()
        else:
            decision.outcome = ADMITTED
            decision.pod = pod
            self._watched[pod.meta.uid] = t.name
            if self.config.pending_timeout_s > 0:
                self.env.process(
                    self._pending_watchdog(pod, t),
                    name=f"gateway-watchdog:{pod.meta.name}",
                )

    def _drain(self, t: _Tenant):
        """Per-tenant queue drain: one submission per earned token."""
        try:
            while t.queue:
                wait = t.bucket.time_until()
                if wait > 0:
                    yield self.env.timeout(wait)
                if not t.queue:
                    break
                if not t.bucket.try_take():
                    continue  # raced with a direct submit; re-wait
                decision, name, spec, labels = t.queue.popleft()
                self._gauge_queue_depth()
                self._try_create(decision, t, name, spec, labels)
                decision.resolved_at = self.env.now
                self._record(decision)
                if decision.resolved is not None:
                    decision.resolved.succeed(decision)
        finally:
            t.draining = False

    def _pending_watchdog(self, pod: Pod, t: _Tenant):
        """Shed an admitted pod that cannot bind within the timeout."""
        yield self.env.timeout(self.config.pending_timeout_s)
        if pod.is_terminal or pod.node_name is not None:
            return
        self.shed_reasons[pod.meta.uid] = "SchedulingTimeout"
        self._watched.pop(pod.meta.uid, None)
        t.breaker.record_failure()
        self._count(
            "gateway_shed_total",
            {"tenant": t.name, "reason": "SchedulingTimeout"},
        )
        self.cluster.record_event(
            "Pod",
            pod.meta.name,
            "Shed",
            f"unbound after {self.config.pending_timeout_s:.0f}s",
            namespace=pod.meta.namespace,
        )
        self.cluster.delete_pod(pod)

    def _on_phase_change(
        self, pod: Pod, old: PodPhase, new: PodPhase
    ) -> None:
        """Cluster phase hook: a watched pod reaching Running closes its
        tenant's breaker (counts as admission success)."""
        if new is not PodPhase.RUNNING:
            return
        tenant_name = self._watched.pop(pod.meta.uid, None)
        if tenant_name is None:
            return
        tenant = self.tenants.get(tenant_name)
        if tenant is not None:
            tenant.breaker.record_success()

    def _finish(self, decision: AdmissionDecision) -> AdmissionDecision:
        decision.resolved_at = self.env.now
        self._record(decision)
        return decision

    def _record(self, decision: AdmissionDecision) -> None:
        self.decisions.append(decision)
        if decision.outcome is ADMITTED:
            self._count("gateway_admitted_total", {"tenant": decision.tenant})
        elif decision.outcome is REJECTED:
            self._count(
                "gateway_rejected_total",
                {"reason": decision.reason.split(":", 1)[0]},
            )
        elif decision.outcome is SHED:
            self._count(
                "gateway_shed_total",
                {"tenant": decision.tenant, "reason": decision.reason},
            )

    def _count(self, metric: str, labels: dict[str, str] | None = None) -> None:
        if self.metrics is not None:
            self.metrics.inc_counter(metric, 1.0, labels)

    def _gauge_queue_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("gateway_queue_depth", float(self.queue_depth()))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<AdmissionGateway tenants={len(self.tenants)} "
            f"queued={self.queue_depth()} decisions={len(self.decisions)}>"
        )
