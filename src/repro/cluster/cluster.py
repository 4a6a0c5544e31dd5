"""The cluster: API-server facade, scheduling loop, kubelets, self-healing.

One :class:`Cluster` owns the registries of nodes, namespaces, pods, jobs,
replica sets and services, and drives three behaviours on the simulation
kernel:

- **Scheduling**: pending pods are bound to nodes via the two-phase
  :class:`~repro.cluster.scheduler.Scheduler` whenever cluster state
  changes (pod created, pod finished, node joined/recovered).
- **Kubelet execution**: a bound pod pulls cold images (simulated delay),
  runs its container generators as kernel processes, and reports a
  terminal phase.
- **Self-healing** (§V): nodes "can join and leave the cluster at any
  time"; on node failure every pod on it is marked failed with reason
  ``NodeLost`` and the owning controllers immediately create replacements
  on surviving nodes.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.controllers import (
    DaemonSet,
    DaemonSetSpec,
    Job,
    JobSpec,
    ReplicaSet,
    ReplicaSetSpec,
)
from repro.cluster.namespace import Namespace, ResourceQuota
from repro.cluster.node import Node, NodeSpec
from repro.cluster.objects import ClusterEvent, ObjectMeta
from repro.cluster.pod import Pod, PodContext, PodPhase, PodSpec, RestartPolicy
from repro.cluster.scheduler import Scheduler, SchedulingStrategy
from repro.cluster.service import Service
from repro.errors import (
    ConflictError,
    NotFoundError,
    ProcessKilled,
    QuotaExceededError,
)
from repro.sim import Environment

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.monitoring.metrics import MetricRegistry
    from repro.tracing.span import Span, Tracer

__all__ = ["Cluster"]

#: Simulated latency between a pod binding and its containers starting
#: (API round-trips, cgroup setup, volume mounts).
POD_STARTUP_SECONDS = 2.0


def _capacity_of(nodes: _t.Iterable[Node]) -> dict[str, float]:
    """Aggregate CPU/memory/GPU capacity of ``nodes``, summed in order."""
    cpu = mem = gpu = 0.0
    for node in nodes:
        cpu += node.capacity.cpu
        mem += node.capacity.memory
        gpu += node.capacity.gpu
    return {"cpu": cpu, "memory": mem, "gpu": gpu}


class Cluster:
    """A Kubernetes-like cluster running on a simulation environment.

    Parameters
    ----------
    env:
        The discrete-event environment.
    name:
        Cluster name (the paper's is "Nautilus").
    scheduler:
        Placement policy; defaults to spread scheduling.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "nautilus",
        scheduler: Scheduler | None = None,
    ):
        self.env = env
        self.name = name
        self.scheduler = scheduler or Scheduler(SchedulingStrategy.SPREAD)
        self.nodes: dict[str, Node] = {}
        self.namespaces: dict[str, Namespace] = {"default": Namespace("default")}
        self.pods: dict[tuple[str, str], Pod] = {}
        self.jobs: dict[tuple[str, str], Job] = {}
        self.replicasets: dict[tuple[str, str], ReplicaSet] = {}
        self.daemonsets: dict[tuple[str, str], DaemonSet] = {}
        self.services: dict[tuple[str, str], Service] = {}
        self.events: list[ClusterEvent] = []
        # Incremental scheduling queue: pods land in the *active* list
        # and are tried once; failures park in the *unschedulable* list,
        # which is only re-activated when cluster state changes (node
        # joined/recovered/uncordoned, capacity freed) — so creating pod
        # N+1 doesn't rescan N parked pods.  Within one pass, a pod whose
        # shape (request, priority, selector, tolerations) already failed
        # parks without being tried (see _scheduling_pass).
        self._pending: list[Pod] = []
        self._unschedulable: list[Pod] = []
        self._requeue_pending = False
        self._kick_scheduled = False
        #: hooks called as (pod, old_phase, new_phase) on every transition
        self.phase_hooks: list[_t.Callable[[Pod, PodPhase, PodPhase], None]] = []
        #: optional registry for control-plane counters (liveness kills,
        #: lease expirations); the testbed wires this up.
        self.metrics: "MetricRegistry | None" = None
        #: optional span tracer (the testbed wires this up): each pod's
        #: lifecycle emits queueing → scheduling → running spans, so
        #: queueing and binpack latency are first-class trace data.
        self.tracer: "Tracer | None" = None
        self._pod_trace: dict[str, "Span"] = {}
        # Node-lease controller state (enable_node_leases).
        self._lease_missed: dict[str, int] = {}
        self._lease_failed: set[str] = set()
        self._lease_proc = None

    def _count(self, metric: str, labels: dict[str, str] | None = None) -> None:
        if self.metrics is not None:
            self.metrics.inc_counter(metric, 1.0, labels)

    # ----------------------------------------------------------------- tracing

    def _pod_span_open(self, pod: Pod, category: str, **attributes) -> None:
        """Open this pod's next lifecycle span (closing the previous one).

        Parented under the span bound to the pod's namespace (the
        workflow driver binds each step's namespace to its step span), or
        the tracer's root when the namespace has no bound scope.
        """
        if self.tracer is None:
            return
        self._pod_span_close(pod)
        parent = self.tracer.scope_parent(pod.meta.namespace)
        self._pod_trace[pod.meta.uid] = self.tracer.start(
            pod.meta.name,
            category,
            parent=parent,
            attributes={
                "pod": pod.meta.name,
                "namespace": pod.meta.namespace,
                **attributes,
            },
        )

    def _pod_span_close(self, pod: Pod, status: str = "ok") -> None:
        if self.tracer is None:
            return
        span = self._pod_trace.pop(pod.meta.uid, None)
        if span is not None:
            self.tracer.finish(span, status=status)

    # ------------------------------------------------------------------ events

    def record_event(
        self,
        kind: str,
        name: str,
        reason: str,
        message: str = "",
        namespace: str = "default",
    ) -> None:
        """Append to the control-plane event log."""
        self.events.append(
            ClusterEvent(
                time=self.env.now,
                kind=kind,
                name=name,
                reason=reason,
                message=message,
                namespace=namespace,
            )
        )

    def events_for(self, kind: str, name: str | None = None) -> list[ClusterEvent]:
        """Filter the event log by object kind (and optionally name)."""
        return [
            e
            for e in self.events
            if e.kind == kind and (name is None or e.name == name)
        ]

    # ------------------------------------------------------------------- nodes

    def add_node(self, spec: NodeSpec) -> Node:
        """Join a machine to the cluster."""
        if spec.name in self.nodes:
            raise ConflictError(f"node {spec.name!r} already exists")
        node = Node(spec)
        self.nodes[spec.name] = node
        self.record_event("Node", spec.name, "NodeJoined", f"site={spec.site}")
        self._reconcile_all()  # daemonsets cover the new node immediately
        self._kick_scheduler(state_changed=True)
        return node

    def get_node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NotFoundError(f"no node {name!r}") from None

    def ready_nodes(self) -> list[Node]:
        """Nodes currently accepting pods, in deterministic name order."""
        return [self.nodes[k] for k in sorted(self.nodes) if self.nodes[k].ready]

    def fail_node(self, name: str) -> None:
        """Take a node offline; its pods fail and get rescheduled (§V)."""
        node = self.get_node(name)
        if not node.ready:
            return
        node.ready = False
        self.record_event("Node", name, "NodeLost", "node left the cluster")
        for pod in list(node.pods.values()):
            self._terminate_pod(pod, PodPhase.FAILED, reason="NodeLost")
        self._reconcile_all()
        self._kick_scheduler(state_changed=True)

    def cordon(self, name: str) -> None:
        """Mark a node unschedulable; running pods are untouched."""
        node = self.get_node(name)
        if node.unschedulable:
            return
        node.unschedulable = True
        self.record_event("Node", name, "Cordoned", "marked unschedulable")

    def uncordon(self, name: str) -> None:
        """Allow scheduling on a cordoned node again."""
        node = self.get_node(name)
        if not node.unschedulable:
            return
        node.unschedulable = False
        self.record_event("Node", name, "Uncordoned", "")
        self._kick_scheduler(state_changed=True)

    def drain(self, name: str) -> None:
        """Cordon a node and evict its pods for maintenance.

        Controllers immediately recreate the evicted pods on other nodes —
        the graceful variant of the §V node-departure story.
        """
        self.cordon(name)
        node = self.get_node(name)
        self.record_event("Node", name, "Draining", f"{len(node.pods)} pods")
        for pod in list(node.pods.values()):
            self._terminate_pod(pod, PodPhase.FAILED, reason="Drained")
        self._reconcile_all()
        self._kick_scheduler(state_changed=True)

    def recover_node(self, name: str) -> None:
        """Bring a failed node back."""
        node = self.get_node(name)
        if node.ready:
            return
        node.ready = True
        self.record_event("Node", name, "NodeReady", "node rejoined the cluster")
        self._reconcile_all()
        self._kick_scheduler(state_changed=True)

    def enable_node_leases(
        self,
        reachable: _t.Callable[[str], bool],
        interval_s: float = 15.0,
        grace_periods: int = 3,
    ) -> None:
        """Start the node heartbeat/lease controller.

        Every ``interval_s`` the control plane checks each node's
        heartbeat via ``reachable(node_name)`` (on the testbed this is a
        live topology-route check, so a network partition silences the
        node exactly like a crash).  After ``grace_periods`` consecutive
        missed heartbeats the node's lease expires: it transitions to
        NotReady through :meth:`fail_node` — the same code path as hard
        failure — and its pods are rescheduled.  A node whose heartbeats
        resume is automatically recovered, but only if the lease
        controller was what failed it.
        """
        if self._lease_proc is not None:
            raise ConflictError("node-lease controller already enabled")
        if interval_s <= 0 or grace_periods < 1:
            raise ValueError("need interval_s > 0 and grace_periods >= 1")
        self._lease_proc = self.env.process(
            self._lease_loop(reachable, interval_s, grace_periods),
            name="node-lease-controller",
        )

    def _lease_loop(
        self,
        reachable: _t.Callable[[str], bool],
        interval_s: float,
        grace_periods: int,
    ):
        while True:
            yield self.env.timeout(interval_s)
            for name in sorted(self.nodes):
                node = self.nodes[name]
                if bool(reachable(name)):
                    self._lease_missed[name] = 0
                    if name in self._lease_failed:
                        self._lease_failed.discard(name)
                        self.record_event(
                            "Node", name, "LeaseRenewed", "heartbeats resumed"
                        )
                        self.recover_node(name)
                    continue
                missed = self._lease_missed.get(name, 0) + 1
                self._lease_missed[name] = missed
                if missed >= grace_periods and node.ready:
                    self.record_event(
                        "Node",
                        name,
                        "LeaseExpired",
                        f"missed {missed} heartbeats "
                        f"({missed * interval_s:.0f}s silent)",
                    )
                    self._count("node_lease_expirations_total", {"node": name})
                    self._lease_failed.add(name)
                    self.fail_node(name)

    def total_capacity(self) -> dict[str, float]:
        """Aggregate CPU/memory/GPU across ready nodes."""
        return _capacity_of(self.ready_nodes())

    def utilization(self) -> dict[str, float]:
        """Fraction of each resource dimension currently allocated."""
        cap = self.total_capacity()
        used = {"cpu": 0.0, "memory": 0.0, "gpu": 0.0}
        for node in self.ready_nodes():
            used["cpu"] += node.allocated.cpu
            used["memory"] += node.allocated.memory
            used["gpu"] += node.allocated.gpu
        return {
            k: (used[k] / cap[k] if cap[k] else 0.0) for k in used
        }

    # -------------------------------------------------------------- namespaces

    def create_namespace(
        self,
        name: str,
        quota: ResourceQuota | None = None,
        administrator: str = "",
        weight: float = 1.0,
    ) -> Namespace:
        """Create a virtual cluster (§IV).  ``weight`` is the namespace's
        fair-share weight in the scheduler's queue ordering."""
        if name in self.namespaces:
            raise ConflictError(f"namespace {name!r} already exists")
        ns = Namespace(name, quota=quota, administrator=administrator, weight=weight)
        self.namespaces[name] = ns
        self.record_event("Namespace", name, "Created", f"admin={administrator}")
        return ns

    def get_namespace(self, name: str) -> Namespace:
        try:
            return self.namespaces[name]
        except KeyError:
            raise NotFoundError(f"no namespace {name!r}") from None

    # -------------------------------------------------------------------- pods

    def create_pod(
        self,
        name: str,
        spec: PodSpec,
        namespace: str = "default",
        labels: dict[str, str] | None = None,
    ) -> Pod:
        """Admit a pod (charging namespace quota) and queue it for
        scheduling.  Raises :class:`QuotaExceededError` on quota breach."""
        ns = self.get_namespace(namespace)
        key = (namespace, name)
        if key in self.pods and not self.pods[key].is_terminal:
            raise ConflictError(f"pod {namespace}/{name} already exists")
        meta = ObjectMeta(
            name=name,
            namespace=namespace,
            labels=dict(labels or {}),
            creation_time=self.env.now,
        )
        pod = Pod(meta, spec)
        ns.admit(pod.request)  # may raise QuotaExceededError
        self.pods[key] = pod
        self._pending.append(pod)
        self._pod_span_open(pod, "queueing")
        self.record_event("Pod", name, "Created", namespace=namespace)
        self._kick_scheduler()
        return pod

    def get_pod(self, name: str, namespace: str = "default") -> Pod:
        try:
            return self.pods[(namespace, name)]
        except KeyError:
            raise NotFoundError(f"no pod {namespace}/{name}") from None

    def list_pods(
        self,
        namespace: str | None = None,
        selector: dict[str, str] | None = None,
        phase: PodPhase | None = None,
    ) -> list[Pod]:
        """Pods filtered by namespace / label selector / phase."""
        out = []
        for (ns, _name), pod in sorted(self.pods.items()):
            if namespace is not None and ns != namespace:
                continue
            if selector is not None and not pod.meta.matches(selector):
                continue
            if phase is not None and pod.phase is not phase:
                continue
            out.append(pod)
        return out

    def delete_pod(self, pod: Pod) -> None:
        """Remove a pod: interrupts it if running, dequeues it if pending."""
        if pod.is_terminal:
            return
        if pod.node_name is None:
            # Not yet bound to a node: dequeue and fail in place.  (A bound
            # pod may still report phase Pending while its image pulls; that
            # case must go through the kubelet interrupt below so the node
            # allocation is released.)
            if pod in self._pending:
                self._pending.remove(pod)
            if pod in self._unschedulable:
                self._unschedulable.remove(pod)
            pod.termination_reason = "Deleted"
            self._set_phase(pod, PodPhase.FAILED)
            pod.finish_time = self.env.now
            self.get_namespace(pod.meta.namespace).release(pod.request)
            self.record_event(
                "Pod", pod.meta.name, "Deleted", namespace=pod.meta.namespace
            )
            return
        self._terminate_pod(pod, PodPhase.FAILED, reason="Deleted")

    # --------------------------------------------------------------- controllers

    def create_job(
        self,
        name: str,
        spec: JobSpec,
        namespace: str = "default",
        labels: dict[str, str] | None = None,
    ) -> Job:
        """Create a batch Job and start reconciling it."""
        key = (namespace, name)
        if key in self.jobs:
            raise ConflictError(f"job {namespace}/{name} already exists")
        meta = ObjectMeta(
            name=name,
            namespace=namespace,
            labels=dict(labels or {}),
            creation_time=self.env.now,
        )
        job = Job(meta, spec, self)
        self.jobs[key] = job
        self.record_event("Job", name, "Created", namespace=namespace)
        job.reconcile()
        return job

    def get_job(self, name: str, namespace: str = "default") -> Job:
        try:
            return self.jobs[(namespace, name)]
        except KeyError:
            raise NotFoundError(f"no job {namespace}/{name}") from None

    def create_replicaset(
        self,
        name: str,
        spec: ReplicaSetSpec,
        namespace: str = "default",
        labels: dict[str, str] | None = None,
    ) -> ReplicaSet:
        """Create a ReplicaSet and bring up its replicas."""
        key = (namespace, name)
        if key in self.replicasets:
            raise ConflictError(f"replicaset {namespace}/{name} already exists")
        meta = ObjectMeta(
            name=name,
            namespace=namespace,
            labels=dict(labels or {}),
            creation_time=self.env.now,
        )
        rs = ReplicaSet(meta, spec, self)
        self.replicasets[key] = rs
        self.record_event("ReplicaSet", name, "Created", namespace=namespace)
        rs.reconcile()
        return rs

    def create_daemonset(
        self,
        name: str,
        spec: DaemonSetSpec,
        namespace: str = "default",
        labels: dict[str, str] | None = None,
    ) -> DaemonSet:
        """Create a DaemonSet: one pod per matching ready node."""
        key = (namespace, name)
        if key in self.daemonsets:
            raise ConflictError(f"daemonset {namespace}/{name} already exists")
        meta = ObjectMeta(
            name=name,
            namespace=namespace,
            labels=dict(labels or {}),
            creation_time=self.env.now,
        )
        ds = DaemonSet(meta, spec, self)
        self.daemonsets[key] = ds
        self.record_event("DaemonSet", name, "Created", namespace=namespace)
        ds.reconcile()
        return ds

    def create_service(
        self,
        name: str,
        selector: dict[str, str],
        namespace: str = "default",
    ) -> Service:
        """Create a Service with a stable cluster DNS name (§III-E.2)."""
        key = (namespace, name)
        if key in self.services:
            raise ConflictError(f"service {namespace}/{name} already exists")
        meta = ObjectMeta(name=name, namespace=namespace, creation_time=self.env.now)
        svc = Service(meta, selector, self)
        self.services[key] = svc
        return svc

    def get_service(self, name: str, namespace: str = "default") -> Service:
        try:
            return self.services[(namespace, name)]
        except KeyError:
            raise NotFoundError(f"no service {namespace}/{name}") from None

    def resolve_hostname(self, hostname: str) -> Service:
        """Resolve a ``<svc>.<ns>.svc.cluster.local`` name (§IV: cross-
        namespace networking requires fully-qualified domain names)."""
        parts = hostname.split(".")
        if len(parts) >= 2:
            return self.get_service(parts[0], namespace=parts[1])
        raise NotFoundError(f"unresolvable hostname {hostname!r}")

    # ---------------------------------------------------------------- scheduling

    def _kick_scheduler(self, state_changed: bool = False) -> None:
        """Arrange for a scheduling pass at the current sim time (coalesced).

        ``state_changed`` marks kicks caused by capacity/topology changes
        (node joined/recovered/uncordoned, pod finished): those re-activate
        the parked unschedulable set.  Pod-creation kicks leave the parked
        set alone — only the new arrivals are tried.
        """
        if state_changed:
            self._requeue_pending = True
        if self._kick_scheduled:
            return
        self._kick_scheduled = True
        ev = self.env.event()
        ev.callbacks.append(self._scheduling_pass)
        ev.succeed()

    def _scheduling_pass(self, _event: object = None) -> None:
        self._kick_scheduled = False
        if self._requeue_pending and self._unschedulable:
            self._pending.extend(self._unschedulable)
            self._unschedulable.clear()
        self._requeue_pending = False
        if not self._pending:
            return
        nodes = self.ready_nodes()
        # Priority tiers first (so freed/preempted capacity goes to the
        # pods preemption was performed for), weighted fair-share across
        # namespaces within a tier.
        queue = self.scheduler.order_queue(
            self._pending,
            usage={name: ns.used for name, ns in self.namespaces.items()},
            capacity=_capacity_of(nodes),
            weights={name: ns.weight for name, ns in self.namespaces.items()},
        )
        self._pending = []
        # Pod shapes that found neither a node nor a preemption plan in
        # this pass.  select and preemption_plan read only the shape, a
        # bind only shrinks free capacity, and the queue is priority-
        # descending (so no new victims of a failed shape's priority bind
        # behind it): a failed shape stays failed until the pass ends or a
        # preemption frees capacity.
        failed: set[tuple] = set()
        for pod in queue:
            if pod.is_terminal:  # deleted while queued
                continue
            shape = pod.shape
            if shape in failed:
                self._unschedulable.append(pod)
                continue
            node = self.scheduler.select(pod, nodes)
            if node is None:
                plan = None
                if pod.spec.priority > 0:
                    plan = self.scheduler.preemption_plan(pod, nodes)
                    if plan is not None:
                        target, victims = plan
                        for victim in victims:
                            self.record_event(
                                "Pod",
                                victim.meta.name,
                                "Preempted",
                                f"by {pod.meta.name} on {target.spec.name}",
                                namespace=victim.meta.namespace,
                            )
                            self._count(
                                "scheduler_preemptions_total",
                                {"namespace": victim.meta.namespace},
                            )
                            self._terminate_pod(
                                victim, PodPhase.FAILED, reason="Preempted"
                            )
                        # The pod stays pending; victim teardown re-kicks
                        # the scheduler once their resources free up.
                        # Teardown of an already-finished runner frees
                        # capacity at once, so every shape is tried again.
                        failed.clear()
                if plan is None:
                    failed.add(shape)
                self._unschedulable.append(pod)
                continue
            node.allocate(pod)
            pod.node_name = node.spec.name
            self._record_bind(pod)
            self._pod_span_open(pod, "scheduling", node=node.spec.name)
            self.record_event(
                "Pod",
                pod.meta.name,
                "Scheduled",
                f"bound to {node.spec.name}",
                namespace=pod.meta.namespace,
            )
            pod._process = self.env.process(
                self._run_pod(pod, node), name=f"kubelet:{pod.meta.name}"
            )
        if self.metrics is not None:
            self.metrics.set_gauge(
                "scheduler_pending_pods",
                len(self._pending) + len(self._unschedulable),
            )

    def _record_bind(self, pod: Pod) -> None:
        """Scheduler throughput/latency instrumentation for one bind."""
        if self.metrics is None:
            return
        label = {"class": pod.spec.priority_class_label()}
        self.metrics.inc_counter("scheduler_binds_total", 1.0, label)
        self.metrics.set_gauge(
            "scheduler_bind_latency_seconds",
            self.env.now - pod.meta.creation_time,
            label,
        )

    def pending_pods(self) -> list[Pod]:
        """Pods awaiting scheduling (the 'Pending, unschedulable' set)."""
        return list(self._pending) + list(self._unschedulable)

    # ------------------------------------------------------------------ kubelet

    def _set_phase(self, pod: Pod, phase: PodPhase) -> None:
        old = pod.phase
        pod.phase = phase
        if phase is PodPhase.RUNNING:
            # The driver sweeps Table I's pod/CPU/GPU/memory from these.
            request = pod.request
            self._pod_span_open(
                pod,
                "running",
                node=pod.node_name or "",
                cpu=request.cpu,
                gpu=request.gpu,
                memory=request.memory,
            )
        elif phase.is_terminal():
            self._pod_span_close(
                pod, status="ok" if phase is PodPhase.SUCCEEDED else "error"
            )
        for hook in self.phase_hooks:
            hook(pod, old, phase)

    def _run_pod(self, pod: Pod, node: Node):
        """Kubelet process: image pull, container execution, phase report."""
        try:
            # Image pulls (cold only; the cache models layer reuse).
            for container in pod.spec.containers:
                if container.image not in node.image_cache:
                    yield self.env.timeout(node.spec.image_pull_seconds)
                    node.image_cache.add(container.image)
                    self.record_event(
                        "Pod",
                        pod.meta.name,
                        "Pulled",
                        f"image {container.image} on {node.spec.name}",
                        namespace=pod.meta.namespace,
                    )
            yield self.env.timeout(POD_STARTUP_SECONDS)
            self._set_phase(pod, PodPhase.RUNNING)
            pod.start_time = self.env.now
            self.record_event(
                "Pod", pod.meta.name, "Started", namespace=pod.meta.namespace
            )
            if pod.spec.liveness is not None:
                self.env.process(
                    self._liveness_watchdog(pod),
                    name=f"liveness:{pod.meta.name}",
                )

            ctx = PodContext(self.env, pod, node, self)
            while True:
                pod.last_heartbeat = self.env.now
                procs = [
                    self.env.process(
                        c.main(ctx), name=f"{pod.meta.name}/{c.name}"
                    )
                    for c in pod.spec.containers
                ]
                pod._containers = procs
                try:
                    results = yield self.env.all_of(procs)
                except ProcessKilled:
                    raise
                except Exception as exc:
                    # Container crashed.
                    for proc in procs:
                        if proc.is_alive:
                            proc.interrupt(cause="sibling container failed")
                    if pod.spec.restart_policy is RestartPolicy.ON_FAILURE:
                        pod.restart_count += 1
                        self.record_event(
                            "Pod",
                            pod.meta.name,
                            "BackOff",
                            f"restart #{pod.restart_count}: {exc!r}",
                            namespace=pod.meta.namespace,
                        )
                        yield self.env.timeout(
                            min(300.0, 10.0 * 2 ** (pod.restart_count - 1))
                        )
                        continue
                    pod.failure = exc
                    self._finish_pod(pod, node, PodPhase.FAILED, reason=repr(exc))
                    return
                values = list(results.values())
                pod.result = values[0] if len(values) == 1 else values
                self._finish_pod(pod, node, PodPhase.SUCCEEDED)
                return
        except ProcessKilled as kill:
            # Pod deleted or node lost: stop containers, report failure.
            for proc in getattr(pod, "_containers", ()):  # type: ignore[attr-defined]
                if proc.is_alive:
                    proc.interrupt(cause=kill.cause)
            if not pod.is_terminal:
                self._finish_pod(
                    pod, node, PodPhase.FAILED, reason=str(kill.cause)
                )
            return

    def _liveness_watchdog(self, pod: Pod):
        """Kill a pod whose containers stop heartbeating (hung, not dead).

        The probe is only armed while containers are actually running —
        crash-backoff gaps don't count against the timeout, matching the
        Kubernetes semantics of probes pausing between restarts.
        """
        probe = pod.spec.liveness
        assert probe is not None
        if probe.initial_delay_s > 0:
            yield self.env.timeout(probe.initial_delay_s)
        while not pod.is_terminal:
            yield self.env.timeout(probe.period_s)
            if pod.is_terminal:
                return
            containers = getattr(pod, "_containers", ())
            if not any(proc.is_alive for proc in containers):
                continue
            if self.env.now - pod.last_heartbeat > probe.timeout_s:
                self.record_event(
                    "Pod",
                    pod.meta.name,
                    "LivenessFailed",
                    f"no heartbeat for {self.env.now - pod.last_heartbeat:.0f}s "
                    f"(timeout {probe.timeout_s:.0f}s)",
                    namespace=pod.meta.namespace,
                )
                self._count(
                    "pod_liveness_restarts_total",
                    {"namespace": pod.meta.namespace},
                )
                self._terminate_pod(pod, PodPhase.FAILED, reason="LivenessFailed")
                return

    def _finish_pod(
        self, pod: Pod, node: Node, phase: PodPhase, reason: str = ""
    ) -> None:
        pod.termination_reason = reason
        self._set_phase(pod, phase)
        pod.finish_time = self.env.now
        node.release(pod)
        self.get_namespace(pod.meta.namespace).release(pod.request)
        self.record_event(
            "Pod",
            pod.meta.name,
            phase.value,
            reason,
            namespace=pod.meta.namespace,
        )
        self._reconcile_all()
        self._kick_scheduler(state_changed=True)

    def _terminate_pod(self, pod: Pod, phase: PodPhase, reason: str) -> None:
        """Forcibly stop a scheduled/running pod (deletion, node loss)."""
        runner = pod._process
        if runner is not None and runner.is_alive:
            runner.interrupt(cause=reason)
        else:  # bound but runner finished — defensive
            if not pod.is_terminal:
                node = self.nodes.get(pod.node_name or "")
                if node is not None:
                    self._finish_pod(pod, node, phase, reason)

    def _reconcile_all(self) -> None:
        for job in self.jobs.values():
            job.reconcile()
        for rs in self.replicasets.values():
            rs.reconcile()
        for ds in self.daemonsets.values():
            ds.reconcile()

    def __repr__(self) -> str:  # pragma: no cover
        running = len(self.list_pods(phase=PodPhase.RUNNING))
        return (
            f"<Cluster {self.name}: {len(self.nodes)} nodes, "
            f"{running} running pods, "
            f"{len(self._pending) + len(self._unschedulable)} pending>"
        )
