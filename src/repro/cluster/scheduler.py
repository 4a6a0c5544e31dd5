"""The pod scheduler: filter feasible nodes, score, pick the best.

Mirrors the two-phase Kubernetes scheduling cycle:

1. **Filter** — node must be Ready, satisfy the pod's ``node_selector``,
   tolerate all node taints, and have room for the pod's total request.
2. **Score** — rank the survivors.  Two strategies are provided:

   - ``BIN_PACK`` (most-allocated): concentrate pods to keep whole GPU
     nodes free for large jobs — what a batch-oriented cluster like
     Nautilus wants for its inference fan-out.
   - ``SPREAD`` (least-allocated): even out load, which is what the
     paper's 10-worker download job gets so each worker has NIC headroom.

   Image locality is a tie-breaker: a node that has already pulled the
   pod's image scores higher (warm starts matter for 50-pod fan-outs).

Determinism: ties after scoring break on node name, so scheduling is
reproducible run-to-run.

Multi-tenant ordering
---------------------
:meth:`Scheduler.order_queue` decides *which pod goes first* when many
are pending: strictly by priority tier, and inside a tier by **weighted
fair-share** — each pod is keyed by its namespace's projected
dominant-resource share divided by the namespace weight.  The
projection is the namespace's charged usage (``Namespace.used``, which
already includes its pending pods) plus the requests of its queued pods
up to and including this one, so pending pods are counted twice.  A
tenant flooding the queue sees its own pods' projected shares climb and
other tenants' first pods sort ahead of the flood's tail.  This is
dominant-resource fairness in the spirit of DRF, computed against the
ready nodes' total capacity.
"""

from __future__ import annotations

import enum
import math
import typing as _t

from repro.cluster.node import Node
from repro.cluster.objects import ResourceRequirements
from repro.cluster.pod import Pod

__all__ = [
    "SchedulingStrategy",
    "Scheduler",
]


_ZERO = ResourceRequirements()


class SchedulingStrategy(enum.Enum):
    BIN_PACK = "bin-pack"
    SPREAD = "spread"


class Scheduler:
    """Stateless placement policy used by the cluster's scheduling loop."""

    def __init__(self, strategy: SchedulingStrategy = SchedulingStrategy.SPREAD):
        self.strategy = strategy

    # -- filter ---------------------------------------------------------------

    def feasible_nodes(self, pod: Pod, nodes: _t.Iterable[Node]) -> list[Node]:
        """All nodes passing the filter phase."""
        request = pod.request
        return [n for n in nodes if not _veto(pod, n) and n.can_fit(request)]

    def explain(self, pod: Pod, nodes: _t.Iterable[Node]) -> list[tuple[Node, str]]:
        """``(node, reason)`` for every node, the reason ``""`` where the
        pod fits — the 'why is my pod Pending' view."""
        request = pod.request
        explained = []
        for node in nodes:
            reason = _veto(pod, node)
            if not reason and not node.can_fit(request):
                reason = "insufficient resources"
            explained.append((node, reason))
        return explained

    # -- score ----------------------------------------------------------------

    def score_node(self, pod: Pod, node: Node) -> float:
        """Higher is better."""
        cap = node.capacity
        # Fractions of each dimension already allocated (0..1).
        used = 0.0
        dims = 0
        if cap.cpu > 0:
            used += node.allocated.cpu / cap.cpu
            dims += 1
        if cap.memory > 0:
            used += node.allocated.memory / cap.memory
            dims += 1
        if cap.gpu > 0:
            used += node.allocated.gpu / cap.gpu
            dims += 1
        mean_used = used / dims if dims else 0.0
        if self.strategy is SchedulingStrategy.BIN_PACK:
            score = mean_used  # most-allocated first
        else:
            score = 1.0 - mean_used  # least-allocated first
        # Image-locality bonus: all images cached => +0.05 tie-break nudge.
        images = {c.image for c in pod.spec.containers}
        if images <= node.image_cache:
            score += 0.05
        # Avoid putting CPU-only pods on scarce GPU nodes when possible.
        if pod.request.gpu == 0 and cap.gpu > 0:
            score -= 0.10
        return score

    def select(self, pod: Pod, nodes: _t.Iterable[Node]) -> Node | None:
        """Pick the best feasible node (or ``None`` if unschedulable now)."""
        feasible = self.feasible_nodes(pod, nodes)
        if not feasible:
            return None
        return max(
            feasible,
            key=lambda n: (self.score_node(pod, n), _neg_name(n.spec.name)),
        )

    # -- queue ordering ----------------------------------------------------------

    def order_queue(
        self,
        pods: _t.Sequence[Pod],
        usage: _t.Mapping[str, ResourceRequirements],
        capacity: _t.Mapping[str, float],
        weights: _t.Mapping[str, float],
    ) -> list[Pod]:
        """Order pending pods: priority tiers, then weighted fair-share.

        ``usage`` is each namespace's charged request total
        (``Namespace.used``: every admitted, not yet terminated pod,
        pending ones included), ``capacity`` the cluster's aggregate
        capacity, ``weights`` the namespaces' fair-share weights
        (missing -> 1.0).  Within a priority tier each pod is keyed by
        its namespace's projected weighted dominant share: ``usage``
        plus the requests of this namespace's pods up to and including
        this one, in ``pods`` order.  Pods in ``pods`` are already in
        ``usage``, so the key counts them twice.  Pods from namespaces
        with low shares interleave ahead of a single namespace's long
        backlog.  Ties break on position in ``pods``, keeping the
        ordering deterministic.

        The projection is summed in plain numbers, one accumulator per
        dimension and namespace: float CPU, integer memory and GPUs.
        """
        # A dimension with no capacity counts as infinite: its fraction
        # is 0.0, which changes no maximum (usage is never negative).
        cpu_cap = capacity.get("cpu", 0.0)
        cpu_cap = cpu_cap if cpu_cap > 0 else math.inf
        memory_cap = capacity.get("memory", 0.0)
        memory_cap = memory_cap if memory_cap > 0 else math.inf
        gpu_cap = capacity.get("gpu", 0.0)
        gpu_cap = gpu_cap if gpu_cap > 0 else math.inf
        # namespace -> [cpu, memory, gpu, weight], the first three the
        # projected usage so far.
        projected: dict[str, list] = {}
        keyed: list[tuple[float, float, int]] = []
        for index, pod in enumerate(pods):
            ns = pod.meta.namespace
            acc = projected.get(ns)
            if acc is None:
                used = usage.get(ns, _ZERO)
                weight = max(float(weights.get(ns, 1.0)), 1e-9)
                acc = projected[ns] = [used.cpu, used.memory, used.gpu, weight]
            request = pod.request
            cpu = acc[0] = acc[0] + request.cpu
            memory = acc[1] = acc[1] + request.memory
            gpu = acc[2] = acc[2] + request.gpu
            share = max(cpu / cpu_cap, memory / memory_cap, gpu / gpu_cap)
            keyed.append((-float(pod.spec.priority), share / acc[3], index))
        # Indices are distinct, so plain tuple order is (priority, share,
        # index) order.
        keyed.sort()
        return [pods[index] for _prio, _share, index in keyed]

    # -- preemption --------------------------------------------------------------

    def preemption_plan(
        self, pod: Pod, nodes: _t.Iterable[Node]
    ) -> tuple[Node, list[Pod]] | None:
        """Find a node where evicting strictly-lower-priority pods makes
        room for ``pod``.

        Mirrors Kubernetes priority preemption: victims are chosen
        lowest-priority-first, and among candidate nodes the one needing
        the fewest victims (then the lexicographically first) wins.
        Returns ``None`` when no preemption can help.
        """
        request = pod.request
        priority = pod.spec.priority
        best: tuple[int, str, Node, list[Pod]] | None = None
        for node in nodes:
            if _veto(pod, node):
                continue
            victims_pool = [
                p for p in node.pods.values() if p.spec.priority < priority
            ]
            if not victims_pool:  # nothing to evict: no plan on this node
                continue
            victims_pool.sort(key=lambda p: (p.spec.priority, p.meta.name))
            free = node.free
            chosen: list[Pod] = []
            for victim in victims_pool:
                if request.fits_within(free):
                    break
                free = free + victim.request
                chosen.append(victim)
            if not request.fits_within(free) or not chosen:
                continue
            key = (len(chosen), node.spec.name)
            if best is None or key < (best[0], best[1]):
                best = (len(chosen), node.spec.name, node, chosen)
        if best is None:
            return None
        return best[2], best[3]


def _veto(pod: Pod, node: Node) -> str:
    """Why ``node`` can never take ``pod`` whatever its load (not ready,
    selector, taints), or ``""`` when only capacity decides."""
    if not node.ready:
        return "node not ready"
    for key, value in pod.spec.node_selector.items():
        if node.meta.labels.get(key) != value:
            return f"selector {key}={value} not satisfied"
    untolerated = set(node.spec.taints) - pod.spec.tolerations
    if untolerated:
        # Sorted, in a set's own ``{'a', 'b'}`` form: a set's iteration
        # order depends on the hash seed.
        names = ", ".join(repr(taint) for taint in sorted(untolerated))
        return f"untolerated taints {{{names}}}"
    return ""


def _neg_name(name: str) -> tuple:
    """Key that makes ``max`` prefer lexicographically *smaller* names on
    score ties (deterministic ordering)."""
    return tuple(-ord(ch) for ch in name)
