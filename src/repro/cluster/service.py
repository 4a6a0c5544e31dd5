"""Services: stable names for dynamic pod groups.

Paper §III-E.2: "Hostnames will be used instead of IP addresses by
creating a service and providing a much more dynamic way of communicating
to a pod even if its IP address changes."  A :class:`Service` resolves a
label selector to the current set of running pods; endpoints update as
pods come and go, so callers never hold a stale address.

Cross-namespace access requires the fully-qualified form
``<service>.<namespace>.svc.cluster.local`` (§IV).
"""

from __future__ import annotations

import typing as _t

from repro.cluster.objects import ObjectMeta
from repro.cluster.pod import Pod, PodPhase

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

__all__ = ["Service"]


class Service:
    """A named, selector-based endpoint set."""

    def __init__(self, meta: ObjectMeta, selector: dict[str, str], cluster: "Cluster"):
        self.meta = meta
        self.selector = dict(selector)
        self._cluster = cluster

    @property
    def hostname(self) -> str:
        """Cluster-internal DNS name."""
        return f"{self.meta.name}.{self.meta.namespace}.svc.cluster.local"

    def endpoints(self) -> list[Pod]:
        """Running pods currently matching the selector (sorted by name)."""
        pods = [
            pod
            for pod in self._cluster.list_pods(namespace=self.meta.namespace)
            if pod.phase is PodPhase.RUNNING and pod.meta.matches(self.selector)
        ]
        return sorted(pods, key=lambda p: p.meta.name)

    def __repr__(self) -> str:
        return f"<Service {self.hostname} -> {len(self.endpoints())} endpoints>"
