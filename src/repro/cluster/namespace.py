"""Namespaces: virtual clusters inside the physical cluster (paper §IV).

Namespaces "divide the cluster resources between the set of users,
providing the capability to organize and segment the needs for each
project into its own virtual subsection of the cluster."  Each namespace
may carry a :class:`ResourceQuota` that caps the aggregate requests of
its admitted pods, and an administrator/user list that models the paper's
CILogon-backed "namespace administrator" role.
"""

from __future__ import annotations

import dataclasses

from repro.cluster.objects import ResourceRequirements
from repro.errors import QuotaExceededError

__all__ = ["ResourceQuota", "Namespace"]


@dataclasses.dataclass
class ResourceQuota:
    """Aggregate caps on what a namespace's pods may request."""

    cpu: float = float("inf")
    memory: float = float("inf")
    gpu: float = float("inf")
    max_pods: float = float("inf")

    def admits(self, used: ResourceRequirements, pods: int, request: ResourceRequirements) -> bool:
        """Would admitting ``request`` keep the namespace within quota?"""
        return (
            used.cpu + request.cpu <= self.cpu + 1e-9
            and used.memory + request.memory <= self.memory
            and used.gpu + request.gpu <= self.gpu
            and pods + 1 <= self.max_pods
        )


class Namespace:
    """A virtual cluster: isolation scope for names, users and quota."""

    def __init__(
        self,
        name: str,
        quota: ResourceQuota | None = None,
        administrator: str = "",
        weight: float = 1.0,
    ):
        if weight <= 0:
            raise ValueError(f"namespace weight must be positive, got {weight}")
        self.name = name
        self.quota = quota or ResourceQuota()
        #: Fair-share weight: the scheduler orders pending pods so each
        #: namespace's dominant-resource share converges toward its
        #: weight's fraction of the contended pool (weight 2 earns twice
        #: the share of weight 1 before waiting behind it).
        self.weight = weight
        #: The PI granted the "namespace administrator" role (§IV).
        self.administrator = administrator
        #: CILogon-authenticated identities admitted by the administrator.
        self.users: set[str] = {administrator} if administrator else set()
        self.used = ResourceRequirements()
        self.pod_count = 0

    def add_user(self, identity: str, added_by: str) -> None:
        """Admit a federated identity; only the administrator may do so."""
        if added_by != self.administrator:
            raise PermissionError(
                f"{added_by!r} is not the administrator of namespace {self.name!r}"
            )
        self.users.add(identity)

    def admit(self, request: ResourceRequirements) -> None:
        """Charge a pod's request against the quota (raises if exceeded)."""
        if not self.quota.admits(self.used, self.pod_count, request):
            raise QuotaExceededError(
                f"namespace {self.name!r} quota exceeded by request {request!r} "
                f"(used cpu={self.used.cpu}, mem={self.used.memory}, "
                f"gpu={self.used.gpu}, pods={self.pod_count})"
            )
        self.used = self.used + request
        self.pod_count += 1

    def release(self, request: ResourceRequirements) -> None:
        """Return a terminated pod's charge."""
        self.used = ResourceRequirements._of(
            max(0.0, self.used.cpu - request.cpu),
            max(0, self.used.memory - request.memory),
            max(0, self.used.gpu - request.gpu),
            max(0, self.used.ephemeral_storage - request.ephemeral_storage),
        )
        self.pod_count = max(0, self.pod_count - 1)

    def __repr__(self) -> str:
        return f"<Namespace {self.name} pods={self.pod_count}>"
