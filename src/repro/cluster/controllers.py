"""Workload controllers: Job (run-to-completion) and ReplicaSet.

The paper's workflow steps run as Kubernetes **Jobs** ("for a workflow it
is usually the Job resource that is most prevalent because it can execute
batch process at scale", §V) and the distributed-training extension uses a
**ReplicaSet** (§III-E.2).  Controllers here are reconciled by the
cluster's control loop: whenever a pod terminates or a node fails, the
cluster calls :meth:`reconcile` and the controller creates replacement or
successor pods to drive actual state toward desired state — the
"declare what, not how" behaviour §V highlights.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.cluster.objects import ObjectMeta
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.errors import ValidationError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.sim import Event

__all__ = [
    "JobSpec",
    "JobStatus",
    "Job",
    "ReplicaSetSpec",
    "ReplicaSet",
]


class JobStatus(enum.Enum):
    ACTIVE = "Active"
    COMPLETE = "Complete"
    FAILED = "Failed"


@dataclasses.dataclass
class JobSpec:
    """Desired behaviour of a batch job.

    Parameters
    ----------
    template:
        ``template(index) -> PodSpec`` — builds the pod for completion
        index ``index`` (0-based).  Indexed semantics: each index must
        succeed exactly once.
    completions:
        Number of indices that must succeed.
    parallelism:
        Maximum concurrently-running pods.
    backoff_limit:
        Pod failures tolerated before the whole job is marked Failed.
    """

    template: _t.Callable[[int], PodSpec]
    completions: int = 1
    parallelism: int = 1
    backoff_limit: int = 6

    def __post_init__(self) -> None:
        if self.completions < 1:
            raise ValidationError("completions must be >= 1")
        if self.parallelism < 1:
            raise ValidationError("parallelism must be >= 1")
        if self.backoff_limit < 0:
            raise ValidationError("backoff_limit must be >= 0")


class Job:
    """A run-to-completion batch controller.

    Create through :meth:`repro.cluster.Cluster.create_job`.  Wait for it
    inside a simulated process with ``yield job.completion_event``.
    """

    def __init__(self, meta: ObjectMeta, spec: JobSpec, cluster: "Cluster"):
        self.meta = meta
        self.spec = spec
        self._cluster = cluster
        self.status = JobStatus.ACTIVE
        self.succeeded_indices: set[int] = set()
        self.failed_count = 0
        #: live pods by completion index
        self.active: dict[int, Pod] = {}
        self.start_time: float = cluster.env.now
        self.finish_time: float | None = None
        #: results returned by each index's successful pod
        self.results: dict[int, object] = {}
        self.completion_event: "Event" = cluster.env.event()
        self._pod_serial = 0

    # -- status ----------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self.status is JobStatus.COMPLETE

    @property
    def is_failed(self) -> bool:
        return self.status is JobStatus.FAILED

    @property
    def active_count(self) -> int:
        return len(self.active)

    # -- reconciliation ----------------------------------------------------------

    def reconcile(self) -> None:
        """Drive actual state toward the spec (called by the control loop)."""
        if self.status is not JobStatus.ACTIVE:
            return
        # Absorb terminated pods.
        for index, pod in list(self.active.items()):
            if pod.phase is PodPhase.SUCCEEDED:
                del self.active[index]
                self.succeeded_indices.add(index)
                self.results[index] = pod.result
            elif pod.phase is PodPhase.FAILED:
                del self.active[index]
                self.failed_count += 1

        if self.failed_count > self.spec.backoff_limit:
            self._finish(JobStatus.FAILED)
            return
        if len(self.succeeded_indices) >= self.spec.completions:
            self._finish(JobStatus.COMPLETE)
            return

        # Launch pods for incomplete indices up to the parallelism cap.
        for index in range(self.spec.completions):
            if len(self.active) >= self.spec.parallelism:
                break
            if index in self.succeeded_indices or index in self.active:
                continue
            self._pod_serial += 1
            pod_spec = self.spec.template(index)
            name = f"{self.meta.name}-{index}-{self._pod_serial}"
            pod = self._cluster.create_pod(
                name=name,
                spec=pod_spec,
                namespace=self.meta.namespace,
                labels={"job-name": self.meta.name, **self.meta.labels},
            )
            pod.owner_uid = self.meta.uid
            self.active[index] = pod

    def _finish(self, status: JobStatus) -> None:
        self.status = status
        self.finish_time = self._cluster.env.now
        # Tear down any stragglers (relevant on failure).
        for pod in self.active.values():
            self._cluster.delete_pod(pod)
        self.active.clear()
        self._cluster.record_event(
            kind="Job",
            name=self.meta.name,
            namespace=self.meta.namespace,
            reason=status.value,
            message=(
                f"{len(self.succeeded_indices)}/{self.spec.completions} "
                f"succeeded, {self.failed_count} pod failures"
            ),
        )
        if status is JobStatus.COMPLETE:
            self.completion_event.succeed(self.results)
        else:
            from repro.errors import StepFailedError

            self.completion_event.fail(
                StepFailedError(self.meta.name, "backoff limit exceeded")
            )

    @property
    def duration(self) -> float | None:
        """Wall-clock (virtual) duration, once finished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:
        return (
            f"<Job {self.meta.namespace}/{self.meta.name} {self.status.value} "
            f"{len(self.succeeded_indices)}/{self.spec.completions}>"
        )


@dataclasses.dataclass
class ReplicaSetSpec:
    """Desired state: ``replicas`` copies of the template pod running."""

    template: _t.Callable[[int], PodSpec]
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValidationError("replicas must be >= 0")


class ReplicaSet:
    """Keeps ``replicas`` pods alive; replaces any that terminate.

    Used for long-running services and for the distributed-TensorFlow
    training clients of §III-E.2 ("A ReplicaSet would be used because we
    would have a single client image that would need to be scaled").
    """

    def __init__(self, meta: ObjectMeta, spec: ReplicaSetSpec, cluster: "Cluster"):
        self.meta = meta
        self.spec = spec
        self._cluster = cluster
        self.replicas: dict[int, Pod] = {}
        self.generation = 0
        self._deleted = False

    def scale(self, replicas: int) -> None:
        """Change the desired replica count ("scaling it up and down
        depending on our needs", §III-E.2)."""
        if replicas < 0:
            raise ValidationError("replicas must be >= 0")
        self.spec.replicas = replicas
        self.reconcile()

    def delete(self) -> None:
        """Tear down the replica set and all its pods."""
        self._deleted = True
        for pod in self.replicas.values():
            if not pod.is_terminal:
                self._cluster.delete_pod(pod)
        self.replicas.clear()

    def reconcile(self) -> None:
        if self._deleted:
            return
        # Drop terminated pods so they are replaced.
        for slot, pod in list(self.replicas.items()):
            if pod.is_terminal:
                del self.replicas[slot]
        # Scale down.
        while len(self.replicas) > self.spec.replicas:
            slot = max(self.replicas)
            pod = self.replicas.pop(slot)
            if not pod.is_terminal:
                self._cluster.delete_pod(pod)
        # Scale up.
        for slot in range(self.spec.replicas):
            if slot in self.replicas:
                continue
            self.generation += 1
            pod = self._cluster.create_pod(
                name=f"{self.meta.name}-{slot}-{self.generation}",
                spec=self.spec.template(slot),
                namespace=self.meta.namespace,
                labels={"replicaset": self.meta.name, **self.meta.labels},
            )
            pod.owner_uid = self.meta.uid
            self.replicas[slot] = pod

    @property
    def ready_count(self) -> int:
        """Replicas currently in the Running phase."""
        return sum(1 for p in self.replicas.values() if p.phase is PodPhase.RUNNING)

    def __repr__(self) -> str:
        return (
            f"<ReplicaSet {self.meta.namespace}/{self.meta.name} "
            f"{self.ready_count}/{self.spec.replicas} ready>"
        )
