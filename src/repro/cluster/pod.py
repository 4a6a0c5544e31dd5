"""Pods: the unit of scheduling and execution.

A pod's container carries a *generator function* as its entrypoint; when
the pod starts, the cluster spawns it as a process on the simulation
kernel.  The generator receives a :class:`PodContext` giving it access to
the virtual clock, its node, its assigned GPU devices, and any volumes
(e.g. the CephFS mount shared by every step of the paper's workflow).
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.cluster.objects import ObjectMeta, ResourceRequirements
from repro.errors import ValidationError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.sim import Environment, Process

__all__ = [
    "PodPhase",
    "RestartPolicy",
    "ContainerSpec",
    "LivenessProbe",
    "PodSpec",
    "Pod",
    "PodContext",
    "PRIORITY_CLASSES",
    "priority_class_name",
]

#: Named priority classes, mirroring Kubernetes PriorityClass objects.
#: ``best-effort`` maps to 0, which by the preemption contract never
#: evicts anything; everything above it may preempt strictly-lower
#: priorities when unschedulable.
PRIORITY_CLASSES: dict[str, int] = {
    "best-effort": 0,
    "batch": 10,
    "normal": 100,
    "high": 1000,
    "system": 10000,
}

#: Reverse map for metric labels / reports (value -> first name).
_CLASS_BY_PRIORITY: dict[int, str] = {}
for _name, _value in PRIORITY_CLASSES.items():
    _CLASS_BY_PRIORITY.setdefault(_value, _name)


def priority_class_name(priority: int) -> str:
    """The class name for a numeric priority (``p<N>`` when unnamed)."""
    return _CLASS_BY_PRIORITY.get(priority, f"p{priority}")


class PodPhase(enum.Enum):
    """Lifecycle phases, matching the Kubernetes pod phase model."""

    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"

    def is_terminal(self) -> bool:
        return self in (PodPhase.SUCCEEDED, PodPhase.FAILED)


class RestartPolicy(enum.Enum):
    """What the kubelet does when the container exits."""

    NEVER = "Never"
    ON_FAILURE = "OnFailure"


@dataclasses.dataclass
class ContainerSpec:
    """One container: an image plus an entrypoint generator function.

    Parameters
    ----------
    name:
        Container name within the pod.
    image:
        Image reference (e.g. ``"chase-ci/thredds-downloader:1.2"``).
        Cold image pulls cost simulated time; warm nodes skip the pull.
    main:
        ``main(ctx: PodContext) -> generator`` — the entrypoint.  Its
        return value becomes the pod's result; raising fails the pod.
    resources:
        Compute requests used for scheduling and node accounting.
    """

    name: str
    image: str
    main: _t.Callable[["PodContext"], _t.Generator]
    resources: ResourceRequirements = dataclasses.field(
        default_factory=ResourceRequirements
    )


@dataclasses.dataclass(frozen=True)
class LivenessProbe:
    """Heartbeat-based liveness check for a pod's containers.

    Containers call :meth:`PodContext.heartbeat` as they make progress;
    the kubelet's watchdog kills the pod (phase FAILED, reason
    ``LivenessFailed``) when no heartbeat lands for ``timeout_s`` — so a
    pod hung on a partitioned path is converted into a restart charged
    against the owning Job's ``backoff_limit``, exactly like a crash.
    """

    period_s: float = 10.0
    timeout_s: float = 60.0
    initial_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.period_s <= 0 or self.timeout_s <= 0:
            raise ValidationError("liveness period/timeout must be positive")
        if self.initial_delay_s < 0:
            raise ValidationError("liveness initial delay must be >= 0")


@dataclasses.dataclass
class PodSpec:
    """Desired state of a pod.

    ``priority`` follows the Kubernetes PriorityClass model: when a
    higher-priority pod is unschedulable, the scheduler may preempt
    (evict) lower-priority pods to make room.  ``priority_class`` names
    one of :data:`PRIORITY_CLASSES`; when set (and ``priority`` is left
    at its default 0) the numeric priority resolves from the class, so
    workloads can speak in class names while the scheduler keeps
    comparing integers.  An explicit nonzero ``priority`` wins over the
    class resolution.
    """

    containers: list[ContainerSpec]
    node_selector: dict[str, str] = dataclasses.field(default_factory=dict)
    tolerations: set[str] = dataclasses.field(default_factory=set)
    restart_policy: RestartPolicy = RestartPolicy.NEVER
    volumes: dict[str, object] = dataclasses.field(default_factory=dict)
    params: dict[str, object] = dataclasses.field(default_factory=dict)
    priority: int = 0
    priority_class: str = ""
    liveness: LivenessProbe | None = None

    def __post_init__(self) -> None:
        if not self.containers:
            raise ValidationError("pod spec needs at least one container")
        names = [c.name for c in self.containers]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate container names: {names}")
        if self.priority_class:
            if self.priority_class not in PRIORITY_CLASSES:
                raise ValidationError(
                    f"unknown priority class {self.priority_class!r} "
                    f"(known: {sorted(PRIORITY_CLASSES)})"
                )
            if self.priority == 0:
                self.priority = PRIORITY_CLASSES[self.priority_class]

    def priority_class_label(self) -> str:
        """The class name this spec schedules as (for metrics/reports)."""
        if self.priority_class and (
            PRIORITY_CLASSES[self.priority_class] == self.priority
        ):
            return self.priority_class
        return priority_class_name(self.priority)

    def total_request(self) -> ResourceRequirements:
        """Sum of all containers' requests.  A pod computes this once, as
        :attr:`Pod.request`, which is what the scheduler reserves."""
        total = ResourceRequirements()
        for container in self.containers:
            total = total + container.resources
        return total


class Pod:
    """A pod instance tracked by the cluster."""

    def __init__(self, meta: ObjectMeta, spec: PodSpec):
        self.meta = meta
        self.spec = spec
        #: The spec's total request, fixed at admission (a pod's requests
        #: cannot change once it exists).  Quota, node accounting and the
        #: scheduler all charge this one object.
        self.request: ResourceRequirements = spec.total_request()
        #: The pod's scheduling shape, fixed with :attr:`request`: the
        #: request's dimensions, priority, sorted node-selector items and
        #: tolerations.  ``Scheduler.select`` and ``preemption_plan`` read
        #: nothing else from the pod, so the scheduling pass memoises
        #: failed placements by this key.
        request = self.request
        self.shape: tuple = (
            request.cpu,
            request.memory,
            request.gpu,
            request.ephemeral_storage,
            spec.priority,
            tuple(sorted(spec.node_selector.items())),
            frozenset(spec.tolerations),
        )
        self.phase = PodPhase.PENDING
        self.node_name: str | None = None
        self.assigned_gpus: tuple[str, ...] = ()
        self.start_time: float | None = None
        self.finish_time: float | None = None
        self.restart_count = 0
        self.result: object = None
        self.failure: BaseException | None = None
        #: why the pod reached a terminal phase ("Preempted", "NodeLost",
        #: "Deleted", ... — empty for a normal completion)
        self.termination_reason: str = ""
        self.owner_uid: str | None = None  # controller (Job/ReplicaSet) uid
        self.last_heartbeat: float = 0.0
        self._process: "Process | None" = None

    @property
    def is_terminal(self) -> bool:
        return self.phase.is_terminal()

    def __repr__(self) -> str:
        where = f" on {self.node_name}" if self.node_name else ""
        return f"<Pod {self.meta.namespace}/{self.meta.name} {self.phase.value}{where}>"


class PodContext:
    """Everything a container entrypoint can touch while running.

    Attributes
    ----------
    env:
        The simulation environment (for ``yield ctx.env.timeout(...)``).
    pod, node, cluster:
        The running pod, its node, and the cluster API.
    gpus:
        Device ids assigned by the device plugin (empty for CPU pods).
    volumes:
        The pod spec's volume map (e.g. ``{"cephfs": <CephFS mount>}``).
    params:
        Free-form parameters from the pod spec (worker index, shard id...).
    """

    def __init__(self, env: "Environment", pod: Pod, node: "Node", cluster: "Cluster"):
        self.env = env
        self.pod = pod
        self.node = node
        self.cluster = cluster
        self.gpus = pod.assigned_gpus
        self.volumes = pod.spec.volumes
        self.params = pod.spec.params

    def volume(self, name: str) -> object:
        """Look up a mounted volume by name (raises ``KeyError`` if absent)."""
        return self.volumes[name]

    def heartbeat(self) -> None:
        """Signal liveness: resets the pod's liveness-probe watchdog."""
        self.pod.last_heartbeat = self.env.now
