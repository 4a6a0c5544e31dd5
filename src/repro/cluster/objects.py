"""Shared API-object plumbing: metadata, resource requirements, events."""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.cluster.quantity import parse_cpu, parse_memory

__all__ = [
    "ObjectMeta",
    "ResourceRequirements",
    "ClusterEvent",
    "fits_empty_node",
]

_uid_counter = itertools.count(1)


def _new_uid() -> str:
    return f"uid-{next(_uid_counter):08d}"


@dataclasses.dataclass
class ObjectMeta:
    """Name/namespace/labels identity shared by every API object."""

    name: str
    namespace: str = "default"
    labels: dict[str, str] = dataclasses.field(default_factory=dict)
    annotations: dict[str, str] = dataclasses.field(default_factory=dict)
    uid: str = dataclasses.field(default_factory=_new_uid)
    creation_time: float | None = None

    def matches(self, selector: _t.Mapping[str, str]) -> bool:
        """Label-selector match: every selector pair must be present."""
        return all(self.labels.get(k) == v for k, v in selector.items())

    @property
    def key(self) -> tuple[str, str]:
        """(namespace, name) — the unique key within an object kind."""
        return (self.namespace, self.name)


class ResourceRequirements:
    """Per-container compute requests (cpu cores, memory bytes, GPUs).

    Mirrors the ``resources.requests`` stanza of a Kubernetes container.
    Accepts Kubernetes quantity strings:

    >>> r = ResourceRequirements(cpu="500m", memory="2Gi", gpu=1)
    >>> r.cpu
    0.5

    The constructor parses and validates every field.  Results derived
    from fields that are already parsed (sums, a node's free or released
    capacity) are built with :meth:`_of`, which skips the parser.
    """

    __slots__ = ("cpu", "memory", "gpu", "ephemeral_storage")

    def __init__(
        self,
        cpu: "float | str" = 0.0,
        memory: "int | str" = 0,
        gpu: int = 0,
        ephemeral_storage: "int | str" = 0,
    ):
        self.cpu = parse_cpu(cpu)
        self.memory = parse_memory(memory)
        if gpu < 0 or gpu != int(gpu):
            raise ValueError(f"gpu request must be a non-negative int: {gpu!r}")
        self.gpu = int(gpu)
        self.ephemeral_storage = parse_memory(ephemeral_storage)

    @classmethod
    def _of(
        cls, cpu: float, memory: int, gpu: int, ephemeral_storage: int
    ) -> "ResourceRequirements":
        """Fill the slots with values that are already parsed and valid
        (non-negative cores as a float, bytes and GPUs as ints)."""
        self = cls.__new__(cls)
        self.cpu = cpu
        self.memory = memory
        self.gpu = gpu
        self.ephemeral_storage = ephemeral_storage
        return self

    def __add__(self, other: "ResourceRequirements") -> "ResourceRequirements":
        return ResourceRequirements._of(
            self.cpu + other.cpu,
            self.memory + other.memory,
            self.gpu + other.gpu,
            self.ephemeral_storage + other.ephemeral_storage,
        )

    def fits_within(self, other: "ResourceRequirements") -> bool:
        """True if this request fits inside ``other`` (free capacity)."""
        return (
            self.cpu <= other.cpu + 1e-9
            and self.memory <= other.memory
            and self.gpu <= other.gpu
            and self.ephemeral_storage <= other.ephemeral_storage
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResourceRequirements) and (
            self.cpu,
            self.memory,
            self.gpu,
            self.ephemeral_storage,
        ) == (other.cpu, other.memory, other.gpu, other.ephemeral_storage)

    def __repr__(self) -> str:
        return (
            f"ResourceRequirements(cpu={self.cpu}, memory={self.memory}, "
            f"gpu={self.gpu})"
        )


def fits_empty_node(request: _t.Any, capacity: _t.Any) -> bool:
    """Could ``request`` ever fit on an *empty* node of ``capacity``?

    Admission feasibility, not current free capacity: CPU within the
    ``1e-9``-core tolerance of :meth:`ResourceRequirements.fits_within`,
    memory and GPUs.  Both arguments need only ``cpu``, ``memory`` and
    ``gpu`` attributes, so a :class:`ResourceRequirements` and the lint
    model's node and pod views (``repro.analysis.model``) share this one
    test: the admission gateway asks it of every node's capacity, and
    the spec rule SPEC001 of every node view.
    """
    return (
        request.cpu <= capacity.cpu + 1e-9
        and request.memory <= capacity.memory
        and request.gpu <= capacity.gpu
    )


@dataclasses.dataclass(frozen=True)
class ClusterEvent:
    """A timestamped control-plane event (the ``kubectl get events`` analog).

    The monitoring layer and tests use these to assert orchestration
    behaviour (scheduling decisions, restarts, node failures).
    """

    time: float
    kind: str  # e.g. "Pod", "Job", "Node"
    name: str
    reason: str  # e.g. "Scheduled", "Started", "Failed", "NodeLost"
    message: str = ""
    namespace: str = "default"

    def __str__(self) -> str:
        return (
            f"[{self.time:10.1f}s] {self.kind}/{self.namespace}/{self.name}: "
            f"{self.reason} — {self.message}"
        )
