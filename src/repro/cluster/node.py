"""Cluster nodes: FIONA appliances and their resource accounting.

The PRP's Data Transfer Nodes are "FIONAs" (Flash I/O Network Appliances);
CHASE-CI adds multi-tenant "FIONA8" machines with eight game GPUs each
(paper §II).  :func:`fiona_node_spec` and :func:`fiona8_node_spec` build
the specs the paper describes: dual 12-core CPUs, 96 GB RAM, 1 TB SSD and
two 10 GbE interfaces for the basic Calit2 FIONA.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.objects import ObjectMeta, ResourceRequirements
from repro.cluster.quantity import GiB, TiB, parse_cpu, parse_memory
from repro.errors import ClusterError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.pod import Pod

__all__ = ["NodeSpec", "Node", "GPUDevice", "fiona_node_spec", "fiona8_node_spec"]


@dataclasses.dataclass
class NodeSpec:
    """Static description of a machine joining the cluster."""

    name: str
    cpu: float  # cores
    memory: int  # bytes
    gpus: int = 0
    gpu_model: str = ""
    local_storage: int = 0  # bytes of local SSD/NVMe
    nics_gbps: tuple[float, ...] = (10.0,)
    site: str = "UCSD"
    labels: dict[str, str] = dataclasses.field(default_factory=dict)
    taints: dict[str, str] = dataclasses.field(default_factory=dict)
    image_pull_seconds: float = 15.0  # cold-pull time for an uncached image


@dataclasses.dataclass
class GPUDevice:
    """One physical GPU exposed by the device plugin (§II-A)."""

    index: int
    model: str
    node_name: str
    allocated_to: str | None = None  # pod uid, when in use

    @property
    def device_id(self) -> str:
        return f"{self.node_name}/gpu{self.index}"


class Node:
    """A schedulable machine with resource accounting and a device plugin.

    Tracks allocatable capacity, the pods bound to it, the set of container
    images already pulled (for image-locality scoring and pull-time
    simulation), and per-GPU allocation.
    """

    def __init__(self, spec: NodeSpec):
        self.spec = spec
        self.meta = ObjectMeta(
            name=spec.name,
            namespace="",  # nodes are cluster-scoped
            labels=dict(spec.labels),
        )
        self.meta.labels.setdefault("kubernetes.io/hostname", spec.name)
        self.meta.labels.setdefault("site", spec.site)
        if spec.gpus:
            self.meta.labels.setdefault("gpu-model", spec.gpu_model or "generic")
        self.capacity = ResourceRequirements(
            cpu=spec.cpu,
            memory=spec.memory,
            gpu=spec.gpus,
            ephemeral_storage=spec.local_storage,
        )
        self.allocated = ResourceRequirements()
        self.pods: dict[str, "Pod"] = {}  # pod uid -> pod
        self.ready: bool = True
        self.image_cache: set[str] = set()
        self.devices: list[GPUDevice] = [
            GPUDevice(index=i, model=spec.gpu_model or "generic", node_name=spec.name)
            for i in range(spec.gpus)
        ]
        #: Scraped gauges of the allocated CPU, memory and GPUs (the GPU
        #: one ``None`` on a CPU node), recorded on every allocate and
        #: release; ``None`` when no registry watches the node.
        self.gauges: tuple | None = None

    # -- capacity ------------------------------------------------------------

    @property
    def free(self) -> ResourceRequirements:
        """Unallocated capacity, each dimension clamped at 0.

        CPU sums may overshoot capacity by the ``1e-9``-core tolerance
        :meth:`ResourceRequirements.fits_within` allows; a full node then
        has no free CPU rather than a negative amount.
        """
        cap, alloc = self.capacity, self.allocated
        return ResourceRequirements._of(
            max(0.0, cap.cpu - alloc.cpu),
            max(0, cap.memory - alloc.memory),
            max(0, cap.gpu - alloc.gpu),
            max(0, cap.ephemeral_storage - alloc.ephemeral_storage),
        )

    def can_fit(self, request: ResourceRequirements) -> bool:
        """Would ``request`` fit in the remaining capacity?

        Equal to ``request.fits_within(self.free)``, compared field by
        field without building the ``free`` object.  Only CPU needs the
        clamp: :meth:`allocate` never lets the integer dimensions exceed
        capacity.
        """
        cap, alloc = self.capacity, self.allocated
        return (
            request.cpu <= max(0.0, cap.cpu - alloc.cpu) + 1e-9
            and request.memory <= cap.memory - alloc.memory
            and request.gpu <= cap.gpu - alloc.gpu
            and request.ephemeral_storage
            <= cap.ephemeral_storage - alloc.ephemeral_storage
        )

    def allocate(self, pod: "Pod") -> None:
        """Reserve a pod's admitted request on this node and assign GPUs."""
        request = pod.request
        if not self.can_fit(request):
            raise ClusterError(
                f"node {self.spec.name} cannot fit pod {pod.meta.name}: "
                f"request {request!r}, free {self.free!r}"
            )
        self.allocated = self.allocated + request
        self.pods[pod.meta.uid] = pod
        if request.gpu:
            assigned: list[GPUDevice] = []
            for device in self.devices:
                if device.allocated_to is None:
                    device.allocated_to = pod.meta.uid
                    assigned.append(device)
                    if len(assigned) == request.gpu:
                        break
            if len(assigned) != request.gpu:  # pragma: no cover - guarded above
                raise ClusterError("GPU accounting out of sync")
            pod.assigned_gpus = tuple(d.device_id for d in assigned)
        self._record()

    def release(self, pod: "Pod") -> None:
        """Free a pod's reservation (idempotent)."""
        if pod.meta.uid not in self.pods:
            return
        del self.pods[pod.meta.uid]
        request = pod.request
        self.allocated = ResourceRequirements._of(
            max(0.0, self.allocated.cpu - request.cpu),
            max(0, self.allocated.memory - request.memory),
            max(0, self.allocated.gpu - request.gpu),
            max(0, self.allocated.ephemeral_storage - request.ephemeral_storage),
        )
        for device in self.devices:
            if device.allocated_to == pod.meta.uid:
                device.allocated_to = None
        self._record()

    def _record(self) -> None:
        if self.gauges is not None:
            cpu, memory, gpus = self.gauges
            allocated = self.allocated
            cpu.set(allocated.cpu)
            memory.set(allocated.memory)
            if gpus is not None:
                gpus.set(allocated.gpu)

    def __repr__(self) -> str:
        state = "Ready" if self.ready else "NotReady"
        return (
            f"<Node {self.spec.name} [{state}] cpu={self.allocated.cpu:.1f}/"
            f"{self.capacity.cpu:.0f} gpu={self.allocated.gpu}/{self.capacity.gpu}>"
        )


def fiona_node_spec(
    name: str,
    site: str = "UCSD",
) -> NodeSpec:
    """The basic Calit2 FIONA (paper §II): dual 12-core CPUs, 96 GB RAM,
    1 TB SSD, two 10 GbE interfaces, no GPUs."""
    return NodeSpec(
        name=name,
        cpu=parse_cpu(24),
        memory=parse_memory(96 * GiB),
        gpus=0,
        local_storage=1 * TiB,
        nics_gbps=(10.0, 10.0),
        site=site,
        labels={"fiona": "dtn"},
    )


def fiona8_node_spec(
    name: str,
    site: str = "UCSD",
) -> NodeSpec:
    """A multi-tenant FIONA8 (paper §II): eight game GPUs per machine.

    CPU/RAM follow the FIONA baseline; storage is NVMe-class.
    """
    return NodeSpec(
        name=name,
        cpu=parse_cpu(24),
        memory=parse_memory(96 * GiB),
        gpus=8,
        gpu_model="nvidia-1080ti",
        local_storage=2 * TiB,
        nics_gbps=(10.0,),
        site=site,
        labels={"fiona": "fiona8"},
    )
