"""Kubernetes-like container orchestration for the CHASE-CI reproduction.

The paper (§II, §IV, §V) manages Nautilus with Kubernetes: declarative API
objects, a scheduler, controllers that reconcile desired state, namespaces
for virtual clusters, and a GPU device plugin.  This package implements
those semantics from scratch on the :mod:`repro.sim` kernel:

- :class:`Cluster` — API-server facade + control loops.
- :class:`Node` — a machine with CPU/memory/GPU capacity, labels, taints
  (FIONA / FIONA8 builders in :mod:`repro.cluster.node`).
- :class:`Pod` / :class:`PodSpec` — the unit of scheduling; a pod's
  container runs a generator function on the simulation kernel.
- :class:`Job` — run-to-completion batch controller (parallelism,
  completions, backoff limit), used for the paper's download/inference
  steps.
- :class:`ReplicaSet` — keeps N replicas alive, used for the distributed-
  training extension (§III-E.2).
- :class:`Service` — stable names for pod groups (§III-E.2's
  hostname-over-IP communication).
- :class:`Namespace` / :class:`ResourceQuota` — virtual clusters (§IV).
- :class:`Scheduler` — filter/score pod placement with bin-packing and
  spreading strategies.
- GPU device plugin (§II-A) — explicit device allocation on GPU nodes.
"""

from repro.cluster.quantity import Quantity, parse_cpu, parse_memory, format_memory
from repro.cluster.objects import (
    ObjectMeta,
    ResourceRequirements,
    ClusterEvent,
    fits_empty_node,
)
from repro.cluster.node import Node, NodeSpec, fiona_node_spec, fiona8_node_spec
from repro.cluster.pod import (
    Pod,
    PodSpec,
    ContainerSpec,
    PodPhase,
    RestartPolicy,
    LivenessProbe,
    PRIORITY_CLASSES,
    priority_class_name,
)
from repro.cluster.namespace import Namespace, ResourceQuota
from repro.cluster.scheduler import Scheduler, SchedulingStrategy
from repro.cluster.controllers import (
    DaemonSet,
    DaemonSetSpec,
    Job,
    JobSpec,
    ReplicaSet,
    ReplicaSetSpec,
)
from repro.cluster.service import Service
from repro.cluster.cluster import Cluster

__all__ = [
    "Quantity",
    "parse_cpu",
    "parse_memory",
    "format_memory",
    "ObjectMeta",
    "ResourceRequirements",
    "ClusterEvent",
    "fits_empty_node",
    "Node",
    "NodeSpec",
    "fiona_node_spec",
    "fiona8_node_spec",
    "Pod",
    "PodSpec",
    "LivenessProbe",
    "ContainerSpec",
    "PodPhase",
    "RestartPolicy",
    "PRIORITY_CLASSES",
    "priority_class_name",
    "Namespace",
    "ResourceQuota",
    "Scheduler",
    "SchedulingStrategy",
    "Job",
    "JobSpec",
    "ReplicaSet",
    "ReplicaSetSpec",
    "DaemonSet",
    "DaemonSetSpec",
    "Service",
    "Cluster",
]
