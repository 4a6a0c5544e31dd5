"""Ceph/Rook-like distributed storage substrate.

Paper §II-A: "Nautilus uses Rook, an embedded strain of the Ceph
cloud-native storage system.  Ceph provides block, object, and POSIX
compliant file storage as a service within the cluster.  Massively
scalable, Ceph replicates and dynamically distributes data between
storage nodes while monitoring their health."

This package reproduces those semantics from scratch:

- :mod:`repro.storage.crush` — deterministic CRUSH-style placement via
  rendezvous (HRW) hashing with host-level failure-domain separation.
- :class:`OSD` — an object storage daemon with capacity and disk
  bandwidth (a :class:`~repro.netsim.flows.CapacityResource`, so disk and
  network share one rate-limiting mechanism).
- :class:`CephCluster` — pools, placement groups, replicated writes,
  OSD failure + autonomous recovery (re-replication), health reporting.
- :class:`CephFS` — the POSIX-ish shared-filesystem facade every workflow
  step mounts ("CephFS accessible by all nodes", §III-B).

Of the three interfaces only object and POSIX storage are modelled: no
workflow step uses Ceph's block (RBD) or S3 interface.
"""

from repro.storage.crush import CrushMap, place
from repro.storage.osd import OSD
from repro.storage.objects import CephCluster, ObjectRef, Pool
from repro.storage.cephfs import CephFS

__all__ = [
    "CrushMap",
    "place",
    "OSD",
    "CephCluster",
    "ObjectRef",
    "Pool",
    "CephFS",
]
