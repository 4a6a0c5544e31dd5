"""CephFS: the POSIX-ish shared filesystem facade.

Every step of the paper's workflow reads and writes "the storage volume
(CephFS accessible by all nodes)" (§III-B).  This facade maps paths onto
a dedicated pool of the object cluster, adds directory listing, and
offers both instant and timed I/O so pods can mount it as a volume.
"""

from __future__ import annotations

import posixpath
import typing as _t

from repro.errors import ObjectNotFoundError
from repro.sim import Event
from repro.storage.objects import CephCluster, ObjectRef

__all__ = ["CephFS"]


class CephFS:
    """A path-addressed view over the cluster's 3-way ``cephfs`` pool."""

    pool = "cephfs"

    def __init__(self, cluster: CephCluster):
        self.cluster = cluster
        if self.pool not in cluster.pools:
            cluster.create_pool(self.pool, replication=3)

    @staticmethod
    def _norm(path: str) -> str:
        normed = posixpath.normpath("/" + path.lstrip("/"))
        return normed

    # -- instant API (metadata / small control files) ---------------------------

    def write(self, path: str, size: float, payload: object = None) -> ObjectRef:
        """Write a file instantly (control-plane convenience)."""
        return self.cluster.put_sync(self.pool, self._norm(path), size, payload)

    def read(self, path: str) -> ObjectRef:
        """Read a file's metadata/payload instantly."""
        return self.cluster.get_sync(self.pool, self._norm(path))

    def exists(self, path: str) -> bool:
        return self.cluster.exists(self.pool, self._norm(path))

    def remove(self, path: str) -> None:
        self.cluster.delete(self.pool, self._norm(path))

    def listdir(self, path: str = "/") -> list[str]:
        """Immediate children (files and sub-directories) of a directory."""
        prefix = self._norm(path)
        if not prefix.endswith("/"):
            prefix += "/"
        children: set[str] = set()
        for key in self.cluster.list_keys(self.pool, prefix=prefix):
            rest = key[len(prefix):]
            children.add(rest.split("/", 1)[0])
        return sorted(children)

    # -- timed API (bulk data from inside pods) ----------------------------------

    def write_timed(
        self,
        path: str,
        size: float,
        payload: object = None,
        client_host: str | None = None,
    ) -> Event:
        """Write through the network/disk flow model; yields the ref."""
        return self.cluster.put(
            self.pool, self._norm(path), size, payload, client_host=client_host
        )

    def read_payload(self, path: str) -> object:
        """Payload of a file, raising if it was stored metadata-only."""
        ref = self.read(path)
        if ref.payload is None:
            raise ObjectNotFoundError(f"{path} has no in-memory payload")
        return ref.payload

    def __repr__(self) -> str:  # pragma: no cover
        n = len(self.cluster.list_keys(self.pool))
        return f"<CephFS pool={self.pool} files={n}>"
