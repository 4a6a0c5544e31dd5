"""CRUSH-style deterministic data placement.

Ceph's CRUSH algorithm maps placement groups to OSDs pseudo-randomly,
weighted by device size, while separating replicas across failure domains
— with no central lookup table.  We reproduce those properties with
weighted rendezvous (highest-random-weight) hashing:

- **Deterministic**: placement depends only on (pg, OSD id, weight).
- **Weighted**: an OSD with twice the weight receives ~twice the data.
- **Minimal reshuffling**: removing one OSD only moves the data that
  lived on it.
- **Failure-domain aware**: replicas land on distinct hosts when enough
  hosts exist.
"""

from __future__ import annotations

import hashlib
import math
import typing as _t

from repro.errors import InsufficientReplicasError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.storage.osd import OSD

__all__ = ["hrw_score", "place", "CrushMap"]


def hrw_score(pg: int, osd_id: int) -> float:
    """Highest-random-weight score for (placement group, OSD).

    Uniform in (0, 1], derived from a stable BLAKE2 hash.
    """
    h = hashlib.blake2b(f"{pg}:{osd_id}".encode(), digest_size=8)
    raw = int.from_bytes(h.digest(), "big")
    return (raw + 1) / float(2**64)


def place(
    pg: int,
    osds: _t.Sequence["OSD"],
    replicas: int,
) -> list["OSD"]:
    """Choose ``replicas`` OSDs for a placement group.

    Uses weighted rendezvous hashing (``-weight / ln(score)`` keys, the
    standard weighted-HRW construction) and takes at most one replica
    per host while distinct hosts remain.

    Raises
    ------
    InsufficientReplicasError
        If fewer than ``replicas`` up OSDs exist.
    """
    candidates = [osd for osd in osds if osd.up]
    if len(candidates) < replicas:
        raise InsufficientReplicasError(
            f"need {replicas} up OSDs, have {len(candidates)}"
        )
    # Weighted-HRW key is -weight/ln(score) (larger is better); sorting by
    # weight/ln(score) ascending puts the best candidates first because
    # ln(score) is negative on (0, 1].
    scored = sorted(
        candidates,
        key=lambda osd: (osd.weight / math.log(hrw_score(pg, osd.id)), osd.id),
    )
    chosen: list["OSD"] = []
    used_hosts: set[str] = set()
    for osd in scored:
        if osd.host not in used_hosts:
            chosen.append(osd)
            used_hosts.add(osd.host)
            if len(chosen) == replicas:
                return chosen
    # Not enough distinct hosts: fill remaining slots with the best
    # unchosen OSDs regardless of host.
    for osd in scored:
        if osd not in chosen:
            chosen.append(osd)
            if len(chosen) == replicas:
                return chosen
    raise InsufficientReplicasError(  # pragma: no cover - guarded above
        f"could not place {replicas} replicas"
    )


class CrushMap:
    """Placement policy for a cluster: pg count + replica placement."""

    def __init__(self, pg_num: int = 128):
        if pg_num < 1:
            raise ValueError("pg_num must be >= 1")
        self.pg_num = pg_num

    def pg_of(self, pool: str, key: str) -> int:
        """Hash an object key into a placement group."""
        h = hashlib.blake2b(f"{pool}/{key}".encode(), digest_size=4)
        return int.from_bytes(h.digest(), "big") % self.pg_num

    def osds_for(
        self, pool: str, key: str, osds: _t.Sequence["OSD"], replicas: int
    ) -> list["OSD"]:
        """Replica set for an object (primary first)."""
        pg = self.pg_of(pool, key)
        return place(pg, osds, replicas)
