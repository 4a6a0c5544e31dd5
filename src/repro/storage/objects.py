"""The Ceph-like cluster: pools, replicated objects, failure recovery.

Provides two data paths:

- a **synchronous metadata path** (``put_sync``/``get_sync``/...) used by
  control-plane code and tests, where only placement and accounting
  matter;
- a **timed path** (``put``/``get`` returning events) used inside
  simulated pods, where bytes traverse the client's NIC, the WAN, and the
  target OSDs' disks through the max-min flow engine — this is what gives
  the paper's Figure-4 storage IOPS/throughput curves.

Replication follows Ceph semantics: a write commits once all replicas
are durable; reads are served by the primary.  When an OSD dies the
cluster "replicates and dynamically distributes data between storage
nodes while monitoring their health" (§II-A): degraded objects are
re-replicated onto surviving OSDs by background recovery workers.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import (
    ConflictError,
    InsufficientReplicasError,
    NetworkError,
    ObjectNotFoundError,
    StorageError,
)
from repro.netsim.flows import CapacityResource, FlowSimulator
from repro.netsim.topology import Topology
from repro.sim import Environment, Event, Store
from repro.storage.crush import CrushMap
from repro.storage.osd import OSD

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.monitoring.metrics import Gauge

__all__ = ["ObjectRef", "Pool", "CephCluster"]


@dataclasses.dataclass
class ObjectRef:
    """Metadata (and optionally payload) of one stored object."""

    pool: str
    key: str
    size: float
    payload: object = None
    created: float = 0.0
    version: int = 1


@dataclasses.dataclass
class Pool:
    """A named replication domain (e.g. ``cephfs``, ``merra``)."""

    name: str
    replication: int = 3

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise StorageError("replication must be >= 1")


#: Parallel background re-replication streams.
RECOVERY_WORKERS = 4


class CephCluster:
    """A replicated object store over a set of OSDs.

    Parameters
    ----------
    env:
        Simulation environment.
    flowsim / topology:
        When both are given, timed ``put``/``get`` move bytes through the
        network and disks; otherwise only disk bandwidth limits apply.
    """

    def __init__(
        self,
        env: Environment,
        flowsim: FlowSimulator | None = None,
        topology: Topology | None = None,
    ):
        self.env = env
        self.flowsim = flowsim
        self.topology = topology
        #: placement policy: 128 PGs, replicas on distinct hosts
        self.crush = CrushMap()
        self.osds: dict[int, OSD] = {}
        self.pools: dict[str, Pool] = {}
        self._objects: dict[tuple[str, str], ObjectRef] = {}
        self._next_osd_id = 0
        self.lost_objects: list[tuple[str, str]] = []
        self.recovered_objects = 0
        self._recovery_queue: Store = Store(env)
        #: Scraped gauge of :meth:`total_used`, recorded wherever a
        #: replica is stored or dropped (``None``: not monitored).
        self.used_gauge: "Gauge | None" = None
        for i in range(RECOVERY_WORKERS):
            env.process(self._recovery_worker(), name=f"ceph-recovery-{i}")

    # ------------------------------------------------------------------- admin

    def add_osd(self, host: str, capacity: float, disk_Bps: float = 500e6) -> OSD:
        """Bring a new disk into the cluster."""
        osd = OSD(self._next_osd_id, host, capacity, disk_Bps)
        self._next_osd_id += 1
        self.osds[osd.id] = osd
        return osd

    def create_pool(self, name: str, replication: int = 3) -> Pool:
        if name in self.pools:
            raise ConflictError(f"pool {name!r} already exists")
        pool = Pool(name, replication)
        self.pools[name] = pool
        return pool

    def _pool(self, name: str) -> Pool:
        try:
            return self.pools[name]
        except KeyError:
            raise ObjectNotFoundError(f"no pool {name!r}") from None

    def up_osds(self) -> list[OSD]:
        return [self.osds[i] for i in sorted(self.osds) if self.osds[i].up]

    # ----------------------------------------------------------------- placement

    def placement(self, pool: str, key: str) -> list[OSD]:
        """The replica set CRUSH assigns to an object right now."""
        p = self._pool(pool)
        return self.crush.osds_for(pool, key, list(self.osds.values()), p.replication)

    def holders(self, pool: str, key: str) -> list[OSD]:
        """Up OSDs actually holding a replica (primary first by id)."""
        return [
            osd
            for osd in (self.osds[i] for i in sorted(self.osds))
            if osd.up and osd.holds(pool, key)
        ]

    # -------------------------------------------------------- synchronous path

    def put_sync(
        self, pool: str, key: str, size: float, payload: object = None
    ) -> ObjectRef:
        """Instantly store an object (metadata/accounting only)."""
        targets = self.placement(pool, key)
        return self._commit(pool, key, size, payload, targets)

    def get_sync(self, pool: str, key: str) -> ObjectRef:
        """Instantly fetch object metadata/payload."""
        ref = self._objects.get((pool, key))
        if ref is None:
            raise ObjectNotFoundError(f"{pool}/{key}")
        if not self.holders(pool, key):
            raise StorageError(f"{pool}/{key} is unavailable (no up replicas)")
        return ref

    def delete(self, pool: str, key: str) -> None:
        """Remove an object and free its replicas."""
        ref = self._objects.pop((pool, key), None)
        if ref is None:
            raise ObjectNotFoundError(f"{pool}/{key}")
        for osd in self.osds.values():
            osd.evict(pool, key)
        self._record_used()

    def exists(self, pool: str, key: str) -> bool:
        return (pool, key) in self._objects

    def stat(self, pool: str, key: str) -> ObjectRef:
        ref = self._objects.get((pool, key))
        if ref is None:
            raise ObjectNotFoundError(f"{pool}/{key}")
        return ref

    def list_keys(self, pool: str, prefix: str = "") -> list[str]:
        """Keys in a pool matching a prefix, sorted."""
        return sorted(
            key
            for (p, key) in self._objects
            if p == pool and key.startswith(prefix)
        )

    def _commit(
        self,
        pool: str,
        key: str,
        size: float,
        payload: object,
        targets: _t.Sequence[OSD],
    ) -> ObjectRef:
        previous = self._objects.get((pool, key))
        try:
            if previous is not None:
                for osd in self.osds.values():
                    osd.evict(pool, key)
            for osd in targets:
                osd.store(pool, key, size)
        finally:  # a full or down target leaves the replicas stored so far
            self._record_used()
        ref = ObjectRef(
            pool=pool,
            key=key,
            size=size,
            payload=payload,
            created=self.env.now,
            version=(previous.version + 1 if previous else 1),
        )
        self._objects[(pool, key)] = ref
        return ref

    # -------------------------------------------------------------- timed path

    def put(
        self,
        pool: str,
        key: str,
        size: float,
        payload: object = None,
        client_host: str | None = None,
    ) -> Event:
        """Store an object, taking simulated time.

        The write commits (event fires with the :class:`ObjectRef`) once
        every replica has been written through its network path and disk.
        """
        targets = self.placement(pool, key)
        done = self.env.event()

        def _writer():
            if self.flowsim is not None:
                try:  # every route first, so a missing one starts no flow
                    paths = [self._path_to(client_host, osd) for osd in targets]
                    yield self.env.all_of([
                        self.flowsim.transfer(
                            path, size, name=f"ceph-put:{pool}/{key}->osd.{osd.id}"
                        )
                        for path, osd in zip(paths, targets)
                    ])
                except NetworkError as exc:
                    # Fail the returned event: nobody may watch this process.
                    done.defuse()
                    done.fail(exc)
                    return
            ref = self._commit(pool, key, size, payload, targets)
            done.succeed(ref)
            return ref

        self.env.process(_writer(), name=f"ceph-put:{pool}/{key}")
        return done

    def get(
        self, pool: str, key: str, client_host: str | None = None
    ) -> Event:
        """Read an object, taking simulated time (served by the primary)."""
        ref = self.stat(pool, key)
        holders = self.holders(pool, key)
        if not holders:
            raise StorageError(f"{pool}/{key} is unavailable (no up replicas)")
        primary = holders[0]
        done = self.env.event()

        def _reader():
            if self.flowsim is not None:
                try:
                    yield self.flowsim.transfer(
                        self._path_to(client_host, primary),
                        ref.size,
                        name=f"ceph-get:{pool}/{key}<-osd.{primary.id}",
                    )
                except NetworkError as exc:
                    done.defuse()
                    done.fail(exc)
                    return
            else:  # pragma: no cover - flowsim always set in practice
                yield self.env.timeout(0)
            done.succeed(ref)

        self.env.process(_reader(), name=f"ceph-get:{pool}/{key}")
        return done

    def _path_to(self, client_host: str | None, osd: OSD) -> list[CapacityResource]:
        """Resources a data flow must cross: WAN path (if known) + disk."""
        resources: list[CapacityResource] = []
        if (
            self.topology is not None
            and client_host is not None
            and client_host != osd.host
        ):
            resources.extend(self.topology.path_resources(client_host, osd.host))
        resources.append(osd.disk)
        return resources

    # ------------------------------------------------------------ failure model

    def fail_osd(self, osd_id: int) -> None:
        """Kill a disk; its objects become degraded and recovery starts."""
        osd = self.osds[osd_id]
        if not osd.up:
            return
        osd.up = False
        for (pool, key) in list(osd.replicas):
            self._recovery_queue.put((pool, key))

    def _recovery_worker(self):
        while True:
            pool, key = yield self._recovery_queue.get()
            ref = self._objects.get((pool, key))
            if ref is None:
                continue  # deleted meanwhile
            holders = self.holders(pool, key)
            if not holders:
                self.lost_objects.append((pool, key))
                continue
            needed = self._pool(pool).replication - len(holders)
            if needed <= 0:
                continue
            try:
                candidates = [
                    osd
                    for osd in self.crush.osds_for(
                        pool, key, self.up_osds(), self._pool(pool).replication
                    )
                    if not osd.holds(pool, key)
                ]
            except InsufficientReplicasError:
                candidates = [
                    osd for osd in self.up_osds() if not osd.holds(pool, key)
                ]
            source = holders[0]
            for target in candidates[:needed]:
                resources = [source.disk]
                if self.topology is not None and source.host != target.host:
                    resources.extend(
                        self.topology.path_resources(source.host, target.host)
                    )
                resources.append(target.disk)
                if self.flowsim is not None:
                    yield self.flowsim.transfer(
                        resources, ref.size, name=f"ceph-recover:{pool}/{key}"
                    )
                target.store(pool, key, ref.size)
                self._record_used()
                self.recovered_objects += 1

    # ----------------------------------------------------------------- health

    def degraded_objects(self) -> int:
        """Objects with fewer up replicas than their pool requires."""
        count = 0
        for (pool, key) in self._objects:
            if len(self.holders(pool, key)) < self._pool(pool).replication:
                count += 1
        return count

    def health(self) -> dict[str, object]:
        """The ``ceph status`` analog."""
        degraded = self.degraded_objects()
        down = sum(1 for osd in self.osds.values() if not osd.up)
        if self.lost_objects:
            status = "HEALTH_ERR"
        elif degraded or down:
            status = "HEALTH_WARN"
        else:
            status = "HEALTH_OK"
        return {
            "status": status,
            "osds": len(self.osds),
            "osds_up": len(self.osds) - down,
            "objects": len(self._objects),
            "degraded_objects": degraded,
            "lost_objects": len(self.lost_objects),
            "capacity_bytes": self.total_capacity(),
            "used_bytes": self.total_used(),
        }

    def total_capacity(self) -> float:
        return sum(osd.capacity for osd in self.osds.values())

    def total_used(self) -> float:
        return sum(osd.used for osd in self.osds.values())

    def _record_used(self) -> None:
        if self.used_gauge is not None:
            self.used_gauge.set(self.total_used())

    def __repr__(self) -> str:  # pragma: no cover
        h = self.health()
        return (
            f"<CephCluster {h['status']} osds={h['osds_up']}/{h['osds']} "
            f"objects={h['objects']}>"
        )
