"""Failure injection for the dynamic-infrastructure story.

Paper §V: "The CHASE-CI infrastructure is very dynamic in the fact that
nodes can join and leave the cluster at any time."  The chaos monkey
makes that dynamism reproducible: a seeded process that fails random
nodes (and optionally OSDs, WAN links, and whole sites) on a schedule
and brings nodes, links and sites back after ``recovery_after``, so
tests and ablations can assert workflow-level invariants (completion,
exactly-once work) under sustained churn.  A failed OSD never comes
back: Ceph re-replicates its objects onto the OSDs still up instead.

Fault domains (enabled independently):

- **nodes** (always on) — kubelet death; pods reschedule elsewhere.
- **OSDs** (``include_osds``) — a disk fails for good; Ceph
  re-replicates its objects.
- **links** (``include_links``) — a WAN link degrades to a fraction of
  its rating; in-flight transfers slow down but survive.
- **partitions** (``include_partitions``) — a whole site drops off the
  backbone; everything behind it stalls until the partition heals.

Safety rails: the monkey never takes out the last Ready node, and never
targets a node hosting the **only** running replica of a single-replica
ReplicaSet (killing it would be guaranteed — not probabilistic —
unavailability, which says nothing about self-healing).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.pod import PodPhase
from repro.netsim.faults import NetworkFaultInjector
from repro.sim.rng import derive_seed

import numpy as np

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.testbed import NautilusTestbed

__all__ = ["ChaosEvent", "ChaosMonkey"]

#: Capacity factors a degraded link is throttled to (chosen uniformly).
_DEGRADE_FACTORS = (0.5, 0.25, 0.1)


@dataclasses.dataclass(frozen=True)
class ChaosEvent:
    """One injected failure or recovery.

    ``kind`` is one of ``node-fail``, ``node-recover``, ``osd-fail``,
    ``link-degrade``, ``link-restore``, ``partition``,
    ``partition-heal`` (no ``osd-recover``: a failed OSD stays down);
    ``reason`` records *why* this target was chosen (busy-node
    targeting, random draw, ...) so post-mortems of a chaos run don't
    have to reverse-engineer the monkey's decisions.
    """

    time: float
    kind: str
    target: str
    reason: str = ""


class ChaosMonkey:
    """Seeded periodic failure injection across fault domains.

    Parameters
    ----------
    testbed:
        The deployment to torment.
    mean_interval:
        Mean seconds between failure injections (exponential).
    recovery_after:
        Seconds a failed node / degraded link / partitioned site stays
        down before healing.
    include_osds:
        Also fail storage daemons (Ceph recovery must then re-replicate).
    include_links:
        Also degrade WAN links (transfers crawl; retries and timeouts
        must absorb the slowdown).
    include_partitions:
        Also partition whole sites off the backbone (at most one active
        at a time; heals after ``recovery_after``).
    max_failures:
        Stop after this many injections (None = unbounded).
    """

    def __init__(
        self,
        testbed: "NautilusTestbed",
        mean_interval: float = 300.0,
        recovery_after: float = 120.0,
        include_osds: bool = False,
        include_links: bool = False,
        include_partitions: bool = False,
        max_failures: int | None = None,
        seed: int = 0,
    ):
        if mean_interval <= 0 or recovery_after < 0:
            raise ValueError("intervals must be positive")
        self.testbed = testbed
        self.mean_interval = mean_interval
        self.recovery_after = recovery_after
        self.include_osds = include_osds
        self.include_links = include_links
        self.include_partitions = include_partitions
        self.max_failures = max_failures
        self.rng = np.random.default_rng(derive_seed(seed, "chaos"))
        self.events: list[ChaosEvent] = []
        self.netfaults = NetworkFaultInjector(
            testbed.topology,
            flowsim=testbed.flowsim,
            env=testbed.env,
            registry=testbed.registry,
        )
        self._stopped = False
        self._partition_active = False
        testbed.env.process(self._loop(), name="chaos-monkey")

    def stop(self) -> None:
        """No further injections (pending recoveries still happen)."""
        self._stopped = True

    @property
    def failures_injected(self) -> int:
        return sum(
            1
            for e in self.events
            if e.kind in ("node-fail", "osd-fail", "link-degrade", "partition")
        )

    # -- internals ------------------------------------------------------------------

    def _count(self, metric: str, labels: dict | None = None) -> None:
        self.testbed.registry.inc_counter(metric, 1.0, labels)

    def _protected_nodes(self) -> set[str]:
        """Nodes hosting the only running replica of a 1-replica ReplicaSet."""
        protected: set[str] = set()
        for rs in self.testbed.cluster.replicasets.values():
            if rs.spec.replicas != 1:
                continue
            running = [
                p
                for p in rs.replicas.values()
                if p.phase is PodPhase.RUNNING and p.node_name
            ]
            if len(running) == 1:
                protected.add(_t.cast(str, running[0].node_name))
        return protected

    def _pick_node(self) -> tuple[str, str] | None:
        """Choose a victim node; returns ``(name, reason)`` or None."""
        cluster = self.testbed.cluster
        ready = cluster.ready_nodes()
        if len(ready) <= 1:
            return None  # never take the last node out
        protected = self._protected_nodes()
        ready = [n for n in ready if n.spec.name not in protected]
        if not ready:
            return None  # every candidate holds a last replica
        # Prefer nodes with running pods: that maximizes the blast radius
        # the self-healing machinery must absorb.
        reason = "random ready node"
        busy = [
            n for n in ready
            if any(p.phase is PodPhase.RUNNING for p in n.pods.values())
        ]
        if busy:
            ready = busy
            reason = "busy node (running pods)"
        name = ready[int(self.rng.integers(0, len(ready)))].spec.name
        if protected:
            reason += f"; spared last-replica hosts {sorted(protected)}"
        return name, reason

    def _enabled_kinds(self) -> list[str]:
        kinds = ["node"]
        if self.include_osds:
            kinds.append("osd")
        if self.include_links:
            kinds.append("link")
        if self.include_partitions:
            kinds.append("partition")
        return kinds

    def _loop(self):
        env = self.testbed.env
        while not self._stopped:
            yield env.timeout(float(self.rng.exponential(self.mean_interval)))
            if self._stopped:
                return
            if (
                self.max_failures is not None
                and self.failures_injected >= self.max_failures
            ):
                return
            kinds = self._enabled_kinds()
            kind = kinds[int(self.rng.integers(0, len(kinds)))]
            if kind == "osd":
                self._inject_osd()
            elif kind == "link":
                self._inject_link()
            elif kind == "partition":
                self._inject_partition()
            else:
                self._inject_node()

    # -- per-domain injections --------------------------------------------------

    def _inject_node(self) -> None:
        env = self.testbed.env
        picked = self._pick_node()
        if picked is None:
            return
        name, reason = picked
        self.testbed.cluster.fail_node(name)
        self.events.append(ChaosEvent(env.now, "node-fail", name, reason))
        self._count("chaos_node_failures_total", {"node": name})
        env.process(self._recover_node_later(name), name=f"chaos-heal:{name}")

    def _inject_osd(self) -> None:
        env = self.testbed.env
        up = [o for o in self.testbed.ceph.osds.values() if o.up]
        if len(up) <= 3:
            return
        victim = up[int(self.rng.integers(0, len(up)))]
        self.testbed.ceph.fail_osd(victim.id)
        self.events.append(
            ChaosEvent(
                env.now,
                "osd-fail",
                f"osd.{victim.id}",
                f"random up OSD of {len(up)}",
            )
        )
        self._count("chaos_osd_failures_total", {"osd": f"osd.{victim.id}"})

    def _inject_link(self) -> None:
        env = self.testbed.env
        candidates = [
            link
            for link in self.testbed.topology.wan_links()
            if link.up and link.key not in self.netfaults._degraded
        ]
        if not candidates:
            return
        link = candidates[int(self.rng.integers(0, len(candidates)))]
        factor = float(
            _DEGRADE_FACTORS[int(self.rng.integers(0, len(_DEGRADE_FACTORS)))]
        )
        self.netfaults.degrade_link(link.a, link.b, factor)
        target = f"{link.a}-{link.b}"
        self.events.append(
            ChaosEvent(
                env.now,
                "link-degrade",
                target,
                f"WAN link throttled to {factor:g}x of rating",
            )
        )
        env.process(
            self._restore_link_later(link.a, link.b),
            name=f"chaos-heal-link:{target}",
        )

    def _inject_partition(self) -> None:
        env = self.testbed.env
        if self._partition_active:
            return  # one partition at a time
        # Only sites with attached hosts are interesting to isolate.
        sites = sorted({site for site in self.testbed.topology.hosts.values()})
        if len(sites) <= 1:
            return
        site = sites[int(self.rng.integers(0, len(sites)))]
        cut = self.netfaults.partition([site])
        if not cut:
            return
        self._partition_active = True
        self.events.append(
            ChaosEvent(
                env.now,
                "partition",
                site,
                f"site isolated ({len(cut)} links cut)",
            )
        )
        env.process(
            self._heal_partition_later(site, cut),
            name=f"chaos-heal-partition:{site}",
        )

    # -- recoveries ---------------------------------------------------------------

    def _recover_node_later(self, name: str):
        env = self.testbed.env
        yield env.timeout(self.recovery_after)
        self.testbed.cluster.recover_node(name)
        self.events.append(
            ChaosEvent(env.now, "node-recover", name, "scheduled recovery")
        )

    def _restore_link_later(self, a: str, b: str):
        env = self.testbed.env
        yield env.timeout(self.recovery_after)
        self.netfaults.restore_link(a, b)
        self.events.append(
            ChaosEvent(env.now, "link-restore", f"{a}-{b}", "scheduled recovery")
        )

    def _heal_partition_later(self, site: str, cut):
        env = self.testbed.env
        yield env.timeout(self.recovery_after)
        self.netfaults.heal_partition(cut)
        self._partition_active = False
        self.events.append(
            ChaosEvent(env.now, "partition-heal", site, "scheduled recovery")
        )
