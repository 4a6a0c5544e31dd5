"""Network fault injection: partitions and link degradation.

Real Nautilus outages are rarely clean node deaths: PRP links fail or
degrade, and whole sites drop off the backbone.
:class:`NetworkFaultInjector` produces those partial failures on a live
:class:`Topology` / :class:`FlowSimulator` pair, deterministically and
reversibly:

- ``degrade_link`` / ``restore_link`` — scale a link's capacity by a
  factor; stacking degrades compose against the *original* rating, so
  restore is exact.
- ``partition`` / ``heal_partition`` — cut every link crossing a site
  group's boundary, isolating those sites (and their attached hosts)
  from the rest of the PRP; in-flight flows across a cut link stall at
  rate zero (``CapacityResource.blocked``) and resume on heal.

Every mutation pokes the flow engine so rates re-converge at the current
simulation instant.  ``schedule`` runs a fault on the simulation clock,
and all randomness (none internally — callers pass an ``rng``) stays
seeded, so fault schedules are byte-for-byte reproducible.
"""

from __future__ import annotations

import typing as _t

from repro.errors import NetworkError
from repro.netsim.flows import FlowSimulator
from repro.netsim.topology import Link, Topology

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.monitoring.metrics import MetricRegistry
    from repro.sim import Environment, Process

__all__ = ["NetworkFaultInjector"]


class NetworkFaultInjector:
    """Injects partial network failures into a topology.

    Parameters
    ----------
    topology:
        The graph to mutate.
    flowsim:
        Optional flow engine; poked after every mutation so in-flight
        transfers feel capacity changes immediately.
    env:
        Optional simulation environment, required only for
        ``schedule``.
    registry:
        Optional metric registry; fault counters
        (``link_degradations_total``, ``network_partitions_total``) are
        exported when present.
    """

    def __init__(
        self,
        topology: Topology,
        flowsim: FlowSimulator | None = None,
        env: "Environment | None" = None,
        registry: "MetricRegistry | None" = None,
    ):
        self.topology = topology
        self.flowsim = flowsim
        self.env = env
        self.registry = registry
        #: link key -> original gbps, for exact restore of degrades.
        self._degraded: dict[frozenset, float] = {}
        #: stack of cut-link lists, one per active partition.
        self._partitions: list[list[tuple[str, str]]] = []

    # -- plumbing -------------------------------------------------------------

    def _poke(self) -> None:
        if self.flowsim is not None:
            self.flowsim.recompute()

    def _count(self, metric: str, **labels: str) -> None:
        if self.registry is not None:
            self.registry.inc_counter(metric, 1.0, labels or None)

    def _require_env(self) -> "Environment":
        if self.env is None:
            raise NetworkError(
                "this fault injector was built without an environment; "
                "pass env= to schedule faults on the simulation clock"
            )
        return self.env

    # -- link degradation -----------------------------------------------------

    def degrade_link(self, a: str, b: str, factor: float) -> Link:
        """Scale a link to ``factor`` of its *original* capacity.

        Repeated degrades don't compound: the factor is always relative
        to the rating the link had before the first degrade.
        """
        if not 0.0 < factor <= 1.0:
            raise NetworkError(f"degrade factor must be in (0, 1], got {factor}")
        link = self.topology.get_link(a, b)
        original = self._degraded.setdefault(link.key, link.gbps)
        link.set_capacity(original * factor)
        self._poke()
        self._count("link_degradations_total", link=f"{link.a}-{link.b}")
        return link

    def restore_link(self, a: str, b: str) -> None:
        """Undo a degrade, returning the link to its original rating."""
        link = self.topology.get_link(a, b)
        original = self._degraded.pop(link.key, None)
        if original is None:
            return
        link.set_capacity(original)
        self._poke()

    # -- partitions -----------------------------------------------------------

    def _side_of(self, endpoint: str, group: frozenset) -> bool:
        """Whether an endpoint (site or host) falls inside the group."""
        site = self.topology.hosts.get(endpoint, endpoint)
        return site in group

    def partition(self, sites: _t.Iterable[str]) -> list[tuple[str, str]]:
        """Isolate a group of sites (hosts follow their site).

        Cuts every up link with exactly one endpoint inside the group
        and returns the cut set (most recent partition is healed first
        by :meth:`heal_partition`).
        """
        group = frozenset(sites)
        for site in group:
            if site not in self.topology.sites:
                raise NetworkError(f"unknown site {site!r}")
        cut: list[tuple[str, str]] = []
        for link in sorted(
            self.topology.links.values(), key=lambda l: sorted(l.key)
        ):
            if not link.up:
                continue
            if self._side_of(link.a, group) != self._side_of(link.b, group):
                self.topology.fail_link(link.a, link.b)
                cut.append((link.a, link.b))
        self._partitions.append(cut)
        self._poke()
        self._count(
            "network_partitions_total", sites=",".join(sorted(group))
        )
        return list(cut)

    def heal_partition(
        self, cut: _t.Sequence[tuple[str, str]] | None = None
    ) -> None:
        """Restore a partition's cut links (most recent when ``cut=None``)."""
        if cut is None:
            if not self._partitions:
                return
            cut = self._partitions.pop()
        else:
            cut = list(cut)
            if cut in self._partitions:
                self._partitions.remove(cut)
        for a, b in cut:
            self.topology.restore_link(a, b)
        self._poke()

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        delay_s: float,
        action: _t.Callable[..., object],
        *args: object,
        **kwargs: object,
    ) -> "Process":
        """Run ``action(*args, **kwargs)`` after ``delay_s`` sim-seconds."""
        env = self._require_env()

        def _delayed():
            yield env.timeout(delay_s)
            action(*args, **kwargs)

        name = getattr(action, "__name__", "action")
        return env.process(_delayed(), name=f"fault:scheduled:{name}")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<NetworkFaultInjector degraded={len(self._degraded)} "
            f"partitions={len(self._partitions)}>"
        )
