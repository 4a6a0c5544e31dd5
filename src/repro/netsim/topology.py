"""PRP topology: sites, links, hosts, shortest-path routing."""

from __future__ import annotations

import dataclasses
import typing as _t

import networkx as nx

from repro.errors import NetworkError, NoRouteError
from repro.netsim.flows import CapacityResource

__all__ = ["Site", "Link", "Topology", "build_prp_topology", "gbps_to_Bps"]


def gbps_to_Bps(gbps: float) -> float:
    """Gigabits/s → bytes/s (decimal, as NICs are rated)."""
    return gbps * 1e9 / 8.0


@dataclasses.dataclass(frozen=True)
class Site:
    """A PRP partner institution hosting DTNs and/or compute."""

    name: str
    tier: str = "partner"  # "core" for supercomputer centers, else "partner"


@dataclasses.dataclass
class Link:
    """A WAN/LAN link between two sites, with a capacity resource attached."""

    a: str
    b: str
    gbps: float
    latency_s: float = 0.002
    up: bool = True
    resource: CapacityResource = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        if self.gbps <= 0:
            raise NetworkError(f"link {self.a}-{self.b} needs positive capacity")
        self.resource = CapacityResource(
            name=f"link:{self.a}<->{self.b}", capacity=gbps_to_Bps(self.gbps)
        )

    @property
    def key(self) -> frozenset:
        return frozenset((self.a, self.b))

    def set_capacity(self, gbps: float) -> None:
        """Re-rate the link in place (fault injection: degradation)."""
        if gbps <= 0:
            raise NetworkError(f"link {self.a}-{self.b} needs positive capacity")
        self.gbps = float(gbps)
        self.resource.set_capacity(gbps_to_Bps(gbps))


class Topology:
    """Sites + links + attached hosts, with shortest-path routing.

    Hosts (FIONAs, storage nodes, external archives) attach to a site
    through an access link sized to their NIC. Routes between hosts
    traverse ``host NIC → site … site → host NIC`` and accumulate every
    link's capacity resource, so a transfer is limited by the tightest of
    NIC, access, and WAN hops — exactly the Science-DMZ behaviour of
    "simple, scalable networks" the paper builds on.
    """

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self.sites: dict[str, Site] = {}
        self.links: dict[frozenset, Link] = {}
        self.hosts: dict[str, str] = {}  # host -> site
        #: (src, dst) -> route; every graph mutation clears it
        self._routes: dict[tuple[str, str], tuple[Link, ...]] = {}

    # -- construction ----------------------------------------------------------

    def add_site(self, name: str, tier: str = "partner") -> Site:
        if name in self.sites:
            raise NetworkError(f"site {name!r} already exists")
        site = Site(name, tier)
        self.sites[name] = site
        self._graph.add_node(name, kind="site")
        self._routes.clear()
        return site

    def add_link(
        self, a: str, b: str, gbps: float, latency_s: float = 0.002
    ) -> Link:
        """Connect two sites with a WAN link."""
        for end in (a, b):
            if end not in self.sites:
                raise NetworkError(f"unknown site {end!r}")
        link = Link(a, b, gbps, latency_s)
        if link.key in self.links:
            raise NetworkError(f"duplicate link {a}<->{b}")
        self.links[link.key] = link
        self._graph.add_edge(a, b, link=link, weight=latency_s)
        self._routes.clear()
        return link

    def attach_host(self, hostname: str, site: str, nic_gbps: float = 10.0) -> None:
        """Attach a machine to a site through a NIC-limited access link."""
        if site not in self.sites:
            raise NetworkError(f"unknown site {site!r}")
        if hostname in self.hosts:
            raise NetworkError(f"host {hostname!r} already attached")
        self.hosts[hostname] = site
        self._graph.add_node(hostname, kind="host")
        link = Link(hostname, site, nic_gbps, latency_s=0.0001)
        self.links[link.key] = link
        self._graph.add_edge(hostname, site, link=link, weight=0.0001)
        self._routes.clear()

    # -- queries -----------------------------------------------------------------

    def get_link(self, a: str, b: str) -> Link:
        """The link between two endpoints (sites or host/site)."""
        link = self.links.get(frozenset((a, b)))
        if link is None:
            raise NetworkError(f"no link {a}<->{b}")
        return link

    def fail_link(self, a: str, b: str) -> None:
        """Take a link down; routing immediately converges around it.

        The link's capacity resource is marked ``blocked``, so in-flight
        flows crossing it stall at rate zero (and resume on restore) —
        every new route avoids the failed link.  Callers driving a live
        :class:`~repro.netsim.flows.FlowSimulator` should follow up with
        ``flowsim.recompute()`` so stalls take effect mid-flow.
        """
        link = self.get_link(a, b)
        if not link.up:
            return
        link.up = False
        link.resource.blocked = True
        self._graph.remove_edge(a, b)
        self._routes.clear()

    def restore_link(self, a: str, b: str) -> None:
        """Bring a failed link back into the routing graph."""
        link = self.get_link(a, b)
        if link.up:
            return
        link.up = True
        link.resource.blocked = False
        self._graph.add_edge(a, b, link=link, weight=link.latency_s)
        self._routes.clear()

    def reachable(self, src: str, dst: str) -> bool:
        """True when a route currently exists between two endpoints."""
        try:
            self.route(src, dst)
        except NoRouteError:
            return False
        return True

    def wan_links(self) -> list[Link]:
        """Site-to-site links (excludes host access links), stable order."""
        return sorted(
            (
                link
                for link in self.links.values()
                if link.a in self.sites and link.b in self.sites
            ),
            key=lambda link: (link.a, link.b),
        )

    def route(self, src: str, dst: str) -> list[Link]:
        """Latency-shortest path between two hosts or sites (up links only).

        Routes are memoised until the graph next changes; each call
        returns a fresh list.
        """
        if src == dst:
            return []
        cached = self._routes.get((src, dst))
        if cached is None:
            try:
                nodes = nx.shortest_path(self._graph, src, dst, weight="weight")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                raise NoRouteError(f"no route {src!r} -> {dst!r}") from None
            cached = self._routes[(src, dst)] = tuple(
                self.links[frozenset((u, v))] for u, v in zip(nodes, nodes[1:])
            )
        return list(cached)

    def path_resources(self, src: str, dst: str) -> list[CapacityResource]:
        """Capacity resources along the route (what a flow must share)."""
        return [link.resource for link in self.route(src, dst)]

    def path_latency(self, src: str, dst: str) -> float:
        return sum(link.latency_s for link in self.route(src, dst))

    def summary(self) -> dict[str, object]:
        """Inventory for the Figure-1 report."""
        return {
            "sites": len(self.sites),
            "core_sites": sum(1 for s in self.sites.values() if s.tier == "core"),
            "hosts": len(self.hosts),
            "wan_links": sum(
                1
                for link in self.links.values()
                if link.a in self.sites and link.b in self.sites
            ),
            "link_speeds_gbps": sorted(
                {
                    link.gbps
                    for link in self.links.values()
                    if link.a in self.sites and link.b in self.sites
                }
            ),
        }


#: The PRP partnership: "more than 20 institutions, including four
#: NSF/DOE/NASA supercomputer centers" (§II), on CENIC's optical backbone.
PRP_SITES: tuple[tuple[str, str], ...] = (
    ("UCSD", "core"),  # San Diego Supercomputer Center
    ("SDSC", "core"),
    ("NERSC", "core"),
    ("NCAR", "core"),
    ("UCI", "partner"),
    ("UCLA", "partner"),
    ("UCR", "partner"),
    ("UCSB", "partner"),
    ("UCSC", "partner"),
    ("UCD", "partner"),
    ("UCM", "partner"),  # UC Merced (the paper's VR demo far end)
    ("Stanford", "partner"),
    ("Caltech", "partner"),
    ("USC", "partner"),
    ("UW", "partner"),
    ("UHM", "partner"),  # University of Hawaii
    ("UIC", "partner"),
    ("Northwestern", "partner"),
    ("UvA", "partner"),  # transoceanic partner
    ("KISTI", "partner"),
    ("ESnet", "core"),
)


#: Link tiers of the PRP: "10G, 40G and 100G networks" (§II).
CORE_GBPS = 100.0
REGIONAL_GBPS = 40.0
ACCESS_GBPS = 10.0


def build_prp_topology() -> Topology:
    """Build the PRP backbone: a CENIC-like core ring at 100G, regional
    spurs at 40G, and remaining partners at 10G — "10G, 40G and 100G
    networks" (§II)."""
    topo = Topology()
    for name, tier in PRP_SITES:
        topo.add_site(name, tier)

    # 100G core ring among supercomputer centers + major hubs.
    core_ring = ["UCSD", "SDSC", "Caltech", "Stanford", "NERSC", "ESnet", "NCAR"]
    for a, b in zip(core_ring, core_ring[1:] + core_ring[:1]):
        topo.add_link(a, b, CORE_GBPS, latency_s=0.004)

    # 40G regional spurs into the nearest hub.
    regional = {
        "UCI": "UCSD",
        "UCLA": "Caltech",
        "UCR": "UCSD",
        "UCSB": "Caltech",
        "UCSC": "Stanford",
        "UCD": "NERSC",
        "UCM": "NERSC",
        "USC": "Caltech",
    }
    for spur, hub in regional.items():
        topo.add_link(spur, hub, REGIONAL_GBPS, latency_s=0.003)

    # 10G long-haul partners.
    longhaul = {
        "UW": ("NERSC", 0.012),
        "UHM": ("UCSD", 0.045),
        "UIC": ("NCAR", 0.014),
        "Northwestern": ("NCAR", 0.015),
        "UvA": ("ESnet", 0.075),
        "KISTI": ("UW", 0.065),
    }
    for spur, (hub, lat) in longhaul.items():
        topo.add_link(spur, hub, ACCESS_GBPS, latency_s=lat)

    return topo
