"""The Nautilus testbed: every substrate wired together.

One :func:`build_nautilus_testbed` call assembles the full CHASE-CI stack
of the paper's Figure 1: the PRP topology with FIONA8 GPU nodes and
storage hosts at partner sites, the Kubernetes-like cluster over those
machines, the Rook/Ceph object store (>1 PB at full scale), the THREDDS
archive server, the flow-level network, and the Prometheus/Grafana
monitoring loop.

Scale model
-----------
``scale`` multiplies the *data* volumes (archive file count, hence bytes)
while the infrastructure stays paper-shaped, so a laptop can run the
whole workflow end-to-end in simulated minutes at ``scale=0.01`` and the
benchmarks can run byte-exact at ``scale=1.0``.  The ML components always
run for real on a laptop-sized synthetic grid (``ML_GRID``);
paper-scale ML *timing* comes from the calibrated GPU performance model.

Calibration note: the THREDDS server attaches at 1 GbE.  The paper's
step 1 moves 246 GB in 37 minutes (≈111 MB/s sustained), which is a
1-gigabit-class egress, not the 10G DTN fabric — the archive server, not
the PRP, is the bottleneck, which is also why variable subsetting
"greatly increases the speed at which data is transferred".
"""

from __future__ import annotations

import dataclasses

from repro.cluster import Cluster
from repro.cluster.node import fiona8_node_spec, fiona_node_spec
from repro.data.catalog import PAPER_FILE_COUNT, MerraArchive
from repro.data.merra import ML_GRID, GridSpec, MerraGenerator
from repro.ml.perfmodel import GTX1080TI, GPUPerfModel
from repro.monitoring.metrics import MetricRegistry
from repro.monitoring.sampler import Sampler
from repro.netsim import FlowSimulator, Topology, build_prp_topology
from repro.sim import Environment, SeededRNG
from repro.storage import CephCluster, CephFS
from repro.tracing import Tracer
from repro.transfer import ThreddsServer, TransientFaultInjector

__all__ = ["NautilusTestbed", "build_nautilus_testbed"]

#: Sites that host FIONA8 GPU nodes (round-robin assignment).
_GPU_SITES = ("UCSD", "UCI", "Stanford", "Caltech")
#: Sites that host Ceph storage machines.
_STORAGE_SITES = ("UCSD", "SDSC", "UCI")
#: The Ceph layout: 6 hosts x 4 OSDs x 50 TB = 1.2 PB, "over a petabyte
#: of storage" (§II), each OSD disk streaming 200 MB/s.
N_STORAGE_HOSTS = 6
OSDS_PER_HOST = 4
OSD_CAPACITY = 50e12
OSD_DISK_BPS = 200e6
#: Archive-server egress (see the module calibration note).
THREDDS_NIC_GBPS = 1.0


@dataclasses.dataclass
class NautilusTestbed:
    """Handle to every live subsystem of one simulated deployment."""

    env: Environment
    rng: SeededRNG
    topology: Topology
    flowsim: FlowSimulator
    cluster: Cluster
    ceph: CephCluster
    cephfs: CephFS
    registry: MetricRegistry
    sampler: Sampler
    tracer: Tracer
    archive: MerraArchive
    thredds: ThreddsServer
    perf: GPUPerfModel
    scale: float
    ml_grid: GridSpec
    seed: int

    def merra_generator(self) -> MerraGenerator:
        """A generator for laptop-scale synthetic MERRA data."""
        return MerraGenerator(self.ml_grid, seed=self.seed)

    @property
    def gpu_nodes(self) -> list[str]:
        return [
            n.spec.name
            for n in self.cluster.ready_nodes()
            if n.spec.gpus > 0
        ]

    def total_gpus(self) -> int:
        return int(self.cluster.total_capacity()["gpu"])

    def network_faults(self) -> "NetworkFaultInjector":
        """A fault injector bound to this testbed's network and metrics."""
        from repro.netsim import NetworkFaultInjector

        return NetworkFaultInjector(
            self.topology,
            flowsim=self.flowsim,
            env=self.env,
            registry=self.registry,
        )

    def enable_node_leases(
        self, interval_s: float = 15.0, grace_periods: int = 3
    ) -> None:
        """Turn on node heartbeats backed by live topology reachability.

        A node's heartbeat reaches the control plane (UCSD) only while a
        network route exists, so partitioning a site makes its nodes go
        NotReady after ``grace_periods`` missed beats — the same
        fail/reschedule path as a crashed node — and rejoin when the
        partition heals.  Hosts unknown to the topology are treated as
        reachable (their heartbeats don't traverse the modelled WAN).
        """

        def _reachable(name: str) -> bool:
            if name not in self.topology.hosts:
                return True
            return self.topology.reachable(name, "UCSD")

        self.cluster.enable_node_leases(
            _reachable, interval_s=interval_s, grace_periods=grace_periods
        )

    def figure1_summary(self) -> dict[str, object]:
        """The Figure-1 inventory: sites, nodes, GPUs, storage."""
        net = self.topology.summary()
        health = self.ceph.health()
        return {
            "prp_sites": net["sites"],
            "core_sites": net["core_sites"],
            "wan_link_speeds_gbps": net["link_speeds_gbps"],
            "cluster_nodes": len(self.cluster.nodes),
            "fiona8_nodes": len(self.gpu_nodes),
            "gpus": self.total_gpus(),
            "storage_capacity_bytes": health["capacity_bytes"],
            "storage_petabytes": health["capacity_bytes"] / 1e15,
            "osds": health["osds"],
            "archive_files": len(self.archive),
            "archive_bytes_full": self.archive.total_full_bytes,
            "archive_bytes_subset": self.archive.total_subset_bytes,
        }


def build_nautilus_testbed(
    seed: int = 42,
    scale: float = 0.01,
    n_fiona8: int = 8,
    n_dtn: int = 4,
    sampler_interval: float = 15.0,
    transfer_faults: TransientFaultInjector | None = None,
) -> NautilusTestbed:
    """Assemble a Nautilus deployment.

    Parameters
    ----------
    seed:
        Root seed for every stochastic component.
    scale:
        Fraction of the paper's archive (1.0 = 112,249 files / 455 GB).
    n_fiona8:
        GPU appliances (8 GPUs each); the paper's step 3 wants
        ``ceil(50/8) = 7`` of them minimum, default 8.
    n_dtn:
        CPU nodes.  The Ceph layout is fixed (:data:`N_STORAGE_HOSTS` x
        :data:`OSDS_PER_HOST` OSDs of :data:`OSD_CAPACITY` bytes).
    sampler_interval:
        Seconds between monitoring scrapes.
    transfer_faults:
        Optional :class:`~repro.transfer.TransientFaultInjector` wired
        into the THREDDS server: catalog and stream requests then fail
        transiently at its seeded rates, exercising the download
        retry/backoff machinery.
    """
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    env = Environment()
    rng = SeededRNG(seed)
    topology = build_prp_topology()
    flowsim = FlowSimulator(env)
    cluster = Cluster(env, name="nautilus")
    registry = MetricRegistry(env)
    sampler = Sampler(env, registry, interval=sampler_interval)
    tracer = Tracer.for_env(env)
    cluster.tracer = tracer
    flowsim.tracer = tracer

    # -- compute nodes ----------------------------------------------------------
    for i in range(n_dtn):
        site = _GPU_SITES[i % len(_GPU_SITES)]
        name = f"dtn-{site.lower()}-{i:02d}"
        spec = fiona_node_spec(name, site=site)
        cluster.add_node(spec)
        topology.attach_host(name, site, nic_gbps=spec.nics_gbps[0])
    for i in range(n_fiona8):
        site = _GPU_SITES[i % len(_GPU_SITES)]
        name = f"fiona8-{site.lower()}-{i:02d}"
        spec = fiona8_node_spec(name, site=site)
        cluster.add_node(spec)
        topology.attach_host(name, site, nic_gbps=spec.nics_gbps[0])

    # -- storage -------------------------------------------------------------------
    ceph = CephCluster(env, flowsim=flowsim, topology=topology)
    for i in range(N_STORAGE_HOSTS):
        site = _STORAGE_SITES[i % len(_STORAGE_SITES)]
        host = f"stor-{site.lower()}-{i:02d}"
        topology.attach_host(host, site, nic_gbps=10.0)
        for _ in range(OSDS_PER_HOST):
            ceph.add_osd(host=host, capacity=OSD_CAPACITY, disk_Bps=OSD_DISK_BPS)
    cephfs = CephFS(ceph)
    ceph.create_pool("merra", replication=3)
    ceph.create_pool("models", replication=3)
    ceph.create_pool("results", replication=3)

    # -- archive + THREDDS -----------------------------------------------------------
    n_files = max(1, int(round(PAPER_FILE_COUNT * scale)))
    archive = MerraArchive(n_files=n_files, seed=seed)
    # The server can serve real (laptop-scale) granule content too.
    thredds = ThreddsServer(
        archive,
        host="its-dtn-02",
        generator=MerraGenerator(ML_GRID, seed=seed),
        fault_injector=transfer_faults,
    )
    if transfer_faults is not None and transfer_faults.env is None:
        transfer_faults.env = env
    topology.attach_host("its-dtn-02", "UCSD", nic_gbps=THREDDS_NIC_GBPS)
    # Cluster-level resilience counters (liveness restarts, lease
    # expirations) land in the shared registry.
    cluster.metrics = registry

    # -- standing monitoring probes ----------------------------------------------------
    for node in cluster.nodes.values():
        sampler.add_probe(
            "node_cpu_allocated_cores",
            (lambda n=node: n.allocated.cpu),
            {"node": node.spec.name},
        )
        sampler.add_probe(
            "node_memory_allocated_bytes",
            (lambda n=node: float(n.allocated.memory)),
            {"node": node.spec.name},
        )
        if node.spec.gpus:
            sampler.add_probe(
                "node_gpus_in_use",
                (lambda n=node: float(n.gpu_in_use())),
                {"node": node.spec.name},
            )
    sampler.add_probe(
        "ceph_used_bytes", lambda: ceph.total_used(), {"cluster": "nautilus"}
    )
    thredds_link = topology.links[frozenset(("its-dtn-02", "UCSD"))]
    sampler.add_probe(
        "thredds_egress_bytes_per_second",
        lambda: flowsim.sample_rates([thredds_link.resource])[
            thredds_link.resource.name
        ],
        {"host": "its-dtn-02"},
    )
    # Per-storage-host disk rates — the Grafana storage-IOPS panels are
    # per node, so Figure 4's "IOPS: Max" is a per-host peak.
    by_host: dict[str, list] = {}
    for osd in ceph.osds.values():
        by_host.setdefault(osd.host, []).append(osd)
    for host, osds in by_host.items():
        sampler.add_probe(
            "ceph_disk_write_bytes_per_second",
            (lambda disks=[o.disk for o in osds]: sum(
                flowsim.sample_rates(disks).values()
            )),
            {"host": host},
        )

    return NautilusTestbed(
        env=env,
        rng=rng,
        topology=topology,
        flowsim=flowsim,
        cluster=cluster,
        ceph=ceph,
        cephfs=cephfs,
        registry=registry,
        sampler=sampler,
        tracer=tracer,
        archive=archive,
        thredds=thredds,
        perf=GTX1080TI,
        scale=scale,
        ml_grid=ML_GRID,
        seed=seed,
    )
