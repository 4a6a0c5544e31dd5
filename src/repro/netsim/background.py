"""Background traffic: the PRP is a shared platform, not a private wire.

The paper's Nautilus coexists with every other PRP science flow.  This
process injects seeded random site-to-site transfers so experiments can
measure workflow behaviour under realistic contention — and quantify how
much the Science-DMZ overprovisioning (100G core vs 1G archive egress)
insulates the CONNECT workflow from it.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import NoRouteError
from repro.netsim.flows import FlowSimulator
from repro.netsim.topology import Topology
from repro.sim import Environment
from repro.sim.rng import derive_seed

__all__ = ["BackgroundTraffic"]


class BackgroundTraffic:
    """Seeded Poisson-ish cross traffic between random site pairs.

    Parameters
    ----------
    env, flowsim, topology:
        Simulation plumbing.
    mean_interarrival:
        Mean seconds between new background flows (exponential).
    flow_bytes:
        (low, high) of the log-uniform flow-size distribution.
    seed:
        Stream seed; identical seeds produce identical traffic.
    """

    def __init__(
        self,
        env: Environment,
        flowsim: FlowSimulator,
        topology: Topology,
        mean_interarrival: float = 30.0,
        flow_bytes: tuple[float, float] = (1e8, 1e11),
        seed: int = 0,
    ):
        if mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        lo, hi = flow_bytes
        if not 0 < lo <= hi:
            raise ValueError("flow_bytes must satisfy 0 < low <= high")
        self.env = env
        self.flowsim = flowsim
        self.topology = topology
        self.mean_interarrival = mean_interarrival
        self.flow_bytes = flow_bytes
        self.rng = np.random.default_rng(derive_seed(seed, "background"))
        self.flows_started = 0
        self.bytes_offered = 0.0
        self._stopped = False
        env.process(self._loop(), name="background-traffic")

    def stop(self) -> None:
        self._stopped = True

    def _pick_pair(self) -> tuple[str, str] | None:
        sites = sorted(self.topology.sites)
        if len(sites) < 2:
            return None
        i, j = self.rng.choice(len(sites), size=2, replace=False)
        return sites[int(i)], sites[int(j)]

    def _loop(self):
        lo, hi = self.flow_bytes
        while not self._stopped:
            yield self.env.timeout(
                float(self.rng.exponential(self.mean_interarrival))
            )
            if self._stopped:
                return
            pair = self._pick_pair()
            if pair is None:
                return
            src, dst = pair
            try:
                resources = self.topology.path_resources(src, dst)
            except NoRouteError:
                continue  # transiently partitioned; skip this flow
            nbytes = float(np.exp(self.rng.uniform(np.log(lo), np.log(hi))))
            self.flowsim.transfer(
                resources,
                nbytes,
                latency_s=self.topology.path_latency(src, dst),
                name=f"bg:{src}->{dst}",
            )
            self.flows_started += 1
            self.bytes_offered += nbytes
