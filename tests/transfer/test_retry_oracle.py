"""The downloader's retry loop against a frozen copy of its own loop.

:class:`Aria2Downloader` retries each connection's request through
:func:`retry_call`, counting a retry when its attempt fails.  Before
that, the downloader carried a loop of its own, ``_fetch``, which this
file keeps as :class:`OracleDownloader`: a frozen copy of it, of the
attempt it ran and of the per-file and coalesced connection routines,
without the per-request deadline that no run set.  Both must give the
same end time, stats, injected fault counts, heartbeat times, bytes
moved, counter series (times and totals), span list and error text on
every batch below: seeds 0-19, per-file and coalesced, four policies
(no policy among them) and two fault mixes, and under route outages.
Do not edit the oracle to make a test pass.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import pytest

from repro.data.catalog import MerraArchive
from repro.errors import (
    NetworkError,
    NoRouteError,
    TransferError,
    TransientServerError,
)
from repro.monitoring.metrics import MetricRegistry
from repro.netsim import FlowSimulator, NetworkFaultInjector, Topology
from repro.sim import Environment
from repro.tracing.span import Tracer
from repro.transfer import (
    Aria2Downloader,
    RetryPolicy,
    ThreddsServer,
    TransientFaultInjector,
)
from repro.transfer.aria2 import DownloadStats, _sizes
from repro.transfer.thredds import REQUEST_OVERHEAD_S

# -- the oracle: the downloader's own retry loop -------------------------------


def oracle_backoff(policy: RetryPolicy, attempt: int, rng, prev_delay_s):
    cap = min(policy.max_delay_s, policy.base_delay_s * policy.multiplier**attempt)
    if rng is None:
        return cap
    prev = prev_delay_s if prev_delay_s else policy.base_delay_s
    hi = max(policy.base_delay_s, prev * 3.0)
    return float(min(policy.max_delay_s, rng.uniform(policy.base_delay_s, hi)))


class OracleDownloader(Aria2Downloader):
    def _oracle_transfer(self, nbytes, name):
        path = self.topology.path_resources(self.server.host, self.host)
        latency = self.topology.path_latency(self.server.host, self.host)
        done = self.flowsim.transfer(path, nbytes, latency_s=latency, name=name)
        yield done

    def _oracle_attempt(self, state, name, overhead_s):
        fault = (
            self.fault_injector.draw()
            if self.fault_injector is not None
            else None
        )
        if fault is not None and fault[0] == "error":
            yield self.env.timeout(overhead_s)
            raise TransientServerError(f"{name}: HTTP 503 from {self.server.host}")
        if fault is not None and fault[0] == "timeout":
            yield self.env.timeout(overhead_s + fault[1])
            raise TransientServerError(
                f"{name}: request stalled {fault[1]}s and timed out"
            )
        yield self.env.timeout(overhead_s)
        if fault is not None and fault[0] == "reset":
            part = state["remaining"] * fault[1]
            yield from self._oracle_transfer(part, f"{name}:partial")
            state["remaining"] -= part
            raise TransientServerError(
                f"{name}: connection reset with {state['remaining']:.0f}B left"
            )
        yield from self._oracle_transfer(state["remaining"], name)
        state["remaining"] = 0.0

    def _oracle_fetch(self, nbytes, name, overhead_s):
        policy = self.retry_policy
        attempts = policy.max_attempts if policy is not None else 1
        state = {"remaining": float(nbytes)}
        prev_delay = None
        for attempt in range(attempts):
            try:
                yield from self._oracle_attempt(state, name, overhead_s)
                return
            except (TransientServerError, NoRouteError, NetworkError) as exc:
                if attempt + 1 >= attempts:
                    self._count("transfer_failures_total")
                    raise TransferError(
                        f"{name}: giving up after {attempt + 1} attempts: {exc}"
                    ) from exc
                delay = (
                    oracle_backoff(policy, attempt, self._rng, prev_delay)
                    if policy
                    else 0.0
                )
                prev_delay = delay
                self._count("transfer_retries_total")
                yield self.env.timeout(delay)

    def _oracle_download_one(self, request):
        span = self._span_open(f"download:{request.granule.name}", request.nbytes)
        try:
            with self._slots.request() as slot:
                yield slot
                yield from self._oracle_fetch(
                    request.nbytes,
                    f"aria2:{self.host}:{request.granule.name}",
                    REQUEST_OVERHEAD_S,
                )
        except BaseException:
            self._span_close(span, request.nbytes, status="error")
            raise
        self._span_close(span, request.nbytes)
        if self.on_progress is not None:
            self.on_progress()

    def _oracle_download_stream(self, requests):
        total = sum(_sizes(requests))
        span = self._span_open(f"stream:{self.host}:{len(requests)}f", total)
        try:
            with self._slots.request() as slot:
                yield slot
                yield from self._oracle_fetch(
                    total,
                    f"aria2-stream:{self.host}:{len(requests)}f",
                    REQUEST_OVERHEAD_S * len(requests),
                )
        except BaseException:
            self._span_close(span, total, status="error")
            raise
        self._span_close(span, total)
        if self.on_progress is not None:
            self.on_progress()

    def download_batch(self, requests):
        stats = DownloadStats(started_at=self.env.now)
        threshold = self.coalesce_threshold
        if threshold and len(requests) > max(threshold, self.connections):
            groups = [
                requests[k :: self.connections] for k in range(self.connections)
            ]
            procs = [
                self.env.process(
                    self._oracle_download_stream(group),
                    name=f"aria2-stream:{self.host}:{k}",
                )
                for k, group in enumerate(groups)
                if group
            ]
        else:
            procs = [
                self.env.process(
                    self._oracle_download_one(req),
                    name=f"aria2-conn:{req.granule.index}",
                )
                for req in requests
            ]
        if procs:
            yield self.env.all_of(procs)
        stats.files = len(requests)
        stats.bytes = sum(_sizes(requests))
        stats.finished_at = self.env.now
        return stats


# -- the matrix ------------------------------------------------------------------

POLICIES = {
    "none": None,
    "default": RetryPolicy(),
    "short": RetryPolicy(max_attempts=2, base_delay_s=0.05, max_delay_s=0.5),
    "steep": RetryPolicy(
        max_attempts=6, base_delay_s=0.1, multiplier=3.0, max_delay_s=2.0
    ),
}
MIXES = {
    "light": {"error_rate": 0.08, "timeout_rate": 0.04, "reset_rate": 0.08},
    "heavy": {"error_rate": 0.25, "timeout_rate": 0.05, "reset_rate": 0.2},
}
SEEDS = range(20)
N_FILES = 24


def _observe(
    cls: type[Aria2Downloader],
    seed: int,
    policy: RetryPolicy | None,
    mix: dict[str, float],
    coalesce: bool,
    outage: tuple[float, float] | None = None,
) -> dict[str, _t.Any]:
    """Download one batch with ``cls``; everything the run left behind."""
    env = Environment()
    registry = MetricRegistry(env)
    tracer = Tracer.for_env(env)
    topo = Topology()
    topo.add_site("UCSD")
    topo.add_site("UCI")
    topo.add_link("UCSD", "UCI", 10.0, latency_s=0.002)
    topo.attach_host("server", "UCSD", nic_gbps=1.0)
    topo.attach_host("worker", "UCI", nic_gbps=10.0)
    flowsim = FlowSimulator(env)
    flowsim.tracer = tracer
    injector = TransientFaultInjector(seed=seed, stall_s=1.5, **mix)
    server = ThreddsServer(MerraArchive(n_files=N_FILES, seed=seed), host="server")
    beats: list[float] = []
    dl = cls(
        env,
        flowsim,
        topo,
        server,
        host="worker",
        connections=4,
        coalesce_threshold=8 if coalesce else 0,
        retry_policy=policy,
        fault_injector=injector,
        metrics=registry,
        on_progress=lambda: beats.append(env.now),
        seed=seed,
        tracer=tracer,
    )
    if outage is not None:
        faults = NetworkFaultInjector(topo, flowsim=flowsim, env=env)
        start, end = outage
        faults.schedule(start, faults.partition, ["UCI"])
        faults.schedule(end, faults.heal_partition)
    requests = server.resolve_many(range(N_FILES), ("U", "V", "QV"))
    proc = env.process(dl.download_batch(requests))
    stats = error = None
    try:
        stats = dataclasses.astuple(env.run(until=proc))
    except TransferError as exc:
        error = str(exc)
    return {
        "now": env.now,
        "stats": stats,
        "error": error,
        "injected": dict(injector.injected),
        "beats": beats,
        "bytes_moved": flowsim.bytes_moved,
        "flows": flowsim.completed_count,
        "counters": {
            name: [
                (ts.labels, list(ts.times), list(ts.values))
                for ts in registry.all_series(name)
            ]
            for name in ("transfer_retries_total", "transfer_failures_total")
        },
        "spans": [span.to_dict() for span in tracer.spans],
    }


@pytest.mark.parametrize("coalesce", [False, True], ids=["per-file", "coalesced"])
@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_retry_call_matches_the_oracle(policy, mix, coalesce):
    faulty = gave_up = 0
    for seed in SEEDS:
        args = (seed, POLICIES[policy], MIXES[mix], coalesce)
        oracle = _observe(OracleDownloader, *args)
        assert _observe(Aria2Downloader, *args) == oracle, seed
        faulty += sum(oracle["injected"].values()) > 0
        gave_up += oracle["error"] is not None
    # Faults fired on most seeds; without a policy each one gives up.
    assert faulty > len(SEEDS) // 2
    if policy == "none":
        assert gave_up == faulty


@pytest.mark.parametrize("coalesce", [False, True], ids=["per-file", "coalesced"])
@pytest.mark.parametrize(
    "seed, outage",
    [(0, (0.01, 0.3)), (1, (0.2, 1.0)), (2, (0.4, 2.5)), (3, (0.05, 12.0))],
)
def test_route_outage_matches_the_oracle(seed, outage, coalesce):
    """The worker's site is cut off for ``outage`` (start, end): flows in
    flight stall, new attempts meet no route and back off, and the
    longest outage outlasts every attempt."""
    args = (seed, POLICIES["steep"], MIXES["light"], coalesce, outage)
    oracle = _observe(OracleDownloader, *args)
    assert _observe(Aria2Downloader, *args) == oracle
