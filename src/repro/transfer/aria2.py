"""An Aria2-like parallel downloader.

"each worker uses the open source Aria2 file transfer software that
allows multiple parallel downloads (20 parallel downloads in our case) to
retrieve urls stored in a list of data files" (§III-A).

The downloader owns a pool of connection slots; each file download is a
flow across the THREDDS server's network path, so 20 concurrent
connections genuinely contend for (and saturate) the NIC/WAN — giving the
link-bounded behaviour of Figure 4.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.errors import NetworkError, TransferError, TransientServerError
from repro.netsim.flows import FlowSimulator
from repro.netsim.topology import Topology
from repro.sim import Environment, Resource
from repro.sim.rng import derive_seed
from repro.transfer.retry import RetryPolicy, TransientFaultInjector, retry_call
from repro.transfer.thredds import (
    REQUEST_OVERHEAD_S,
    ResolvedChunk,
    SubsetRequest,
    ThreddsServer,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.monitoring.metrics import MetricRegistry
    from repro.tracing.span import Span, Tracer

__all__ = ["DownloadStats", "Aria2Downloader"]


def _sizes(requests: _t.Sequence[SubsetRequest]) -> list[float]:
    """Every request's byte count, in order (a chunk's own column)."""
    if isinstance(requests, ResolvedChunk):
        return requests.nbytes
    return [r.nbytes for r in requests]


@dataclasses.dataclass
class DownloadStats:
    """What one ``download_batch`` moved."""

    files: int = 0
    bytes: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at



class Aria2Downloader:
    """Connection-pooled downloader bound to one worker host.

    Parameters
    ----------
    env, flowsim, topology:
        Simulation plumbing.
    server:
        The THREDDS server to pull from.
    host:
        The worker's hostname on the topology (its NIC bounds throughput).
    connections:
        Maximum concurrent downloads (aria2's ``-j``; the paper uses 20).
    retry_policy:
        Optional :class:`~repro.transfer.retry.RetryPolicy`.  Without
        one, any transfer fault gives up on first occurrence (aria2's
        ``--max-tries=1``); with one, transient server errors, stalls,
        resets, and routing outages back off and retry through
        :func:`~repro.transfer.retry.retry_call`.
    fault_injector:
        Optional transient-fault source; defaults to the server's own
        injector so one seeded schedule covers catalog and stream.
    metrics:
        Optional registry; retries/failures are exported as
        ``transfer_retries_total`` / ``transfer_failures_total``.
    on_progress:
        Optional zero-arg callback invoked after each completed file —
        the hook pods use to heartbeat their liveness probe while a long
        batch is moving.
    """

    def __init__(
        self,
        env: Environment,
        flowsim: FlowSimulator,
        topology: Topology,
        server: ThreddsServer,
        host: str,
        connections: int = 20,
        coalesce_threshold: int = 0,
        retry_policy: RetryPolicy | None = None,
        fault_injector: TransientFaultInjector | None = None,
        metrics: "MetricRegistry | None" = None,
        on_progress: _t.Callable[[], None] | None = None,
        seed: int = 0,
        tracer: "Tracer | None" = None,
        span_parent: "Span | None" = None,
    ):
        if connections < 1:
            raise ValueError("connections must be >= 1")
        self.env = env
        self.flowsim = flowsim
        self.topology = topology
        self.server = server
        self.host = host
        self.connections = connections
        #: When a batch holds more than this many files (and the feature
        #: is enabled, > 0), each connection streams its share as ONE
        #: flow with the per-file overheads summed — byte- and
        #: overhead-exact, but with O(connections) instead of O(files)
        #: simulator events.  Essential at the paper's 112k-file scale.
        self.coalesce_threshold = coalesce_threshold
        self.retry_policy = retry_policy
        self.fault_injector = (
            fault_injector
            if fault_injector is not None
            else getattr(server, "fault_injector", None)
        )
        self.metrics = metrics
        self.on_progress = on_progress
        #: optional span tracer + parent span: each connection's fetch
        #: (slot wait + request + flow) becomes one ``transfer`` span
        #: carrying bytes and achieved rate.
        self.tracer = tracer
        self.span_parent = span_parent
        self._rng = np.random.default_rng(derive_seed(seed, "aria2", host))
        self._slots = Resource(env, capacity=connections)

    # -- fault-aware request engine -----------------------------------------

    def _count(self, metric: str) -> None:
        if self.metrics is not None:
            self.metrics.inc_counter(metric, 1.0, {"host": self.host})

    def _span_open(self, name: str, nbytes: float) -> "Span | None":
        if self.tracer is None:
            return None
        return self.tracer.start(
            name,
            "transfer",
            parent=self.span_parent,
            attributes={"bytes": float(nbytes), "host": self.host, "input": True},
        )

    def _span_close(
        self, span: "Span | None", nbytes: float, status: str = "ok"
    ) -> None:
        if span is None or self.tracer is None:
            return
        self.tracer.finish(span, status=status)
        if status == "ok" and span.duration > 0:
            span.attributes["rate_Bps"] = nbytes / span.duration

    def _flow(self, nbytes: float, name: str):
        """One flow across the server->host path."""
        path = self.topology.path_resources(self.server.host, self.host)
        latency = self.topology.path_latency(self.server.host, self.host)
        return self.flowsim.transfer(path, nbytes, latency_s=latency, name=name)

    def _attempt(self, state: dict, name: str, overhead_s: float):
        """One try at moving ``state['remaining']`` bytes, with an
        injected transient fault when the schedule says so.  Resets keep
        their partial bytes: the next attempt resumes from the offset,
        exactly like ``aria2c -c``."""
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
            yield self._flow(part, f"{name}:partial")
            state["remaining"] -= part
            raise TransientServerError(
                f"{name}: connection reset with {state['remaining']:.0f}B left"
            )
        yield self._flow(state["remaining"], name)
        state["remaining"] = 0.0

    def _download(
        self, requests: _t.Sequence[SubsetRequest], span_name: str, flow_name: str
    ):
        """One connection: the slot wait, then the requests' summed
        overheads and one flow carrying their combined payload, retried
        under the policy."""
        total = sum(_sizes(requests))
        overhead_s = REQUEST_OVERHEAD_S * len(requests)
        policy = self.retry_policy
        attempts = policy.max_attempts if policy is not None else 1
        state = {"remaining": float(total), "tries": 0}

        def attempt():
            # A retry is counted when its attempt fails, not when the
            # next one starts: the registry stamps the increment.
            state["tries"] += 1
            try:
                yield from self._attempt(state, flow_name, overhead_s)
            except (TransientServerError, NetworkError):
                if state["tries"] < attempts:
                    self._count("transfer_retries_total")
                else:
                    self._count("transfer_failures_total")
                raise

        span = self._span_open(span_name, total)
        try:
            with self._slots.request() as slot:
                yield slot
                try:
                    yield from retry_call(self.env, attempt, policy, self._rng)
                except (TransientServerError, NetworkError) as exc:
                    raise TransferError(
                        f"{flow_name}: giving up after {state['tries']} "
                        f"attempts: {exc}"
                    ) from exc
        except BaseException:
            self._span_close(span, total, status="error")
            raise
        self._span_close(span, total)
        if self.on_progress is not None:
            self.on_progress()

    def download_batch(self, requests: _t.Sequence[SubsetRequest]):
        """Generator process: download all ``requests`` with up to
        ``connections`` in flight; returns a :class:`DownloadStats`.

        Use as ``stats = yield env.process(dl.download_batch(reqs))`` or
        ``yield from`` inside another generator.
        """
        stats = DownloadStats(started_at=self.env.now)
        threshold = self.coalesce_threshold
        if threshold and len(requests) > max(threshold, self.connections):
            # Round-robin the files across connections so each stream
            # carries a near-equal byte share.
            groups = [
                requests[k :: self.connections] for k in range(self.connections)
            ]
            procs = [
                self.env.process(
                    self._download(
                        group,
                        f"stream:{self.host}:{len(group)}f",
                        f"aria2-stream:{self.host}:{len(group)}f",
                    ),
                    name=f"aria2-stream:{self.host}:{k}",
                )
                for k, group in enumerate(groups)
                if group
            ]
        else:
            procs = [
                self.env.process(
                    self._download(
                        [req],
                        f"download:{req.granule.name}",
                        f"aria2:{self.host}:{req.granule.name}",
                    ),
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
