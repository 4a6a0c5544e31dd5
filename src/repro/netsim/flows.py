"""Max-min fair fluid-flow engine.

Concurrent bulk transfers on the PRP share link capacity.  The standard
fluid approximation for long-lived TCP on high-bandwidth-delay paths is
**max-min fairness via progressive filling**: every active flow's rate
grows uniformly until some resource saturates; flows crossing a saturated
resource freeze; the rest keep growing.  Rates re-converge instantly when
a flow starts or finishes.

The engine is generic over :class:`CapacityResource`, so the same
machinery rate-limits WAN links, host NICs, *and* storage-device
bandwidth (an OSD's SSD is just another capacity on the flow's path) —
which is how the Figure-4 IOPS and throughput ceilings arise from one
mechanism.
"""

from __future__ import annotations

import itertools
import operator
import typing as _t

import numpy as np

from repro.errors import NetworkError
from repro.sim import Environment, Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.monitoring.metrics import Gauge, MetricRegistry
    from repro.tracing.span import Span, Tracer

__all__ = ["CapacityResource", "Flow", "FlowSimulator", "max_min_rates"]

_flow_ids = itertools.count(1)

#: Residual-byte tolerance when deciding a flow has completed.
_EPS_BYTES = 1e-6


class CapacityResource:
    """A shared capacity (bytes/s): a link, a NIC, or a disk.

    The rate through it is not stored: :meth:`FlowSimulator.sample_rates`
    sums the live flows crossing it when it is read.

    A ``blocked`` resource (a failed link) pins every flow crossing it to
    rate zero without tearing the flow down — the fluid analog of TCP
    stalling on a dead path and resuming when it heals.
    """

    __slots__ = ("name", "capacity", "blocked")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise NetworkError(f"resource {name!r} needs positive capacity")
        self.name = name
        self.capacity = float(capacity)
        self.blocked = False

    def set_capacity(self, capacity: float) -> None:
        """Change capacity in place (fault injection: degraded links).

        Callers must poke the flow engine (``FlowSimulator.recompute``)
        so in-flight rates re-converge at the current simulation time.
        """
        if capacity <= 0:
            raise NetworkError(f"resource {self.name!r} needs positive capacity")
        self.capacity = float(capacity)

    def __repr__(self) -> str:
        return f"<CapacityResource {self.name} {self.capacity:.3g} B/s>"


class Flow:
    """One in-progress bulk transfer."""

    __slots__ = (
        "id",
        "name",
        "resources",
        "nbytes",
        "remaining",
        "done_below",
        "rate",
        "event",
        "start_time",
        "handle",
    )

    def __init__(
        self,
        name: str,
        resources: _t.Sequence[CapacityResource],
        nbytes: float,
        event: Event,
        start_time: float,
    ):
        self.id = next(_flow_ids)
        self.name = name
        self.resources = tuple(resources)
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        #: Residual bytes at or under which the flow counts as complete.
        self.done_below = max(_EPS_BYTES, 1e-9 * self.nbytes)
        self.rate = 0.0
        self.event = event
        self.start_time = start_time
        #: The event ``FlowSimulator.transfer`` returned for this flow
        #: (differs from ``event`` when one-way latency is modelled).
        self.handle: Event = event

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Flow {self.name or self.id} {self.remaining:.3g}B left @ {self.rate:.3g}B/s>"


_rate_of = operator.attrgetter("rate")


class _Route:
    """The live flows on one route, in start order, and its distinct hops."""

    __slots__ = ("hops", "flows")

    def __init__(self, resources: tuple[CapacityResource, ...]):
        #: a route that repeats a resource crosses it once
        self.hops = tuple(dict.fromkeys(resources))
        self.flows: dict[Flow, None] = {}


class _FlowTable(dict):
    """Live flows in start order (``Flow -> None``) plus the fill's input.

    :meth:`add` and :meth:`remove` keep, between solves:

    - ``routes``: each route (a ``resources`` tuple, keyed by equality)
      -> its :class:`_Route`;
    - ``members``: each resource -> the live flows crossing it, in start
      order (a route that repeats the resource counts its flows once);
    - ``crossing``: each resource -> the routes crossing it.

    No entry of the three is ever empty.
    """

    __slots__ = ("routes", "members", "crossing")

    def __init__(self, flows: _t.Iterable[Flow] = ()):
        super().__init__()
        self.routes: dict[tuple[CapacityResource, ...], _Route] = {}
        self.members: dict[CapacityResource, dict[Flow, None]] = {}
        self.crossing: dict[CapacityResource, dict[_Route, None]] = {}
        for flow in flows:
            self.add(flow)

    def add(self, flow: Flow) -> None:
        self[flow] = None
        route = self.routes.get(flow.resources)
        if route is None:
            route = self.routes[flow.resources] = _Route(flow.resources)
            for res in route.hops:
                self.crossing.setdefault(res, {})[route] = None
        route.flows[flow] = None
        for res in route.hops:
            self.members.setdefault(res, {})[flow] = None

    def remove(self, flow: Flow) -> None:
        del self[flow]
        route = self.routes[flow.resources]
        del route.flows[flow]
        emptied = not route.flows
        if emptied:
            del self.routes[flow.resources]
        for res in route.hops:
            members = self.members[res]
            del members[flow]
            if not members:
                del self.members[res]
            if emptied:
                crossing = self.crossing[res]
                del crossing[route]
                if not crossing:
                    del self.crossing[res]


def max_min_rates(flows: _t.Collection[Flow]) -> dict[Flow, float]:
    """Progressive-filling max-min fair allocation.

    Returns the fair rate for every flow.  Flows with an empty resource
    list are unconstrained (rate ``inf`` — local copies); flows crossing
    a ``blocked`` resource are stalled at rate 0.

    Flows on one route (equal ``resources`` tuples) always get the same
    rate, so the fill runs per route: each resource keeps the count of
    unfrozen flows crossing it, and a route that repeats a resource
    counts once there.  The fill is one pass: every unfrozen flow has
    the same rate, the running fill ``level``, so a route's rate is the
    level at the round its tightest resource saturates.

    :class:`FlowSimulator` passes its live-flow table, which holds the
    route groups and each resource's crossing flows and routes between
    solves; any other collection is first loaded into a fresh table.
    """
    table = flows if isinstance(flows, _FlowTable) else _FlowTable(flows)
    rate_of: dict[_Route, float] = {}
    #: unfrozen route -> its flow count
    live: dict[_Route, int] = {}
    for route in table.routes.values():
        if route.hops:
            live[route] = len(route.flows)
        else:
            rate_of[route] = float("inf")
    #: resource -> unfrozen flows crossing it (no zero entries)
    counts = {res: len(members) for res, members in table.members.items()}
    crossing = table.crossing

    def freeze(res: CapacityResource, rate: float) -> None:
        """Fix every route still crossing ``res`` at ``rate``."""
        for route in crossing[res]:
            n = live.pop(route, None)
            if n is None:
                continue
            rate_of[route] = rate
            for hop in route.hops:
                left = counts[hop] - n
                if left:
                    counts[hop] = left
                else:
                    del counts[hop]

    for res in [res for res in counts if res.blocked]:
        freeze(res, 0.0)

    cap_left = {res: res.capacity for res in counts}
    level = 0.0
    while counts:
        # Uniform increment until the tightest resource saturates.
        inc = min([cap_left[res] / n for res, n in counts.items()])
        level += inc
        saturated: list[CapacityResource] = []
        for res, n in counts.items():
            left = cap_left[res] - inc * n
            cap_left[res] = left
            if left <= 1e-9 * res.capacity:
                saturated.append(res)
        if not saturated:  # pragma: no cover - numerical guard
            saturated = list(counts)
        for res in saturated:
            freeze(res, level)
    return {flow: rate for route, rate in rate_of.items() for flow in route.flows}


class FlowSimulator:
    """Event-driven fluid-flow transfer engine on the simulation kernel.

    Usage (inside a simulated process)::

        done = flowsim.transfer(resources, nbytes, name="worker3:file42")
        yield done        # fires when the last byte lands

    The engine re-plans rates whenever a flow starts or completes; a
    resource's rate is summed from its live flows only when
    :meth:`sample_rates` reads it.  Flows live in start order, so flows
    that finish at the same instant complete in the order they started.

    The live-flow table holds the solver's input between solves: the
    flows grouped by route and each resource's crossing flows and
    routes, updated as flows start and end rather than rebuilt per solve.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._flows = _FlowTable()
        self._handles: dict[Event, Flow] = {}
        self._wake: Event | None = None
        self._proc = env.process(self._coordinator(), name="flowsim")
        self.completed_count = 0
        self.bytes_moved = 0.0
        self.cancelled_count = 0
        #: optional span tracer (the testbed wires this up): every flow
        #: becomes a ``transfer`` span carrying bytes and achieved rate.
        self.tracer: "Tracer | None" = None
        self._flow_spans: dict[int, "Span"] = {}
        #: Scraped rate gauges (see :meth:`watch_rates`) and their registry.
        self._rate_gauges: list[tuple["Gauge", tuple[CapacityResource, ...]]] = []
        self._registry: "MetricRegistry | None" = None

    # -- public API --------------------------------------------------------------

    def transfer(
        self,
        resources: _t.Sequence[CapacityResource],
        nbytes: float,
        latency_s: float = 0.0,
        name: str = "",
    ) -> Event:
        """Start a transfer of ``nbytes`` across ``resources``.

        Returns an event that fires (with the flow) once the transfer —
        plus one-way ``latency_s`` — completes.
        """
        if nbytes < 0:
            raise NetworkError(f"negative transfer size: {nbytes}")
        done = self.env.event()
        if nbytes == 0 or not resources:
            # Local copy / empty payload: latency only.
            def _immediate(env=self.env):
                yield env.timeout(latency_s)
                done.succeed(None)

            self.env.process(_immediate(), name=f"flow:{name}:local")
            return done

        flow_done = self.env.event()
        flow = Flow(name, resources, nbytes, flow_done, self.env.now)
        self._flows.add(flow)
        if self.tracer is not None:
            self._flow_spans[flow.id] = self.tracer.start(
                name or f"flow-{flow.id}",
                "transfer",
                attributes={"bytes": float(nbytes)},
            )
        self._poke()

        if latency_s > 0:

            def _delayed(env=self.env):
                try:
                    yield flow_done
                except NetworkError as exc:
                    # Flow was cancelled; forward the failure to the handle.
                    if not done.triggered:
                        done.defuse()
                        done.fail(exc)
                    return
                yield env.timeout(latency_s)
                done.succeed(flow)

            self.env.process(_delayed(), name=f"flow:{name}:latency")
            flow.handle = done
            self._handles[done] = flow
            return done
        self._handles[flow_done] = flow
        return flow_done

    def cancel(self, handle: Event) -> bool:
        """Abort the in-flight flow behind a ``transfer()`` handle.

        The handle event fails with :class:`~repro.errors.NetworkError`
        (defused if nobody is watching), the flow's partial bytes are
        discarded, and shared capacity is released immediately.  Returns
        False when the handle is unknown or the flow already finished.
        """
        flow = self._handles.pop(handle, None)
        if flow is None or flow not in self._flows:
            return False
        self._flows.remove(flow)
        self.cancelled_count += 1
        self._finish_flow_span(flow, status="error")
        if not flow.event.triggered:
            flow.event.defuse()
            flow.event.fail(
                NetworkError(f"flow {flow.name or flow.id} cancelled")
            )
        self._poke()
        return True

    def watch_rates(
        self,
        registry: "MetricRegistry",
        name: str,
        resources: _t.Sequence[CapacityResource],
        labels: dict[str, str],
    ) -> None:
        """Scrape the summed rate through ``resources`` as gauge ``name``:
        the :meth:`sample_rates` sum, recorded when the flow table empties
        and after each solve whose next completion is not before the next
        scrape (every start, cancel, completion and :meth:`recompute`
        re-solves at its own instant, so an earlier one is superseded)."""
        self._registry = registry
        self._rate_gauges.append((registry.gauge(name, 0.0, labels), tuple(resources)))

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def recompute(self) -> None:
        """Re-converge rates now — call after any capacity change.

        ``Topology.fail_link``/``set_capacity`` mutate resources without
        knowing about the flow engine; fault injectors call this so
        in-flight transfers see the new capacities at the current instant
        (elapsed bytes are accounted at the old rates first).
        """
        self._poke()

    # -- engine -------------------------------------------------------------------

    def _finish_flow_span(self, flow: Flow, status: str = "ok") -> None:
        if self.tracer is None:
            return
        span = self._flow_spans.pop(flow.id, None)
        if span is None:
            return
        self.tracer.finish(span, status=status)
        if status == "ok" and span.duration > 0:
            span.attributes["rate_Bps"] = flow.nbytes / span.duration

    def _poke(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _recompute(self) -> float:
        """Re-plan every rate; return the time to the next completion."""
        horizon = float("inf")
        for flow, rate in max_min_rates(self._flows).items():
            flow.rate = rate
            if rate > 0:
                left = flow.remaining / rate
                if left < horizon:
                    horizon = left
        return horizon

    def sample_rates(self, resources: _t.Iterable[CapacityResource]) -> dict[str, float]:
        """Accurate instantaneous rates for ``resources`` (monitoring API).

        Each rate is summed when it is read: the rates of the live flows
        crossing the resource, from ``0.0`` in start order (scraped series
        see this rounding); ``0.0`` when no flow crosses it.
        """
        members = self._flows.members
        return {
            res.name: sum(map(_rate_of, members.get(res, ())), 0.0)
            for res in resources
        }

    def _record_rates(self, horizon: float) -> None:
        """Record the watched rates unless a re-solve is due within
        ``horizon``, before the next scrape can read them."""
        if self._rate_gauges and (
            self.env.now + horizon >= self._registry.next_scrape()
        ):
            for gauge, resources in self._rate_gauges:
                gauge.set(sum(self.sample_rates(resources).values()))

    def _coordinator(self):
        while True:
            if not self._flows:
                self._record_rates(float("inf"))
                self._wake = self.env.event()
                yield self._wake
                continue
            horizon = self._recompute()
            self._record_rates(horizon)
            self._wake = self.env.event()
            started = self.env.now
            if horizon == float("inf"):
                # Every flow is stalled (blocked path): sleep until poked.
                yield self._wake
            else:
                yield self.env.any_of([self.env.timeout(horizon), self._wake])
            elapsed = self.env.now - started
            # A flow whose completion lies within the clock's float
            # resolution must finish NOW: otherwise `now + horizon == now`
            # and the loop would spin without advancing time.
            time_eps = max(1e-9, 8.0 * np.spacing(self.env.now))
            finished: list[Flow] = []
            # Per flow, not per route: a flow that started since the last
            # solve has rate 0 while its route's older flows move bytes.
            for flow in self._flows:
                rate = flow.rate
                left = flow.remaining = flow.remaining - rate * elapsed
                if left <= flow.done_below or (rate > 0 and left / rate <= time_eps):
                    finished.append(flow)
            for flow in finished:
                self._flows.remove(flow)
                self._handles.pop(flow.handle, None)
                self.completed_count += 1
                self.bytes_moved += flow.nbytes
                self._finish_flow_span(flow)
                flow.event.succeed(flow)
