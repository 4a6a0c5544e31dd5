"""The simulation environment: event heap, virtual clock, run loop."""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

__all__ = ["Environment"]

#: Scheduling priorities: urgent (interrupts) before normal.
_URGENT = 0
_NORMAL = 1


class Environment:
    """Owns the virtual clock (starting at ``0.0``) and the pending-event
    heap.

    Notes
    -----
    Events scheduled for the same time fire in FIFO order of scheduling
    (stable, deterministic).  The kernel never consults the wall clock, so
    two runs of the same program are bit-identical.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._crashes: list[tuple[Process, BaseException]] = []

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds by library convention)."""
        return self._now

    # -- event factories ------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: _t.Generator[Event, object, object],
        name: str | None = None,
    ) -> Process:
        """Spawn a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """Event firing once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """Event firing once any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = _NORMAL
    ) -> None:
        """Put a triggered event on the heap ``delay`` units from now.

        ``priority=0`` (urgent) is used for interrupt delivery so that an
        interrupt scheduled at time *t* pre-empts normal events at *t*.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def _crashed(self, process: Process, exc: BaseException) -> None:
        """Record an unwatched process crash; re-raised by :meth:`run`."""
        self._crashes.append((process, exc))

    # -- run loop ----------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("no events scheduled")
        when, _prio, _seq, event = heapq.heappop(self._heap)
        if when < self._now:  # pragma: no cover - heap invariant
            raise SimulationError("time went backwards")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        if not event._ok and not event._defused:
            raise _t.cast(BaseException, event._value)
        if self._crashes:
            _proc, exc = self._crashes[0]
            self._crashes.clear()
            raise exc

    def run(self, until: float | Event | None = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            - ``None``: run until the heap is empty.
            - a number: run until the clock reaches that time.
            - an :class:`Event`: run until that event fires and return its
              value (raising its exception if it failed).
        """
        if until is None:
            while self._heap:
                self.step()
            return None

        if isinstance(until, Event):
            if until.env is not self:
                raise SimulationError("`until` event from another environment")
            finished: list[Event] = []
            if until.processed:
                finished.append(until)
            else:
                until.callbacks.append(finished.append)
            while not finished:
                if not self._heap:
                    raise SimulationError(
                        "simulation ran out of events before `until` fired"
                    )
                self.step()
            event = finished[0]
            if not event._ok:
                event.defuse()
                raise _t.cast(BaseException, event._value)
            return event._value

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon} < now ({self._now})"
            )
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        self._now = max(self._now, horizon)
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Environment now={self._now} pending={len(self._heap)}>"
