"""Shared-resource primitives: capacity slots and queues.

These mirror SimPy's Resource and Store but are written from scratch on
top of :mod:`repro.sim.events`:

- :class:`Resource` — a pool of identical slots (e.g. CPU cores on a node).
- :class:`Store` — a FIFO queue of Python objects (e.g. a message queue).

All ``request``/``get``/``put`` calls return events; processes ``yield``
them.  Releases are immediate (no event needed) but trigger waiter wake-up
at the current simulation time.
"""

from __future__ import annotations

import typing as _t
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ... hold the slot ...
    """

    __slots__ = ("resource", "priority", "amount")

    def __init__(self, resource: "Resource", priority: int = 0, amount: int = 1):
        super().__init__(resource.env)
        if amount < 1:
            raise SimulationError(f"request amount must be >= 1, got {amount}")
        self.resource = resource
        self.priority = priority
        self.amount = amount

    def cancel(self) -> None:
        """Withdraw the request (waiting or granted)."""
        self.resource.release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource.release(self)


class Resource:
    """A pool of ``capacity`` identical slots granted FIFO.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of slots (>= 1).
    """

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self._in_use = 0
        self._queue: list[tuple[int, int, Request]] = []
        self._seq = 0
        self._granted: set[Request] = set()

    @property
    def count(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Requests waiting for a slot."""
        return len(self._queue)

    def request(self, priority: int = 0, amount: int = 1) -> Request:
        """Claim ``amount`` slots; the returned event fires when granted."""
        req = Request(self, priority=priority, amount=amount)
        if amount > self.capacity:
            raise SimulationError(
                f"request for {amount} slots exceeds capacity {self.capacity}"
            )
        self._seq += 1
        heappush(self._queue, (priority, self._seq, req))
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot (or cancel a waiting request)."""
        if request in self._granted:
            self._granted.remove(request)
            self._in_use -= request.amount
            self._dispatch()
        else:
            # Still waiting: lazily remove from the heap.
            for i, (_p, _s, queued) in enumerate(self._queue):
                if queued is request:
                    self._queue.pop(i)
                    _heapify(self._queue)
                    break

    def _dispatch(self) -> None:
        while self._queue:
            _prio, _seq, req = self._queue[0]
            if req.triggered:
                heappop(self._queue)  # cancelled or already granted
                continue
            if self._in_use + req.amount > self.capacity:
                break
            heappop(self._queue)
            self._in_use += req.amount
            self._granted.add(req)
            req.succeed(req)


def _heapify(heap: list) -> None:
    import heapq

    heapq.heapify(heap)


class Store:
    """A FIFO queue of arbitrary items with blocking get/put.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum number of queued items (default: unbounded).
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: list[object] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[object, Event]] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: object) -> Event:
        """Enqueue ``item``; fires once it is accepted."""
        event = Event(self.env)
        self._putters.append((item, event))
        self._dispatch()
        return event

    def get(self) -> Event:
        """Dequeue the oldest item; fires with the item."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Accept puts while there is room (skipping abandoned putters:
            # their item must not enter the queue after the producer died).
            while self._putters and len(self.items) < self.capacity:
                item, event = self._putters.pop(0)
                if event.defused:
                    continue
                self.items.append(item)
                event.succeed(item)
                progress = True
            # Serve getters while items remain.  Skip waiters that already
            # triggered or were abandoned by an interrupted process (the
            # kernel pre-defuses an abandoned target) — otherwise an item
            # would be handed to a dead waiter and lost.
            while self._getters and self.items:
                event = self._getters.pop(0)
                if event.triggered or event.defused:
                    continue
                item = self.items.pop(0)
                event.succeed(item)
                progress = True
