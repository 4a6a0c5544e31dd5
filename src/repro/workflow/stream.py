"""Step-to-step streaming: the transfer/compute overlap primitive.

The barrier driver runs the CONNECT chain strictly sequentially: training
waits for the *whole* download step even though the slice of data it
needs (the materialized IVT volume) is ready long before the last worker
finishes its WAN transfers.  The tracing layer's exact per-layer time
partition makes that headroom visible as a long pure-``transfer`` band;
a :class:`StreamChannel` is how the driver converts it into overlap.

A producer step (``streams_output = True``) gets a channel; it can
``mark`` named milestones while still running.  A consumer step that
declared the producer in ``stream_inputs`` may start as soon as the
producer is *launched* (driver ``overlap=True``) and block on
:meth:`StreamChannel.wait_milestone` instead of on the producer's
completion barrier.

Failure semantics mirror the step retry model:

- producer attempt **retries** -> the old channel is *superseded* by the
  fresh attempt's channel; blocked consumers transparently re-wait on
  the successor (milestones restart from scratch — the new attempt
  re-marks them).
- producer fails **permanently** (or is cancelled) -> the channel closes
  with an error and blocked consumers get
  :class:`~repro.errors.StreamBrokenError`, failing their own attempt.
- producer finishes cleanly -> the channel closes; ``wait_milestone``
  returns its ``default`` (the consumer falls back to the completed
  step's artifacts).

Checkpoint/resume is unaffected: a step is only recorded once complete,
and a consumer that finished before its producer is a legal checkpoint
state — resume replays exactly the unfinished steps.
"""

from __future__ import annotations

import typing as _t

from repro.errors import StreamBrokenError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

__all__ = ["StreamChannel"]


class StreamChannel:
    """A milestone stream from one producer step.

    All consumer-facing waits are **generators** — call them with
    ``yield from`` inside a step body so the simulation kernel can park
    the consumer until the producer wakes it.
    """

    def __init__(self, env: "Environment", producer: str):
        self.env = env
        #: name of the producing step (for error messages)
        self.producer = producer
        #: reached milestones -> payload
        self.milestones: dict[str, object] = {}
        self.closed = False
        #: failure reason; non-None only on an error close
        self.error: str | None = None
        #: replacement channel installed when the producer retries
        self.superseded: "StreamChannel | None" = None
        self._waiters: list[Event] = []

    # -- producer side ------------------------------------------------------

    def mark(self, milestone: str, value: object = None) -> None:
        """Declare a named milestone reached, with an optional payload."""
        if self.closed:
            raise StreamBrokenError(self.producer, "mark() on a closed stream")
        self.milestones[milestone] = value
        self._wake()

    def close(self, error: str | None = None) -> None:
        """Close the stream: cleanly (producer done) or with an error
        (producer failed permanently / cancelled).  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self.error = error
        self._wake()

    def supersede(self, successor: "StreamChannel") -> None:
        """Point blocked consumers at the producer's retry attempt."""
        self.superseded = successor
        self._wake()

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()

    # -- consumer side ------------------------------------------------------

    def _wait_event(self) -> Event:
        event = Event(self.env)
        self._waiters.append(event)
        return event

    def _resolve(self) -> "StreamChannel":
        """Follow the supersession chain to the live channel."""
        chan: StreamChannel = self
        while chan.superseded is not None:
            chan = chan.superseded
        return chan

    def wait_milestone(self, milestone: str, default: object = None):
        """Generator: block until ``milestone`` is marked; returns its
        payload.  A clean close without the milestone returns
        ``default`` (the producer finished but never produced it — the
        consumer should fall back to completed-step artifacts); an error
        close raises :class:`~repro.errors.StreamBrokenError`."""
        chan = self._resolve()
        while True:
            if milestone in chan.milestones:
                return chan.milestones[milestone]
            if chan.superseded is not None:
                chan = chan._resolve()
                continue
            if chan.closed:
                if chan.error is not None:
                    raise StreamBrokenError(chan.producer, chan.error)
                return default
            yield chan._wait_event()
            chan = chan._resolve()

    def __repr__(self) -> str:  # pragma: no cover
        state = (
            "superseded"
            if self.superseded is not None
            else ("error" if self.error else ("closed" if self.closed else "open"))
        )
        return (
            f"<StreamChannel from {self.producer!r} {state}: "
            f"{len(self.milestones)} milestones>"
        )
