"""Coroutine processes for the discrete-event kernel.

A :class:`Process` drives a Python generator: each ``yield`` must produce an
:class:`~repro.sim.events.Event`; the process suspends until that event
fires, then resumes with the event's value (or with the event's exception
raised at the ``yield``).
"""

from __future__ import annotations

import typing as _t

from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import PENDING, Event, Interrupt

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment

__all__ = ["Process"]


class Process(Event):
    """A running simulated process.

    A ``Process`` is itself an :class:`Event` that fires when the generator
    returns (success, with the generator's return value) or raises (failure,
    with the exception) — so processes can wait on each other simply by
    yielding the other process.

    Do not instantiate directly; use
    :meth:`repro.sim.Environment.process`.
    """

    __slots__ = ("generator", "name", "_target", "_resume")

    def __init__(
        self,
        env: "Environment",
        generator: _t.Generator[Event, object, object],
        name: str | None = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}"
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if running
        #: or finished).
        self._target: Event | None = None
        # Kick off at the current simulation time.
        self._resume = Event(env)
        self._resume.callbacks.append(self._step)
        self._resume.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Event | None:
        """The event the process is currently suspended on."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Raise :class:`~repro.errors.ProcessKilled` inside the process.

        The interrupt is delivered at the process's current ``yield``
        immediately (at the current simulation time).  Interrupting a
        finished process is an error; interrupting a process that is about
        to resume anyway delivers the interrupt first.  A process that has
        not taken its first step yet takes it first, so the interrupt lands
        at its first ``yield``, inside the body's own handlers.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already terminated")
        event = Interrupt(self.env)
        event._ok = False
        event._value = ProcessKilled(cause)
        event._defused = True
        event.callbacks.append(self._step)
        if self._resume.processed:
            self.env.schedule(event, priority=0)
        else:
            self.env.schedule(event)  # behind the first step

    # -- engine -------------------------------------------------------------

    def _step(self, trigger: Event) -> None:
        """Advance the generator by one ``yield``.

        Called as an event callback when the awaited event fires.
        """
        if not self.is_alive:  # interrupted after completion; nothing to do
            return
        # Detach from the event we were waiting on (relevant for interrupts:
        # the original target may fire later and must not resume us again).
        if self._target is not None and self._target is not trigger:
            # We are abandoning the awaited event (interrupt delivery).
            if (
                self._target.callbacks is not None
                and self._step in self._target.callbacks
            ):
                self._target.callbacks.remove(self._step)
            # Nobody may be left to consume the abandoned event's eventual
            # failure; pre-defuse so the kernel doesn't crash the run.
            self._target.defuse()
        self._target = None
        if not trigger._ok:
            # This process consumes the failure (it is thrown into the
            # generator below), so the kernel must not treat it as unhandled.
            trigger.defuse()
        try:
            if trigger._ok:
                result = self.generator.send(trigger._value)
            else:
                # Failure propagates into the generator.
                result = self.generator.throw(
                    _t.cast(BaseException, trigger._value)
                )
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # generator crashed
            self.fail(exc)
            if not self._defused and not self.callbacks:
                # Nobody is watching this process; surface the crash.
                self.env._crashed(self, exc)
            return

        if not isinstance(result, Event):
            self.generator.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded non-event {result!r}"
                )
            )
            return
        if result.env is not self.env:
            self.generator.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded event from another "
                    "environment"
                )
            )
            return
        self._target = result
        if result.processed:
            # Already fired: resume at the current time via a zero-delay hop.
            hop = Event(self.env)
            hop._ok = result._ok
            hop._value = result._value
            if not result._ok:
                result.defuse()
                hop._defused = True
            hop.callbacks.append(self._step)
            self.env.schedule(hop)
        else:
            result.callbacks.append(self._step)
            if result.triggered and not result._ok:
                result.defuse()

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
