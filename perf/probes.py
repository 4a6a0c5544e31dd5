"""Host-time spans recorded from outside the program.

A :class:`Profiler` replaces functions and methods of the program where
callers look them up, times every call on a span stack, and puts every
original back when it is closed.  Nothing under ``src/`` knows it is
being measured.

Span model
----------
Each call of a wrapped function is a span with a layer and a name.  A
span's *self time* is its duration minus the durations of the spans it
directly contains, so the self times of all spans under the root span of
an iteration sum to the root's duration exactly.  Simulation processes
are covered by wrapping ``Environment.process``: every resumption of a
process generator (one ``send`` or ``throw``) is a span attributed to the
layer of the module that defines the generator.

Per ``(layer, name)`` the profiler always keeps the call count, total
and self time.  Individual span records are kept only for the first
``SPAN_CAP`` calls of each name, so leaf calls made hundreds of
thousands of times (metric writes, rate samples) cost a counter, not a
record.
"""

from __future__ import annotations

import collections
import functools
import pathlib
import sys
import time
import typing as _t

__all__ = ["Profiler", "TimedGenerator", "layer_of_file"]

Key = tuple[str, str]  # (layer, name)


def layer_of_file(path: str) -> str:
    """The program layer a source file belongs to.

    ``.../repro/netsim/flows.py`` -> ``netsim``;
    ``.../repro/loadgen.py`` -> ``loadgen``; anything else -> ``other``.
    """
    parts = pathlib.PurePath(path).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            rest = parts[i + 1 :]
            if len(rest) >= 2:
                return rest[0]
            return pathlib.PurePath(rest[0]).stem
    return "other"


def _generator_key(generator: object) -> Key:
    code = getattr(generator, "gi_code", None)
    if code is None:
        return ("other", type(generator).__name__)
    return (layer_of_file(code.co_filename), generator.__qualname__)


class TimedGenerator:
    """A generator proxy that makes every resumption a span.

    It keeps the wrapped generator's ``__name__``, passes ``send``,
    ``throw`` and ``close`` through, and lets ``StopIteration`` (the
    generator's return value) propagate unchanged, so both the simulation
    kernel and ``yield from`` treat it as the generator itself.
    """

    def __init__(self, generator: _t.Generator, key: Key, profiler: "Profiler"):
        self._gen = generator
        self._key = key
        self._prof = profiler
        self.__name__ = getattr(generator, "__name__", key[1])
        #: Set when the proxy drives a simulation process: the process
        #: name recorded on every span opened while it runs.
        self.process_name: str | None = None

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        prof = self._prof
        outer = prof.process_name
        if self.process_name is not None:
            prof.process_name = self.process_name
        prof.enter(self._key)
        try:
            return self._gen.send(value)
        finally:
            prof.exit()
            prof.process_name = outer

    def throw(self, *args):
        prof = self._prof
        outer = prof.process_name
        if self.process_name is not None:
            prof.process_name = self.process_name
        prof.enter(self._key)
        try:
            return self._gen.throw(*args)
        finally:
            prof.exit()
            prof.process_name = outer

    def close(self) -> None:
        self._gen.close()


#: Span records kept per ``(layer, name)``; later calls are only aggregated.
SPAN_CAP = 10_000


class Profiler:
    """Span stack plus the wrappers that feed it."""

    def __init__(self):
        #: (layer, name) -> [calls, total seconds, self seconds]
        self.stats: dict[Key, list] = {}
        #: Named counts gathered by wrappers (items, flops, ...).
        self.counters: collections.Counter = collections.Counter()
        #: (span id, parent id, key, start, end, iteration, process name)
        self.spans: list[tuple] = []
        #: Identifier shared by every span of one iteration.
        self.iteration = 0
        #: Name of the simulation process currently resumed, if any.
        self.process_name: str | None = None
        #: Wrap targets that do not exist in this version of the program.
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- span stack ------------------------------------------------------

    def enter(self, key: Key) -> None:
        self._stack.append([key, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        key, start, child_s, span_id = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        if stat[0] <= SPAN_CAP:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append(
                (span_id, parent, key, start, end, self.iteration,
                 self.process_name)
            )
        return duration

    def timed(self, key: Key, fn: _t.Callable[[], _t.Any]) -> tuple[_t.Any, float]:
        """Run ``fn`` as one span; returns ``(result, seconds)``."""
        self.enter(key)
        try:
            result = fn()
        finally:
            duration = self.exit()
        return result, duration

    # -- reading ---------------------------------------------------------

    def self_seconds(self, layer: str | None = None, name: str | None = None) -> float:
        return sum(
            stat[2]
            for (lay, nm), stat in self.stats.items()
            if (layer is None or lay == layer) and (name is None or nm == name)
        )

    def calls(self, layer: str | None = None, name: str | None = None) -> int:
        return sum(
            stat[0]
            for (lay, nm), stat in self.stats.items()
            if (layer is None or lay == layer) and (name is None or nm == name)
        )

    # -- wrapping ----------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object, raw: object) -> None:
        setattr(owner, attr, value)
        self._patched.append((owner, attr, raw))

    def _lookup(self, owner: object, attr: str) -> object | None:
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return raw

    def _install(self, owner: object, attr: str, raw: object, make) -> None:
        """Replace ``owner.attr`` (and, for a module function, every
        ``from ... import`` binding of it in the program's modules)."""
        wrapper = make(raw)
        self._set(owner, attr, wrapper, raw)
        if isinstance(owner, type(sys)):
            for module in list(sys.modules.values()):
                if (
                    module is not owner
                    and getattr(module, "__name__", "").startswith("repro")
                    and vars(module).get(attr) is raw
                ):
                    self._set(module, attr, wrapper, raw)

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        on_call: _t.Callable[[tuple, dict, object], None] | None = None,
        returns_generator: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span.

        ``on_call(args, kwargs, result)`` runs after each call, outside
        the span, to count work.  With ``returns_generator`` the call
        itself is not timed; the generator it returns is wrapped in a
        :class:`TimedGenerator` instead.
        """
        raw = self._lookup(owner, attr)
        if raw is None:
            return
        key = (layer, f"{getattr(owner, '__name__', owner)}.{attr}")
        enter, exit_ = self.enter, self.exit

        def make(fn):
            if returns_generator:

                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    generator = fn(*args, **kwargs)
                    if on_call is not None:
                        on_call(args, kwargs, generator)
                    return TimedGenerator(generator, key, self)

                return wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(key)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_()
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result

            return wrapper

        self._install(owner, attr, raw, make)

    def count(self, owner: object, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        raw = self._lookup(owner, attr)
        if raw is None:
            return
        counters = self.counters

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[counter] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._install(owner, attr, raw, make)

    def wrap_process_spawn(self, owner: type, attr: str = "process") -> None:
        """Wrap ``Environment.process`` so every resumption of a process
        generator is a span of the generator's layer."""
        raw = self._lookup(owner, attr)
        if raw is None:
            return
        prof = self

        def make(fn):
            @functools.wraps(fn)
            def process(env, generator, *args, **kwargs):
                if not isinstance(generator, TimedGenerator):
                    generator = TimedGenerator(
                        generator, _generator_key(generator), prof
                    )
                proc = fn(env, generator, *args, **kwargs)
                generator.process_name = getattr(proc, "name", None)
                prof.counters["sim.processes"] += 1
                return proc

            return process

        self._install(owner, attr, raw, make)

    def restore(self) -> None:
        """Put every replaced attribute back (idempotent)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every live replacement."""
        return list(self._patched)

    # -- export ------------------------------------------------------------

    def chrome_events(self, pid: int, label: str) -> list[dict]:
        """Recorded spans as Chrome trace-event ``X`` records (µs)."""
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": label}},
        ]
        origin = min((span[3] for span in self.spans), default=0.0)
        for span_id, parent, (layer, name), start, end, iteration, proc in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {
                        "span_id": span_id,
                        "parent_id": parent,
                        "iteration": iteration,
                        "process": proc,
                    },
                }
            )
        return events

    def aggregates(self) -> list[dict]:
        """Per-(layer, name) call counts and seconds, hottest first."""
        rows = [
            {"layer": layer, "name": name, "calls": stat[0],
             "total_s": stat[1], "self_s": stat[2]}
            for (layer, name), stat in self.stats.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
