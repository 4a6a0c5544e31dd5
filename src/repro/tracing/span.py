"""Spans and the tracer that records them.

A :class:`Span` is one timed, attributed interval — a workflow run, a
step, a pod lifecycle phase, a transfer, an ML kernel.  Spans form a
tree via ``parent_id``; the :class:`Tracer` hands out ids, stamps times
from an injected clock, and keeps the full span list in creation order.

Clock discipline
----------------
The tracer never reads wall time.  On a testbed it is bound to the
simulation clock (:meth:`Tracer.for_env`); for pure-compute code with no
environment (the ML engines under test) :meth:`Tracer.counting` provides
a deterministic event-counter clock.  Either way, identical inputs
produce identical traces.

Parenting
---------
Simulated processes interleave, so an implicit thread-local "current
span" would attach children to whichever process last touched the
tracer.  Parenting is therefore explicit: pass ``parent=``, or register
a *scope* (``bind_scope(namespace, step_span)``) that components which
only know a namespace — the cluster's pod lifecycle hooks — can resolve
with :meth:`scope_parent`.  Spans with no parent attach to the bound
root span, if any.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

__all__ = ["Span", "Tracer", "validate_spans"]

#: Span categories the layer-attribution sweep understands, in precedence
#: order (when intervals overlap, time is charged to the leftmost).
LAYER_CATEGORIES = ("compute", "transfer", "scheduling", "queueing")


@dataclasses.dataclass
class Span:
    """One timed interval in the trace tree."""

    name: str
    category: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, object] = dataclasses.field(default_factory=dict)
    status: str = "ok"  # "ok" | "error" | "unfinished"

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in (virtual) seconds; 0.0 while unfinished."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict:
        """A JSON-safe projection (the span schema of API.md)."""
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": _safe_attrs(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover
        end = f"{self.end:.3f}" if self.end is not None else "…"
        return (
            f"<Span #{self.span_id} {self.category}:{self.name!r} "
            f"[{self.start:.3f}, {end}] {self.status}>"
        )


def _safe_attrs(attrs: _t.Mapping[str, object]) -> dict:
    out: dict[str, object] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        elif isinstance(value, (list, tuple)):
            out[str(key)] = [
                v if isinstance(v, (str, int, float, bool)) else repr(v)
                for v in value
            ]
        else:
            out[str(key)] = repr(value)
    return out


class Tracer:
    """Records spans against an injected clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time.  Must be
        non-decreasing across calls (the simulation clock is; so is the
        counting clock).
    """

    def __init__(self, clock: _t.Callable[[], float]):
        self._clock = clock
        self.spans: list[Span] = []
        self._next_id = 1
        self.root: Span | None = None
        self._scopes: dict[str, Span] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def for_env(cls, env) -> "Tracer":
        """A tracer stamping spans from a simulation environment's clock."""
        return cls(lambda: env.now)

    @classmethod
    def counting(cls, step: float = 1.0) -> "Tracer":
        """A tracer whose clock advances ``step`` per read — deterministic
        event ordinals for code with no simulation environment."""
        state = {"t": 0.0}

        def clock() -> float:
            state["t"] += step
            return state["t"]

        return cls(clock)

    # -- recording -----------------------------------------------------------

    def start(
        self,
        name: str,
        category: str,
        parent: Span | None = None,
        attributes: _t.Mapping[str, object] | None = None,
    ) -> Span:
        """Open a span now.  With ``parent=None`` it attaches to the bound
        root span (or becomes a top-level span when no root is bound)."""
        if parent is None and self.root is not None:
            parent_id = self.root.span_id
        else:
            parent_id = parent.span_id if parent is not None else None
        span = Span(
            name=name,
            category=category,
            span_id=self._next_id,
            parent_id=parent_id,
            start=self._clock(),
            attributes=dict(attributes or {}),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish(
        self,
        span: Span,
        status: str = "ok",
        attributes: _t.Mapping[str, object] | None = None,
    ) -> Span:
        """Close a span now (idempotent: a finished span is untouched)."""
        if span.end is None:
            span.end = max(self._clock(), span.start)
            span.status = status
        if attributes:
            span.attributes.update(attributes)
        return span

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        category: str,
        parent: Span | None = None,
        attributes: _t.Mapping[str, object] | None = None,
    ):
        """Context manager: open on entry, close on exit.  Any exception
        (including a simulation-process kill unwinding through a yield)
        closes the span with ``status="error"`` before propagating."""
        span = self.start(name, category, parent=parent, attributes=attributes)
        try:
            yield span
        except BaseException:
            self.finish(span, status="error")
            raise
        self.finish(span)

    # -- root + scopes -------------------------------------------------------

    def start_root(
        self,
        name: str,
        category: str = "workflow",
        attributes: _t.Mapping[str, object] | None = None,
    ) -> Span:
        """Open a root span and make it the default parent."""
        span = self.start(name, category, attributes=attributes)
        self.root = span
        return span

    def finish_root(self, root: Span, status: str = "ok") -> Span:
        """Close the root, sweep every still-open descendant shut (status
        ``"unfinished"``, ended at the root's end), and unbind the root."""
        self.finish(root, status=status)
        assert root.end is not None
        for span in self.spans:
            if span.end is None:
                span.end = max(root.end, span.start)
                span.status = "unfinished"
        if self.root is root:
            self.root = None
        self._scopes.clear()
        return root

    def bind_scope(self, key: str, span: Span) -> None:
        """Make ``span`` the parent for components that only know ``key``
        (the workflow driver binds each step's namespace to its span)."""
        self._scopes[key] = span

    def unbind_scope(self, key: str) -> None:
        self._scopes.pop(key, None)

    def scope_parent(self, key: str) -> Span | None:
        """The span bound to ``key``, or None (caller falls back to root)."""
        return self._scopes.get(key)

    # -- reading -------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def find(
        self, category: str | None = None, name: str | None = None
    ) -> list[Span]:
        """Spans filtered by category and/or exact name, creation order."""
        return [
            s
            for s in self.spans
            if (category is None or s.category == category)
            and (name is None or s.name == name)
        ]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def __repr__(self) -> str:  # pragma: no cover
        open_count = sum(1 for s in self.spans if s.end is None)
        return f"<Tracer {len(self.spans)} spans ({open_count} open)>"


def validate_spans(spans: _t.Sequence[Span]) -> list[str]:
    """Check span-tree invariants; returns problem descriptions (empty =
    valid).

    - span ids are unique and every ``parent_id`` resolves (no orphans);
    - every finished span has ``end >= start``;
    - a finished child lies inside its finished parent (the parent ends
      at or after the child — equal boundaries are legal, since many
      simulation events share a timestamp).
    """
    problems: list[str] = []
    by_id: dict[int, Span] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span id {span.span_id}")
        by_id[span.span_id] = span
    for span in spans:
        if span.end is not None and span.end < span.start:
            problems.append(
                f"span #{span.span_id} {span.name!r} ends before it starts"
            )
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span #{span.span_id} {span.name!r} is an orphan "
                f"(parent {span.parent_id} unknown)"
            )
            continue
        if span.start < parent.start:
            problems.append(
                f"span #{span.span_id} {span.name!r} starts before its "
                f"parent #{parent.span_id}"
            )
        if (
            span.end is not None
            and parent.end is not None
            and span.end > parent.end
        ):
            problems.append(
                f"span #{span.span_id} {span.name!r} ends after its "
                f"parent #{parent.span_id}"
            )
    return problems
