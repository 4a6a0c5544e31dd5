"""Critical-path analysis over a workflow's span tree.

Two questions a Grafana dashboard cannot answer:

1. **Which causal chain bounded the run?**  Steps execute concurrently
   where the DAG allows; the run is only as fast as its longest
   dependency chain.  :func:`critical_chain` walks the step spans'
   recorded ``depends_on`` edges and returns the heaviest chain.
2. **Where did the time go?**  :func:`attribute_layers` partitions the
   root span's interval across the layer categories — ``compute`` >
   ``transfer`` > ``scheduling`` > ``queueing`` in precedence order
   (overlapping intervals charge the dominant layer), with uncovered
   time reported as ``orchestration``.  The partition is exact: the
   layer totals sum to the root duration.

:func:`analyze_run` bundles both into a :class:`CriticalPathReport`.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.tracing.span import LAYER_CATEGORIES, Span, Tracer

__all__ = [
    "CriticalPathReport",
    "analyze_run",
    "attribute_layers",
    "critical_chain",
    "layer_overlap",
]

#: Attribution bucket for root time no layer span covers (driver logic,
#: controller reconciles, queue coordination, retry backoff waits).
ORCHESTRATION = "orchestration"


@dataclasses.dataclass
class CriticalPathReport:
    """The per-run profile: longest step chain + per-layer attribution."""

    workflow: str
    total_s: float
    #: (step name, step duration) along the heaviest dependency chain.
    chain: list[tuple[str, float]]
    #: layer name -> seconds; sums (with orchestration) to ``total_s``.
    layers: dict[str, float]

    @property
    def critical_path_s(self) -> float:
        return sum(duration for _name, duration in self.chain)

    def table(self) -> dict[str, dict[str, float]]:
        """Layer attribution as rows of seconds and fractions."""
        return {
            layer: {
                "seconds": seconds,
                "fraction": seconds / self.total_s if self.total_s else 0.0,
            }
            for layer, seconds in self.layers.items()
        }

    def render(self) -> str:
        """Two-part text report: the chain, then the attribution table."""
        lines = [
            f"Critical path — workflow {self.workflow!r} "
            f"({self.total_s:.1f}s total)",
            f"  longest chain ({self.critical_path_s:.1f}s, "
            f"{100.0 * self.critical_path_s / self.total_s if self.total_s else 0.0:.0f}% of run):",
        ]
        for name, duration in self.chain:
            lines.append(f"    {name:<20} {duration:>10.1f}s")
        lines.append("  time attribution by layer:")
        for layer, row in self.table().items():
            lines.append(
                f"    {layer:<14} {row['seconds']:>10.1f}s  "
                f"{100.0 * row['fraction']:5.1f}%"
            )
        return "\n".join(lines)


def critical_chain(step_spans: _t.Sequence[Span]) -> list[tuple[str, float]]:
    """The heaviest dependency chain through the step spans.

    Each step span carries ``attributes["step"]`` (its name) and
    ``attributes["depends_on"]`` (upstream step names) — recorded by the
    workflow driver.  Dependencies without a span (steps restored from a
    checkpoint, steps never launched) simply end the chain there.
    """
    by_name: dict[str, Span] = {}
    for span in step_spans:
        name = str(span.attributes.get("step", span.name))
        by_name[name] = span

    memo: dict[str, tuple[float, list[tuple[str, float]]]] = {}

    def chain_to(name: str) -> tuple[float, list[tuple[str, float]]]:
        if name in memo:
            return memo[name]
        span = by_name[name]
        memo[name] = (span.duration, [(name, span.duration)])  # cycle guard
        best = (0.0, [])
        deps = span.attributes.get("depends_on", ())
        for dep in deps if isinstance(deps, (list, tuple)) else ():
            if str(dep) in by_name:
                candidate = chain_to(str(dep))
                if candidate[0] > best[0]:
                    best = candidate
        result = (
            best[0] + span.duration,
            best[1] + [(name, span.duration)],
        )
        memo[name] = result
        return result

    best: tuple[float, list[tuple[str, float]]] = (0.0, [])
    for name in sorted(by_name):
        candidate = chain_to(name)
        if candidate[0] > best[0]:
            best = candidate
    return best[1]


def _effective_end(spans: _t.Sequence[Span], root: Span) -> float:
    """The analysis window's right edge.

    A finished root ends the window itself.  An *unfinished* root — a
    run whose pods were preempted or evicted before the driver could
    close it — still has a well-defined observation horizon: the latest
    finished timestamp anywhere in the trace.  Using that (never before
    ``root.start``) keeps the layer partition exact on partial traces.
    """
    if root.end is not None:
        return root.end
    latest = root.start
    for span in spans:
        if span.end is not None and span.end > latest:
            latest = span.end
    return latest


def attribute_layers(
    spans: _t.Sequence[Span], root: Span
) -> dict[str, float]:
    """Partition the root interval across the layer categories.

    Every finished span whose category is a layer (``compute``,
    ``transfer``, ``scheduling``, ``queueing``) claims its interval,
    clipped to the root window.  Where claims overlap, precedence picks
    one layer (compute wins over transfer wins over scheduling wins over
    queueing) — so a transfer happening *inside* GPU time is not double
    counted.  Root time nothing claims is ``orchestration``.  The
    returned totals sum to the root window (the root duration when the
    root is finished; see :func:`_effective_end` otherwise).

    Error-status spans participate like any other: a preempted pod's
    queueing/scheduling time is real time the run spent, and dropping it
    would break the partition invariant.  Spans that are unfinished or
    malformed (``end < start`` — possible in externally-loaded traces)
    are skipped; they claim no interval.
    """
    root_end = _effective_end(spans, root)
    intervals: list[tuple[float, float, str]] = []
    for span in spans:
        if span.category not in LAYER_CATEGORIES or span.end is None:
            continue
        if span.end < span.start:
            continue
        lo = max(span.start, root.start)
        hi = min(span.end, root_end)
        if hi > lo:
            intervals.append((lo, hi, span.category))

    points = sorted(
        {root.start, root_end}
        | {lo for lo, _hi, _c in intervals}
        | {hi for _lo, hi, _c in intervals}
    )
    totals = {layer: 0.0 for layer in LAYER_CATEGORIES}
    totals[ORCHESTRATION] = 0.0
    for a, b in zip(points, points[1:]):
        covering = {
            category
            for lo, hi, category in intervals
            if lo <= a and hi >= b
        }
        for layer in LAYER_CATEGORIES:  # precedence order
            if layer in covering:
                totals[layer] += b - a
                break
        else:
            totals[ORCHESTRATION] += b - a
    return totals


def layer_overlap(
    spans: _t.Sequence[Span],
    root: Span,
    a: str = "compute",
    b: str = "transfer",
) -> float:
    """Seconds inside the root window where layers ``a`` and ``b`` both
    have a span active.

    :func:`attribute_layers` deliberately hides overlap: precedence
    charges each instant to exactly one layer.  This is the complementary
    measurement — how much wall time two layers spent running
    *simultaneously*.  A barrier-driven workflow shows ``compute`` /
    ``transfer`` overlap only inside individual steps; the pipelined
    driver's whole point is to grow this number across step boundaries
    (training compute over download transfer), so the pipelined-driver
    tests assert on it directly.

    Uses the same clipping and malformed-span rules as
    :func:`attribute_layers`, so the result is comparable with (and never
    exceeds) the partition's per-layer totals.
    """
    root_end = _effective_end(spans, root)
    intervals: list[tuple[float, float, str]] = []
    for span in spans:
        if span.category not in (a, b) or span.end is None:
            continue
        if span.end < span.start:
            continue
        lo = max(span.start, root.start)
        hi = min(span.end, root_end)
        if hi > lo:
            intervals.append((lo, hi, span.category))

    points = sorted(
        {lo for lo, _hi, _c in intervals} | {hi for _lo, hi, _c in intervals}
    )
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        covering = {
            category
            for ilo, ihi, category in intervals
            if ilo <= lo and ihi >= hi
        }
        if a in covering and b in covering:
            total += hi - lo
    return total


def analyze_run(trace: "Tracer | _t.Sequence[Span]") -> CriticalPathReport:
    """Build the :class:`CriticalPathReport` for one workflow run.

    ``trace`` is a tracer or a span list.  The run is the last finished
    ``workflow``-category span (the most recent run), falling back to
    the last *unfinished* one — a run whose pods were preempted or
    evicted can leave the root open, and its partial trace is still
    analyzable over the observed window.
    """
    spans = list(trace.spans) if isinstance(trace, Tracer) else list(trace)
    finished = [
        s for s in spans if s.category == "workflow" and s.end is not None
    ]
    if finished:
        root = finished[-1]
    else:
        candidates = [s for s in spans if s.category == "workflow"]
        if not candidates:
            raise ValueError("no workflow root span in trace")
        root = candidates[-1]
    step_spans = [
        s
        for s in spans
        if s.category == "step" and s.parent_id == root.span_id
    ]
    return CriticalPathReport(
        workflow=str(root.attributes.get("workflow", root.name)),
        total_s=_effective_end(spans, root) - root.start,
        chain=critical_chain(step_spans),
        layers=attribute_layers(spans, root),
    )
