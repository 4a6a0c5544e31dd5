"""ASCII flame summary for a span tree.

Each span renders as one line: an indented name, a duration, and a bar
whose horizontal position and width are the span's [start, end) interval
scaled to the root span's extent — the text analogue of a flame graph /
Chrome trace timeline, printable in CI logs.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.tracing.span import Span

__all__ = ["flame_summary"]

_BAR = "█"
_TRACK = "·"


def _bar(start: float, end: float, t0: float, extent: float, width: int) -> str:
    """One timeline track: filled over [start, end), dotted elsewhere."""
    if extent <= 0.0:
        return _TRACK * width
    lo = int(round((start - t0) / extent * width))
    hi = int(round((end - t0) / extent * width))
    lo = max(0, min(width, lo))
    hi = max(lo, min(width, hi))
    if hi == lo and end > start:
        hi = min(width, lo + 1)  # sub-pixel spans still get one cell
    return _TRACK * lo + _BAR * (hi - lo) + _TRACK * (width - hi)


def flame_summary(
    spans: _t.Sequence["Span"],
    *,
    width: int = 48,
    min_fraction: float = 0.0,
) -> str:
    """Render finished ``spans`` as an indented ASCII timeline.

    ``min_fraction`` drops spans shorter than that fraction of the root
    (children of a dropped span are dropped with it).  Sibling order is
    by start time (ties by span_id), so the rendering is deterministic.
    """
    finished = [s for s in spans if s.end is not None]
    if not finished:
        return "(no finished spans)"

    by_parent: dict[str | None, list["Span"]] = {}
    ids = {s.span_id for s in finished}
    for s in finished:
        parent = s.parent_id if s.parent_id in ids else None
        by_parent.setdefault(parent, []).append(s)
    for children in by_parent.values():
        children.sort(key=lambda s: (s.start, s.span_id))

    roots = by_parent.get(None, [])
    t0 = min(s.start for s in roots)
    t1 = max(s.end for s in roots)
    extent = t1 - t0

    name_w = 34
    lines = [
        f"{'span':<{name_w}} {'dur(s)':>9} timeline "
        f"[{t0:.1f}s .. {t1:.1f}s]"
    ]

    def walk(span: "Span", depth: int) -> None:
        if extent > 0 and span.duration < min_fraction * extent:
            return
        label = ("  " * depth + span.name)[:name_w]
        track = _bar(span.start, span.end, t0, extent, width)
        lines.append(f"{label:<{name_w}} {span.duration:>9.2f} {track}")
        for child in by_parent.get(span.span_id, []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
