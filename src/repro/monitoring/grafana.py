"""ASCII Grafana: render time-series panels and stat rows in a terminal.

"Grafanas web-based dashboard is accessible from a browser, providing a
quick debugging solution for cluster users and administrators" (§II-A).
Ours renders to text so benchmark output can carry the same panels the
paper screenshots (Figures 3–6): one sparkline row per labelled series,
min/mean/max in the legend, plus stat panels for headline numbers.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.monitoring.metrics import MetricRegistry
import repro.monitoring.promql as promql

__all__ = ["Panel", "Dashboard", "sparkline"]

_TICKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: _t.Sequence[float], width: int = 60) -> str:
    """Render values as a unicode sparkline, resampled to ``width``."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return " " * width
    if arr.size > width:
        # Bucket-max resampling keeps peaks visible.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array(
            [arr[a:b].max() if b > a else arr[min(a, arr.size - 1)]
             for a, b in zip(edges, edges[1:])]
        )
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return _TICKS[1] * len(arr)
    scaled = (arr - lo) / (hi - lo) * (len(_TICKS) - 2)
    return "".join(_TICKS[int(round(s)) + 1] for s in scaled)


@dataclasses.dataclass
class Panel:
    """One dashboard panel: a metric name + display options."""

    title: str
    metric: str
    unit: str = ""
    scale: float = 1.0  # display = value * scale (e.g. bytes -> GB)
    kind: str = "timeseries"  # or "stat"

    def render(self, registry: MetricRegistry, width: int = 60) -> str:
        series = registry.all_series(self.metric)
        lines = [f"── {self.title} " + "─" * max(0, width - len(self.title) - 4)]
        if not series:
            lines.append("   (no data)")
            return "\n".join(lines)
        if self.kind == "stat":
            total = sum(ts.latest() or 0.0 for ts in series) * self.scale
            lines.append(f"   {total:,.2f} {self.unit}")
            return "\n".join(lines)
        for ts in series:
            label = ", ".join(f"{k}={v}" for k, v in ts.labels) or "(all)"
            _, values = ts.as_arrays()
            values = values * self.scale
            spark = sparkline(values, width=width)
            stats = (
                f"min {values.min():,.2f} / avg {values.mean():,.2f} / "
                f"max {values.max():,.2f} {self.unit}"
                if len(values)
                else "empty"
            )
            lines.append(f"   {label:<28} {spark}")
            lines.append(f"   {'':<28} {stats}")
        return "\n".join(lines)


class Dashboard:
    """A titled stack of panels over one registry."""

    def __init__(self, title: str, registry: MetricRegistry):
        self.title = title
        self.registry = registry
        self.panels: list[Panel] = []

    def add_panel(self, panel: Panel) -> "Dashboard":
        self.panels.append(panel)
        return self

    def render(self, width: int = 60) -> str:
        header = f"═══ {self.title} " + "═" * max(0, width - len(self.title) - 5)
        parts = [header]
        for panel in self.panels:
            parts.append(panel.render(self.registry, width=width))
        return "\n".join(parts)

    # -- convenience queries for tests/benches -------------------------------------

    def peak(self, metric: str) -> float:
        """Max across all labelled series of a metric."""
        series = self.registry.all_series(metric)
        if not series:
            return 0.0
        return max(promql.max_over_time(ts) for ts in series)
