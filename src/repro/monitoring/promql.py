"""A PromQL-subset evaluator over recorded time series.

The dashboards only need two functions; each takes a
:class:`~repro.monitoring.metrics.TimeSeries` (or a list of them):

- :func:`max_over_time` — the peak of a gauge over a time window.
- :func:`sum_series` — pointwise sum of several gauges on a common grid.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.monitoring.metrics import TimeSeries

__all__ = ["max_over_time", "sum_series"]


def max_over_time(
    ts: TimeSeries, start: float | None = None, end: float | None = None
) -> float:
    """The largest sample with ``start <= t <= end`` (each bound defaults
    to the series' own), ``0.0`` when there is none."""
    if not ts.times:
        return 0.0
    _, values = ts.window(
        ts.times[0] if start is None else start,
        ts.times[-1] if end is None else end,
    )
    return float(values.max()) if len(values) else 0.0


def sum_series(
    series: _t.Sequence[TimeSeries],
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise sum of gauges, step-interpolated onto the union of all
    sample times.

    Returns ``(grid_times, summed_values)``.
    """
    nonempty = [ts for ts in series if len(ts)]
    if not nonempty:
        return np.array([]), np.array([])
    grid = np.unique(np.concatenate([np.asarray(ts.times) for ts in nonempty]))
    total = np.zeros_like(grid, dtype=np.float64)
    for ts in nonempty:
        times, values = ts.as_arrays()
        # Step interpolation: value holds until the next sample; zero
        # before the first sample.
        idx = np.searchsorted(times, grid, side="right") - 1
        sampled = np.where(idx >= 0, values[np.clip(idx, 0, None)], 0.0)
        total += sampled
    return grid, total
