"""Metric registry: labelled counters/gauges as time series."""

from __future__ import annotations

import bisect
import typing as _t

import numpy as np

from repro.sim import Environment

__all__ = ["TimeSeries", "Gauge", "MetricRegistry"]

Labels = _t.Mapping[str, str]


def _label_key(labels: Labels | None) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((labels or {}).items()))


class TimeSeries:
    """An append-only (time, value) series (times non-decreasing)."""

    __slots__ = ("name", "labels", "times", "values")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.times: list[float] = []
        self.values: list[float] = []

    def append(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(
                f"series {self.name}{dict(self.labels)}: time went backwards"
            )
        self.times.append(t)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def window(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with start <= t <= end as numpy arrays."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return (
            np.asarray(self.times[lo:hi]),
            np.asarray(self.values[lo:hi]),
        )

    def latest(self) -> float | None:
        return self.values[-1] if self.values else None

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.values)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TimeSeries {self.name}{dict(self.labels)} n={len(self)}>"


class Gauge:
    """A scraped gauge: its owner calls :meth:`set` whenever the value
    changes, and the registry fills ``series`` on the scrape grid.

    Of several writes at one instant the last wins; a fill drops the
    entries that no later grid point can see.
    """

    __slots__ = ("env", "series", "held", "times", "values")

    def __init__(self, env: Environment, series: TimeSeries, value: float):
        self.env = env
        self.series = series
        #: the value in force before the first logged change
        self.held = value
        self.times: list[float] = []
        self.values: list[float] = []

    def set(self, value: float) -> None:
        """Record the value the gauge holds from now on."""
        self.times.append(self.env.now)
        self.values.append(value)

    def fill(self, grid: list[float]) -> None:
        """Extend the series to every point of ``grid``: each point takes
        the last value changed strictly before it."""
        series = self.series
        done = len(series.times)
        if done == len(grid):
            return
        points = grid[done:]
        # Per point, the number of changes strictly before it: 0 selects
        # the held value, k the k-th change.
        seen = np.searchsorted(self.times, points, side="left")
        held = np.array([self.held, *self.values], dtype=np.float64)
        series.times.extend(points)
        series.values.extend(held[seen].tolist())
        spent = int(seen[-1])
        if spent:
            self.held = self.values[spent - 1]
            del self.times[:spent], self.values[:spent]


class MetricRegistry:
    """All metrics of a testbed run.

    Counters are ``inc``-only (bytes downloaded, files processed) and
    ``set_gauge`` writes a point per call; both are recorded against the
    virtual clock.  Scraped gauges (:meth:`gauge`) are read on the grid
    0, ``interval``, 2 ``interval``, ... up to now, the times built by
    repeated addition like a chain of ``interval`` timeouts: a read of
    ``names``, ``get`` or ``all_series`` first fills them to now.  A grid
    point at or before now is final, so reading mid-run and again later
    gives the same series as one read at the end.
    """

    def __init__(self, env: Environment, interval: float = 15.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.interval = interval
        self._series: dict[tuple[str, tuple], TimeSeries] = {}
        self._counter_totals: dict[tuple[str, tuple], float] = {}
        self._gauges: list[Gauge] = []
        #: scrape times up to now, and the first one after now
        self._grid: list[float] = []
        self._next_scrape = 0.0

    # -- writing -----------------------------------------------------------------

    def series(self, name: str, labels: Labels | None = None) -> TimeSeries:
        """The series for (name, labels), created on first use."""
        key = (name, _label_key(labels))
        ts = self._series.get(key)
        if ts is None:
            ts = TimeSeries(key[0], key[1])
            self._series[key] = ts
        return ts

    def gauge(
        self, name: str, value: float, labels: Labels | None = None
    ) -> Gauge:
        """A scraped gauge holding ``value`` until its owner sets another."""
        gauge = Gauge(self.env, self.series(name, labels), value)
        self._gauges.append(gauge)
        return gauge

    def next_scrape(self) -> float:
        """The first scrape time after now (the grid is extended to now)."""
        while self._next_scrape <= self.env.now:
            self._grid.append(self._next_scrape)
            self._next_scrape += self.interval
        return self._next_scrape

    def set_gauge(self, name: str, value: float, labels: Labels | None = None) -> None:
        """Record an instantaneous value."""
        self.series(name, labels).append(self.env.now, value)

    def set_gauge_at(
        self, name: str, value: float, t: float, labels: Labels | None = None
    ) -> None:
        """Record a value at an explicit (non-decreasing) timestamp —
        used by exporters replaying events that already happened."""
        self.series(name, labels).append(t, value)

    def inc_counter(
        self, name: str, amount: float = 1.0, labels: Labels | None = None
    ) -> None:
        """Increase a monotonic counter and record its new total."""
        self.inc_counter_at(name, self.env.now, amount, labels)

    def inc_counter_at(
        self,
        name: str,
        t: float,
        amount: float = 1.0,
        labels: Labels | None = None,
    ) -> None:
        """Counter increment stamped at an explicit timestamp."""
        if amount < 0:
            raise ValueError("counters only go up")
        key = (name, _label_key(labels))
        total = self._counter_totals.get(key, 0.0) + amount
        self._counter_totals[key] = total
        self.series(name, labels).append(t, total)

    # -- reading -----------------------------------------------------------------

    def _scrape(self) -> None:
        """Fill every scraped gauge's series up to now."""
        self.next_scrape()
        for gauge in self._gauges:
            gauge.fill(self._grid)

    def names(self) -> list[str]:
        self._scrape()
        return sorted({name for name, _ in self._series})

    def all_series(self, name: str) -> list[TimeSeries]:
        """Every labelled series under a metric name."""
        self._scrape()
        return [ts for (n, _), ts in sorted(self._series.items()) if n == name]

    def get(self, name: str, labels: Labels | None = None) -> TimeSeries | None:
        self._scrape()
        return self._series.get((name, _label_key(labels)))

    def counter_total(self, name: str, labels: Labels | None = None) -> float:
        return self._counter_totals.get((name, _label_key(labels)), 0.0)

    def counter_sum(self, name: str) -> float:
        """A counter's total summed across every label set."""
        return sum(
            total
            for (n, _), total in self._counter_totals.items()
            if n == name
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricRegistry {len(self._series)} series>"
