"""Metric registry: labelled counters/gauges as time series."""

from __future__ import annotations

import bisect
import typing as _t

import numpy as np

from repro.sim import Environment

__all__ = ["TimeSeries", "MetricRegistry"]

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


class MetricRegistry:
    """All metrics of a testbed run.

    Gauges are ``set`` (sampled values: CPU in use, memory, GPU count);
    counters are ``inc``-only (bytes downloaded, files processed); both
    are recorded against the virtual clock.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._series: dict[tuple[str, tuple], TimeSeries] = {}
        self._counter_totals: dict[tuple[str, tuple], float] = {}

    # -- writing -----------------------------------------------------------------

    def series(self, name: str, labels: Labels | None = None) -> TimeSeries:
        """The series for (name, labels), created on first use."""
        key = (name, _label_key(labels))
        ts = self._series.get(key)
        if ts is None:
            ts = TimeSeries(key[0], key[1])
            self._series[key] = ts
        return ts

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

    def names(self) -> list[str]:
        return sorted({name for name, _ in self._series})

    def all_series(self, name: str) -> list[TimeSeries]:
        """Every labelled series under a metric name."""
        return [ts for (n, _), ts in sorted(self._series.items()) if n == name]

    def get(self, name: str, labels: Labels | None = None) -> TimeSeries | None:
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
