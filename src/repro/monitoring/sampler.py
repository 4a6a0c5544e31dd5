"""The scrape loop: periodic sampling of probe callables."""

from __future__ import annotations

import typing as _t

from repro.monitoring.metrics import Labels, MetricRegistry, TimeSeries
from repro.sim import Environment

__all__ = ["Sampler"]


class _Probe:
    __slots__ = ("name", "labels", "fn", "series")

    def __init__(self, name: str, labels: Labels, fn: _t.Callable[[], float]):
        self.name = name
        self.labels = labels
        self.fn = fn
        #: Resolved on the first successful sample, so a probe that
        #: never succeeds creates no series.
        self.series: TimeSeries | None = None


class Sampler:
    """Scrapes registered probes every ``interval`` seconds of sim time.

    A probe is any zero-argument callable returning a float — e.g.
    ``lambda: node.allocated.cpu`` — so the sampler observes live cluster
    state exactly the way Prometheus scrapes an exporter.

    Probes that raise are skipped for that scrape (a target being briefly
    down must not kill monitoring).
    """

    def __init__(
        self,
        env: Environment,
        registry: MetricRegistry,
        interval: float = 15.0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.registry = registry
        self.interval = interval
        self._probes: list[_Probe] = []
        self._proc = env.process(self._loop(), name="metrics-sampler")
        self.scrapes = 0

    def add_probe(
        self,
        name: str,
        fn: _t.Callable[[], float],
        labels: Labels | None = None,
    ) -> None:
        """Register a gauge probe."""
        self._probes.append(_Probe(name, dict(labels or {}), fn))

    def _loop(self):
        while True:
            now = self.env.now
            for probe in self._probes:
                try:
                    value = float(probe.fn())
                except Exception:
                    continue  # scrape failure: skip this sample
                if probe.series is None:
                    probe.series = self.registry.series(probe.name, probe.labels)
                probe.series.append(now, value)
            self.scrapes += 1
            yield self.env.timeout(self.interval)
