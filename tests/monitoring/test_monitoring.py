"""Tests for metrics, the scrape grid, promql, and the ASCII dashboard."""

import numpy as np
import pytest

from repro.monitoring import promql
from repro.monitoring.grafana import sparkline
from repro.monitoring.metrics import MetricRegistry
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry(env):
    return MetricRegistry(env)


class TestRegistry:
    def test_gauge_records_at_sim_time(self, env, registry):
        def proc(env):
            registry.set_gauge("cpu", 1.0, {"pod": "a"})
            yield env.timeout(10)
            registry.set_gauge("cpu", 3.0, {"pod": "a"})

        env.process(proc(env))
        env.run()
        ts = registry.get("cpu", {"pod": "a"})
        assert ts.times == [0, 10]
        assert ts.values == [1.0, 3.0]

    def test_counter_accumulates(self, registry):
        registry.inc_counter("bytes", 100)
        registry.inc_counter("bytes", 50)
        assert registry.counter_sum("bytes") == 150
        assert registry.get("bytes").values == [100, 150]
        registry.inc_counter("bytes", 7, {"tenant": "a"})
        assert registry.counter_sum("bytes") == 157
        assert registry.get("bytes", {"tenant": "a"}).values == [7]

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.inc_counter("x", -1)

    def test_labels_separate_series(self, registry):
        registry.set_gauge("cpu", 1.0, {"pod": "a"})
        registry.set_gauge("cpu", 2.0, {"pod": "b"})
        assert len(registry.all_series("cpu")) == 2
        assert registry.get("cpu", {"pod": "a"}).latest() == 1.0

    def test_label_order_irrelevant(self, registry):
        registry.set_gauge("m", 1.0, {"a": "1", "b": "2"})
        registry.set_gauge("m", 2.0, {"b": "2", "a": "1"})
        assert len(registry.all_series("m")) == 1

    def test_time_monotonicity_enforced(self, env, registry):
        ts = registry.series("m")
        ts.append(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(4.0, 2.0)

    def test_names_sorted(self, registry):
        registry.set_gauge("zeta", 1)
        registry.set_gauge("alpha", 1)
        assert registry.names() == ["alpha", "zeta"]


class TestScrapeGrid:
    """Scraped gauges: a change log resampled onto the registry's grid."""

    def test_scrapes_at_interval(self, env):
        registry = MetricRegistry(env, interval=10)
        gauge = registry.gauge("val", 0.0)

        def mutator(env):
            yield env.timeout(15)
            gauge.set(7.0)
            yield env.timeout(20)

        env.process(mutator(env))
        env.run(until=40)
        ts = registry.get("val")
        assert ts.times == [0, 10, 20, 30, 40]
        assert ts.values == [0, 0, 7.0, 7.0, 7.0]

    def test_bad_interval(self, env):
        with pytest.raises(ValueError):
            MetricRegistry(env, interval=0)

    def test_change_at_grid_time_lands_after_that_point(self, env):
        registry = MetricRegistry(env, interval=5)
        gauge = registry.gauge("g", 1.0)
        env.run(until=5)
        gauge.set(2.0)
        env.run(until=12)
        ts = registry.get("g")
        assert (ts.times, ts.values) == ([0, 5, 10], [1.0, 1.0, 2.0])

    def test_last_change_at_an_instant_wins(self, env):
        registry = MetricRegistry(env, interval=5)
        gauge = registry.gauge("g", 0.0)
        env.run(until=3)
        for value in (4.0, 9.0, 6.0):
            gauge.set(value)
        env.run(until=5)
        assert registry.get("g").values == [0.0, 6.0]
        assert gauge.times == [] and gauge.held == 6.0

    def test_initial_value_until_first_change(self, env):
        registry = MetricRegistry(env, interval=5)
        gauge = registry.gauge("g", 2**40, {"node": "n1"})
        env.run(until=11)
        gauge.set(3)
        ts = registry.get("g", {"node": "n1"})
        assert ts.values == [float(2**40)] * 3
        assert all(type(v) is float for v in ts.values)

    def test_next_scrape_is_strictly_after_now(self, env):
        registry = MetricRegistry(env, interval=15)
        assert registry.next_scrape() == 15
        env.run(until=15)
        assert registry.next_scrape() == 30
        assert registry.get("missing") is None


class TestPromql:
    def _series(self, registry, pts, name="m", labels=None):
        ts = registry.series(name, labels)
        for t, v in pts:
            ts.append(t, v)
        return ts

    def test_max_over_time(self, registry):
        ts = self._series(registry, [(0, 3.0), (5, 9.0), (10, 1.0)])
        assert promql.max_over_time(ts) == 9.0

    def test_window_restriction(self, registry):
        ts = self._series(registry, [(0, 1.0), (5, 100.0), (10, 2.0)])
        assert promql.max_over_time(ts, start=6, end=10) == 2.0

    def test_sum_series_step_interpolation(self, registry):
        a = self._series(registry, [(0, 1.0), (10, 3.0)], labels={"w": "a"})
        b = self._series(registry, [(5, 10.0)], labels={"w": "b"})
        grid, total = promql.sum_series([a, b])
        np.testing.assert_array_equal(grid, [0, 5, 10])
        np.testing.assert_array_equal(total, [1.0, 11.0, 13.0])

    def test_sum_series_empty(self):
        grid, total = promql.sum_series([])
        assert len(grid) == 0


class TestDashboard:
    def test_sparkline_resamples(self):
        line = sparkline(range(1000), width=40)
        assert len(line) == 40

    def test_sparkline_flat_and_empty(self):
        assert set(sparkline([5, 5, 5], width=10)) == {"▁"}
        assert sparkline([], width=10) == " " * 10
