"""Tests for metrics, sampler, promql, and the ASCII dashboard."""

import numpy as np
import pytest

from repro.monitoring import promql
from repro.monitoring.grafana import Dashboard, Panel, sparkline
from repro.monitoring.metrics import MetricRegistry
from repro.monitoring.sampler import Sampler
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
        assert registry.counter_total("bytes") == 150
        assert registry.get("bytes").values == [100, 150]

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


class TestSampler:
    def test_scrapes_at_interval(self, env, registry):
        state = {"v": 0.0}
        sampler = Sampler(env, registry, interval=10)
        sampler.add_probe("val", lambda: state["v"])

        def mutator(env):
            yield env.timeout(15)
            state["v"] = 7.0
            yield env.timeout(20)

        env.process(mutator(env))
        env.run(until=40)
        ts = registry.get("val")
        assert ts.times == [0, 10, 20, 30, 40]
        assert ts.values == [0, 0, 7.0, 7.0, 7.0]

    def test_failing_probe_skipped(self, env, registry):
        sampler = Sampler(env, registry, interval=5)
        sampler.add_probe("bad", lambda: 1 / 0)
        sampler.add_probe("good", lambda: 1.0)
        env.run(until=20)
        assert registry.get("bad") is None or len(registry.get("bad")) == 0
        assert len(registry.get("good")) == 5

    def test_bad_interval(self, env, registry):
        with pytest.raises(ValueError):
            Sampler(env, registry, interval=0)

    @staticmethod
    def _probes(env):
        """(name, labels, fn): steady, flaky and late-starting probes."""

        def flaky():
            if int(env.now) % 15 == 0:
                raise RuntimeError("target down")
            return env.now / 7

        def late():
            if env.now < 20:
                raise RuntimeError("not up yet")
            return 3

        return [
            ("late", {"pod": "c"}, late),
            ("cpu", {"pod": "a", "node": "n1"}, lambda: env.now * 0.1),
            ("cpu", {"node": "n2", "pod": "b"}, flaky),
            ("mem", None, lambda: 2**40 + env.now),
        ]

    def test_series_equal_set_gauge_reference(self):
        env = Environment()
        registry = MetricRegistry(env)
        sampler = Sampler(env, registry, interval=5)
        for name, labels, fn in self._probes(env):
            sampler.add_probe(name, fn, labels)
        env.run(until=60)

        ref_env = Environment()
        reference = MetricRegistry(ref_env)
        probes = self._probes(ref_env)

        def reference_loop():
            while True:
                for name, labels, fn in probes:
                    try:
                        value = float(fn())
                    except Exception:
                        continue
                    reference.set_gauge(name, value, labels)
                yield ref_env.timeout(5)

        ref_env.process(reference_loop())
        ref_env.run(until=60)

        def dump(reg):  # insertion order, times and values
            return [(key, ts.times, ts.values) for key, ts in reg._series.items()]

        assert dump(registry) == dump(reference)
        assert [key[0] for key in registry._series] == ["cpu", "mem", "cpu", "late"]

    def test_always_failing_probe_creates_no_series(self, env, registry):
        sampler = Sampler(env, registry, interval=5)
        sampler.add_probe("bad", lambda: 1 / 0, {"pod": "x"})
        env.run(until=30)
        assert sampler.scrapes == 7
        assert registry.names() == []


class TestPromql:
    def _series(self, registry, pts, name="m", labels=None):
        ts = registry.series(name, labels)
        for t, v in pts:
            ts.append(t, v)
        return ts

    def test_rate(self, registry):
        ts = self._series(registry, [(0, 0), (10, 500)])
        assert promql.rate(ts) == 50.0

    def test_rate_empty_and_single(self, registry):
        assert promql.rate(self._series(registry, [])) == 0.0
        assert promql.rate(self._series(registry, [(5, 10)], name="n")) == 0.0

    def test_avg_over_time_trapezoidal(self, registry):
        ts = self._series(registry, [(0, 0.0), (10, 10.0)])
        assert promql.avg_over_time(ts) == pytest.approx(5.0)

    def test_max_min_over_time(self, registry):
        ts = self._series(registry, [(0, 3.0), (5, 9.0), (10, 1.0)])
        assert promql.max_over_time(ts) == 9.0
        assert promql.min_over_time(ts) == 1.0

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

    def test_aggregate_by(self, registry):
        a = self._series(registry, [(0, 1)], labels={"node": "n1", "pod": "a"})
        b = self._series(registry, [(0, 1)], labels={"node": "n1", "pod": "b"})
        c = self._series(registry, [(0, 1)], labels={"node": "n2", "pod": "c"})
        groups = promql.aggregate_by([a, b, c], "node")
        assert sorted(groups) == ["n1", "n2"]
        assert len(groups["n1"]) == 2


class TestDashboard:
    def test_sparkline_resamples(self):
        line = sparkline(range(1000), width=40)
        assert len(line) == 40

    def test_sparkline_flat_and_empty(self):
        assert set(sparkline([5, 5, 5], width=10)) == {"▁"}
        assert sparkline([], width=10) == " " * 10

    def test_panel_renders_series(self, env, registry):
        registry.set_gauge("cpu", 1.0, {"pod": "w1"})
        registry.set_gauge("cpu", 5.0, {"pod": "w1"})
        panel = Panel(title="CPU", metric="cpu", unit="cores")
        out = panel.render(registry)
        assert "CPU" in out
        assert "pod=w1" in out
        assert "max 5.00" in out

    def test_stat_panel(self, env, registry):
        registry.set_gauge("bytes", 2e9)
        panel = Panel(title="Data", metric="bytes", unit="GB", scale=1e-9,
                      kind="stat")
        assert "2.00 GB" in panel.render(registry)

    def test_empty_panel(self, registry):
        assert "(no data)" in Panel(title="X", metric="none").render(registry)

    def test_dashboard_peaks(self, env, registry):
        registry.set_gauge("mem", 5.0, {"pod": "a"})
        registry.set_gauge("mem", 7.0, {"pod": "b"})
        dash = Dashboard("test", registry)
        assert dash.peak("mem") == 7.0
        assert dash.aggregate_peak("mem") == 12.0

    def test_dashboard_render_stacks_panels(self, env, registry):
        registry.set_gauge("a", 1.0)
        dash = Dashboard("Nautilus", registry)
        dash.add_panel(Panel(title="A", metric="a"))
        dash.add_panel(Panel(title="B", metric="b"))
        out = dash.render()
        assert "Nautilus" in out and "A" in out and "(no data)" in out
