"""Parity of the change-log gauges with a polling scrape loop.

The testbed's gauges are recorded by their owners as the values change
and resampled onto the registry's scrape grid when read.  The oracle
here is the polling loop they replaced, frozen: a simulation process
that wakes every ``interval`` seconds and reads the same quantities
through probe callables, writing to its own registry.  Attached to the
same testbed, it must produce every gauge series (times and values)
exactly, under faults and chaos as well as on plain runs.
"""

from __future__ import annotations

import typing as _t

import pytest

import repro.loadgen as loadgen
import repro.testbed as testbed_module
from repro.chaos import ChaosMonkey
from repro.errors import SimulationError
from repro.loadgen import LoadgenConfig, run_loadtest
from repro.monitoring.metrics import MetricRegistry, TimeSeries
from repro.transfer import TransientFaultInjector
from repro.workflow import WorkflowDriver, build_connect_workflow

GAUGES = (
    "node_cpu_allocated_cores",
    "node_memory_allocated_bytes",
    "node_gpus_in_use",
    "ceph_used_bytes",
    "thredds_egress_bytes_per_second",
    "ceph_disk_write_bytes_per_second",
)


class _Probe:
    __slots__ = ("name", "labels", "fn", "series")

    def __init__(self, name: str, labels: dict, fn: _t.Callable[[], float]):
        self.name = name
        self.labels = labels
        self.fn = fn
        self.series: TimeSeries | None = None


class PollingSampler:
    """The frozen reference: scrape every probe every ``interval`` s."""

    def __init__(self, env, registry: MetricRegistry, interval: float):
        self.env = env
        self.registry = registry
        self.interval = interval
        self._probes: list[_Probe] = []
        env.process(self._loop(), name="oracle-sampler")

    def add_probe(self, name, fn, labels=None) -> None:
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
            yield self.env.timeout(self.interval)


def build_with_oracle(**kwargs):
    """A testbed plus the oracle's registry.

    The oracle's process starts where the testbed's own scrape process
    used to, right after the registry, so at a scrape time it runs
    before any process the testbed starts later (leases, chaos, the
    workflow), exactly as the replaced loop did.
    """
    samplers: list[PollingSampler] = []

    def registry_then_oracle(env, interval):
        own = MetricRegistry(env, interval=interval)
        samplers.append(PollingSampler(env, own, interval))
        return MetricRegistry(env, interval=interval)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(testbed_module, "MetricRegistry", registry_then_oracle)
        tb = testbed_module.build_nautilus_testbed(**kwargs)
    (sampler,) = samplers
    for node in tb.cluster.nodes.values():
        sampler.add_probe(
            "node_cpu_allocated_cores",
            (lambda n=node: n.allocated.cpu),
            {"node": node.spec.name},
        )
        sampler.add_probe(
            "node_memory_allocated_bytes",
            (lambda n=node: float(n.allocated.memory)),
            {"node": node.spec.name},
        )
        if node.spec.gpus:
            sampler.add_probe(
                "node_gpus_in_use",
                (lambda n=node: float(n.allocated.gpu)),
                {"node": node.spec.name},
            )
    sampler.add_probe(
        "ceph_used_bytes", lambda: tb.ceph.total_used(), {"cluster": "nautilus"}
    )
    thredds_link = tb.topology.links[frozenset(("its-dtn-02", "UCSD"))]
    sampler.add_probe(
        "thredds_egress_bytes_per_second",
        lambda: tb.flowsim.sample_rates([thredds_link.resource])[
            thredds_link.resource.name
        ],
        {"host": "its-dtn-02"},
    )
    by_host: dict[str, list] = {}
    for osd in tb.ceph.osds.values():
        by_host.setdefault(osd.host, []).append(osd)
    for host, osds in by_host.items():
        sampler.add_probe(
            "ceph_disk_write_bytes_per_second",
            (lambda disks=[o.disk for o in osds]: sum(
                tb.flowsim.sample_rates(disks).values()
            )),
            {"host": host},
        )
    return tb, sampler.registry


def _dump(registry: MetricRegistry, name: str) -> list:
    return [(ts.labels, ts.times, ts.values) for ts in registry.all_series(name)]


def assert_gauges_match(tb, oracle: MetricRegistry) -> None:
    for name in GAUGES:
        expected = _dump(oracle, name)
        assert expected, name
        assert _dump(tb.registry, name) == expected, name
        for _labels, times, values in expected:
            assert all(type(v) is float for v in values), name


def _connect(tb) -> object:
    return WorkflowDriver(tb).run(build_connect_workflow(real_ml=False))


@pytest.mark.parametrize("seed", range(1, 9))
def test_connect_seed_sweep_matches_polling(seed):
    tb, oracle = build_with_oracle(seed=seed, scale=0.05)
    assert _connect(tb).succeeded
    assert_gauges_match(tb, oracle)


def test_fractional_interval_matches_polling():
    """Grid times are sums of ``interval``, as a chain of timeouts makes them."""
    tb, oracle = build_with_oracle(seed=5, scale=0.02, sampler_interval=0.7)
    assert _connect(tb).succeeded
    assert_gauges_match(tb, oracle)
    grid = tb.registry.get("ceph_used_bytes", {"cluster": "nautilus"}).times
    assert len(grid) > 1000 and grid[10] != 7.0


def _chaos_testbed(chaos_seed: int):
    """CONNECT under transfer faults, node leases and OSD, link and
    partition chaos."""
    tb, oracle = build_with_oracle(
        seed=4,
        scale=0.02,
        transfer_faults=TransientFaultInjector(
            seed=2, error_rate=0.03, timeout_rate=0.0, reset_rate=0.03,
            max_faults=25,
        ),
    )
    tb.enable_node_leases()
    ChaosMonkey(
        tb,
        mean_interval=300.0,
        recovery_after=120.0,
        include_osds=True,
        include_links=True,
        include_partitions=True,
        max_failures=6,
        seed=chaos_seed,
    )
    return tb, oracle


@pytest.mark.parametrize("chaos_seed", range(1, 7))
def test_chaos_runs_match_polling(chaos_seed):
    tb, oracle = _chaos_testbed(chaos_seed)
    _connect(tb)
    assert_gauges_match(tb, oracle)


def test_partitioned_ceph_read_fails_the_step_not_the_run():
    """A Caltech partition at t=638.25 leaves a training pod with no route
    to its Ceph primary; the read's event fails with the route error and
    the step's retries run out, instead of the error escaping the run."""
    tb, _ = _chaos_testbed(2)
    report = _connect(tb)
    assert report.step("download").succeeded
    training = report.step("training")
    assert not training.succeeded
    assert "backoff limit exceeded" in training.error


def test_default_drill_matches_polling():
    built = []

    def capture(**kwargs):
        built.append(build_with_oracle(**kwargs))
        return built[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loadgen, "build_nautilus_testbed", capture)
        run_loadtest(LoadgenConfig(seed=7))
    (tb, oracle), = built
    assert_gauges_match(tb, oracle)


def test_read_mid_run_then_continued_matches_polling():
    """Reads fill the grid up to now; a later read only extends it."""
    tb, oracle = build_with_oracle(seed=3, scale=0.05)
    reads = []

    def reader(env):
        for delay in (1000.0, 1234.5, 15.0):
            yield env.timeout(delay)
            reads.append({
                name: [(labels, list(times), list(values))
                       for labels, times, values in _dump(tb.registry, name)]
                for name in GAUGES
            })

    tb.env.process(reader(tb.env))
    assert _connect(tb).succeeded
    assert_gauges_match(tb, oracle)
    assert [read["ceph_used_bytes"][0][1][-1] for read in reads] == [
        990.0, 2220.0, 2235.0,
    ]
    for read in reads:
        for name, series in read.items():
            for (labels, times, values), ts in zip(
                series, tb.registry.all_series(name)
            ):
                assert labels == ts.labels
                assert (times, values) == (
                    ts.times[: len(times)], ts.values[: len(values)]
                )


def test_hung_process_ends_the_run():
    """No perpetual scrape process: an idle testbed's heap empties."""
    tb = testbed_module.build_nautilus_testbed(seed=1, scale=0.001)
    env = tb.env

    def hung(env):
        yield env.event()  # nothing ever triggers it

    with pytest.raises(SimulationError, match="ran out of events"):
        env.run(until=env.process(hung(env)))
