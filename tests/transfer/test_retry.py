"""Tests for transient-fault injection and the transfer retry machinery."""

import pytest

from repro.data.catalog import MerraArchive
from repro.errors import TransferError, TransientServerError
from repro.monitoring.metrics import MetricRegistry
from repro.netsim import FlowSimulator, Topology
from repro.sim import Environment
from repro.transfer import (
    Aria2Downloader,
    RetryPolicy,
    ThreddsServer,
    TransientFaultInjector,
    retry_call,
)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net():
    t = Topology()
    t.add_site("UCSD")
    t.add_site("UCI")
    t.add_link("UCSD", "UCI", 10.0, latency_s=0.0)
    t.attach_host("server", "UCSD", nic_gbps=1.0)
    t.attach_host("worker", "UCI", nic_gbps=10.0)
    return t


def _downloader(env, net, injector=None, policy=None, **kw):
    # The injector goes on the downloader (stream faults) only, so the
    # catalog resolution done in test setup stays fault-free.
    archive = MerraArchive(n_files=60, seed=0)
    server = ThreddsServer(archive, host="server")
    sim = FlowSimulator(env)
    return server, Aria2Downloader(
        env,
        sim,
        net,
        server,
        host="worker",
        connections=4,
        retry_policy=policy,
        fault_injector=injector,
        **kw,
    )


class TestInjectorDeterminism:
    def test_same_seed_same_schedule(self):
        def schedule(seed):
            inj = TransientFaultInjector(
                seed=seed, error_rate=0.1, timeout_rate=0.1, reset_rate=0.1
            )
            return [inj.draw() for _ in range(200)]

        assert schedule(3) == schedule(3)
        assert schedule(3) != schedule(4)

    def test_max_faults_bounds_injection(self):
        inj = TransientFaultInjector(seed=1, error_rate=1.0, max_faults=5)
        for _ in range(50):
            inj.draw()
        assert inj.total_injected == 5

    def test_until_s_disarms_after_deadline(self, env):
        inj = TransientFaultInjector(
            seed=1, error_rate=1.0, until_s=10.0, env=env
        )
        assert inj.draw() is not None
        env.run(until=11.0)
        assert inj.draw() is None


class TestRetryCall:
    def test_retries_transient_then_succeeds(self, env):
        calls = [0]

        def flaky():
            calls[0] += 1
            if calls[0] < 3:
                raise TransientServerError("503")
            return "ok"

        def body():
            result = yield from retry_call(
                env, flaky, RetryPolicy(max_attempts=5)
            )
            return result

        proc = env.process(body())
        assert env.run(until=proc) == "ok"
        assert calls[0] == 3
        assert env.now > 0  # backoff sleeps happened on the sim clock

    def test_permanent_error_not_retried(self, env):
        calls = [0]

        def broken():
            calls[0] += 1
            raise TransferError("bad request")

        def body():
            yield from retry_call(env, broken, RetryPolicy(max_attempts=5))

        proc = env.process(body())
        with pytest.raises(TransferError):
            env.run(until=proc)
        assert calls[0] == 1

    def test_exhaustion_reraises(self, env):
        def always():
            raise TransientServerError("503")

        def body():
            yield from retry_call(env, always, RetryPolicy(max_attempts=3))

        proc = env.process(body())
        with pytest.raises(TransientServerError):
            env.run(until=proc)


class TestAria2UnderFaults:
    def _run_batch(self, seed=7, n=40, policy=None, inj=None):
        env = Environment()
        registry = MetricRegistry(env)
        net = Topology()
        net.add_site("UCSD")
        net.add_site("UCI")
        net.add_link("UCSD", "UCI", 10.0, latency_s=0.0)
        net.attach_host("server", "UCSD", nic_gbps=1.0)
        net.attach_host("worker", "UCI", nic_gbps=10.0)
        if inj is None:
            inj = TransientFaultInjector(
                seed=seed, error_rate=0.05, timeout_rate=0.02,
                reset_rate=0.05, stall_s=2.0,
            )
        if policy is None:
            policy = RetryPolicy(max_attempts=6, base_delay_s=0.1, max_delay_s=2.0)
        server, dl = _downloader(
            env, net, injector=inj, policy=policy, metrics=registry
        )
        requests = server.resolve_many(range(n), ("U", "V", "QV"))

        def body():
            stats = yield from dl.download_batch(requests)
            return stats

        proc = env.process(body())
        stats = env.run(until=proc)
        return env, inj, registry, stats

    def test_batch_completes_despite_faults(self):
        env, inj, registry, stats = self._run_batch()
        retries = registry.counter_sum("transfer_retries_total")
        assert stats.files == 40
        assert inj.total_injected > 0  # faults actually fired
        assert retries == inj.total_injected  # each fault cost one retry
        assert registry.counter_sum("transfer_failures_total") == 0

    def test_fault_schedule_deterministic(self):
        (e1, i1, r1, s1), (e2, i2, r2, s2) = (
            self._run_batch(seed=7) for _ in range(2)
        )
        assert i1.injected == i2.injected
        series = [
            [(ts.labels, ts.times, ts.values)
             for ts in r.all_series("transfer_retries_total")]
            for r in (r1, r2)
        ]
        assert series[0] == series[1] and series[0]
        assert e1.now == e2.now
        assert s1.bytes == s2.bytes

    def test_metrics_exported(self):
        inj = TransientFaultInjector(seed=3, error_rate=0.3, max_faults=10)
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.1, max_delay_s=1.0)
        env, inj, registry, _ = self._run_batch(n=30, policy=policy, inj=inj)
        (series,) = registry.all_series("transfer_retries_total")
        assert series.labels == (("host", "worker"),)
        assert series.values[-1] == inj.total_injected > 0


class TestGivingUp:
    @pytest.mark.parametrize(
        "n, coalesce, name",
        [(1, 0, "aria2:worker:"), (3, 1, "aria2-stream:worker:3f")],
        ids=["per-file", "coalesced"],
    )
    def test_every_attempt_failing_gives_up(self, env, net, n, coalesce, name):
        """A request whose every attempt fails raises TransferError naming
        the attempt count; each failed attempt but the last is a retry,
        counted when it fails, and the last is one failure."""
        registry = MetricRegistry(env)
        server = ThreddsServer(MerraArchive(n_files=60, seed=0), host="server")
        inj = TransientFaultInjector(seed=1, error_rate=1.0)
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.1, max_delay_s=1.0)
        dl = Aria2Downloader(
            env, FlowSimulator(env), net, server, host="worker",
            connections=1, coalesce_threshold=coalesce, retry_policy=policy,
            fault_injector=inj, metrics=registry,
        )
        requests = server.resolve_many(range(n), ("U", "V", "QV"))
        proc = env.process(dl.download_batch(requests))
        with pytest.raises(TransferError) as err:
            env.run(until=proc)
        message = str(err.value)
        assert message.startswith(name)
        assert ": giving up after 3 attempts: " in message
        assert message.endswith("HTTP 503 from server")
        (retries,) = registry.all_series("transfer_retries_total")
        (failures,) = registry.all_series("transfer_failures_total")
        assert retries.values == [1.0, 2.0]
        assert failures.values == [1.0]
        # Attempt k fails one request overhead after it starts, and the
        # last failure ends the run.
        overhead = 0.05 * n
        assert retries.times[0] == pytest.approx(overhead)
        assert failures.times == [env.now]
        assert inj.injected["error"] == 3


class TestOnProgress:
    def test_progress_callback_fires_per_file(self, env, net):
        beats = [0]
        server, dl = _downloader(
            env, net, on_progress=lambda: beats.__setitem__(0, beats[0] + 1)
        )
        requests = server.resolve_many(range(5), ("U", "V", "QV"))

        def body():
            yield from dl.download_batch(requests)

        proc = env.process(body())
        env.run(until=proc)
        assert beats[0] >= 5
