"""Tests for transient-fault injection and the transfer retry machinery."""

import pytest

from repro.data.catalog import MerraArchive
from repro.errors import TransferError, TransientServerError
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
                env, flaky, RetryPolicy(max_attempts=5, jitter="none")
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
            yield from retry_call(
                env, always, RetryPolicy(max_attempts=3, jitter="none")
            )

        proc = env.process(body())
        with pytest.raises(TransientServerError):
            env.run(until=proc)


class TestAria2UnderFaults:
    def _run_batch(self, seed=7, deadline_s=None, n=40):
        env = Environment()
        net = Topology()
        net.add_site("UCSD")
        net.add_site("UCI")
        net.add_link("UCSD", "UCI", 10.0, latency_s=0.0)
        net.attach_host("server", "UCSD", nic_gbps=1.0)
        net.attach_host("worker", "UCI", nic_gbps=10.0)
        inj = TransientFaultInjector(
            seed=seed, error_rate=0.05, timeout_rate=0.02, reset_rate=0.05,
            stall_s=2.0,
        )
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, max_delay_s=2.0,
            deadline_s=deadline_s,
        )
        server, dl = _downloader(env, net, injector=inj, policy=policy)
        requests = server.resolve_many(range(n), ("U", "V", "QV"))

        def body():
            stats = yield from dl.download_batch(requests)
            return stats

        proc = env.process(body())
        stats = env.run(until=proc)
        return env, inj, dl, stats

    def test_batch_completes_despite_faults(self):
        env, inj, dl, stats = self._run_batch()
        assert stats.files == 40
        assert inj.total_injected > 0  # faults actually fired
        assert dl.retries_total >= inj.total_injected - dl.failures_total
        assert dl.failures_total == 0

    def test_fault_schedule_deterministic(self):
        runs = [self._run_batch(seed=7) for _ in range(2)]
        (e1, i1, d1, s1), (e2, i2, d2, s2) = runs
        assert i1.injected == i2.injected
        assert d1.retries_total == d2.retries_total
        assert e1.now == e2.now
        assert s1.bytes == s2.bytes

    def test_metrics_exported(self):
        env = Environment()
        from repro.monitoring.metrics import MetricRegistry

        registry = MetricRegistry(env)
        net = Topology()
        net.add_site("UCSD")
        net.add_site("UCI")
        net.add_link("UCSD", "UCI", 10.0, latency_s=0.0)
        net.attach_host("server", "UCSD", nic_gbps=1.0)
        net.attach_host("worker", "UCI", nic_gbps=10.0)
        inj = TransientFaultInjector(seed=3, error_rate=0.3, max_faults=10)
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.1, max_delay_s=1.0)
        server, dl = _downloader(
            env, net, injector=inj, policy=policy, metrics=registry
        )
        requests = server.resolve_many(range(30), ("U", "V", "QV"))

        def body():
            yield from dl.download_batch(requests)

        proc = env.process(body())
        env.run(until=proc)
        assert registry.counter_sum("transfer_retries_total") == dl.retries_total
        assert dl.retries_total > 0


class TestPerRequestDeadline:
    def test_deadline_aborts_slow_transfer(self, env, net):
        # 0.001 Gbps access: the 60-file batch can't finish in 1 s.
        slow = Topology()
        slow.add_site("UCSD")
        slow.add_site("UCI")
        slow.add_link("UCSD", "UCI", 10.0, latency_s=0.0)
        slow.attach_host("server", "UCSD", nic_gbps=0.001)
        slow.attach_host("worker", "UCI", nic_gbps=10.0)
        policy = RetryPolicy(
            max_attempts=1, deadline_s=1.0, jitter="none"
        )
        server, dl = _downloader(env, slow, policy=policy)
        request = server.resolve(0, ("U", "V", "QV"))

        def body():
            yield from dl.download_batch([request])

        proc = env.process(body())
        with pytest.raises(TransferError):
            env.run(until=proc)
        assert env.now == pytest.approx(1.0)
        # The aborted flow was cancelled, not leaked.
        env.run()
        assert dl.flowsim.active_flows == 0


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
