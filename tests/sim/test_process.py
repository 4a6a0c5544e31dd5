"""Unit tests for coroutine processes."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestProcessBasics:
    def test_simple_timeline(self, env):
        trace = []

        def proc(env):
            trace.append(env.now)
            yield env.timeout(5)
            trace.append(env.now)
            yield env.timeout(2.5)
            trace.append(env.now)

        env.process(proc(env))
        env.run()
        assert trace == [0, 5, 7.5]

    def test_return_value_becomes_event_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"

    def test_process_is_alive_until_done(self, env):
        def proc(env):
            yield env.timeout(10)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_yield_non_event_fails_process(self, env):
        def proc(env):
            yield 42

        p = env.process(proc(env))
        p.defuse()
        env.run()
        assert not p.ok
        assert isinstance(p.value, SimulationError)

    def test_crash_propagates_to_run(self, env):
        def proc(env):
            yield env.timeout(1)
            raise ValueError("crash")

        env.process(proc(env))
        with pytest.raises(ValueError, match="crash"):
            env.run()

    def test_watched_crash_does_not_crash_run(self, env):
        def bad(env):
            yield env.timeout(1)
            raise ValueError("crash")

        def watcher(env, p):
            try:
                yield p
            except ValueError:
                return "caught"

        p = env.process(bad(env))
        w = env.process(watcher(env, p))
        assert env.run(until=w) == "caught"


class TestProcessComposition:
    def test_wait_for_other_process(self, env):
        def child(env):
            yield env.timeout(4)
            return 10

        def parent(env):
            value = yield env.process(child(env))
            return value * 2

        p = env.process(parent(env))
        assert env.run(until=p) == 20
        assert env.now == 4

    def test_wait_for_already_finished_process(self, env):
        def child(env):
            yield env.timeout(1)
            return "early"

        def parent(env, c):
            yield env.timeout(10)
            value = yield c  # already processed
            return value

        c = env.process(child(env))
        p = env.process(parent(env, c))
        assert env.run(until=p) == "early"
        assert env.now == 10

    def test_fan_out_fan_in(self, env):
        def worker(env, k):
            yield env.timeout(k)
            return k

        def coordinator(env):
            procs = [env.process(worker(env, k)) for k in (3, 1, 2)]
            results = yield env.all_of(procs)
            return sorted(results.values())

        p = env.process(coordinator(env))
        assert env.run(until=p) == [1, 2, 3]
        assert env.now == 3


class TestInterrupt:
    def test_interrupt_delivers_processkilled(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except ProcessKilled as exc:
                return ("killed", exc.cause)

        def killer(env, v):
            yield env.timeout(5)
            v.interrupt(cause="preempted")

        v = env.process(victim(env))
        env.process(killer(env, v))
        result = env.run(until=v)
        assert result == ("killed", "preempted")
        assert env.now == 5

    def test_interrupt_dead_process_raises(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_uncaught_interrupt_fails_process(self, env):
        def victim(env):
            yield env.timeout(100)

        def killer(env, v):
            yield env.timeout(5)
            v.interrupt()

        v = env.process(victim(env))
        v.defuse()
        env.process(killer(env, v))
        env.run()
        assert not v.ok
        assert isinstance(v.value, ProcessKilled)

    def test_original_target_firing_later_does_not_resume(self, env):
        """After an interrupt, the old awaited event must not re-enter the
        process when it eventually fires."""
        resumed = []

        def victim(env):
            try:
                yield env.timeout(10)
            except ProcessKilled:
                pass
            yield env.timeout(100)  # now waiting on something else
            resumed.append(env.now)

        def killer(env, v):
            yield env.timeout(5)
            v.interrupt()

        v = env.process(victim(env))
        env.process(killer(env, v))
        env.run()
        assert resumed == [105]

    def test_interrupt_then_continue_working(self, env):
        def victim(env):
            total = 0
            try:
                yield env.timeout(50)
                total += 50
            except ProcessKilled:
                total += env.now
            yield env.timeout(3)
            return total + 1000

        def killer(env, v):
            yield env.timeout(7)
            v.interrupt()

        v = env.process(victim(env))
        env.process(killer(env, v))
        assert env.run(until=v) == 1007
        assert env.now == 10


    def test_interrupt_before_first_step_lands_at_first_yield(self, env):
        """A process interrupted before it ever ran takes its first step,
        and the interrupt reaches its handler at the first ``yield``."""
        steps = []

        def victim(env):
            steps.append("started")
            try:
                yield env.timeout(100)
            except ProcessKilled as exc:
                return ("killed", exc.cause, env.now)

        def spawner(env):
            yield env.timeout(5)
            v = env.process(victim(env))
            v.interrupt(cause="deleted")
            return (yield v)

        result = env.run(until=env.process(spawner(env)))
        assert steps == ["started"]
        assert result == ("killed", "deleted", 5)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def make_trace():
            env = Environment()
            trace = []

            def proc(env, name, delay):
                for _ in range(3):
                    yield env.timeout(delay)
                    trace.append((env.now, name))

            for i, d in enumerate([2, 3, 2, 5]):
                env.process(proc(env, f"p{i}", d))
            env.run()
            return trace

        assert make_trace() == make_trace()
