"""Unit tests for Resource / Store primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_mutual_exclusion(self, env):
        res = Resource(env, capacity=1)
        trace = []

        def user(env, name):
            with res.request() as req:
                yield req
                trace.append((env.now, name, "in"))
                yield env.timeout(10)
                trace.append((env.now, name, "out"))

        env.process(user(env, "a"))
        env.process(user(env, "b"))
        env.run()
        assert trace == [
            (0, "a", "in"),
            (10, "a", "out"),
            (10, "b", "in"),
            (20, "b", "out"),
        ]

    def test_parallel_slots(self, env):
        res = Resource(env, capacity=3)
        done = []

        def user(env, k):
            with res.request() as req:
                yield req
                yield env.timeout(5)
                done.append((env.now, k))

        for k in range(6):
            env.process(user(env, k))
        env.run()
        # Two waves of three.
        assert [t for t, _ in done] == [5, 5, 5, 10, 10, 10]

    def test_count_and_queue_len(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def waiter(env):
            with res.request() as req:
                yield req

        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=1)
        assert res.count == 1
        assert res.queue_len == 1

    def test_priority_grants_lowest_first(self, env):
        res = Resource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def user(env, name, prio):
            yield env.timeout(1)  # arrive while holder owns the slot
            with res.request(priority=prio) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        env.process(holder(env))
        env.process(user(env, "low", 5))
        env.process(user(env, "high", 0))
        env.run()
        assert order == ["high", "low"]

    def test_request_over_capacity_rejected(self, env):
        res = Resource(env, capacity=2)
        with pytest.raises(SimulationError):
            res.request(amount=3)

    def test_multi_slot_request(self, env):
        res = Resource(env, capacity=4)
        trace = []

        def big(env):
            with res.request(amount=3) as req:
                yield req
                trace.append(("big", env.now))
                yield env.timeout(5)

        def small(env):
            yield env.timeout(1)
            with res.request(amount=2) as req:
                yield req
                trace.append(("small", env.now))

        env.process(big(env))
        env.process(small(env))
        env.run()
        assert trace == [("big", 0), ("small", 5)]

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        env.process(holder(env))
        env.run(until=1)
        req = res.request()
        assert res.queue_len == 1
        req.cancel()
        assert res.queue_len == 0


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for item in "abc":
                yield store.put(item)
                yield env.timeout(1)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["a", "b", "c"]

    def test_get_blocks_on_empty(self, env):
        store = Store(env)
        trace = []

        def consumer(env):
            item = yield store.get()
            trace.append((env.now, item))

        def producer(env):
            yield env.timeout(8)
            yield store.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert trace == [(8, "x")]

    def test_bounded_put_blocks(self, env):
        store = Store(env, capacity=1)
        trace = []

        def producer(env):
            yield store.put(1)
            yield store.put(2)  # blocks until consumer frees a slot
            trace.append(env.now)

        def consumer(env):
            yield env.timeout(4)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert trace == [4]

    def test_len(self, env):
        store = Store(env)

        def producer(env):
            yield store.put("a")
            yield store.put("b")

        env.process(producer(env))
        env.run()
        assert len(store) == 2
