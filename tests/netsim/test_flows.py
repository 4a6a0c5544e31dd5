"""Unit tests for the max-min fair fluid-flow engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.netsim.flows import CapacityResource, Flow, FlowSimulator, max_min_rates
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def sim(env):
    return FlowSimulator(env)


def run_transfer(env, sim, resources, nbytes, **kw):
    """Run a single transfer to completion; return finish time."""
    done = sim.transfer(resources, nbytes, **kw)
    env.run(until=done)
    return env.now


class TestMaxMinRates:
    def _flow(self, resources, nbytes=1e9):
        return Flow("f", resources, nbytes, event=None, start_time=0.0)

    def test_single_flow_gets_full_capacity(self):
        link = CapacityResource("l", 100.0)
        f = self._flow([link])
        assert max_min_rates([f])[f] == pytest.approx(100.0)

    def test_equal_split_on_shared_link(self):
        link = CapacityResource("l", 90.0)
        flows = [self._flow([link]) for _ in range(3)]
        rates = max_min_rates(flows)
        assert all(rates[f] == pytest.approx(30.0) for f in flows)

    def test_bottleneck_is_tightest_hop(self):
        wide = CapacityResource("wide", 1000.0)
        narrow = CapacityResource("narrow", 10.0)
        f = self._flow([wide, narrow])
        assert max_min_rates([f])[f] == pytest.approx(10.0)

    def test_unbottlenecked_flow_takes_leftover(self):
        """Classic max-min example: two flows share link A (cap 10); one of
        them also crosses link B (cap 4).  Fair rates: 4 and 6."""
        a = CapacityResource("a", 10.0)
        b = CapacityResource("b", 4.0)
        constrained = self._flow([a, b])
        free = self._flow([a])
        rates = max_min_rates([constrained, free])
        assert rates[constrained] == pytest.approx(4.0)
        assert rates[free] == pytest.approx(6.0)

    def test_resourceless_flow_is_unconstrained(self):
        f = self._flow([])
        assert max_min_rates([f])[f] == float("inf")

    @settings(max_examples=50, deadline=None)
    @given(
        caps=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=4),
        n_flows=st.integers(min_value=1, max_value=6),
    )
    def test_property_no_resource_oversubscribed(self, caps, n_flows):
        resources = [CapacityResource(f"r{i}", c) for i, c in enumerate(caps)]
        flows = [
            self._flow(resources[i % len(resources) :]) for i in range(n_flows)
        ]
        rates = max_min_rates(flows)
        for res in resources:
            total = sum(rates[f] for f in flows if res in f.resources)
            assert total <= res.capacity * (1 + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        cap=st.floats(min_value=1.0, max_value=1e6),
        n=st.integers(min_value=1, max_value=10),
    )
    def test_property_single_link_work_conserving(self, cap, n):
        link = CapacityResource("l", cap)
        flows = [self._flow([link]) for _ in range(n)]
        rates = max_min_rates(flows)
        assert sum(rates.values()) == pytest.approx(cap)


def _reference_max_min_rates(flows):
    """The original per-flow accumulation fill, kept as a bit-exact oracle."""
    rates = {}
    active = set()
    for flow in flows:
        if any(res.blocked for res in flow.resources):
            rates[flow] = 0.0
        elif flow.resources:
            active.add(flow)
            rates[flow] = 0.0
        else:
            rates[flow] = float("inf")

    cap_left = {}
    users = {}
    for flow in active:
        for res in flow.resources:
            cap_left.setdefault(res, res.capacity)
            users.setdefault(res, set()).add(flow)

    while active:
        inc = min(
            cap_left[res] / len(members)
            for res, members in users.items()
            if members
        )
        for flow in active:
            rates[flow] += inc
        saturated = []
        for res, members in users.items():
            if not members:
                continue
            cap_left[res] -= inc * len(members)
            if cap_left[res] <= 1e-9 * res.capacity:
                saturated.append(res)
        if not saturated:
            break
        frozen = set()
        for res in saturated:
            frozen |= users[res]
        for flow in frozen & active:
            active.discard(flow)
            for res in flow.resources:
                users[res].discard(flow)
    return rates


class TestMaxMinParity:
    """The one-pass fill gives exactly the rates of the per-flow fill."""

    @settings(max_examples=200, deadline=None)
    @given(
        resources=st.lists(
            st.tuples(st.floats(min_value=1e-3, max_value=1e9), st.booleans()),
            min_size=1,
            max_size=6,
        ),
        paths=st.lists(
            st.lists(st.integers(min_value=0, max_value=5), max_size=5),
            max_size=12,
        ),
    )
    # shared resources
    @example(resources=[(10.0, False), (4.0, False)], paths=[[0, 1], [0], [0]])
    # a blocked resource
    @example(resources=[(10.0, False), (4.0, True)], paths=[[0, 1], [0]])
    # an empty resource list
    @example(resources=[(10.0, False)], paths=[[], [0], []])
    # a path that repeats a resource
    @example(resources=[(9.0, False), (5.0, False)], paths=[[0, 1, 0], [0]])
    def test_equals_reference_bit_for_bit(self, resources, paths):
        pool = []
        for i, (cap, blocked) in enumerate(resources):
            res = CapacityResource(f"r{i}", cap)
            res.blocked = blocked
            pool.append(res)
        flows = [
            Flow(f"f{j}", [pool[k % len(pool)] for k in path], 1.0, None, 0.0)
            for j, path in enumerate(paths)
        ]
        assert max_min_rates(flows) == _reference_max_min_rates(flows)

    @settings(max_examples=200, deadline=None)
    @given(
        resources=st.lists(
            st.tuples(st.floats(min_value=1e-3, max_value=1e9), st.booleans()),
            min_size=1,
            max_size=8,
        ),
        paths=st.lists(
            st.lists(st.integers(min_value=0, max_value=7), max_size=6),
            min_size=1,
            max_size=5,
        ),
        picks=st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.booleans()),
            max_size=60,
        ),
    )
    # three routes, one repeating a hop, one empty, one through a blocked hop
    @example(
        resources=[(10.0, False), (4.0, False), (7.0, True)],
        paths=[[0, 1, 0], [], [0, 2], [1]],
        picks=[(0, False), (1, False), (2, False), (3, False), (0, True), (3, True)],
    )
    def test_many_flows_on_few_routes(self, resources, paths, picks):
        """Flows drawn from a few shared routes: the per-route fill gives
        the per-flow reference's rates, and one rate per route.  A pick
        with its flag set copies the route into a new tuple: routes group
        by equality, so it joins the same group."""
        pool = []
        for i, (cap, blocked) in enumerate(resources):
            res = CapacityResource(f"r{i}", cap)
            res.blocked = blocked
            pool.append(res)
        routes = [tuple(pool[k % len(pool)] for k in path) for path in paths]
        flows = []
        for j, (r, copy) in enumerate(picks):
            route = routes[r % len(routes)]
            flows.append(Flow(f"f{j}", list(route) if copy else route, 1.0, None, 0.0))
        rates = max_min_rates(flows)
        assert rates == _reference_max_min_rates(flows)
        by_route = {}
        for flow in flows:
            by_route.setdefault(flow.resources, set()).add(rates[flow])
        assert all(len(seen) == 1 for seen in by_route.values())


class TestFlowSimulator:
    def test_single_transfer_duration(self, env, sim):
        link = CapacityResource("l", 100.0)  # 100 B/s
        t = run_transfer(env, sim, [link], 1000.0)
        assert t == pytest.approx(10.0)

    def test_zero_bytes_completes_after_latency(self, env, sim):
        t = run_transfer(env, sim, [], 0.0, latency_s=0.5)
        assert t == pytest.approx(0.5)

    def test_latency_added_to_completion(self, env, sim):
        link = CapacityResource("l", 100.0)
        t = run_transfer(env, sim, [link], 1000.0, latency_s=2.0)
        assert t == pytest.approx(12.0)

    def test_negative_bytes_rejected(self, sim):
        with pytest.raises(NetworkError):
            sim.transfer([], -1)

    def test_two_equal_flows_halve_throughput(self, env, sim):
        link = CapacityResource("l", 100.0)
        d1 = sim.transfer([link], 1000.0)
        d2 = sim.transfer([link], 1000.0)
        env.run(until=env.all_of([d1, d2]))
        # Each gets 50 B/s: both finish at t=20.
        assert env.now == pytest.approx(20.0)

    def test_rate_reconverges_when_flow_finishes(self, env, sim):
        """Short flow leaves; long flow speeds up: 500B + 1500B on a
        100 B/s link -> short done at 10s, long done at 20s."""
        link = CapacityResource("l", 100.0)
        short = sim.transfer([link], 500.0)
        long = sim.transfer([link], 1500.0)
        env.run(until=short)
        assert env.now == pytest.approx(10.0)
        env.run(until=long)
        assert env.now == pytest.approx(20.0)

    def test_late_joiner_shares_fairly(self, env, sim):
        """Flow A alone for 5s (500B done), then B joins and they split."""
        link = CapacityResource("l", 100.0)
        a = sim.transfer([link], 1000.0, name="a")

        def joiner(env):
            yield env.timeout(5.0)
            b = sim.transfer([link], 250.0, name="b")
            yield b
            return env.now

        p = env.process(joiner(env))
        b_done = env.run(until=p)
        assert b_done == pytest.approx(10.0)  # 250B at 50 B/s after t=5
        env.run(until=a)
        # A: 500B by t=5, 250B more by t=10 (shared), then full rate.
        assert env.now == pytest.approx(12.5)

    def test_allocated_rate_visible_to_monitoring(self, env, sim):
        link = CapacityResource("l", 100.0)
        sim.transfer([link], 10_000.0)
        env.run(until=1.0)
        assert sim.sample_rates([link])["l"] == pytest.approx(100.0)

    def test_counters(self, env, sim):
        link = CapacityResource("l", 100.0)
        sim.transfer([link], 100.0)
        sim.transfer([link], 100.0)
        env.run(until=100)
        assert sim.completed_count == 2
        assert sim.bytes_moved == pytest.approx(200.0)

    def test_simultaneous_finishers_complete_in_start_order(self, env, sim):
        """Equal flows on one path finish at one instant; their events
        fire in the order the flows started, not in memory-address order."""
        link = CapacityResource("l", 100.0)
        order = []
        for i in range(40):
            done = sim.transfer([link], 1000.0, name=f"f{i}")
            done.callbacks.append(lambda _ev, i=i: order.append((env.now, i)))
        env.run()
        assert {t for t, _ in order} == {400.0}
        assert [i for _, i in order] == list(range(40))

    def test_many_parallel_flows_complete(self, env, sim):
        link = CapacityResource("l", 1000.0)
        events = [sim.transfer([link], 100.0 * (i + 1)) for i in range(20)]
        env.run(until=env.all_of(events))
        assert sim.completed_count == 20
        assert sim.active_flows == 0
