"""Property test: the flow engine's held state stays exact.

Random starts, link failures, restores and capacity changes
drive a :class:`FlowSimulator`.  After every kernel step:

- each resource's ``sample_rates`` entry equals the summed rate of the
  live flows crossing it;
- the live-flow table's route groups, per-resource members and crossing
  routes equal a rebuild from the live flows, with no empty entries;
- every live flow's rate is the per-flow reference fill's rate as of
  the last solve, or 0 for a flow that started after it.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import flows as flows_mod
from repro.netsim.flows import CapacityResource, FlowSimulator
from repro.sim import Environment
from tests.netsim.test_flows import _reference_max_min_rates

OPS = st.lists(
    st.tuples(
        st.sampled_from(["start", "start", "fail", "restore", "capacity"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=30,
)


def _check(sim: FlowSimulator, resources: list[CapacityResource]) -> None:
    live = list(sim._flows)
    sampled = sim.sample_rates(resources)
    for res in resources:
        expected = sum((f.rate for f in live if res in f.resources), 0.0)
        assert sampled[res.name] == expected, res


def _check_held_state(sim: FlowSimulator) -> None:
    table = sim._flows
    groups: dict = {}
    members: dict = {}
    for flow in table:
        groups.setdefault(flow.resources, []).append(flow)
        for res in dict.fromkeys(flow.resources):
            members.setdefault(res, []).append(flow)
    crossing: dict = {}
    for route in groups:
        for res in dict.fromkeys(route):
            crossing.setdefault(res, set()).add(route)
    assert {route: list(g.flows) for route, g in table.routes.items()} == groups
    assert all(g.hops == tuple(dict.fromkeys(r)) for r, g in table.routes.items())
    assert {res: list(m) for res, m in table.members.items()} == members
    route_of = {id(g): route for route, g in table.routes.items()}
    held = {
        res: {route_of.get(id(g)) for g in routes}
        for res, routes in table.crossing.items()
    }
    assert held == crossing


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_allocated_rate_tracks_live_flows(ops):
    env = Environment()
    sim = FlowSimulator(env)
    resources = [CapacityResource(f"r{i}", 50.0 * (i + 1)) for i in range(4)]
    started = 0
    #: the reference rates of the last solve's flows
    solved: dict = {}
    solve = flows_mod.max_min_rates

    def recording_solve(flows):
        solved.clear()
        solved.update(_reference_max_min_rates(list(flows)))
        return solve(flows)

    def driver(env):
        nonlocal started
        for op, k in ops:
            res = resources[k % len(resources)]
            if op == "start":
                # 1-3 hops from k; every fifth path repeats its first hop.
                path = [resources[(k + j) % len(resources)] for j in range(1 + k % 3)]
                if k % 5 == 0:
                    path.append(path[0])
                sim.transfer(path, 10.0 + k % 400, name=f"f{started}")
                started += 1
            elif op == "fail":
                res.blocked = True
                sim.recompute()
            elif op == "restore":
                res.blocked = False
                sim.recompute()
            elif op == "capacity":
                res.set_capacity(25.0 * (1 + k % 8))
                sim.recompute()
            yield env.timeout((k % 4) * 0.5)
        for res in resources:
            res.blocked = False
        sim.recompute()

    env.process(driver(env))
    with mock.patch.object(flows_mod, "max_min_rates", recording_solve):
        while env.peek() < float("inf"):
            env.step()
            _check(sim, resources)
            _check_held_state(sim)
            for flow in sim._flows:
                assert flow.rate == solved.get(flow, 0.0), flow
    assert sim.active_flows == 0
    assert not (sim._flows.routes or sim._flows.members or sim._flows.crossing)


def test_flow_joining_a_busy_route_keeps_its_bytes_until_solved():
    """A flow that starts on a route between solves has rate 0 until the
    solve that includes it: the wake that precedes that solve charges it
    nothing, while the route's older flow is charged its full rate."""
    env = Environment()
    sim = FlowSimulator(env)
    link = CapacityResource("l", 100.0)
    remaining_at_solve = []
    solve = flows_mod.max_min_rates

    def recording_solve(flows):
        remaining_at_solve.append({f.name: f.remaining for f in flows})
        return solve(flows)

    first = sim.transfer([link], 1000.0, name="first")
    late = []

    def joiner(env):
        yield env.timeout(5.0)
        late.append(sim.transfer([link], 1000.0, name="late"))

    env.process(joiner(env))
    with mock.patch.object(flows_mod, "max_min_rates", recording_solve):
        env.run(until=first)
        assert env.now == 15.0
        env.run(until=late[0])
    assert env.now == 20.0
    assert remaining_at_solve == [
        {"first": 1000.0},
        {"first": 500.0, "late": 1000.0},
        {"late": 500.0},
    ]
    assert sim.bytes_moved == 2000.0
