"""Property test: the flow engine's per-resource membership stays exact.

Random starts, cancels, link failures and restores drive a
:class:`FlowSimulator`; after every kernel step each resource's
``allocated_rate`` and ``sample_rates`` must equal the summed rate of
the live flows crossing it, and the membership map must hold exactly
the live flows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.flows import CapacityResource, FlowSimulator
from repro.sim import Environment

OPS = st.lists(
    st.tuples(
        st.sampled_from(["start", "start", "cancel", "fail", "restore"]),
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
        assert res.allocated_rate == expected, res
        assert sampled[res.name] == expected, res
    for res, members in sim._members.items():
        assert members, f"empty membership entry for {res.name}"
        assert all(flow in sim._flows for flow in members)
    for flow in live:
        assert all(flow in sim._members[res] for res in flow.resources)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_allocated_rate_tracks_live_flows(ops):
    env = Environment()
    sim = FlowSimulator(env)
    resources = [CapacityResource(f"r{i}", 50.0 * (i + 1)) for i in range(4)]
    handles = []

    def driver(env):
        for op, k in ops:
            res = resources[k % len(resources)]
            if op == "start":
                # 1-3 hops from k; every fifth path repeats its first hop.
                path = [resources[(k + j) % len(resources)] for j in range(1 + k % 3)]
                if k % 5 == 0:
                    path.append(path[0])
                handle = sim.transfer(path, 10.0 + k % 400, name=f"f{len(handles)}")
                handles.append(handle)
            elif op == "cancel" and handles:
                sim.cancel(handles[k % len(handles)])
            elif op == "fail":
                res.blocked = True
                sim.recompute()
            elif op == "restore":
                res.blocked = False
                sim.recompute()
            yield env.timeout((k % 4) * 0.5)
        for res in resources:
            res.blocked = False
        sim.recompute()

    env.process(driver(env))
    while env.peek() < float("inf"):
        env.step()
        _check(sim, resources)
    assert sim.active_flows == 0
    assert not sim._members
    assert all(res.allocated_rate == 0.0 for res in resources)
