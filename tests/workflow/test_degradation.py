"""Unit tests for the overload drill's graceful-degradation policy."""

from repro.workflow import DegradationPolicy


def _policy(saturated: bool) -> tuple[DegradationPolicy, dict]:
    """A policy and the state its saturation signal reads (flip it)."""
    state = {"saturated": saturated}
    return DegradationPolicy(lambda: state["saturated"]), state


def test_saturated_fanout_is_halved_and_recorded():
    policy, _ = _policy(saturated=True)
    assert policy.saturated()
    assert policy.effective_fanout(4, "wf-infer") == 2
    assert policy.coarsened_fanouts == [("wf-infer", 4, 2)]


def test_odd_fanout_rounds_up():
    policy, _ = _policy(saturated=True)
    assert policy.effective_fanout(3, "wf-infer") == 2
    assert policy.coarsened_fanouts == [("wf-infer", 3, 2)]


def test_single_shard_or_unsaturated_request_unchanged():
    policy, state = _policy(saturated=True)
    assert policy.effective_fanout(1, "wf-infer") == 1
    state["saturated"] = False
    assert not policy.saturated()
    assert policy.effective_fanout(4, "wf-infer") == 4
    assert policy.effective_fanout(1, "wf-infer") == 1
    assert policy.coarsened_fanouts == []


def test_summary_lists_drops_and_coarsened_fanouts():
    policy, state = _policy(saturated=True)
    policy.note_skip("wf-0-viz")
    policy.effective_fanout(8, "wf-0-infer")
    state["saturated"] = False
    policy.effective_fanout(8, "wf-1-infer")
    assert policy.summary() == {
        "dropped_steps": ["wf-0-viz"],
        "coarsened_fanouts": [
            {"step": "wf-0-infer", "requested": 8, "granted": 4},
        ],
    }
