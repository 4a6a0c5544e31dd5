"""Tests for step-level retries and background traffic."""

import pytest

from repro.netsim.background import BackgroundTraffic
from repro.testbed import build_nautilus_testbed
from repro.workflow import Workflow, WorkflowDriver
from repro.workflow.step import StepContext, WorkflowStep


class FlakyStep(WorkflowStep):
    """Fails the first N executions, then succeeds."""

    default_params = {"failures": 2, "duration": 5.0}

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.attempts = 0

    def execute(self, ctx: StepContext):
        self.attempts += 1
        yield ctx.env.timeout(float(ctx.params["duration"]))
        if self.attempts <= int(ctx.params["failures"]):
            raise RuntimeError(f"flaky failure #{self.attempts}")
        ctx.report.artifacts["attempts"] = self.attempts


@pytest.fixture
def testbed():
    return build_nautilus_testbed(seed=1, scale=0.0001)


class TestStepRetries:
    def test_retries_until_success(self, testbed):
        step = FlakyStep(name="flaky", max_retries=3, retry_delay_s=10.0)
        report = WorkflowDriver(testbed).run(Workflow("w", [step]))
        assert report.succeeded
        s = report.steps[0]
        assert s.artifacts["attempts"] == 3
        assert s.retries == 2
        # Duration includes the two retry delays.
        assert s.duration_s >= 3 * 5.0 + 2 * 10.0

    def test_exhausted_retries_fail_step(self, testbed):
        step = FlakyStep(name="flaky", max_retries=1,
                         params={"failures": 5})
        report = WorkflowDriver(testbed).run(Workflow("w", [step]))
        assert not report.succeeded
        assert "flaky failure" in report.steps[0].error

    def test_zero_retries_default(self, testbed):
        step = FlakyStep(name="flaky", params={"failures": 1})
        report = WorkflowDriver(testbed).run(Workflow("w", [step]))
        assert not report.succeeded
        assert step.attempts == 1

    def test_retry_events_recorded(self, testbed):
        step = FlakyStep(name="flaky", max_retries=2, retry_delay_s=1.0)
        WorkflowDriver(testbed).run(Workflow("w", [step]))
        retry_events = [
            e for e in testbed.cluster.events if e.reason == "Retrying"
        ]
        assert len(retry_events) == 2

    def test_negative_retry_settings_rejected(self):
        with pytest.raises(Exception):
            FlakyStep(name="x", max_retries=-1)


class TestBackgroundTraffic:
    def test_traffic_flows_and_is_deterministic(self, testbed):
        bg = BackgroundTraffic(
            testbed.env, testbed.flowsim, testbed.topology,
            mean_interarrival=10.0, seed=3,
        )
        testbed.env.run(until=500)
        bg.stop()
        assert bg.flows_started > 10
        assert bg.bytes_offered > 0

        tb2 = build_nautilus_testbed(seed=1, scale=0.0001)
        bg2 = BackgroundTraffic(
            tb2.env, tb2.flowsim, tb2.topology,
            mean_interarrival=10.0, seed=3,
        )
        tb2.env.run(until=500)
        assert bg2.flows_started == bg.flows_started
        assert bg2.bytes_offered == pytest.approx(bg.bytes_offered)

    def test_workflow_survives_contention(self, testbed):
        """The 100G core insulates the workflow: it completes under
        heavy cross traffic (the archive egress is the bottleneck)."""
        from repro.workflow import DownloadStep

        BackgroundTraffic(
            testbed.env, testbed.flowsim, testbed.topology,
            mean_interarrival=5.0, seed=4,
        )
        report = WorkflowDriver(testbed).run(
            Workflow("contended", [DownloadStep()])
        )
        assert report.succeeded

    def test_unroutable_pair_is_skipped(self, testbed):
        """A site cut off from the WAN gets no flows; the rest still do."""
        testbed.topology.fail_link("UHM", "UCSD")  # UHM's only WAN link
        bg = BackgroundTraffic(
            testbed.env, testbed.flowsim, testbed.topology,
            mean_interarrival=10.0, seed=3,
        )
        picked, started = [], []
        pick, transfer = bg._pick_pair, testbed.flowsim.transfer

        def recording_pick():
            picked.append(pick())
            return picked[-1]

        def recording_transfer(*args, name, **kwargs):
            started.append(name)
            return transfer(*args, name=name, **kwargs)

        bg._pick_pair = recording_pick
        testbed.flowsim.transfer = recording_transfer
        testbed.env.run(until=1000)
        bg.stop()
        cut = [p for p in picked if "UHM" in p]
        assert cut, "no pair touched the isolated site"
        assert bg.flows_started == len(picked) - len(cut) == len(started) > 10
        assert not any("UHM" in name for name in started)

    def test_other_routing_errors_propagate(self, testbed, monkeypatch):
        """Only a missing route is skipped; any other error ends the run."""
        def broken(src, dst):
            raise RuntimeError("routing bug")

        monkeypatch.setattr(testbed.topology, "path_resources", broken)
        BackgroundTraffic(
            testbed.env, testbed.flowsim, testbed.topology,
            mean_interarrival=10.0, seed=3,
        )
        with pytest.raises(RuntimeError, match="routing bug"):
            testbed.env.run(until=500)

    def test_validation(self, testbed):
        with pytest.raises(ValueError):
            BackgroundTraffic(
                testbed.env, testbed.flowsim, testbed.topology,
                mean_interarrival=0,
            )
        with pytest.raises(ValueError):
            BackgroundTraffic(
                testbed.env, testbed.flowsim, testbed.topology,
                flow_bytes=(0, 10),
            )
