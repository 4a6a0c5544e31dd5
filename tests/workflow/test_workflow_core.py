"""Tests for Workflow/driver mechanics and the PPoDS layer."""

import pytest

from repro.errors import ValidationError
from repro.testbed import build_nautilus_testbed
from repro.workflow import PPoDSSession, Workflow, WorkflowDriver
from repro.workflow.step import StepContext, StepReport, WorkflowStep


class SleepStep(WorkflowStep):
    """Test step: sleeps in sim time, optionally failing."""

    default_params = {"duration": 10.0, "fail": False}

    def execute(self, ctx: StepContext):
        with ctx.trace("read-input", "transfer", bytes=42.0, input=True):
            yield ctx.env.timeout(float(ctx.params["duration"]))
        if ctx.params["fail"]:
            raise RuntimeError("step exploded")
        ctx.report.artifacts["out"] = ctx.params["duration"]


class FlakyReadStep(WorkflowStep):
    """Reads 10 bytes per attempt; the first attempt fails after its read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.attempts = 0

    def execute(self, ctx: StepContext):
        self.attempts += 1
        with ctx.trace("read-input", "transfer", bytes=10.0, input=True):
            yield ctx.env.timeout(1.0)
        if self.attempts == 1:
            raise RuntimeError("lost the connection after the read")


class ConsumerStep(WorkflowStep):
    """Reads the upstream artifact to prove artifact plumbing works."""

    def execute(self, ctx: StepContext):
        upstream = ctx.artifacts["first"]["out"]
        yield ctx.env.timeout(1.0)
        ctx.report.artifacts["seen"] = upstream


@pytest.fixture
def testbed():
    return build_nautilus_testbed(seed=1, scale=0.0001)


class TestWorkflowDag:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Workflow("w", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            Workflow("w", [SleepStep(name="a"), SleepStep(name="a")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValidationError):
            Workflow("w", [SleepStep(name="a").after("ghost")])

    def test_cycle_rejected(self):
        a = SleepStep(name="a").after("b")
        b = SleepStep(name="b").after("a")
        with pytest.raises(ValidationError):
            Workflow("w", [a, b])

    def test_topological_order(self):
        a = SleepStep(name="a").after("c")
        b = SleepStep(name="b").after("a")
        c = SleepStep(name="c")
        wf = Workflow("w", [a, b, c])
        order = wf.order
        assert order.index("c") < order.index("a") < order.index("b")

    def test_describe_mentions_steps(self):
        wf = Workflow("w", [SleepStep(name="a"), SleepStep(name="b").after("a")])
        text = wf.describe()
        assert "a" in text and "(after a)" in text


class TestDriver:
    def test_single_step_report(self, testbed):
        wf = Workflow("w", [SleepStep(name="only")])
        report = WorkflowDriver(testbed).run(wf)
        assert report.succeeded
        step = report.step("only")
        assert step.duration_s == pytest.approx(10.0)
        assert step.data_processed_bytes == 42.0

    def test_input_of_every_attempt_counts(self, testbed):
        step = FlakyReadStep(name="flaky", max_retries=1, retry_delay_s=1.0)
        report = WorkflowDriver(testbed).run(Workflow("w", [step]))
        assert report.succeeded
        assert report.step("flaky").retries == 1
        assert report.step("flaky").data_processed_bytes == 20.0

    def test_steps_run_sequentially(self, testbed):
        wf = Workflow(
            "w",
            [
                SleepStep(name="first", params={"duration": 5.0}),
                SleepStep(name="second", params={"duration": 7.0}).after("first"),
            ],
        )
        report = WorkflowDriver(testbed).run(wf)
        first, second = report.steps
        assert second.start_time >= first.end_time
        assert report.total_duration_s == pytest.approx(12.0)

    def test_step_times_are_its_span_times(self, testbed):
        wf = Workflow("w", [SleepStep(name="a", params={"duration": 5.0})])
        report = WorkflowDriver(testbed).run(wf)
        (span,) = testbed.tracer.find("step", "a")
        step = report.step("a")
        assert (step.start_time, step.end_time) == (span.start, span.end)

    def test_artifacts_flow_downstream(self, testbed):
        wf = Workflow(
            "w",
            [
                SleepStep(name="first", params={"duration": 3.0}),
                ConsumerStep(name="consumer").after("first"),
            ],
        )
        report = WorkflowDriver(testbed).run(wf)
        assert report.step("consumer").artifacts["seen"] == 3.0

    def test_failing_step_recorded_and_stops_workflow(self, testbed):
        wf = Workflow(
            "w",
            [
                SleepStep(name="bad", params={"fail": True}),
                SleepStep(name="never").after("bad"),
            ],
        )
        report = WorkflowDriver(testbed).run(wf)
        assert not report.succeeded
        assert "step exploded" in report.step("bad").error
        # The dependent step never ran.
        assert len(report.steps) == 1

    def test_fail_fast_off_continues(self, testbed):
        wf = Workflow(
            "w",
            [
                SleepStep(name="bad", params={"fail": True}),
                SleepStep(name="later"),
            ],
        )
        report = WorkflowDriver(testbed).run(wf, fail_fast=False)
        assert len(report.steps) == 2
        assert report.step("later").succeeded

    def test_namespace_created_per_step(self, testbed):
        wf = Workflow("wf", [SleepStep(name="s1")])
        WorkflowDriver(testbed).run(wf)
        assert "wf-s1" in testbed.cluster.namespaces

    def test_table_shape(self, testbed):
        wf = Workflow("w", [SleepStep(name="a")])
        report = WorkflowDriver(testbed).run(wf)
        table = report.table()
        assert set(table) == {"a"}
        assert {"pods", "cpus", "gpus", "total_time"} <= set(table["a"])

    def test_unknown_step_lookup(self, testbed):
        report = WorkflowDriver(testbed).run(Workflow("w", [SleepStep(name="a")]))
        with pytest.raises(KeyError):
            report.step("ghost")


class TestPPoDS:
    @pytest.fixture
    def session(self):
        wf = Workflow("w", [SleepStep(name="a"), SleepStep(name="b").after("a")])
        return PPoDSSession(wf)

    def _report(self, name, duration=10.0, data=1.0):
        report = StepReport(name=name)
        report.start_time = 0.0
        report.end_time = duration
        report.data_processed_bytes = data
        report.succeeded = True
        return report

    def test_assign_sets_owner_and_status(self, session):
        session.assign("a", "alice")
        assert session.plan["a"].owner == "alice"
        assert session.plan["a"].status == "developing"

    def test_bad_status_rejected(self, session):
        with pytest.raises(ValidationError):
            session.set_status("a", "amazing")

    def test_unknown_step_rejected(self, session):
        with pytest.raises(ValidationError):
            session.assign("ghost", "bob")

    def test_plan_view_lists_steps(self, session):
        session.assign("a", "alice")
        view = session.plan_view()
        assert "alice" in view and "b" in view

    def test_step_test_passes_on_latest_measurement(self, session):
        session.add_test("a-has-data", "a", lambda r: r.data_processed_bytes > 0)
        assert session.run_tests() == {"a-has-data": False}  # no run yet
        session.record(self._report("a"))
        assert session.run_tests() == {"a-has-data": True}

    def test_step_test_exception_is_failure(self, session):
        session.add_test("boom", "a", lambda r: 1 / 0)
        session.record(self._report("a"))
        assert session.run_tests()["boom"] is False

    def test_trend_and_improvement(self, session):
        session.record(self._report("a", duration=100.0))
        session.record(self._report("a", duration=60.0))
        assert session.trend("a") == [100.0, 60.0]
        assert session.improvement("a") == pytest.approx(0.4)

    def test_improvement_needs_two_runs(self, session):
        session.record(self._report("a"))
        assert session.improvement("a") is None

    def test_record_unknown_step_rejected(self, session):
        with pytest.raises(ValidationError):
            session.record(self._report("ghost"))
