"""Tests for the Kepler-style interactive execution session."""

import pytest

from repro.errors import StepFailedError, ValidationError
from repro.testbed import build_nautilus_testbed
from repro.workflow import Workflow
from repro.workflow.kepler import KeplerSession
from tests.workflow.test_workflow_core import SleepStep


@pytest.fixture
def session():
    testbed = build_nautilus_testbed(seed=2, scale=0.0001)
    wf = Workflow(
        "chain",
        [
            SleepStep(name="a", params={"duration": 5.0}),
            SleepStep(name="b", params={"duration": 3.0}).after("a"),
            SleepStep(name="c", params={"duration": 2.0}).after("b"),
        ],
    )
    return KeplerSession(testbed, wf)


class TestStepExecution:
    def test_run_single_step(self, session):
        report = session.run_step("a")
        assert report.succeeded
        assert session.cells["a"].status == "ran"
        assert session.cells["a"].runs == 1

    def test_dependency_enforced(self, session):
        with pytest.raises(ValidationError, match="needs"):
            session.run_step("b")

    def test_run_until_runs_prefix(self, session):
        reports = session.run_until("b")
        assert [r.name for r in reports] == ["a", "b"]
        assert session.cells["c"].status == "idle"

    def test_artifacts_flow_between_interactive_runs(self, session):
        session.run_step("a")
        assert session.artifacts["a"]["out"] == 5.0

    def test_param_override_applies(self, session):
        report = session.run_step("a", duration=1.0)
        assert report.duration_s == pytest.approx(1.0)

    def test_unknown_step(self, session):
        with pytest.raises(ValidationError):
            session.run_step("ghost")

    def test_failed_step_raises_and_marks_cell(self, session):
        with pytest.raises(StepFailedError):
            session.run_step("a", fail=True)
        assert session.cells["a"].status == "failed"
        # Recoverable: fix the parameter and rerun.
        session.workflow.steps["a"].params["fail"] = False
        session.rerun("a")
        assert session.cells["a"].status == "ran"


class TestStaleness:
    def test_rerun_marks_dependents_stale(self, session):
        session.run_until("c")
        assert all(c.status == "ran" for c in session.cells.values())
        session.rerun("a")
        assert session.cells["a"].status == "ran"
        assert session.cells["b"].status == "stale"
        assert session.cells["c"].status == "stale"

    def test_measurement_history_accumulates(self, session):
        session.run_step("a")
        session.rerun("a", duration=2.0)
        durations = session.ppods.trend("a")
        assert len(durations) == 2
        assert durations[1] == pytest.approx(2.0)


class TestCollaboration:
    def test_annotations_on_board(self, session):
        session.annotate("a", "alice", "tune chunk size next run")
        board = session.board()
        assert "alice" in board and "chunk size" in board

    def test_annotate_unknown_step(self, session):
        with pytest.raises(ValidationError):
            session.annotate("ghost", "bob", "x")

    def test_board_shows_status_and_runs(self, session):
        session.run_step("a")
        board = session.board()
        assert "ran" in board
        assert "runs=1" in board


class TestMeasurement:
    def test_cells_match_driver_and_pods_sit_under_step_spans(self):
        from repro.workflow import WorkflowDriver, build_connect_workflow

        kepler_tb = build_nautilus_testbed(seed=42, scale=0.0005)
        session = KeplerSession(
            kepler_tb, build_connect_workflow(kepler_tb, real_ml=False)
        )
        kepler = session.run_until("visualization")
        driver_tb = build_nautilus_testbed(seed=42, scale=0.0005)
        driven = WorkflowDriver(driver_tb).run(
            build_connect_workflow(driver_tb, real_ml=False)
        )

        def cells(reports):
            return [
                (r.pods, r.cpus, r.gpus, r.memory_bytes, r.data_processed_bytes)
                for r in reports
            ]

        assert cells(kepler) == cells(driven.steps)
        assert [r.pods for r in kepler] == [14, 1, 50, 1]

        tracer = kepler_tb.tracer
        for report in kepler:
            (step_span,) = tracer.find(category="step", name=report.name)
            namespace = f"kepler-connect-{report.name}"
            assert step_span.attributes["namespace"] == namespace
            pods = [
                s
                for s in tracer.find(category="running")
                if s.attributes["namespace"] == namespace
            ]
            assert len(pods) >= report.pods
            assert {s.parent_id for s in pods} == {step_span.span_id}
