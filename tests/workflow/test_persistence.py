"""Tests for workflow-report JSON persistence."""

import numpy as np
import pytest

from repro.testbed import build_nautilus_testbed
from repro.viz import render_table1
from repro.workflow import Workflow, WorkflowDriver
from repro.workflow.persistence import (
    load_report,
    report_from_dict,
    report_to_dict,
    save_report,
)
from tests.workflow.test_workflow_core import SleepStep


class ArtifactStep(SleepStep):
    """Produces every artifact flavour the sanitizer must handle."""

    def execute(self, ctx):
        with ctx.trace("read-input", "transfer", bytes=42.0, input=True):
            yield ctx.env.timeout(1.0)
        ctx.report.artifacts.update(
            {
                "number": 7,
                "np_number": np.float64(2.5),
                "text": "hello",
                "nested": {"a": [1, 2, {"b": None}], "t": (3, 4)},
                "array": np.arange(12).reshape(3, 4),
                "weird": object(),
            }
        )


@pytest.fixture
def report():
    testbed = build_nautilus_testbed(seed=3, scale=0.0001)
    return WorkflowDriver(testbed).run(Workflow("persist", [ArtifactStep(name="s")]))


class TestSerialization:
    def test_roundtrip_core_fields(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_report(report, path)
        back = load_report(path)
        assert back.workflow_name == report.workflow_name
        assert back.succeeded == report.succeeded
        assert back.total_duration_s == pytest.approx(report.total_duration_s)
        step, orig = back.steps[0], report.steps[0]
        assert step.duration_s == pytest.approx(orig.duration_s)
        assert step.data_processed_bytes == orig.data_processed_bytes == 42.0

    def test_scalar_artifacts_roundtrip_exactly(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_report(report, path)
        art = load_report(path).steps[0].artifacts
        assert art["number"] == 7
        assert art["np_number"] == 2.5
        assert art["text"] == "hello"
        assert art["nested"]["a"][2]["b"] is None
        assert art["nested"]["t"] == [3, 4]  # tuples become lists

    def test_arrays_summarized_not_dropped(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_report(report, path)
        summary = load_report(path).steps[0].artifacts["array"]
        assert summary["__array_summary__"] is True
        assert summary["shape"] == [3, 4]
        assert summary["nonzero"] == 11

    def test_unserializable_objects_described(self, report):
        data = report_to_dict(report)
        weird = data["steps"][0]["artifacts"]["weird"]
        assert weird["__type__"] == "object"

    def test_reloaded_report_renders_table(self, report, tmp_path):
        path = tmp_path / "r.json"
        save_report(report, path)
        table = render_table1(load_report(path))
        assert "Table I" in table

    def test_version_guard(self, report):
        data = report_to_dict(report)
        data["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            report_from_dict(data)
