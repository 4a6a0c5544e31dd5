"""Stable report serialization: to_dict/from_dict shared with persistence."""

import dataclasses

import numpy as np
import pytest

from repro.workflow.driver import REPORT_FORMAT_VERSION, WorkflowReport
from repro.workflow.persistence import (
    load_report,
    report_from_dict,
    report_to_dict,
    save_report,
)
from repro.workflow.step import StepReport, sanitize_artifact_value


def _step_report(name="download", **overrides):
    kwargs = dict(
        name=name,
        start_time=10.0,
        end_time=250.0,
        pods=4,
        cpus=8.0,
        gpus=0,
        memory_bytes=2.5e9,
        data_processed_bytes=1.2e11,
        succeeded=True,
        retries=1,
        artifacts={"files_downloaded": 112},
    )
    kwargs.update(overrides)
    return StepReport(**kwargs)


def _workflow_report():
    return WorkflowReport(
        workflow_name="connect",
        steps=[
            _step_report("download"),
            _step_report("training", start_time=250.0, end_time=900.0,
                         gpus=1, retries=0),
        ],
        total_duration_s=900.0,
    )


def test_step_report_round_trips():
    original = _step_report()
    restored = StepReport.from_dict(original.to_dict())
    assert restored == original


def test_step_report_from_dict_defaults_optional_fields():
    d = _step_report().to_dict()
    del d["retries"]
    del d["resumed"]
    restored = StepReport.from_dict(d)
    assert restored.retries == 0
    assert restored.resumed is False


def test_workflow_report_round_trips():
    original = _workflow_report()
    d = original.to_dict()
    assert d["format_version"] == REPORT_FORMAT_VERSION
    restored = WorkflowReport.from_dict(d)
    assert restored.workflow_name == original.workflow_name
    assert restored.total_duration_s == original.total_duration_s
    assert restored.succeeded is True
    assert restored.steps == original.steps


def test_workflow_report_rejects_unknown_format_version():
    d = _workflow_report().to_dict()
    d["format_version"] = REPORT_FORMAT_VERSION + 1
    with pytest.raises(ValueError):
        WorkflowReport.from_dict(d)


def test_persistence_helpers_delegate_to_methods():
    report = _workflow_report()
    assert report_to_dict(report) == report.to_dict()
    assert report_from_dict(report.to_dict()).steps == report.steps


def test_save_and_load_report(tmp_path):
    report = _workflow_report()
    path = tmp_path / "report.json"
    save_report(report, path)
    loaded = load_report(path)
    assert loaded.steps == report.steps
    assert loaded.total_duration_s == report.total_duration_s


def test_sanitize_artifact_value_handles_arrays_and_scalars():
    assert sanitize_artifact_value(3) == 3
    assert sanitize_artifact_value(np.int64(3)) == 3
    assert sanitize_artifact_value(np.float32(1.5)) == pytest.approx(1.5)
    out = sanitize_artifact_value(np.zeros((2, 3), dtype=np.int32))
    assert out["__array_summary__"]
    assert out["shape"] == [2, 3]
    nested = sanitize_artifact_value({"a": [np.int64(1), 2]})
    assert nested == {"a": [1, 2]}


def test_report_dict_is_json_safe_with_array_artifacts():
    import json

    step = _step_report(artifacts={"labels": np.ones((4, 4))})
    report = WorkflowReport(
        workflow_name="w", steps=[step], total_duration_s=1.0
    )
    d = report_to_dict(report)
    json.dumps(d)  # must not raise
    # Live runs carry ndarray artifacts that serialize to summaries, so
    # the stable invariant is dict-level idempotence, not object equality.
    assert report_to_dict(report_from_dict(d)) == d
