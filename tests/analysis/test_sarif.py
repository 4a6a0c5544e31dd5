"""SARIF 2.1.0 rendering and the hand-rolled structural validator."""

from __future__ import annotations

import json
import pathlib

from repro.analysis import validate_sarif
from repro.analysis.engine import LintEngine
from repro.analysis.sarif import SARIF_VERSION, to_sarif

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "deep_corpus"


def corpus_report():
    engine = LintEngine(entry_modules=["driver", "scheduler_conc"])
    return engine.lint_paths([CORPUS])


def fixture_report(path):
    return LintEngine().lint_paths([path])


# ----------------------------------------------------------------- render


def test_sarif_log_shape_and_rules():
    doc = to_sarif(corpus_report())
    assert doc["version"] == SARIF_VERSION
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {r["id"] for r in driver["rules"]}
    # Only rules that actually fired are listed, and every result's
    # ruleId resolves to one of them.
    assert {"DET010", "CONC001"} <= rule_ids
    assert {r["ruleId"] for r in run["results"]} <= rule_ids


def test_sarif_results_carry_fingerprints_and_locations():
    report = corpus_report()
    doc = to_sarif(report)
    results = doc["runs"][0]["results"]
    assert len(results) == len(report.findings)
    fingerprints = {f.fingerprint for f in report.findings}
    for res in results:
        assert res["partialFingerprints"]["reproLint/v2"] in fingerprints
        phys = res["locations"][0]["physicalLocation"]
        assert phys["artifactLocation"]["uri"]
        assert phys["region"]["startLine"] >= 1


def test_sarif_levels_map_severities():
    doc = to_sarif(corpus_report())
    levels = {r["ruleId"]: r["level"] for r in doc["runs"][0]["results"]}
    assert levels["DET010"] == "error"
    assert levels["CONC001"] == "warning"


def test_sarif_object_findings_use_logical_coordinates():
    doc = to_sarif(fixture_report(FIXTURES / "bad_gpu.json"))
    results = doc["runs"][0]["results"]
    assert any(r["ruleId"] == "SPEC001" for r in results)
    for res in results:
        # Object findings have no file/line; the coordinate string
        # stands in for the artifact URI.
        assert res["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]


def test_sarif_suppressed_findings_marked_external(tmp_path):
    report = corpus_report()
    assert report.findings
    # Push everything into a baseline, re-run: all suppressed.
    from repro.analysis import Baseline

    baseline = Baseline()
    for f in report.findings:
        baseline.add(f)
    engine = LintEngine(
        entry_modules=["driver", "scheduler_conc"], baseline=baseline
    )
    suppressed_report = engine.lint_paths([CORPUS])
    assert suppressed_report.findings == []
    assert suppressed_report.suppressed

    doc = to_sarif(suppressed_report)
    results = doc["runs"][0]["results"]
    assert results
    assert all(r["suppressions"] == [{"kind": "external"}] for r in results)
    assert validate_sarif(doc) == []


def test_render_sarif_is_deterministic_json():
    first = corpus_report().render_sarif()
    second = corpus_report().render_sarif()
    assert first == second
    json.loads(first)  # well-formed


# --------------------------------------------------------------- validate


def test_validate_accepts_generated_logs():
    assert validate_sarif(to_sarif(corpus_report())) == []
    assert validate_sarif(to_sarif(fixture_report(FIXTURES / "bad_gpu.json"))) == []


def test_validate_rejects_bad_logs():
    assert validate_sarif([]) == ["log must be an object"]
    assert any("version" in p for p in validate_sarif({"runs": [{}]}))
    assert any("runs" in p for p in validate_sarif({"version": SARIF_VERSION}))

    doc = to_sarif(corpus_report())
    doc["runs"][0]["results"][0]["level"] = "fatal"
    assert any("level" in p for p in validate_sarif(doc))

    doc = to_sarif(corpus_report())
    del doc["runs"][0]["results"][0]["message"]
    assert any("message.text" in p for p in validate_sarif(doc))

    doc = to_sarif(corpus_report())
    doc["runs"][0]["results"][0]["ruleId"] = "NOPE999"
    assert any("missing from driver rules" in p for p in validate_sarif(doc))

    doc = to_sarif(corpus_report())
    doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
        "region"
    ]["startLine"] = 0
    assert any("startLine" in p for p in validate_sarif(doc))
