"""SARIF 2.1.0 output for ``repro lint --format sarif``.

SARIF (Static Analysis Results Interchange Format) is what CI code-
scanning UIs ingest; emitting it makes the lint findings show up
as annotations instead of buried job logs.  This module renders a
:class:`~repro.analysis.engine.LintReport` as a minimal-but-valid
single-run SARIF log:

- one ``run`` whose driver lists the metadata of every rule that
  produced a result (so rule descriptions travel with the findings
  without bloating clean logs),
- one ``result`` per finding — ``ruleId``, ``level`` (error/warning/
  note), message, physical location, and the v2 fingerprint under
  ``partialFingerprints`` so scanning UIs track findings across
  commits exactly like our baselines do,
- baseline-suppressed findings included with an ``external``
  suppression (the SARIF spelling of "grandfathered").

``validate_sarif`` is a hand-rolled structural check of the subset we
emit (the container has no jsonschema package); the CLI tests run it
over every generated log, and CI uploads the artifact.
"""

from __future__ import annotations

import json
import typing as _t

from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import registry

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.engine import LintReport

__all__ = ["to_sarif", "render_sarif", "validate_sarif", "SARIF_VERSION"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _rule_descriptor(code: str) -> dict:
    r = registry.get(code)
    return {
        "id": r.code,
        "name": r.name,
        "shortDescription": {"text": r.description},
        "defaultConfiguration": {"level": _LEVELS[r.severity]},
        "properties": {"pack": r.pack},
    }


def _result(finding: Finding, suppressed: bool) -> dict:
    loc = finding.location
    physical: dict = {}
    if loc.path:
        physical["artifactLocation"] = {
            "uri": loc.path.replace("\\", "/"),
        }
        if loc.line:
            physical["region"] = {"startLine": loc.line}
    else:
        # Object findings (spec/dag/deploy): encode the coordinates as a
        # logical location; artifactLocation needs a real file.
        physical["artifactLocation"] = {"uri": str(loc) or "<none>"}
    message = finding.message
    if finding.suggestion:
        message += f" (suggestion: {finding.suggestion})"
    result = {
        "ruleId": finding.code,
        "level": _LEVELS[finding.severity],
        "message": {"text": message},
        "locations": [{"physicalLocation": physical}],
        "partialFingerprints": {"reproLint/v2": finding.fingerprint},
    }
    if finding.qualname:
        result["locations"][0]["logicalLocations"] = [
            {"fullyQualifiedName": finding.qualname}
        ]
    if suppressed:
        result["suppressions"] = [{"kind": "external"}]
    return result


def to_sarif(
    report: "LintReport", tool_version: str = "2.0"
) -> dict:
    """Render a lint report as a SARIF 2.1.0 log dict."""
    findings = sort_findings(report.findings)
    suppressed = sort_findings(report.suppressed)
    rule_ids = sorted(
        {f.code for f in findings + suppressed} & set(registry.codes())
    )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://github.com/chase-ci/repro"
                        ),
                        "version": tool_version,
                        "rules": [_rule_descriptor(c) for c in rule_ids],
                    }
                },
                "results": (
                    [_result(f, suppressed=False) for f in findings]
                    + [_result(f, suppressed=True) for f in suppressed]
                ),
            }
        ],
    }


def render_sarif(report: "LintReport", tool_version: str = "2.0") -> str:
    return json.dumps(to_sarif(report, tool_version=tool_version), indent=2)


def validate_sarif(doc: _t.Any) -> "list[str]":
    """Structural validation of the SARIF subset we emit.

    Returns a list of problems (empty = valid).  Checks the properties
    the 2.1.0 schema marks required on the objects we produce: log
    version/runs, tool.driver.name, result ruleId/message/level, and
    location shapes.
    """
    problems: list[str] = []

    def need(cond: bool, what: str) -> bool:
        if not cond:
            problems.append(what)
        return cond

    if not need(isinstance(doc, dict), "log must be an object"):
        return problems
    need(doc.get("version") == SARIF_VERSION,
         f"version must be {SARIF_VERSION!r}")
    runs = doc.get("runs")
    if not need(isinstance(runs, list) and runs, "runs must be a non-empty "
                "array"):
        return problems
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not need(isinstance(run, dict), f"{where} must be an object"):
            continue
        driver = run.get("tool", {}).get("driver", {})
        need(isinstance(driver.get("name"), str) and driver.get("name"),
             f"{where}.tool.driver.name is required")
        for j, rd in enumerate(driver.get("rules", [])):
            need(isinstance(rd.get("id"), str) and rd.get("id"),
                 f"{where}.tool.driver.rules[{j}].id is required")
        rule_ids = {rd.get("id") for rd in driver.get("rules", [])}
        results = run.get("results", [])
        if not need(isinstance(results, list), f"{where}.results must be an "
                    "array"):
            continue
        for j, res in enumerate(results):
            rwhere = f"{where}.results[{j}]"
            if not need(isinstance(res, dict), f"{rwhere} must be an object"):
                continue
            need(
                isinstance(res.get("message", {}).get("text"), str),
                f"{rwhere}.message.text is required",
            )
            need(res.get("level") in ("none", "note", "warning", "error"),
                 f"{rwhere}.level must be a SARIF level")
            rid = res.get("ruleId")
            need(isinstance(rid, str) and bool(rid),
                 f"{rwhere}.ruleId is required")
            if rule_ids:
                need(rid in rule_ids,
                     f"{rwhere}.ruleId {rid!r} missing from driver rules")
            for k, loc in enumerate(res.get("locations", [])):
                phys = loc.get("physicalLocation", {})
                art = phys.get("artifactLocation", {})
                need(isinstance(art.get("uri"), str) and art.get("uri"),
                     f"{rwhere}.locations[{k}] artifactLocation.uri is "
                     "required")
                region = phys.get("region")
                if region is not None:
                    need(
                        isinstance(region.get("startLine"), int)
                        and region["startLine"] >= 1,
                        f"{rwhere}.locations[{k}].region.startLine must be "
                        "a positive integer",
                    )
            for k, sup in enumerate(res.get("suppressions", [])):
                need(sup.get("kind") in ("inSource", "external"),
                     f"{rwhere}.suppressions[{k}].kind must be inSource or "
                     "external")
    return problems
