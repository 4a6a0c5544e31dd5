"""The lint engine: resolve rules, run packs, aggregate a report.

One :class:`LintEngine` call covers every entry point:

- ``repro lint`` (CLI) — lints Python paths or, with no paths, the
  built testbed, the CONNECT workflow, the loadtest deployment and the
  package sources.
- ``Workflow.__init__`` — the dag pack at construction time.

The admission gateway runs SPEC001 on its own, without an engine.

The engine owns rule selection (``--select``/``--disable``), baseline
suppression, and the exit-code policy: errors always fail, warnings
fail under strict, suppressed findings never fail.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as _t

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import build_call_graph
from repro.analysis.cluster_rules import run_spec_rules
from repro.analysis.concurrency_rules import run_concurrency_rules
from repro.analysis.deployment_rules import run_deployment_rules
from repro.analysis.determinism import lint_python_paths
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.model import (
    ClusterSpecView,
    DeploymentView,
    WorkflowView,
    workflow_view,
)
from repro.analysis.registry import registry
from repro.analysis.taint import run_taint_analysis
from repro.analysis.workflow_rules import run_dag_rules

__all__ = ["LintEngine", "LintReport", "lint_workflow"]


@dataclasses.dataclass
class LintReport:
    """Aggregated outcome of one lint run."""

    findings: list[Finding] = dataclasses.field(default_factory=list)
    suppressed: list[Finding] = dataclasses.field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def exit_code(self, strict: bool = False) -> int:
        """0 clean; 1 on errors (or warnings under strict)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def merge(self, findings: _t.Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def summary(self) -> str:
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_info = len(self.findings) - n_err - n_warn
        text = f"{n_err} error(s), {n_warn} warning(s), {n_info} info"
        if self.suppressed:
            text += f", {len(self.suppressed)} suppressed by baseline"
        return text

    def render_text(self) -> str:
        lines = [f.format() for f in sort_findings(self.findings)]
        lines.append(self.summary())
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in sort_findings(self.findings)],
                "suppressed": [
                    f.to_dict() for f in sort_findings(self.suppressed)
                ],
                "summary": {
                    "errors": len(self.errors),
                    "warnings": len(self.warnings),
                    "total": len(self.findings),
                },
            },
            indent=2,
        )


class LintEngine:
    """Configured rule runner.

    Parameters
    ----------
    select:
        When given, only these rule codes run.
    disable:
        Codes to switch off (wins over ``select``).
    baseline:
        Previously-accepted findings to suppress.
    entry_modules:
        Override entry-point detection for the call graph (exact
        dotted module names); mostly for fixtures and tests.
    """

    def __init__(
        self,
        select: _t.Collection[str] | None = None,
        disable: _t.Collection[str] | None = None,
        baseline: Baseline | None = None,
        entry_modules: _t.Collection[str] | None = None,
    ):
        # Validate codes eagerly so typos fail loudly.
        for code in list(select or []) + list(disable or []):
            registry.get(code)
        self.select = set(select) if select is not None else None
        self.disable = set(disable or ())
        self.baseline = baseline
        self.entry_modules = entry_modules

    def _active(self, code: str) -> bool:
        if code in self.disable:
            return False
        return self.select is None or code in self.select

    def _rules(self, pack: str):
        return [r for r in registry.rules(pack=pack) if self._active(r.code)]

    # -- pack runners --------------------------------------------------------

    def run_spec(self, view: ClusterSpecView) -> "list[Finding]":
        return run_spec_rules(view, rules=self._rules("spec"))

    def run_dag(self, view: WorkflowView) -> "list[Finding]":
        return run_dag_rules(view, rules=self._rules("dag"))

    def run_det(
        self, paths: _t.Sequence["str | pathlib.Path"]
    ) -> "list[Finding]":
        """Python sources: DET000/DET001 per file, then determinism taint
        (DET010+) and concurrency hazards (CONC) over one call graph."""
        graph = build_call_graph(paths, entry_modules=self.entry_modules)
        findings = lint_python_paths(paths)
        findings += run_taint_analysis(paths, graph=graph)
        findings += run_concurrency_rules(paths, graph=graph)
        # DET000 (unparseable source) has no rule to switch off.
        return [
            f for f in findings if f.code == "DET000" or self._active(f.code)
        ]

    def run_deploy(self, view: DeploymentView) -> "list[Finding]":
        return run_deployment_rules(view, rules=self._rules("deploy"))

    # -- whole-target runners -------------------------------------------------

    def lint_paths(
        self, paths: _t.Sequence["str | pathlib.Path"]
    ) -> LintReport:
        """Run the det + conc packs over ``.py`` files and directories.

        Raises :class:`FileNotFoundError` for a missing path and
        :class:`ValueError` for a file that is not Python source.
        """
        py_paths = [pathlib.Path(raw) for raw in paths]
        for path in py_paths:
            if not path.exists():
                raise FileNotFoundError(f"no such lint target: {path}")
            if path.is_file() and path.suffix != ".py":
                raise ValueError(
                    f"cannot lint {path}: not a Python file or directory"
                )
        report = LintReport()
        if py_paths:
            report.merge(self.run_det(py_paths))
        self._apply_baseline(report)
        return report

    def lint_views(
        self,
        cluster: ClusterSpecView | None = None,
        workflows: _t.Sequence[WorkflowView] = (),
        deployment: "DeploymentView | None" = None,
    ) -> LintReport:
        report = LintReport()
        if cluster is not None:
            report.merge(self.run_spec(cluster))
        for view in workflows:
            report.merge(self.run_dag(view))
        if deployment is not None:
            report.merge(self.run_deploy(deployment))
        self._apply_baseline(report)
        return report

    def _apply_baseline(self, report: LintReport) -> None:
        if self.baseline is None:
            return
        active, suppressed = self.baseline.split(report.findings)
        report.findings = active
        report.suppressed.extend(suppressed)


# -- convenience entry points used by the wired-in layers ---------------------


def lint_workflow(
    workflow: _t.Any, total_gpus: "int | None" = None
) -> "list[Finding]":
    """Run the full dag pack over a live workflow-like object.

    ``Workflow.__init__`` calls this and raises on its error findings;
    ``repro lint`` uses :func:`workflow_view` and
    :meth:`LintEngine.lint_views` instead.
    """
    return run_dag_rules(workflow_view(workflow, total_gpus=total_gpus))
