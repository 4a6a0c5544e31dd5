"""Kepler-3.0-style interactive, collaborative workflow execution.

Paper §III-E.5: "Currently, the workflow is set up as a series of
kubernetes jobs that can be controlled either through interacting with
kubernetes directly or through a Jupyter Notebook that can control each
step of the process.  In the future we would like to move this towards a
collaborative workflow using the PPODS methodology and the new Kepler 3.0
interface" — a UI where "the CONNECT workflow would be presented as a
series of steps ... where each step could easily be worked on" and
"centralized in one location where every one working on the project could
see them" (§VI).

:class:`KeplerSession` provides exactly that control surface over a
workflow: run steps one at a time (or up to a step), re-run a step after
editing its parameters, inspect per-step status/measurements, and attach
collaborator annotations — all without leaving the session.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import StepFailedError, ValidationError
from repro.testbed import NautilusTestbed
from repro.workflow.driver import traced_step
from repro.workflow.ppods import PPoDSSession
from repro.workflow.step import StepContext, StepReport
from repro.workflow.workflow import Workflow

__all__ = ["KeplerSession", "StepCell"]


@dataclasses.dataclass
class StepCell:
    """The notebook-cell view of one step."""

    name: str
    status: str = "idle"  # idle | ran | failed | stale
    runs: int = 0
    last_report: StepReport | None = None
    annotations: list[tuple[str, str]] = dataclasses.field(default_factory=list)


class KeplerSession:
    """Interactive step-at-a-time execution of a workflow.

    Downstream steps become ``stale`` when an upstream step re-runs, so
    collaborators can see which results are out of date — the
    "measuring, learning, and informing" loop (§VIII) at step
    granularity.
    """

    def __init__(self, testbed: NautilusTestbed, workflow: Workflow):
        self.testbed = testbed
        self.workflow = workflow
        self.cells: dict[str, StepCell] = {
            name: StepCell(name=name) for name in workflow.order
        }
        #: artifacts of the latest run of each step (what dependents read)
        self.artifacts: dict[str, dict] = {}
        self.ppods = PPoDSSession(workflow)

    # -- execution -----------------------------------------------------------------

    def run_step(self, name: str, **param_overrides) -> StepReport:
        """Run exactly one step (its dependencies must have run).

        Parameter overrides are applied to the step before running —
        the interactive "adjust and rerun" loop of §III-D.
        """
        if name not in self.cells:
            raise ValidationError(f"unknown step {name!r}")
        step = self.workflow.steps[name]
        missing = [
            dep for dep in step.depends_on if self.cells[dep].status != "ran"
        ]
        if missing:
            raise ValidationError(
                f"step {name!r} needs {missing} to have run first"
            )
        step.params.update(param_overrides)

        env = self.testbed.env
        report = StepReport(name=name)
        namespace = f"kepler-{self.workflow.name}-{name}".lower()
        cell = self.cells[name]
        with traced_step(self.testbed, step, namespace, report) as span:
            ctx = StepContext(
                testbed=self.testbed,
                params=dict(step.params),
                artifacts=self.artifacts,
                report=report,
                namespace=namespace,
                span=span,
            )
            try:
                proc = env.process(step.execute(ctx), name=f"kepler:{name}")
                env.run(until=proc)
                report.succeeded = True
                cell.status = "ran"
            except Exception as exc:  # noqa: BLE001 - shown in the cell
                report.succeeded = False
                report.error = repr(exc)
                cell.status = "failed"
        cell.runs += 1
        cell.last_report = report
        self.artifacts[name] = dict(report.artifacts)
        self.ppods.record(report)
        if report.succeeded:
            self._mark_dependents_stale(name)
        else:
            raise StepFailedError(name, report.error)
        return report

    def run_until(self, name: str) -> list[StepReport]:
        """Run every not-yet-run step up to and including ``name``."""
        reports = []
        for step_name in self.workflow.order:
            if self.cells[step_name].status != "ran":
                reports.append(self.run_step(step_name))
            if step_name == name:
                break
        return reports

    def rerun(self, name: str, **param_overrides) -> StepReport:
        """Re-execute a step (dependencies must still be 'ran')."""
        self.cells[name].status = "idle"
        return self.run_step(name, **param_overrides)

    def _mark_dependents_stale(self, name: str) -> None:
        for other in self.workflow.order:
            step = self.workflow.steps[other]
            if name in step.depends_on and self.cells[other].status == "ran":
                self.cells[other].status = "stale"
                self._mark_dependents_stale(other)

    # -- collaboration ----------------------------------------------------------------

    def annotate(self, name: str, author: str, note: str) -> None:
        """Attach a collaborator note to a step cell."""
        if name not in self.cells:
            raise ValidationError(f"unknown step {name!r}")
        self.cells[name].annotations.append((author, note))

    def board(self) -> str:
        """The shared 'centralized in one location' step view (§VI)."""
        lines = [f"Kepler session — workflow {self.workflow.name!r}"]
        for i, name in enumerate(self.workflow.order, 1):
            cell = self.cells[name]
            duration = (
                f"{cell.last_report.duration_minutes:.1f} min"
                if cell.last_report is not None
                else "—"
            )
            lines.append(
                f"  [{i}] {name:<16} {cell.status:<7} runs={cell.runs} "
                f"last={duration}"
            )
            for author, note in cell.annotations:
                lines.append(f"        💬 {author}: {note}")
        return "\n".join(lines)
