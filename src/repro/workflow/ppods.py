"""PPoDS: the Process for the Practice of Data Science (paper §VI).

"We have created the PPoDS methodology to empower computational data
science teams with effective collaboration tools during the exploratory
workflow development phase" — concretely:

- an **execution plan**: the workflow's steps "connected to each other in
  a visual and meaningful way", each with an owner and a status, so a
  team sees who is developing what;
- **per-step tests**: "creating tests for each piece of the workflow
  steps can allow for much quicker development ... If you refactor the
  code or add in new steps you can run these tests to make sure that you
  haven't broken anything else";
- **measurement capture**: every run of a step appends to its
  measurement history, enabling the measure-learn-inform loop of §VIII.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ValidationError
from repro.workflow.step import StepReport
from repro.workflow.workflow import Workflow

__all__ = ["StepTest", "StepStatus", "PPoDSSession"]


@dataclasses.dataclass
class StepTest:
    """A named check on a step's report (inputs-in, expected-outputs-out)."""

    name: str
    step: str
    check: _t.Callable[[StepReport], bool]
    description: str = ""


@dataclasses.dataclass
class StepStatus:
    """Plan-view row for one step."""

    step: str
    owner: str = ""
    status: str = "planned"  # planned | developing | tested | integrated
    notes: str = ""


_VALID_STATUSES = ("planned", "developing", "tested", "integrated")


class PPoDSSession:
    """A collaborative development session around one workflow."""

    def __init__(self, workflow: Workflow):
        self.workflow = workflow
        self.plan: dict[str, StepStatus] = {
            name: StepStatus(step=name) for name in workflow.order
        }
        self.tests: list[StepTest] = []
        #: step name -> list of reports from every measured run
        self.measurements: dict[str, list[StepReport]] = {
            name: [] for name in workflow.order
        }

    # -- plan ------------------------------------------------------------------

    def assign(self, step: str, owner: str) -> None:
        """Give a step an owner (development "can happen in parallel",
        §VI)."""
        self._status(step).owner = owner
        if self._status(step).status == "planned":
            self._status(step).status = "developing"

    def set_status(self, step: str, status: str, notes: str = "") -> None:
        if status not in _VALID_STATUSES:
            raise ValidationError(
                f"status must be one of {_VALID_STATUSES}, got {status!r}"
            )
        row = self._status(step)
        row.status = status
        if notes:
            row.notes = notes

    def _status(self, step: str) -> StepStatus:
        if step not in self.plan:
            raise ValidationError(f"unknown step {step!r}")
        return self.plan[step]

    def plan_view(self) -> str:
        """The shared, centralized step list of §VI."""
        lines = [f"PPoDS plan — workflow {self.workflow.name!r}"]
        for i, name in enumerate(self.workflow.order, 1):
            row = self.plan[name]
            owner = row.owner or "(unassigned)"
            lines.append(
                f"  {i}. {name:<16} {row.status:<12} owner={owner} {row.notes}"
            )
        return "\n".join(lines)

    # -- tests ------------------------------------------------------------------

    def add_test(
        self,
        name: str,
        step: str,
        check: _t.Callable[[StepReport], bool],
        description: str = "",
    ) -> None:
        """Register a step test ("test for specific outputs when specific
        inputs are put into place", §VI)."""
        if step not in self.plan:
            raise ValidationError(f"unknown step {step!r}")
        self.tests.append(StepTest(name, step, check, description))

    def run_tests(self, step: str | None = None) -> dict[str, bool]:
        """Run registered tests against each step's latest measurement.

        Tests for steps with no recorded run fail (nothing to verify).
        """
        results: dict[str, bool] = {}
        for test in self.tests:
            if step is not None and test.step != step:
                continue
            history = self.measurements.get(test.step, [])
            if not history:
                results[test.name] = False
                continue
            try:
                results[test.name] = bool(test.check(history[-1]))
            except Exception:
                results[test.name] = False
        return results

    # -- measurement -----------------------------------------------------------------

    def record(self, report: StepReport) -> None:
        """Append a step run to the measurement history."""
        if report.name not in self.measurements:
            raise ValidationError(f"unknown step {report.name!r}")
        self.measurements[report.name].append(report)

    def trend(self, step: str, field: str = "duration_s") -> list[float]:
        """A measured quantity across runs — the 'constantly measuring,
        learning, and informing' feedback signal (§VIII)."""
        return [
            float(getattr(r, field)) for r in self.measurements.get(step, [])
        ]

    def improvement(self, step: str) -> float | None:
        """Fractional duration improvement from first to latest run."""
        durations = self.trend(step)
        if len(durations) < 2 or durations[0] == 0:
            return None
        return 1.0 - durations[-1] / durations[0]
