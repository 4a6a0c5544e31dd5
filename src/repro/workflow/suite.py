"""Multi-seed robustness runs of a workflow.

A reproduction whose numbers hold at exactly one seed is not a
reproduction.  The suite executes the same workflow on freshly built
testbeds across several seeds and separates the *structural* quantities
(pods/CPUs/GPUs/data — which must be identical, they are properties of
the configuration, not the randomness) from the *stochastic* ones
(durations — which vary with worker jitter and synthetic weather and are
reported as mean ± spread).
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as _t
import warnings

from repro.errors import ValidationError
from repro.testbed import build_nautilus_testbed
from repro.viz.ascii import text_table
from repro.workflow.driver import WorkflowDriver, WorkflowReport

__all__ = ["StepStatistics", "RobustnessReport", "run_robustness_suite"]


@dataclasses.dataclass
class StepStatistics:
    """Cross-seed summary for one step."""

    name: str
    durations_s: list[float]
    pods: set[int]
    cpus: set[int]
    gpus: set[int]
    data_gb: set[float]

    @property
    def mean_minutes(self) -> float:
        return statistics.fmean(self.durations_s) / 60.0

    @property
    def stdev_minutes(self) -> float:
        if len(self.durations_s) < 2:
            return 0.0
        return statistics.stdev(self.durations_s) / 60.0

    @property
    def cv(self) -> float:
        """Coefficient of variation of the duration (spread / mean)."""
        mean = statistics.fmean(self.durations_s)
        if mean == 0 or len(self.durations_s) < 2:
            return 0.0
        return statistics.stdev(self.durations_s) / mean

    @property
    def structurally_stable(self) -> bool:
        """True when every structural column is seed-invariant."""
        return (
            len(self.pods) == 1
            and len(self.cpus) == 1
            and len(self.gpus) == 1
            and len(self.data_gb) == 1
        )


@dataclasses.dataclass
class RobustnessReport:
    """All seeds' outcomes + the per-step statistics."""

    seeds: list[int]
    reports: list[WorkflowReport]
    steps: dict[str, StepStatistics]

    @property
    def all_succeeded(self) -> bool:
        return all(r.succeeded for r in self.reports)

    def render(self) -> str:
        rows = []
        for name, stats in self.steps.items():
            rows.append(
                (
                    name,
                    f"{stats.mean_minutes:.1f} ± {stats.stdev_minutes:.1f}",
                    f"{stats.cv * 100:.1f}%",
                    "yes" if stats.structurally_stable else "NO",
                )
            )
        return text_table(
            ["step", "duration (min, mean ± sd)", "CV", "structure stable"],
            rows,
            title=f"Robustness across seeds {self.seeds}:",
        )


def run_robustness_suite(
    workflow_factory: _t.Callable[[object], object],
    seeds: _t.Sequence[int] = (41, 42, 43),
    scale: float = 0.002,
) -> RobustnessReport:
    """Run ``workflow_factory(testbed)`` once per seed on fresh testbeds.

    Parameters
    ----------
    workflow_factory:
        Builds the workflow for a given testbed (e.g.
        ``lambda tb: build_connect_workflow(tb, real_ml=False)``).
    seeds:
        At least two seeds, all distinct.
    scale:
        Forwarded to :func:`build_nautilus_testbed`.
    """
    if len(seeds) < 2 or len(set(seeds)) != len(seeds):
        raise ValidationError("need >= 2 distinct seeds")
    reports: list[WorkflowReport] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in seeds:
            testbed = build_nautilus_testbed(seed=seed, scale=scale)
            workflow = workflow_factory(testbed)
            reports.append(WorkflowDriver(testbed).run(workflow))

    step_names = [s.name for s in reports[0].steps]
    steps: dict[str, StepStatistics] = {}
    for name in step_names:
        step_reports = [r.step(name) for r in reports]
        steps[name] = StepStatistics(
            name=name,
            durations_s=[s.duration_s for s in step_reports],
            pods={s.pods for s in step_reports},
            cpus={int(round(s.cpus)) for s in step_reports},
            gpus={s.gpus for s in step_reports},
            data_gb={round(s.data_processed_bytes / 1e9, 2)
                     for s in step_reports},
        )
    return RobustnessReport(seeds=list(seeds), reports=reports, steps=steps)
