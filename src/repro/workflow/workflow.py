"""Workflow DAGs: ordered, validated compositions of steps."""

from __future__ import annotations

import typing as _t

from repro.analysis import Severity, find_cycle, format_cycle, lint_workflow
from repro.errors import ValidationError
from repro.workflow.step import WorkflowStep

__all__ = ["Workflow"]


class Workflow:
    """A named DAG of :class:`WorkflowStep`.

    Steps execute in a topological order that respects ``depends_on``
    edges; the CONNECT case study is a simple chain (Figure 2), but the
    DAG is general so extension workflows can fan out.

    Construction runs the full ``dag`` rule pack of the static-analysis
    engine (:mod:`repro.analysis`): error-severity findings — cycles
    (reported with the full path, e.g. ``a -> b -> a``), self- and
    unknown dependencies — raise :class:`ValidationError`; advisory
    findings (orphan steps, network steps without retry budgets, ...)
    are kept on :attr:`lint_findings` for ``repro lint`` and callers to
    inspect.  DAG007 (GPU oversubscription, error severity) stays silent
    here, since no GPU total is known at construction; only ``repro
    lint`` reports it, passing ``testbed.total_gpus()``.
    """

    def __init__(self, name: str, steps: _t.Sequence[WorkflowStep]):
        if not steps:
            raise ValidationError(f"workflow {name!r} needs at least one step")
        names = [s.name for s in steps]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(
                f"workflow {name!r} has duplicate step names: {dupes}"
            )
        self.name = name
        self.steps: dict[str, WorkflowStep] = {s.name: s for s in steps}
        findings = lint_workflow(self)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        if errors:
            raise ValidationError(
                f"workflow {name!r}: "
                + "; ".join(f.message for f in errors)
            )
        #: advisory (non-error) findings from the dag rule pack
        self.lint_findings = findings
        self._order = self._toposort()

    def _toposort(self) -> list[str]:
        """Topological execution order (declaration-stable tie-breaking).

        Also a validation backstop behind the construction-time lint:
        unknown dependencies and cycles raise :class:`ValidationError`
        with the workflow's name and — for cycles — the full offending
        path, deterministically (the same graph always names the same
        cycle, whatever the dict insertion order).
        """
        for step in self.steps.values():
            for dep in step.depends_on:
                if dep not in self.steps:
                    raise ValidationError(
                        f"workflow {self.name!r}: step {step.name!r} "
                        f"depends on unknown step {dep!r}"
                    )
        cycle = find_cycle({s.name: s.depends_on for s in self.steps.values()})
        if cycle is not None:
            raise ValidationError(
                f"workflow {self.name!r}: dependency cycle: "
                f"{format_cycle(cycle)}"
            )
        order: list[str] = []
        done: set[str] = set()

        def visit(name: str) -> None:
            if name in done:
                return
            done.add(name)
            for dep in self.steps[name].depends_on:
                visit(dep)
            order.append(name)

        # Stable order: declaration order drives tie-breaking.
        for name in self.steps:
            visit(name)
        return order

    @property
    def order(self) -> list[str]:
        """Execution order (topological, declaration-stable)."""
        return list(self._order)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> _t.Iterator[WorkflowStep]:
        for name in self._order:
            yield self.steps[name]

    def describe(self) -> str:
        """The Figure-2 view: steps with dependency arrows."""
        lines = [f"Workflow: {self.name}"]
        for i, name in enumerate(self._order, 1):
            step = self.steps[name]
            deps = f"  (after {', '.join(step.depends_on)})" if step.depends_on else ""
            lines.append(f"  {i}. {name} [{step.image}]{deps}")
            if step.description:
                lines.append(f"       {step.description}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Workflow {self.name}: {' -> '.join(self._order)}>"
