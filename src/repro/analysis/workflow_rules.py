"""Rule pack ``dag``: workflow DAG lint.

The CONNECT workflow is a chain, but the DAG is general (fan-out
extensions, §III-E) — and general DAGs fail in general ways: cycles,
steps nothing can reach, network steps with no failure budget, resume
points that don't exist, and sibling branches that together want more
GPUs than CHASE-CI has.  ``Workflow.__init__`` runs the whole pack and
raises on every error-severity finding, DAG007 included.  It passes no
GPU total, so DAG007 (which needs the testbed's GPU count) stays
silent there and fires under ``repro lint``, which supplies one.  The
warnings (DAG004-DAG006) are pre-flight hygiene surfaced by
``repro lint``.
"""

from __future__ import annotations

import typing as _t

from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.graph import concurrent_pairs, find_cycle, format_cycle
from repro.analysis.model import WorkflowView
from repro.analysis.registry import rule

__all__ = ["run_dag_rules"]


def _loc(view: WorkflowView, name: str = "", kind: str = "WorkflowStep") -> Location:
    return Location(
        kind=kind if name else "Workflow",
        name=name or view.name,
        namespace=view.name if name else "",
    )


@rule(
    "DAG001",
    "dependency-cycle",
    pack="dag",
    severity=Severity.ERROR,
    description="Step dependencies form a cycle (full path reported)",
)
def check_cycle(view: WorkflowView) -> _t.Iterator[Finding]:
    deps = {s.name: list(s.depends_on) for s in view.steps}
    # Self-dependencies are DAG002's finding; mask them here so one
    # mistake doesn't fire two rules.
    masked = {
        name: [d for d in ds if d != name] for name, ds in deps.items()
    }
    cycle = find_cycle(masked)
    if cycle is None:
        return
    yield Finding(
        code="DAG001",
        severity=Severity.ERROR,
        message=f"dependency cycle: {format_cycle(cycle)}",
        location=_loc(view),
        suggestion="break the cycle by removing one of the edges on the "
                   "quoted path",
    )


@rule(
    "DAG002",
    "self-dependency",
    pack="dag",
    severity=Severity.ERROR,
    description="Step depends on itself",
)
def check_self_dependency(view: WorkflowView) -> _t.Iterator[Finding]:
    for step in view.steps:
        if step.name in step.depends_on:
            yield Finding(
                code="DAG002",
                severity=Severity.ERROR,
                message=f"step {step.name!r} depends on itself",
                location=_loc(view, step.name),
                suggestion=f"remove {step.name!r} from its own depends_on",
            )


@rule(
    "DAG003",
    "unknown-dependency",
    pack="dag",
    severity=Severity.ERROR,
    description="Step depends on a name not present in the workflow",
)
def check_unknown_dependency(view: WorkflowView) -> _t.Iterator[Finding]:
    names = {s.name for s in view.steps}
    for step in view.steps:
        for dep in step.depends_on:
            if dep not in names:
                yield Finding(
                    code="DAG003",
                    severity=Severity.ERROR,
                    message=(
                        f"step {step.name!r} depends on unknown step {dep!r}"
                    ),
                    location=_loc(view, step.name),
                    suggestion="fix the typo or add the missing step",
                )


@rule(
    "DAG004",
    "orphan-step",
    pack="dag",
    severity=Severity.WARNING,
    description="Step is disconnected from an otherwise-connected DAG",
)
def check_orphans(view: WorkflowView) -> _t.Iterator[Finding]:
    if len(view.steps) < 2:
        return
    names = {s.name for s in view.steps}
    has_dependents = {
        dep for s in view.steps for dep in s.depends_on if dep in names
    }
    any_edges = any(
        dep in names for s in view.steps for dep in s.depends_on
    )
    if not any_edges:
        return  # an intentional all-parallel batch, not a wiring mistake
    for step in view.steps:
        connected = step.name in has_dependents or any(
            dep in names for dep in step.depends_on
        )
        if connected:
            continue
        yield Finding(
            code="DAG004",
            severity=Severity.WARNING,
            message=(
                f"step {step.name!r} is orphaned: nothing depends on it and "
                "it depends on nothing, while the rest of the workflow is "
                "wired together"
            ),
            location=_loc(view, step.name),
            suggestion="wire the step into the DAG or drop it from the "
                       "workflow",
        )


@rule(
    "DAG005",
    "network-step-without-budget",
    pack="dag",
    severity=Severity.WARNING,
    description="Network-touching step has neither timeout_s nor max_retries",
)
def check_network_budget(view: WorkflowView) -> _t.Iterator[Finding]:
    for step in view.steps:
        if not step.network_bound:
            continue
        if step.timeout_s is not None or step.max_retries > 0:
            continue
        yield Finding(
            code="DAG005",
            severity=Severity.WARNING,
            message=(
                f"network-touching step {step.name!r} (image "
                f"{step.image or 'unknown'!r}) has no timeout_s and no "
                "max_retries; a WAN partition stalls the workflow forever"
            ),
            location=_loc(view, step.name),
            suggestion="give transfer steps a timeout_s and/or max_retries "
                       "so partitions convert to retries",
        )


@rule(
    "DAG006",
    "checkpoint-coverage-gap",
    pack="dag",
    severity=Severity.WARNING,
    description="resume_from cannot skip past a non-checkpointable step",
)
def check_checkpoint_coverage(view: WorkflowView) -> _t.Iterator[Finding]:
    names = {s.name for s in view.steps}
    dependents: dict[str, list[str]] = {s.name: [] for s in view.steps}
    for step in view.steps:
        for dep in step.depends_on:
            if dep in names:
                dependents[dep].append(step.name)
    for step in view.steps:
        if step.checkpointable or not dependents[step.name]:
            continue
        downstream = ", ".join(sorted(dependents[step.name]))
        yield Finding(
            code="DAG006",
            severity=Severity.WARNING,
            message=(
                f"step {step.name!r} is not checkpointable but {downstream} "
                "depend(s) on it; a run killed downstream cannot "
                "resume_from= past it and must re-execute it"
            ),
            location=_loc(view, step.name),
            suggestion="make the step's artifacts serializable "
                       "(checkpointable=True) or accept re-execution on "
                       "resume",
        )


@rule(
    "DAG007",
    "gpu-oversubscription",
    pack="dag",
    severity=Severity.ERROR,
    description="Concurrently-runnable steps together exceed testbed GPUs",
)
def check_gpu_oversubscription(view: WorkflowView) -> _t.Iterator[Finding]:
    if view.total_gpus is None:
        return
    demand = {s.name: s.gpus for s in view.steps}
    if sum(demand.values()) == 0:
        return
    deps = view.deps()
    pairs = concurrent_pairs(deps)

    def concurrent(a: str, b: str) -> bool:
        return frozenset((a, b)) in pairs

    # Greedy max-weight clique over the concurrency graph: descending
    # GPU demand with lexicographic tie-breaking keeps it deterministic.
    # Exact max-clique is NP-hard; greedy is a lower bound, so anything
    # it flags really can run concurrently and really oversubscribes.
    order = sorted(demand, key=lambda n: (-demand[n], n))
    reported: set[frozenset] = set()
    for seed_step in order:
        if demand[seed_step] == 0:
            continue
        group = [seed_step]
        for candidate in order:
            if candidate == seed_step or demand[candidate] == 0:
                continue
            if all(concurrent(candidate, member) for member in group):
                group.append(candidate)
        total = sum(demand[name] for name in group)
        key = frozenset(group)
        if total > view.total_gpus and key not in reported and len(group) > 1:
            reported.add(key)
            listing = ", ".join(
                f"{name} ({demand[name]})" for name in sorted(group)
            )
            yield Finding(
                code="DAG007",
                severity=Severity.ERROR,
                message=(
                    f"steps that can run concurrently request {total} GPUs "
                    f"together but the testbed has {view.total_gpus}: "
                    f"{listing}"
                ),
                location=_loc(view),
                suggestion="serialize the branches with depends_on or lower "
                           "per-step n_gpus",
            )
        # Also catch the single-step case: one step alone over capacity.
        if demand[seed_step] > view.total_gpus:
            solo = frozenset((seed_step,))
            if solo not in reported:
                reported.add(solo)
                yield Finding(
                    code="DAG007",
                    severity=Severity.ERROR,
                    message=(
                        f"step {seed_step!r} requests {demand[seed_step]} "
                        f"GPUs but the testbed has {view.total_gpus}"
                    ),
                    location=_loc(view, seed_step),
                    suggestion="lower n_gpus to the testbed's capacity",
                )
    return


def run_dag_rules(
    view: WorkflowView, rules: _t.Iterable | None = None
) -> "list[Finding]":
    """Run (a subset of) the dag pack over one workflow view."""
    from repro.analysis.registry import registry

    findings: list[Finding] = []
    for r in rules if rules is not None else registry.rules(pack="dag"):
        findings.extend(r.check(view))
    return findings
