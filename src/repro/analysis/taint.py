"""Rule pack ``det``: interprocedural nondeterminism taint.

A taint source — wall-clock read, process-global RNG draw, environment
read, order-unstable iteration — in a function nobody calls from the
simulation is inert.  The same source reachable from
``WorkflowDriver.run`` or the admission gateway silently makes two
same-seed runs diverge.  This pass answers the question that matters
for reproductions: **can it happen during a simulation run?**

It combines the per-function sources collected by
:func:`repro.analysis.determinism.collect_taint_sources` with the
whole-program :class:`~repro.analysis.callgraph.CallGraph` and reports
one finding per tainted *source site* whose enclosing function is
sim-reachable, quoting the full call path from the entry point::

    driver.run -> stages.download -> clock.stamp: DET010 error:
    wall-clock read time.time() is reachable from simulation entry
    point 'driver.run' ...

Sources at module level run at import time, unconditionally, so they
are reported without a reachability check and quote
``<module> (import time)`` in place of a call path.

Codes (all errors — reachability **is** the severity argument):

- ``DET010`` — wall-clock read (``time.time``, ``time.perf_counter``,
  ``datetime.now``...) on a sim-reachable path.
- ``DET011`` — stdlib ``random`` (process-global state) on a
  sim-reachable path.
- ``DET012`` — environment read (``os.environ``/``os.getenv``): runs
  depend on ambient shell state no seed controls.
- ``DET013`` — iteration over order-unstable collections (``set``,
  unsorted ``os.listdir``): hash/OS order leaks into event order.
"""

from __future__ import annotations

import pathlib
import typing as _t

from repro.analysis.callgraph import CallGraph, build_call_graph, module_name_for
from repro.analysis.determinism import (
    collect_taint_sources,
    expand_python_paths,
)
from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.registry import rule

__all__ = ["run_taint_analysis"]

#: taint-source kind -> rule code
_KIND_CODES = {
    "wall-clock": "DET010",
    "global-rng": "DET011",
    "env-read": "DET012",
    "unordered-iter": "DET013",
}

#: the path text module-level sources quote instead of a call chain
_IMPORT_TIME = "<module> (import time)"

_KIND_MESSAGES = {
    "wall-clock": (
        "wall-clock read {detail}()",
        "read env.now (virtual time) or inject timestamps explicitly",
    ),
    "global-rng": (
        "process-global RNG draw {detail}()",
        "draw from a seeded generator: "
        "np.random.default_rng(derive_seed(root, ...))",
    ),
    "env-read": (
        "environment read {detail}",
        "resolve configuration before the run and pass it in as data",
    ),
    "unordered-iter": (
        "iteration over order-unstable {detail}",
        "wrap the iterable in sorted(...) to pin the event order",
    ),
}


def run_taint_analysis(
    paths: _t.Sequence["str | pathlib.Path"],
    graph: "CallGraph | None" = None,
    entry_modules: "_t.Collection[str] | None" = None,
) -> "list[Finding]":
    """Report every taint source in a sim-reachable function or at
    module level (import-time code always runs)."""
    if graph is None:
        graph = build_call_graph(paths, entry_modules=entry_modules)
    findings: list[Finding] = []
    for file in expand_python_paths(paths):
        module = module_name_for(file)
        try:
            source = file.read_text()
        except OSError:  # pragma: no cover - race with deletion
            continue
        for kind, detail, line, qualname, snippet in collect_taint_sources(
            source, path=file
        ):
            if qualname:
                func_qual = f"{module}.{qualname}"
                if not graph.is_sim_reachable(func_qual):
                    continue
                path_text = graph.format_path(func_qual)
                entry = path_text.split(" -> ", 1)[0]
                where = (
                    f"is reachable from simulation entry point {entry!r}: "
                    f"{path_text}"
                )
            else:
                where = f"runs on import: {_IMPORT_TIME}"
            raw_message, suggestion = _KIND_MESSAGES[kind]
            findings.append(
                Finding(
                    code=_KIND_CODES[kind],
                    severity=Severity.ERROR,
                    message=(
                        f"{raw_message.format(detail=detail)} {where}; "
                        "same-seed runs will diverge"
                    ),
                    location=Location(path=str(file), line=line),
                    suggestion=suggestion,
                    qualname=qualname,
                    snippet=snippet,
                )
            )
    return findings


def _register_taint_rules() -> None:
    specs = [
        ("DET010", "sim-reachable-wall-clock",
         "wall-clock read (time.time/perf_counter, datetime.now...)"),
        ("DET011", "sim-reachable-global-rng",
         "stdlib random (process-global RNG) draw"),
        ("DET012", "sim-reachable-env-read", "os.environ/os.getenv read"),
        ("DET013", "sim-reachable-unordered-iter",
         "iteration over set/os.listdir order"),
    ]
    for code, name, description in specs:
        rule(code, name, pack="det", severity=Severity.ERROR,
             description=f"{description} reachable from a simulation "
                         "entry point, or at import time")(run_taint_analysis)


_register_taint_rules()
