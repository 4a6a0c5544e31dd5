"""Every function, method and class in ``src/repro`` is reached by code
outside the tests, or is allowlisted here with its reason.

The scan is by name over the AST: a definition counts as reached when
its name appears in ``src/``, ``perf/``, ``benchmarks/`` or
``examples/`` as a name, an attribute or a string constant (whole, or
one part of a dotted path, as ``getattr`` and ``Profiler.wrap`` take
it). Importing or re-exporting a name is no use of it: neither an
import nor a module's own ``__all__`` counts. Matching by bare name errs towards
"reached": a method whose name another object's attribute shares
passes. Three ways in need no reference: dunder methods, ``visit_*``
methods (``ast.NodeVisitor`` dispatch) and functions registered with
``@rule(...)`` (the rule registry).
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
REACHING_DIRS = ("src", "perf", "benchmarks", "examples")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")

#: Definitions only tests reach, kept on purpose.
ALLOWED = {
    # Windows onto state that a test must check.
    "Environment.peek": "tests read the next event time of the kernel",
    "FlowSimulator.active_flows": "tests read the live flow table",
    "Resource.queue_len": "tests read a resource's wait queue",
    "AdmissionGateway.breaker_state": "tests read a tenant's circuit breaker",
    "TFRecordReader": "tests read back the frames a TFRecordWriter wrote",
    "TFRecordReader.read_all": "tests read back every record a writer framed",
    "JupyterHub": "the §VII JupyterHub component, which no workflow step runs yet",
    "JupyterHub.active_users": "tests read the hub's live sessions",
    "JupyterHub.gpus_in_use": "tests read the GPUs the hub's sessions hold",
    "JupyterHub.touch": "tests stand in for user activity to drive idle culling",
    "VisualizationCluster.renderer_placement": "tests read where renderers run",
    "Job.active_count": "tests read a job's running pods",
    "Job.is_failed": "tests read whether a job hit its backoff limit",
    "KeplerSession.run_until": "tests stop a Kepler run part-way",
    "RedisQueue.drained": "tests wait until the work queue is empty",
    "Tracer.counting": "the event-counter clock that span tests run on",
    # Paper facts that ROADMAP item 9's claims ledger will read.
    "MerraArchive.calendar_exact": "paper fact for the claims ledger (item 9)",
    "MerraArchive.subset_ratio": "paper fact for the claims ledger (item 9)",
    # Hooks and APIs that open ROADMAP items own.
    "SharedMemoryPool.inject_crash": "the pool fault of items 6 and 7",
    "Scheduler.explain": "per-node scheduling reasons for item 5",
    "PPoDSSession.set_status": "item 3 reworks the PPoDS session",
    "PPoDSSession.improvement": "item 3 reworks the PPoDS session",
    "run_robustness_suite": "item 8 decides the robustness suite",
    "RobustnessReport.all_succeeded": "item 8 decides the robustness suite",
}


def _exports(tree) -> set[int]:
    """The ids of the string constants a module lists in ``__all__``."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                found.update(id(c) for c in ast.walk(node.value))
    return found


def _references(dirs) -> set[str]:
    names: set[str] = set()
    for top in dirs:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            exported = _exports(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _DOTTED.match(node.value)
                    and id(node) not in exported
                ):
                    names.update(node.value.split("."))
    return names


def _registered(node) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "rule"
        for d in node.decorator_list
    )


def _definitions() -> dict[str, tuple[str, str]]:
    """Qualified name -> (bare name, file) of every module- and
    class-level def in ``src/repro`` that needs a reference."""
    found: dict[str, tuple[str, str]] = {}

    def visit(body, owner, path):
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{owner}{name}.", path)
            elif (
                name.startswith("__") or name.startswith("visit_")
                or _registered(node)
            ):
                continue
            found[owner + name] = (name, path)

    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        visit(tree.body, "", str(path.relative_to(ROOT)))
    return found


DEFINITIONS = _definitions()
REACHED = _references(REACHING_DIRS)


def test_scan_sees_the_package():
    assert "Cluster.create_pod" in DEFINITIONS
    assert "distributed_segment" in DEFINITIONS
    assert "create_pod" in REACHED


def test_only_tests_reach_nothing_unlisted():
    unreached = sorted(
        f"{path}: {qualname}"
        for qualname, (name, path) in DEFINITIONS.items()
        if name not in REACHED and qualname not in ALLOWED
    )
    assert not unreached, (
        "reached by no code outside tests/ (delete it with its tests, "
        "or allowlist it with a reason): " + ", ".join(unreached)
    )


def test_allowlist_is_current():
    stale = sorted(
        qualname
        for qualname in ALLOWED
        if qualname not in DEFINITIONS or DEFINITIONS[qualname][0] in REACHED
    )
    assert not stale, f"allowlisted but gone or now reached: {stale}"
