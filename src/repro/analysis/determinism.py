"""Rule pack ``det``: the per-file half of the determinism lint.

The reproduction's whole measurement methodology (EXPERIMENTS.md
"Determinism", the PPoDS measure-learn loop) rests on one invariant:
the same seed produces the same run.  Every stochastic component must
draw from a generator derived via :func:`repro.sim.rng.derive_seed`,
and simulation code must read the *virtual* clock, never the wall
clock.  One AST walk per source file feeds both halves of the lint:

- ``DET000`` — the source does not parse.
- ``DET001`` — unseeded ``np.random.default_rng()`` / ``RandomState()``
  (no argument, or only a literal ``None``).  Constructing an unseeded
  generator is a defect wherever it sits, so this rule needs no call
  graph.
- *Taint sources* for :mod:`repro.analysis.taint`: wall-clock reads
  (``time.time``, ``time.perf_counter``, ``datetime.now``...),
  process-global RNG draws (stdlib ``random.*``; ``random.seed(...)``
  and ``random.Random(seed)`` are exempt), environment reads
  (``os.environ`` / ``os.getenv``) and order-sensitive iteration
  (``for x in set(...)``, unsorted ``os.listdir``) — see
  :func:`collect_taint_sources`.  Whether a source matters is decided
  by call-graph reachability from the simulation entry points, not here.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import typing as _t

from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.registry import rule

__all__ = [
    "lint_source",
    "lint_python_paths",
    "collect_taint_sources",
    "expand_python_paths",
    "SourceHit",
]

#: host-clock reads: ``time.<attr>()`` and ``datetime.<attr>()`` calls
_WALL_CLOCK_TIME_ATTRS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time",
}
_WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: stdlib ``random`` attributes that *seed* rather than draw — calling
#: them is determinism hygiene, not a violation
_RANDOM_SEEDING_ATTRS = {"seed", "getstate", "setstate"}

#: filesystem/glob calls whose result order is OS-dependent
_FS_ORDER_CALLS = {
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
}
_FS_ORDER_METHODS = {"iterdir", "glob", "rglob"}


def expand_python_paths(
    paths: _t.Iterable["str | pathlib.Path"],
) -> "list[pathlib.Path]":
    """Expand files and directories into a sorted, de-duplicated list of
    ``*.py`` files (the unit every source pass walks)."""
    files: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for raw in paths:
        root = pathlib.Path(raw)
        candidates = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in candidates:
            if file not in seen:
                seen.add(file)
                files.append(file)
    return files


@dataclasses.dataclass(frozen=True)
class SourceHit:
    """One raw analyzer hit, before reporting policy."""

    #: ``DET001``, or a taint-source kind (``wall-clock``, ``global-rng``,
    #: ``env-read``, ``unordered-iter``)
    kind: str
    line: int
    detail: str
    #: dotted in-module scope ("Cls.method"); "" at module level
    qualname: str


class _Analyzer(ast.NodeVisitor):
    """One pass over a module, accumulating raw hits."""

    def __init__(self) -> None:
        #: local alias -> canonical module ("numpy.random", "random", ...)
        self.module_aliases: dict[str, str] = {}
        #: local name -> canonical dotted origin ("random.randint", ...)
        self.name_origins: dict[str, str] = {}
        self.hits: list[SourceHit] = []
        self._scope: list[str] = []

    def _hit(self, kind: str, line: int, detail: str) -> None:
        self.hits.append(
            SourceHit(kind=kind, line=line, detail=detail,
                      qualname=".".join(self._scope))
        )

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self.name_origins[alias.asname or alias.name] = (
                f"{module}.{alias.name}" if module else alias.name
            )
        self.generic_visit(node)

    # -- resolution helpers --------------------------------------------------

    def _canonical(self, node: ast.expr) -> str:
        """Resolve a call target to a dotted path through known aliases."""
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            root = cur.id
            if root in self.module_aliases:
                parts.append(self.module_aliases[root])
            elif root in self.name_origins:
                parts.append(self.name_origins[root])
            else:
                parts.append(root)
        else:
            return ""
        return ".".join(reversed(parts))

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._canonical(node.func)
        if dotted:
            self._check_rng(node, dotted)
            self._check_stdlib_random(node, dotted)
            self._check_wall_clock(node, dotted)
            self._check_env_read(node, dotted)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, dotted: str) -> None:
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf not in ("default_rng", "RandomState"):
            return
        if not (dotted.startswith("numpy.") or "random" in dotted):
            return
        if _has_seed(node):
            return
        self._hit("DET001", node.lineno, f"{leaf}() has no seed")

    def _check_stdlib_random(self, node: ast.Call, dotted: str) -> None:
        if not dotted.startswith("random."):
            return
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf in _RANDOM_SEEDING_ATTRS:
            return  # random.seed(...) is determinism hygiene, not a draw
        if leaf == "Random" and _has_seed(node):
            return  # random.Random(seed): a seeded private stream
        self._hit("global-rng", node.lineno, dotted)

    def _check_wall_clock(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if parts[0] == "time" and parts[-1] in _WALL_CLOCK_TIME_ATTRS:
            self._hit("wall-clock", node.lineno, dotted)
            return
        if parts[0] == "datetime" and parts[-1] in _WALL_CLOCK_DATETIME_ATTRS:
            self._hit("wall-clock", node.lineno, dotted)
            return
        # `from datetime import datetime` -> datetime.now()
        origin = self.name_origins.get(parts[0], "")
        if (
            origin.startswith("datetime.")
            and len(parts) > 1
            and parts[-1] in _WALL_CLOCK_DATETIME_ATTRS
        ):
            self._hit("wall-clock", node.lineno, f"{origin}.{parts[-1]}")

    # -- environment and iteration order ---------------------------------------

    def _check_env_read(self, node: ast.Call, dotted: str) -> None:
        if dotted in ("os.getenv", "os.environ.get"):
            self._hit("env-read", node.lineno, dotted)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._canonical(node.value) == "os.environ":
            self._hit("env-read", node.lineno, "os.environ[...]")
        self.generic_visit(node)

    def _iter_order_detail(self, expr: ast.expr) -> str:
        """Classify an iterable expression as order-unstable, or ''."""
        if isinstance(expr, ast.Set) or isinstance(expr, ast.SetComp):
            return "set literal"
        if isinstance(expr, ast.Call):
            dotted = self._canonical(expr.func)
            leaf = dotted.rsplit(".", 1)[-1]
            if dotted == "set" or dotted.endswith(".set"):
                return "set(...)"
            if dotted in _FS_ORDER_CALLS:
                return f"{dotted}(...)"
            if leaf in _FS_ORDER_METHODS and dotted.startswith(
                ("pathlib.", "Path.")
            ):
                return f"{dotted}(...)"
        return ""

    def _check_iteration(self, iter_expr: ast.expr, line: int) -> None:
        detail = self._iter_order_detail(iter_expr)
        if detail:
            self._hit("unordered-iter", line, detail)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node.lineno)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, node.iter.lineno)
        self.generic_visit(node)

    # -- scope tracking ----------------------------------------------------

    def _scoped(self, node: ast.AST) -> None:
        self._scope.append(getattr(node, "name", "<lambda>"))
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _scoped
    visit_AsyncFunctionDef = _scoped
    visit_ClassDef = _scoped
    visit_Lambda = _scoped


def _has_seed(node: ast.Call) -> bool:
    """True unless the call passes nothing, or only literal ``None``."""
    values = list(node.args) + [kw.value for kw in node.keywords]
    return any(
        not (isinstance(v, ast.Constant) and v.value is None) for v in values
    )


_DET001_MESSAGE = (
    "unseeded random generator: {detail}; derive the seed via "
    "repro.sim.rng.derive_seed so reruns reproduce"
)
_DET001_SUGGESTION = (
    "pass a seed: np.random.default_rng(derive_seed(root, \"stream\"))"
)


def _snippet_at(lines: "list[str]", line: int) -> str:
    if 1 <= line <= len(lines):
        return lines[line - 1].strip()
    return ""


def _analyze(source: str, path: "str | pathlib.Path"):
    """Parse and walk one source text; returns (analyzer, error_finding)."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            code="DET000",
            severity=Severity.ERROR,
            message=f"source does not parse: {exc.msg}",
            location=Location(path=str(path), line=exc.lineno or 0),
            suggestion="fix the syntax error before linting",
        )
    analyzer = _Analyzer()
    analyzer.visit(tree)
    return analyzer, None


def lint_source(
    source: str, path: "str | pathlib.Path" = "<string>"
) -> "list[Finding]":
    """Run the per-file rules (DET000/DET001) over one Python source text."""
    analyzer, error = _analyze(source, path)
    if analyzer is None:
        return [error]
    lines = source.splitlines()
    return [
        Finding(
            code="DET001",
            severity=Severity.ERROR,
            message=_DET001_MESSAGE.format(detail=hit.detail),
            location=Location(path=str(path), line=hit.line),
            suggestion=_DET001_SUGGESTION,
            qualname=hit.qualname,
            snippet=_snippet_at(lines, hit.line),
        )
        for hit in analyzer.hits
        if hit.kind == "DET001"
    ]


def collect_taint_sources(
    source: str, path: "str | pathlib.Path" = "<string>"
) -> "list[tuple[str, str, int, str, str]]":
    """Taint sources for :mod:`repro.analysis.taint`.

    Returns ``(kind, detail, line, qualname, snippet)`` tuples, where
    ``kind`` is one of ``wall-clock`` / ``global-rng`` / ``env-read`` /
    ``unordered-iter`` and ``qualname`` is the dotted in-module scope
    the source sits in ("" for module level).
    """
    analyzer, _error = _analyze(source, path)
    if analyzer is None:
        return []
    lines = source.splitlines()
    return [
        (hit.kind, hit.detail, hit.line, hit.qualname,
         _snippet_at(lines, hit.line))
        for hit in analyzer.hits
        if hit.kind != "DET001"
    ]


def lint_python_paths(
    paths: _t.Iterable["str | pathlib.Path"],
) -> "list[Finding]":
    """Lint files and directories (recursing into ``*.py``)."""
    findings: list[Finding] = []
    for file in expand_python_paths(paths):
        findings.extend(lint_source(file.read_text(), path=file))
    return findings


# Registered for discoverability (--list-rules, docs); the engine calls
# lint_source directly since the det pack's subject is a file, not a view.
rule("DET001", "unseeded-rng", pack="det", severity=Severity.ERROR,
     description="np.random.default_rng()/RandomState() called without a "
                 "seed (or with seed=None)")(lint_source)
