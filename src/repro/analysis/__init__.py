"""repro-lint: rule-based static analysis for the reproduction.

The paper's cluster stays operable because workloads are vetted
*before* they run (admission control, manifest linting, namespace
quotas — §IV/§V); this package is that pre-flight layer for the
reproduction, exposed as ``python -m repro lint``.  Rule packs:

- ``spec`` (:mod:`~repro.analysis.cluster_rules`) — admission lint for
  Pod/Job/Namespace/Service specs against the testbed's nodes:
  unschedulable requests, missing requests/probes, zero retry budgets,
  quota oversubscription, selectors matching nothing.
- ``dag`` (:mod:`~repro.analysis.workflow_rules`) — workflow DAG lint:
  cycles (with the full path quoted), self/unknown dependencies,
  orphans, network steps without timeout/retry budgets, checkpoint
  coverage gaps, aggregate GPU oversubscription across concurrent
  branches.
- ``det`` — the determinism lint.  Unseeded generators (DET001,
  :mod:`~repro.analysis.determinism`) fail wherever they sit; wall-clock
  reads, stdlib ``random``, environment reads and order-unstable
  iteration (DET010+, :mod:`~repro.analysis.taint`) fail when a
  module-level call graph (:mod:`~repro.analysis.callgraph`) shows them
  reachable from a simulation entry point, quoting the call path, or
  when they run at import time.
- ``conc`` (:mod:`~repro.analysis.concurrency_rules`, CONC001+) —
  concurrency hazards on the same call graph: stale guards across
  yields, callback/process shared writes, module-level state mutated
  from sim code.
- ``deploy`` (:mod:`~repro.analysis.deployment_rules`, DEPLOY001+) —
  cross-layer deployment lint: retry storms, priority starvation,
  quota/burst infeasibility over the joined gateway + cluster +
  workflow view.

Findings carry a rule code, severity, location and suggestion;
:class:`Baseline` files grandfather accepted findings so the linter can
gate CI (``--strict``) without stopping the world.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.concurrency_rules import run_concurrency_rules
from repro.analysis.deployment_rules import run_deployment_rules
from repro.analysis.determinism import lint_python_paths, lint_source
from repro.analysis.engine import LintEngine, LintReport, lint_workflow
from repro.analysis.findings import Finding, Location, Severity
from repro.analysis.graph import find_cycle, format_cycle
from repro.analysis.model import (
    ClientRetryView,
    ClusterSpecView,
    DeploymentView,
    GatewayView,
    JobView,
    NamespaceView,
    NodeView,
    PodView,
    ServiceView,
    StepView,
    TenantView,
    WorkflowView,
    cluster_view,
    node_views,
    pod_view_from_spec,
    workflow_view,
)
from repro.analysis.registry import Rule, RuleRegistry, registry
from repro.analysis.taint import run_taint_analysis

__all__ = [
    "Baseline",
    "CallGraph",
    "ClientRetryView",
    "ClusterSpecView",
    "DeploymentView",
    "Finding",
    "GatewayView",
    "JobView",
    "LintEngine",
    "LintReport",
    "Location",
    "NamespaceView",
    "NodeView",
    "PodView",
    "Rule",
    "RuleRegistry",
    "ServiceView",
    "Severity",
    "StepView",
    "TenantView",
    "WorkflowView",
    "build_call_graph",
    "cluster_view",
    "find_cycle",
    "format_cycle",
    "lint_python_paths",
    "lint_source",
    "lint_workflow",
    "node_views",
    "pod_view_from_spec",
    "registry",
    "run_concurrency_rules",
    "run_deployment_rules",
    "run_taint_analysis",
    "workflow_view",
]
