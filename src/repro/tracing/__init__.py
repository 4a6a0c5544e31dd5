"""End-to-end workflow tracing: spans, critical paths, exporters.

The paper's contribution 5 is *step-by-step measurement*.  This package
threads a span-based trace through every layer of the reproduction: the
one record of what each step used, and of **why** a step was slow:

- :class:`~repro.tracing.span.Tracer` / :class:`~repro.tracing.span.Span`
  — the span tree, recorded against the **virtual** clock (never wall
  time, so traces are deterministic and replayable).
- The :class:`~repro.workflow.driver.WorkflowDriver` opens a root span
  per run and a child span per step (as Kepler sessions do per step);
  the cluster emits queueing (created→bound), scheduling (bound→running),
  and running (running→terminal, with the pod's ``cpu``/``gpu``/
  ``memory``, which :func:`~repro.workflow.driver.step_usage` sweeps for
  Table I) spans per pod; :mod:`repro.transfer` and
  :mod:`repro.netsim` wrap transfers in spans carrying bytes/rate
  attributes (a step's reads marked ``input``, which ``step_usage`` sums
  for Table I's data cell); the ML engines emit flood/kernel/shard spans.
- :mod:`repro.tracing.critical_path` — the longest causal step chain of
  a run, and a per-layer time-attribution table (queueing / scheduling /
  transfer / compute / orchestration) that partitions the root span
  exactly.
- :mod:`repro.tracing.export` — Chrome ``about:tracing`` / Perfetto
  trace-event JSON, span-derived series into the
  :class:`~repro.monitoring.metrics.MetricRegistry`, and span-tree
  validation.
"""

from repro.tracing.span import LAYER_CATEGORIES, Span, Tracer, validate_spans
from repro.tracing.critical_path import (
    ORCHESTRATION,
    CriticalPathReport,
    analyze_run,
    attribute_layers,
    critical_chain,
    layer_overlap,
)
from repro.tracing.export import (
    spans_to_metrics,
    to_chrome_trace,
    validate_trace,
    write_chrome_trace,
)

__all__ = [
    "LAYER_CATEGORIES",
    "ORCHESTRATION",
    "Span",
    "Tracer",
    "validate_spans",
    "CriticalPathReport",
    "analyze_run",
    "attribute_layers",
    "critical_chain",
    "layer_overlap",
    "spans_to_metrics",
    "to_chrome_trace",
    "validate_trace",
    "write_chrome_trace",
]
