"""Measuring one workload inside its own process.

:func:`measure` runs after the workload's set-up: one untimed warm-up
iteration, timed iterations until ``seconds`` have been measured, the
output checks, and, when asked, one traced iteration.  End-to-end
numbers come from the untraced iterations only; the traced iteration
gives the per-layer metrics and must reproduce the untraced outputs.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import sys
import time
import typing as _t

from perf import layers
from perf.probes import Profiler
from perf.workloads import Workload

__all__ = ["E2E", "measure", "peak_rss_mb", "stop_resource_tracker", "trace_iteration"]

#: (name, unit, better) of every end-to-end metric.
E2E: tuple[tuple[str, str, str], ...] = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: The root span of a traced iteration; its self time is the benchmark's
#: own time outside every probe.
ROOT = ("perf", "iteration")


def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM for process {pid}")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of each live child.

    Children are the pool workers; pages they share with this process
    count in both.  ``VmHWM`` is used rather than ``ru_maxrss``, which
    on Linux keeps the peak of the parent image this process was
    forked from.
    """
    total_kb = _vm_hwm_kb("self")
    for child in multiprocessing.active_children():
        try:
            total_kb += _vm_hwm_kb(child.pid)
        except OSError:  # the child exited meanwhile
            continue
    return total_kb / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one started,
    so no process outlives the workload."""
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def trace_iteration(workload: Workload, fixture):
    """Run one iteration with every probe installed.

    Returns ``(raw, wall_s, profiler)``; every replaced attribute is
    restored before this returns, even when the iteration raises.
    """
    prof = Profiler()
    try:
        layers.install(prof)
        prof.iteration = 1
        raw, wall_s = prof.timed(ROOT, lambda: workload.iterate(fixture))
    finally:
        prof.restore()
    return raw, wall_s, prof


def measure(
    workload: Workload,
    fixture,
    seconds: float,
    trace: bool,
    events: bool = False,
) -> dict[str, _t.Any]:
    """Warm up, time iterations for ``seconds``, check, optionally trace."""
    start = time.perf_counter()
    raw = workload.iterate(fixture)
    warmup_s = time.perf_counter() - start
    first = workload.summarize(fixture, raw, full=True)
    first.observed = {}  # keep no program state alive between iterations
    del raw

    # Every timed iteration starts from a collected heap, so neither its
    # time nor the peak memory depends on how many iterations ran before.
    timed_s: list[float] = []
    iterations = []
    while not timed_s or sum(timed_s) < seconds:
        gc.collect()
        start = time.perf_counter()
        raw = workload.iterate(fixture)
        timed_s.append(time.perf_counter() - start)
        iterations.append(workload.summarize(fixture, raw, full=False))
        iterations[-1].observed = {}
        del raw
    gc.collect()
    rss = peak_rss_mb()
    run_s = statistics.median(timed_s)

    problems = list(first.problems)
    for it in iterations:
        problems += it.problems
    if any(it.checksum != first.checksum for it in iterations):
        problems.append("outputs differ across iterations")
    problems += workload.verify_run(fixture, first)
    phases_s = {
        phase: [it.phases[phase] for it in iterations] for phase in first.phases
    }
    throughputs = workload.throughputs(
        {phase: statistics.median(values) for phase, values in phases_s.items()}
    )
    result: dict[str, _t.Any] = {
        "warmup_s": warmup_s,
        "iterations_s": timed_s,
        "phases_s": phases_s,
        "run_s": run_s,
        "peak_rss_mb": rss,
        "attempted": sum(it.ops for it in iterations),
        "failed": sum(it.failures for it in iterations),
        "checksum": first.checksum,
        "reference": {**first.reference, **throughputs},
    }
    if trace:
        gc.collect()
        raw, wall_s, prof = trace_iteration(workload, fixture)
        traced = workload.summarize(fixture, raw, full=True)
        del raw
        problems += [f"traced: {p}" for p in traced.problems]
        if traced.checksum != first.checksum:
            problems.append("traced outputs differ from untraced outputs")
        observed = {
            **traced.observed,
            "throughputs": throughputs,
            "quality": first.reference,
        }
        result["per_layer"] = layers.layer_metrics(prof, wall_s, run_s, observed)
        result["missing_probes"] = prof.missing
        result["hot_spans"] = prof.aggregates()[:25]
        if events:
            result["events"] = prof.chrome_events(0, workload.name)
    result["problems"] = problems
    return result
