"""Per-figure/table renderers + the numeric stats the benches assert on.

Every function takes the live objects (testbed, workflow report) and
produces (a) a text rendering comparable with the paper's figure and
(b) — via the ``figureN_stats`` twins — the headline numbers (maxima,
durations, peaks) that EXPERIMENTS.md tabulates against the paper.
"""

from __future__ import annotations

import typing as _t

import numpy as np

import repro.monitoring.promql as promql
from repro.monitoring.grafana import sparkline
from repro.viz.ascii import bar_chart, text_table

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.testbed import NautilusTestbed
    from repro.tracing import Span
    from repro.workflow import StepReport, Workflow, WorkflowReport

__all__ = [
    "render_figure1",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "render_table1",
    "figure3_stats",
    "figure4_stats",
    "figure5_stats",
    "figure6_stats",
]


# ------------------------------------------------------------------ figure 1


def render_figure1(testbed: "NautilusTestbed") -> str:
    """Figure 1: the PRP/Nautilus deployment inventory."""
    fig = testbed.figure1_summary()
    rows = [
        ("PRP partner sites", fig["prp_sites"]),
        ("  ...supercomputer-center tier", fig["core_sites"]),
        ("WAN link speeds (Gbps)", ", ".join(map(str, fig["wan_link_speeds_gbps"]))),
        ("Cluster nodes (FIONAs)", fig["cluster_nodes"]),
        ("  ...FIONA8 GPU appliances", fig["fiona8_nodes"]),
        ("GPUs", fig["gpus"]),
        ("Ceph OSDs", fig["osds"]),
        ("Storage capacity (PB)", f"{fig['storage_petabytes']:.2f}"),
        ("MERRA-2 archive files", f"{fig['archive_files']:,}"),
        ("Archive size full/subset (GB)",
         f"{fig['archive_bytes_full'] / 1e9:.0f} / "
         f"{fig['archive_bytes_subset'] / 1e9:.0f}"),
    ]
    return text_table(
        ["Component", "Value"],
        rows,
        title="Figure 1 — Kubernetes/Rook/Ceph on PRP: deployment inventory",
    )


# ------------------------------------------------------------------ figure 2


def render_figure2(workflow: "Workflow") -> str:
    """Figure 2: the workflow steps and their ordering."""
    return "Figure 2 — Workflow steps\n" + workflow.describe()


# ------------------------------------------------------------------ figure 3


def _step_window(report: "WorkflowReport", step: str) -> tuple[float, float]:
    s = report.step(step)
    return s.start_time, s.end_time


def _step_children(testbed: "NautilusTestbed", step: "StepReport") -> list["Span"]:
    """The direct children of the ``step`` span that ran ``step`` (its
    times are the report's); empty when no such span is in the trace,
    as for a step restored from a checkpoint."""
    tracer = testbed.tracer
    for span in tracer.find("step", step.name):
        if span.start == step.start_time and span.end == step.end_time:
            return tracer.children(span)
    return []


def _download_workers(
    testbed: "NautilusTestbed", report: "WorkflowReport"
) -> list["Span"]:
    """The ``running`` span of every download-worker pod (the pods of the
    ``download-workers-<n>`` Job, not the step's Redis, manifest-builder
    and monitor pods)."""
    children = _step_children(testbed, report.step("download"))
    return [
        s
        for s in children
        if s.category == "running" and s.name.startswith("download-workers-")
    ]


def figure3_stats(
    testbed: "NautilusTestbed", report: "WorkflowReport"
) -> dict[str, float]:
    """Download-job orchestration numbers (paper: 10 workers, 37 min,
    246 GB, 112,249 files).  ``workers`` counts the distinct
    download-worker pods with a ``running`` span under the download step
    span."""
    step = report.step("download")
    workers = {s.attributes["pod"] for s in _download_workers(testbed, report)}
    return {
        "workers": float(len(workers)),
        "minutes": step.duration_minutes,
        "gigabytes": step.data_processed_bytes / 1e9,
        "files": float(step.artifacts.get("files_downloaded", 0)),
        "pods": float(step.pods),
        "cpus": float(step.cpus),
    }


def render_figure3(testbed: "NautilusTestbed", report: "WorkflowReport") -> str:
    """Figure 3: per-worker CPU/memory during the download job.  Each
    worker's row marks the time buckets its ``running`` span overlaps
    and ends with the pod's admitted ``cpu``, the cores it holds while
    running (0 outside)."""
    stats = figure3_stats(testbed, report)
    start, end = _step_window(report, "download")
    lines = [
        "Figure 3 — Kubernetes data download job orchestration",
        f"  {stats['workers']:.0f} workers via Redis queue | total "
        f"{stats['minutes']:.0f} min | {stats['gigabytes']:.0f} GB "
        f"({stats['files']:,.0f} NetCDF files)",
        "  per-worker CPU (cores):",
    ]
    # 48 buckets over the step; a bucket the span overlaps at all is
    # live, so a worker shorter than a bucket still shows.
    edges = np.linspace(start, end, 49)
    for span in _download_workers(testbed, report):
        stop = end if span.end is None else span.end
        live = (edges[:-1] < stop) & (edges[1:] > span.start)
        bar = "".join("█" if x else "▁" for x in live)
        pod, cpu = span.attributes["pod"], span.attributes["cpu"]
        lines.append(f"    {pod:<26} {bar} {cpu:g}")
    mem = [
        ts
        for ts in testbed.registry.all_series("node_memory_allocated_bytes")
        if len(ts)
    ]
    if mem:
        _, total = promql.sum_series(mem)
        lines.append("  cluster memory allocated (sum):")
        lines.append(f"    {'all nodes':<26} {sparkline(total, width=48)}")
    return "\n".join(lines)


# ------------------------------------------------------------------ figure 4


def figure4_stats(
    testbed: "NautilusTestbed", report: "WorkflowReport"
) -> dict[str, float]:
    """Network usage during the download (paper: IOPS max 593 MB/s,
    throughput max 2.64 GB per sample)."""
    start, end = _step_window(report, "download")
    interval = testbed.sampler.interval
    egress = testbed.registry.all_series("thredds_egress_bytes_per_second")
    disk = testbed.registry.all_series("ceph_disk_write_bytes_per_second")
    peak_egress = max(
        (promql.max_over_time(ts, start, end) for ts in egress), default=0.0
    )
    peak_disk = max(
        (promql.max_over_time(ts, start, end) for ts in disk), default=0.0
    )
    return {
        "storage_write_peak_MBps": peak_disk / 1e6,
        "wan_egress_peak_MBps": peak_egress / 1e6,
        # The paper labels this "Throughput: Max 2.64GB" — a data volume,
        # which we read as bytes moved per Grafana sampling window at the
        # peak WAN rate (EXPERIMENTS.md discusses the unit ambiguity).
        "throughput_peak_GB_per_sample": peak_egress * interval / 1e9,
        "throughput_peak_Gbps": peak_egress * 8 / 1e9,
    }


def render_figure4(testbed: "NautilusTestbed", report: "WorkflowReport") -> str:
    stats = figure4_stats(testbed, report)
    start, end = _step_window(report, "download")
    lines = [
        "Figure 4 — Network usage during download job run",
        f"  IOPS (storage writes): max {stats['storage_write_peak_MBps']:.0f} MB/s",
        f"  Throughput: max {stats['throughput_peak_GB_per_sample']:.2f} GB "
        f"per {testbed.sampler.interval:.0f}s sample",
    ]
    for name, label in (
        ("thredds_egress_bytes_per_second", "THREDDS egress (B/s)"),
        ("ceph_disk_write_bytes_per_second", "Ceph disk writes (B/s)"),
    ):
        for ts in testbed.registry.all_series(name):
            _, values = ts.window(start, end)
            lines.append(f"  {label:<24} {sparkline(values, width=48)}")
    return "\n".join(lines)


# ------------------------------------------------------------------ figure 5


#: The training step's phase spans ``(name, category)``: the step span
#: itself is also named ``training``.
_TRAINING_PHASES = (
    ("data-prep", "compute"),
    ("training", "compute"),
    ("save-checkpoint", "transfer"),
)


def figure5_stats(
    testbed: "NautilusTestbed", report: "WorkflowReport"
) -> dict[str, float]:
    """Training job phases (paper: 306 min total; prep then training),
    from the training step's spans: prep runs from the ``data-prep``
    start to the ``training`` compute start, training from there to the
    ``save-checkpoint`` end (the last attempt's spans)."""
    step = report.step("training")
    phases = {
        span.name: span
        for span in _step_children(testbed, step)
        if (span.name, span.category) in _TRAINING_PHASES
    }
    prep = phases.get("data-prep")
    train = phases.get("training")
    save = phases.get("save-checkpoint")
    prep_s = train.start - prep.start if prep and train else 0.0
    train_s = (
        save.end - train.start if train and save and save.end is not None else 0.0
    )
    return {
        "total_minutes": step.duration_minutes,
        "prep_minutes": prep_s / 60.0,
        "train_minutes": train_s / 60.0,
        "train_voxels": float(step.artifacts.get("train_voxels", 0)),
    }


def render_figure5(testbed: "NautilusTestbed", report: "WorkflowReport") -> str:
    stats = figure5_stats(testbed, report)
    chart = bar_chart(
        [
            ("data preparation", stats["prep_minutes"]),
            ("FFN training", stats["train_minutes"]),
        ],
        unit=" min",
        title=(
            "Figure 5 — Training job (purple = data prep, green = FFN "
            f"training on a 576x361x240 volume); total "
            f"{stats['total_minutes']:.0f} min"
        ),
    )
    return chart


# ------------------------------------------------------------------ figure 6


def figure6_stats(
    testbed: "NautilusTestbed", report: "WorkflowReport"
) -> dict[str, float]:
    """Inference job utilization (paper: 50 GPUs, 1133 min)."""
    step = report.step("inference")
    start, end = _step_window(report, "inference")
    gpu_series = testbed.registry.all_series("node_gpus_in_use")
    grid, total_gpu = promql.sum_series(gpu_series)
    if len(grid):
        mask = (grid >= start) & (grid <= end)
        peak_gpus = float(total_gpu[mask].max()) if mask.any() else 0.0
    else:
        peak_gpus = 0.0
    return {
        "minutes": step.duration_minutes,
        "gpus": float(step.gpus),
        "peak_gpus_in_use": peak_gpus,
        "cpus": float(step.cpus),
        "memory_gb": step.memory_bytes / 1e9,
        "voxels": float(step.artifacts.get("voxels_total", 0)),
    }


def render_figure6(testbed: "NautilusTestbed", report: "WorkflowReport") -> str:
    stats = figure6_stats(testbed, report)
    start, end = _step_window(report, "inference")
    lines = [
        "Figure 6 — Inference job",
        f"  {stats['gpus']:.0f} GPUs | {stats['minutes']:.0f} min | "
        f"{stats['voxels']:.3g} voxels",
    ]
    for metric, label in (
        ("node_cpu_allocated_cores", "CPUs in use"),
        ("node_memory_allocated_bytes", "Memory in use"),
        ("node_gpus_in_use", "GPUs in use"),
    ):
        series = testbed.registry.all_series(metric)
        grid, total = promql.sum_series(series)
        if len(grid):
            mask = (grid >= start) & (grid <= end)
            lines.append(f"  {label:<16} {sparkline(total[mask], width=48)}")
    return "\n".join(lines)


# ------------------------------------------------------------------- table 1


def render_table1(report: "WorkflowReport") -> str:
    """Table I: Nautilus resource summary for all steps."""
    order = ["download", "training", "inference", "visualization"]
    steps = [report.step(name) for name in order if _has(report, name)]
    headers = ["Metric"] + [f"Step {i + 1}" for i in range(len(steps))]
    rows = [
        ["# of Pods"] + [s.pods for s in steps],
        ["# of CPUs"] + [int(round(s.cpus)) for s in steps],
        ["# of GPUs"] + [s.gpus for s in steps],
        ["Data Processed"]
        + [_fmt_bytes(s.data_processed_bytes) for s in steps],
        ["Memory"] + [_fmt_bytes(s.memory_bytes) for s in steps],
        ["Total Time"] + [s.total_time_cell() for s in steps],
    ]
    return text_table(
        headers,
        rows,
        title="Table I — Nautilus resource summary for all workflow steps",
    )


def _has(report: "WorkflowReport", name: str) -> bool:
    try:
        report.step(name)
        return True
    except KeyError:
        return False


def _fmt_bytes(nbytes: float) -> str:
    if nbytes >= 1e9:
        return f"{nbytes / 1e9:.3g}GB"
    return f"{nbytes / 1e6:.3g}MB"
