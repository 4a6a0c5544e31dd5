"""What the probes time, layer by layer, and the per-layer metrics.

Each layer of the program is measured at its public entry points:
:func:`install` replaces them on a :class:`~perf.probes.Profiler`, and
:func:`layer_metrics` turns one traced iteration into the ``per_layer``
metrics declared in ``BENCHMARK.json``.  Host time is reported as a
*share* of the traced iteration's wall time, and simulated time as a
share of the workflow makespan, so a layer a workload never enters
reads 0 instead of an absolute time.  Counts are read afterwards from
the program's public state where it keeps them.

One private target is wrapped, ``Cluster._scheduling_pass``: the
scheduling pass runs as a kernel callback, outside every process, and
would otherwise be charged to the event loop.  A target that a later
version of the program removes is skipped and listed in the result.
"""

from __future__ import annotations

import typing as _t

from perf.probes import Profiler

__all__ = ["PER_LAYER", "LAYERS", "install", "layer_metrics"]

#: Layers whose self time is reported; ``perf`` is the benchmark's own
#: time outside every probe (the unattributed remainder).
LAYERS = (
    "sim", "netsim", "storage", "transfer", "data", "cluster", "gateway",
    "workflow", "ml", "tracing", "monitoring", "chaos", "loadgen", "testbed",
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("perf.traced_s", "s", "lower"),
    ("perf.trace_overhead", "ratio", "lower"),
    ("perf.unattributed_share", "fraction", "lower"),
    ("perf.probe_calls", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.processes", "count", "lower"),
    ("sim.share", "fraction", "lower"),
    ("netsim.flows", "count", "higher"),
    ("netsim.bytes", "B", "higher"),
    ("netsim.solves", "count", "lower"),
    ("netsim.flows_per_solve", "ratio", "lower"),
    ("netsim.solve_share", "fraction", "lower"),
    ("netsim.coord_share", "fraction", "lower"),
    ("netsim.sample_calls", "count", "lower"),
    ("netsim.sample_share", "fraction", "lower"),
    ("netsim.share", "fraction", "lower"),
    ("storage.ops", "count", "lower"),
    ("storage.share", "fraction", "lower"),
    ("transfer.resolved", "count", "higher"),
    ("transfer.resolve_share", "fraction", "lower"),
    ("transfer.download_share", "fraction", "lower"),
    ("transfer.retries", "count", "lower"),
    ("transfer.failures", "count", "lower"),
    ("transfer.share", "fraction", "lower"),
    ("data.granules", "count", "lower"),
    ("data.share", "fraction", "lower"),
    ("cluster.passes", "count", "lower"),
    ("cluster.pass_share", "fraction", "lower"),
    ("cluster.select_calls", "count", "lower"),
    ("cluster.filter_calls", "count", "lower"),
    ("cluster.filter_share", "fraction", "lower"),
    ("cluster.order_share", "fraction", "lower"),
    ("cluster.preempt_plans", "count", "lower"),
    ("cluster.preempt_plan_share", "fraction", "lower"),
    ("cluster.binds", "count", "higher"),
    ("cluster.preemptions", "count", "lower"),
    ("cluster.bind_ratio", "ratio", "higher"),
    ("cluster.share", "fraction", "lower"),
    ("gateway.admits", "count", "lower"),
    ("gateway.admitted", "count", "higher"),
    ("gateway.admit_ratio", "ratio", "higher"),
    ("gateway.share", "fraction", "lower"),
    ("workflow.steps", "count", "lower"),
    ("workflow.share", "fraction", "lower"),
    ("workflow.compute_sim_frac", "fraction", "higher"),
    ("workflow.transfer_sim_frac", "fraction", "lower"),
    ("workflow.scheduling_sim_frac", "fraction", "lower"),
    ("workflow.queueing_sim_frac", "fraction", "lower"),
    ("workflow.orchestration_sim_frac", "fraction", "lower"),
    ("workflow.overlap_sim_frac", "fraction", "higher"),
    ("workflow.paper_step_err", "fraction", "lower"),
    ("ml.conv_fwd_calls", "count", "lower"),
    ("ml.conv_fwd_items", "count", "lower"),
    ("ml.conv_fwd_batch", "ratio", "higher"),
    ("ml.conv_fwd_gflop", "GFLOP", "lower"),
    ("ml.conv_fwd_gflops", "GFLOP/s", "higher"),
    ("ml.conv_fwd_share", "fraction", "lower"),
    ("ml.conv_bwd_calls", "count", "lower"),
    ("ml.conv_bwd_gflop", "GFLOP", "lower"),
    ("ml.conv_bwd_gflops", "GFLOP/s", "higher"),
    ("ml.conv_bwd_share", "fraction", "lower"),
    ("ml.fov_evals", "count", "lower"),
    ("ml.flood_calls", "count", "lower"),
    ("ml.flood_share", "fraction", "lower"),
    ("ml.sgd_share", "fraction", "lower"),
    ("ml.train_share", "fraction", "lower"),
    ("ml.pool_calls", "count", "lower"),
    ("ml.pool_wait_share", "fraction", "lower"),
    ("ml.pool_retried", "count", "lower"),
    ("ml.stitch_share", "fraction", "lower"),
    ("ml.share", "fraction", "lower"),
    ("ml.train_patches_per_s", "patches/s", "higher"),
    ("ml.dp_train_patches_per_s", "patches/s", "higher"),
    ("ml.seg_voxels_per_s", "voxels/s", "higher"),
    ("ml.fanout_voxels_per_s", "voxels/s", "higher"),
    ("ml.seg_f1", "F1", "higher"),
    ("tracing.spans", "count", "lower"),
    ("tracing.share", "fraction", "lower"),
    ("monitoring.ticks", "count", "lower"),
    ("monitoring.probe_share", "fraction", "lower"),
    ("monitoring.registry_calls", "count", "lower"),
    ("monitoring.registry_share", "fraction", "lower"),
    ("monitoring.share", "fraction", "lower"),
    ("chaos.faults", "count", "lower"),
    ("chaos.share", "fraction", "lower"),
    ("loadgen.share", "fraction", "lower"),
    ("testbed.share", "fraction", "lower"),
)

# Span names the metrics read (``<owner>.<attribute>`` of the target, or
# the generator's qualified name for process resumptions).
MAX_MIN = "repro.netsim.flows.max_min_rates"
COORDINATOR = "FlowSimulator._coordinator"
SAMPLE = "FlowSimulator.sample_rates"
RESOLVE = "ThreddsServer.resolve_many"
DOWNLOAD = "Aria2Downloader.download_batch"
PASS = "Cluster._scheduling_pass"
SELECT = "Scheduler.select"
FILTER = "Scheduler.feasible_nodes"
ORDER = "Scheduler.order_queue"
PREEMPT = "Scheduler.preemption_plan"
SAMPLER_LOOP = "Sampler._loop"
REGISTRY_WRITES = (
    "MetricRegistry.set_gauge",
    "MetricRegistry.set_gauge_at",
    "MetricRegistry.inc_counter_at",
)
CONV_FWD = ("Conv3D.forward", "Conv3D.forward_batch")
CONV_BWD = ("Conv3D.backward", "Conv3D.backward_batch")
FLOODS = ("repro.ml.inference.flood_fill", "repro.ml.inference.flood_fill_multi")


def _conv_flop(layer, x, batched: bool) -> float:
    """Multiply-adds x2 of one same-padded conv over input ``x``."""
    out_c, in_c, k = layer.w.shape[0], layer.w.shape[1], layer.w.shape[2]
    n = x.shape[0] if batched else 1
    spatial = x.shape[2:] if batched else x.shape[1:]
    voxels = 1
    for side in spatial:
        voxels *= side
    return 2.0 * n * out_c * in_c * k**3 * voxels


def install(prof: Profiler) -> None:
    """Wrap every probe target of the program on ``prof``."""
    import repro.data.ivt as ivt
    import repro.ml.distributed_inference as dist
    import repro.ml.inference as inference
    import repro.netsim.flows as flows
    import repro.testbed as testbed
    import repro.workflow.connect_steps as connect_steps
    import repro.workflow.extensions as extensions
    import repro.loadgen as loadgen
    from repro.cluster.cluster import Cluster
    from repro.cluster.scheduler import Scheduler
    from repro.data.merra import MerraGenerator
    from repro.gateway.gateway import AdmissionGateway
    from repro.ml.conv3d import Conv3D
    from repro.ml.ffn import FFNModel
    from repro.ml.shm_pool import SharedMemoryPool
    from repro.ml.training import FFNTrainer
    from repro.monitoring.metrics import MetricRegistry
    from repro.netsim.flows import FlowSimulator
    from repro.sim.environment import Environment
    from repro.storage.objects import CephCluster
    from repro.tracing.span import Tracer
    from repro.transfer.aria2 import Aria2Downloader
    from repro.transfer.thredds import ThreddsServer
    from repro.workflow.driver import WorkflowDriver

    counters = prof.counters

    def add(counter: str, amount: _t.Callable[[tuple, object], float]):
        def on_call(args, _kwargs, result):
            counters[counter] += amount(args, result)

        return on_call

    # sim: the event loop, one count per event, one span per resumption.
    prof.wrap_process_spawn(Environment)
    prof.wrap(Environment, "run", "sim")
    prof.count(Environment, "step", "sim.events")
    # netsim
    prof.wrap(flows, "max_min_rates", "netsim",
              on_call=add("netsim.solve_flows", lambda a, r: len(a[0])))
    prof.wrap(FlowSimulator, "sample_rates", "netsim")
    prof.wrap(FlowSimulator, "transfer", "netsim")
    # storage
    for attr in ("put", "get", "put_sync", "get_sync"):
        prof.wrap(CephCluster, attr, "storage")
    # transfer
    prof.wrap(ThreddsServer, "resolve_many", "transfer",
              on_call=add("transfer.resolved", lambda a, r: len(r)))
    prof.wrap(ThreddsServer, "open_granule", "transfer")
    prof.wrap(Aria2Downloader, "download_batch", "transfer",
              returns_generator=True)
    # data
    for attr in ("granule", "ivt_volume", "label_volume"):
        prof.wrap(MerraGenerator, attr, "data")
    prof.wrap(ivt, "ivt_magnitude", "data")
    # cluster
    prof.wrap(Cluster, "_scheduling_pass", "cluster")
    prof.wrap(Cluster, "create_pod", "cluster")
    prof.wrap(Cluster, "create_job", "cluster")
    for attr in ("select", "feasible_nodes", "order_queue", "preemption_plan"):
        prof.wrap(Scheduler, attr, "cluster")
    # gateway
    prof.wrap(AdmissionGateway, "submit", "gateway")
    prof.wrap(AdmissionGateway, "admit", "gateway", returns_generator=True)
    # workflow
    prof.wrap(WorkflowDriver, "run", "workflow")
    prof.wrap(connect_steps, "build_connect_workflow", "workflow")
    # ml
    def conv_forward(batched: bool):
        def on_call(args, _kwargs, _result):
            layer, x = args[0], args[1]
            counters["ml.conv_fwd_items"] += x.shape[0] if batched else 1
            counters["ml.conv_fwd_flop"] += _conv_flop(layer, x, batched)

        return on_call

    def conv_backward(batched: bool):
        # Weight and input gradients each cost one forward pass.
        return add(
            "ml.conv_bwd_flop", lambda a, r: 2 * _conv_flop(a[0], r, batched)
        )

    prof.wrap(Conv3D, "forward", "ml", on_call=conv_forward(False))
    prof.wrap(Conv3D, "forward_batch", "ml", on_call=conv_forward(True))
    prof.wrap(Conv3D, "backward", "ml", on_call=conv_backward(False))
    prof.wrap(Conv3D, "backward_batch", "ml", on_call=conv_backward(True))
    prof.wrap(FFNModel, "forward", "ml",
              on_call=add("ml.fov_evals", lambda a, r: 1))
    prof.wrap(FFNModel, "forward_batch", "ml",
              on_call=add("ml.fov_evals", lambda a, r: a[1].shape[0]))
    prof.wrap(FFNModel, "sgd_step", "ml")
    prof.wrap(FFNTrainer, "train", "ml")
    prof.wrap(extensions, "data_parallel_train", "ml")
    for attr in ("flood_fill", "flood_fill_multi", "segment_volume"):
        prof.wrap(inference, attr, "ml")
    prof.wrap(dist, "distributed_segment", "ml")
    prof.wrap(dist, "stitch_labels", "ml")
    prof.wrap(SharedMemoryPool, "segment_shards", "ml")
    # tracing
    prof.wrap(Tracer, "start", "tracing")
    prof.wrap(Tracer, "finish", "tracing")
    # monitoring
    for attr in ("set_gauge", "set_gauge_at", "inc_counter_at"):
        prof.wrap(MetricRegistry, attr, "monitoring")
    # loadgen and the testbed factory
    prof.wrap(loadgen, "run_loadtest", "loadgen")
    prof.wrap(testbed, "build_nautilus_testbed", "testbed")


def layer_metrics(
    prof: Profiler,
    wall_s: float,
    untraced_s: float,
    observed: _t.Mapping[str, object],
) -> dict[str, float]:
    """The per-layer metrics of one traced iteration.

    ``observed`` carries what the iteration left behind: ``testbeds``,
    workflow ``reports``, the ``drill`` report, the ffn ``pool`` and
    ``pool_retried_before``, plus the untraced ``throughputs`` and the
    ``quality`` reference values of the workload.
    """
    from repro.tracing import analyze_run, layer_overlap

    counters = prof.counters

    def share(*names: str, layer: str | None = None) -> float:
        if not names:
            return prof.self_seconds(layer=layer) / wall_s
        return sum(prof.self_seconds(layer, n) for n in names) / wall_s

    def calls(*names: str) -> int:
        return sum(prof.calls(name=n) for n in names)

    def total_s(*names: str) -> float:
        return sum(
            stat[1] for (_l, n), stat in prof.stats.items() if n in names
        )

    testbeds = list(observed.get("testbeds", ()))

    def registry_sum(metric: str) -> float:
        return sum(tb.registry.counter_sum(metric) for tb in testbeds)

    solves = calls(MAX_MIN)
    selects = calls(SELECT)
    plans = calls(PREEMPT)
    binds = registry_sum("scheduler_binds_total")
    admits = calls("AdmissionGateway.submit")
    admitted = registry_sum("gateway_admitted_total")
    fwd_calls = calls(*CONV_FWD)
    fwd_items = counters["ml.conv_fwd_items"]
    fwd_s, bwd_s = total_s(*CONV_FWD), total_s(*CONV_BWD)

    reports = observed.get("reports", ())
    sim_fracs = dict.fromkeys(
        ("compute", "transfer", "scheduling", "queueing", "orchestration",
         "overlap"), 0.0,
    )
    if reports:  # one workflow run on the iteration's one testbed
        spans = testbeds[0].tracer.spans
        analysis = analyze_run(spans)
        root = [s for s in spans if s.category == "workflow"][-1]
        for part, seconds in analysis.layers.items():
            sim_fracs[part] = seconds / analysis.total_s
        sim_fracs["overlap"] = (
            layer_overlap(spans, root, "compute", "transfer") / analysis.total_s
        )
    drill = observed.get("drill")
    pool = observed.get("pool")
    throughputs = observed.get("throughputs", {})
    quality = observed.get("quality", {})

    values = {
        "perf.traced_s": wall_s,
        "perf.trace_overhead": wall_s / untraced_s - 1.0,
        "perf.unattributed_share": share(layer="perf"),
        "perf.probe_calls": prof.calls(),
        "sim.events": counters["sim.events"],
        "sim.processes": counters["sim.processes"],
        "netsim.flows": sum(tb.flowsim.completed_count for tb in testbeds),
        "netsim.bytes": sum(tb.flowsim.bytes_moved for tb in testbeds),
        "netsim.solves": solves,
        "netsim.flows_per_solve": (
            counters["netsim.solve_flows"] / solves if solves else 0.0
        ),
        "netsim.solve_share": share(MAX_MIN),
        "netsim.coord_share": share(COORDINATOR),
        "netsim.sample_calls": calls(SAMPLE),
        "netsim.sample_share": share(SAMPLE),
        "storage.ops": calls(
            "CephCluster.put", "CephCluster.get",
            "CephCluster.put_sync", "CephCluster.get_sync",
        ),
        "transfer.resolved": counters["transfer.resolved"],
        "transfer.resolve_share": share(RESOLVE),
        "transfer.download_share": share(DOWNLOAD),
        "transfer.retries": registry_sum("transfer_retries_total"),
        "transfer.failures": registry_sum("transfer_failures_total"),
        "data.granules": calls("MerraGenerator.granule"),
        "cluster.passes": calls(PASS),
        "cluster.pass_share": share(PASS),
        "cluster.select_calls": selects,
        "cluster.filter_calls": calls(FILTER),
        "cluster.filter_share": share(FILTER),
        "cluster.order_share": share(ORDER),
        "cluster.preempt_plans": plans,
        "cluster.preempt_plan_share": share(PREEMPT),
        "cluster.binds": binds,
        "cluster.preemptions": registry_sum("scheduler_preemptions_total"),
        "cluster.bind_ratio": binds / (selects + plans) if selects + plans else 0.0,
        "gateway.admits": admits,
        "gateway.admitted": admitted,
        "gateway.admit_ratio": admitted / admits if admits else 0.0,
        "workflow.steps": sum(
            len(report.steps) + sum(s.retries for s in report.steps)
            for report in reports
        ),
        "workflow.paper_step_err": quality.get("paper_step_err", 0.0),
        "ml.conv_fwd_calls": fwd_calls,
        "ml.conv_fwd_items": fwd_items,
        "ml.conv_fwd_batch": fwd_items / fwd_calls if fwd_calls else 0.0,
        "ml.conv_fwd_gflop": counters["ml.conv_fwd_flop"] / 1e9,
        "ml.conv_fwd_gflops": (
            counters["ml.conv_fwd_flop"] / 1e9 / fwd_s if fwd_s else 0.0
        ),
        "ml.conv_fwd_share": share(*CONV_FWD),
        "ml.conv_bwd_calls": calls(*CONV_BWD),
        "ml.conv_bwd_gflop": counters["ml.conv_bwd_flop"] / 1e9,
        "ml.conv_bwd_gflops": (
            counters["ml.conv_bwd_flop"] / 1e9 / bwd_s if bwd_s else 0.0
        ),
        "ml.conv_bwd_share": share(*CONV_BWD),
        "ml.fov_evals": counters["ml.fov_evals"],
        "ml.flood_calls": calls(*FLOODS),
        "ml.flood_share": share(*FLOODS),
        "ml.sgd_share": share("FFNModel.sgd_step"),
        "ml.train_share": share("FFNTrainer.train"),
        "ml.pool_calls": calls("SharedMemoryPool.segment_shards"),
        "ml.pool_wait_share": share("SharedMemoryPool.segment_shards"),
        "ml.pool_retried": (
            len(pool.retried) - observed.get("pool_retried_before", 0)
            if pool is not None else 0
        ),
        "ml.stitch_share": share("repro.ml.distributed_inference.stitch_labels"),
        "ml.train_patches_per_s": throughputs.get("train_patches_per_s", 0.0),
        "ml.dp_train_patches_per_s": throughputs.get("dp_train_patches_per_s", 0.0),
        "ml.seg_voxels_per_s": throughputs.get("seg_voxels_per_s", 0.0),
        "ml.fanout_voxels_per_s": throughputs.get("fanout_voxels_per_s", 0.0),
        "ml.seg_f1": quality.get("seg_f1", 0.0),
        "tracing.spans": calls("Tracer.start"),
        "monitoring.ticks": calls(SAMPLER_LOOP),
        "monitoring.probe_share": share(SAMPLER_LOOP),
        "monitoring.registry_calls": calls(*REGISTRY_WRITES),
        "monitoring.registry_share": share(*REGISTRY_WRITES),
        "chaos.faults": drill.chaos_failures if drill is not None else 0,
    }
    for layer in LAYERS:
        values[f"{layer}.share"] = share(layer=layer)
    for part in sim_fracs:
        values[f"workflow.{part}_sim_frac"] = sim_fracs[part]
    return {name: float(values[name]) for name, _unit, _better in PER_LAYER}
