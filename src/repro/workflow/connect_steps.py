"""The four-step CONNECT object-segmentation workflow (paper §III).

Step 1 — THREDDS download: 10 worker pods pop URL-manifest chunks from a
Redis queue, download with 20-way Aria2 parallelism, merge the small
NetCDF granules into large HDF files, and push them to the Ceph object
store.  (Paper: 14 pods, 42 CPUs, 246 GB in 37 minutes.)

Step 2 — model training: a single 1-GPU pod builds training partitions
(data prep) and trains the FFN on a 30-day labelled volume, saving the
checkpoint to the object store.  (Paper: 306 minutes on one 1080ti.)

Step 3 — distributed inference: the volume is evenly sharded across N
single-GPU pods (paper: 50) which flood-fill their shards and write label
volumes back.  (Paper: 1133 minutes for 2.3e10 voxels.)

Step 4 — JupyterLab visualization: one pod loads the results and computes
object statistics for post-processing analysis (interactive; Table I
reports "NA" for time).

Dual fidelity: every step both (a) *runs the real algorithms* on a
laptop-scale synthetic MERRA volume — actual FFN SGD, actual flood-fill
inference, actual CONNECT labelling — and (b) *simulates paper-scale
timing* through the calibrated network/storage/GPU models, so Table I
and Figures 3–6 regenerate at full scale while the ML code is genuinely
exercised end to end.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from repro.cluster import (
    ContainerSpec,
    JobSpec,
    LivenessProbe,
    PodSpec,
    ResourceRequirements,
)
from repro.data.merra import PAPER_GRID
from repro.errors import QueueEmptyError
from repro.ml import (
    FFNConfig,
    FFNModel,
    FFNTrainer,
    connect_segmentation,
    voxel_metrics,
)
from repro.ml.inference import split_shards
from repro.sim.rng import derive_seed
from repro.transfer import (
    Aria2Downloader,
    MergePlanner,
    RedisQueue,
    RetryPolicy,
    retry_call,
)
from repro.workflow.step import StepContext, WorkflowStep
from repro.workflow.workflow import Workflow

__all__ = [
    "DownloadStep",
    "TrainingStep",
    "InferenceStep",
    "VisualizationStep",
    "build_connect_workflow",
]

#: Compression achieved on inference label volumes (uint8 masks pack to
#: ~2 bits/voxel), sized so paper-scale results land at ~5.8 GB (§III-D).
RESULT_BYTES_PER_VOXEL = 0.25

#: Size of the staged training file: 381 MB for the 576x361x240 volume.
TRAIN_DATA_BYTES = 381e6

#: Step 1's worker shape: 20 parallel aria2 downloads per worker (§III-A)
#: on a 4-CPU / 21 GB pod.  The manifest is cut into chunks of about
#: 1000 granules; a worker streams a chunk of more than 200 files as one
#: flow per connection, merges every 240 granules into one HDF file and
#: pushes it to the ``merra`` Ceph pool.
ARIA2_CONNECTIONS = 20
MANIFEST_CHUNK_FILES = 1000
COALESCE_FILES = 200
FILES_PER_MERGE = 240
WORKER_CPU = 4
WORKER_MEMORY = "21G"
TARGET_POOL = "merra"

#: Where the training step saves the checkpoint in the ``models`` pool.
MODEL_OBJECT = "ffn/checkpoint-v1"

#: The real sharded inference run's halo, and the ``results`` pool
#: prefix the paper-scale shards write their label volumes under.
REAL_HALO = 2
RESULTS_PREFIX = "segmentation/v1"


def _aux_pod(image: str, cpu, memory, done_event) -> PodSpec:
    """A service pod (redis, manifest builder, monitor) that runs until
    the step signals completion."""

    def main(ctx):
        yield done_event
        return "done"

    return PodSpec(
        containers=[
            ContainerSpec(
                name="main",
                image=image,
                main=main,
                resources=ResourceRequirements(cpu=cpu, memory=memory),
            )
        ]
    )


class DownloadStep(WorkflowStep):
    """Step 1: THREDDS download via Redis-coordinated worker pods."""

    network_bound = True  # WAN transfers from the THREDDS origin

    #: In overlap mode the step streams: content materialization runs
    #: concurrently with the worker job and fires the ``content-ready``
    #: milestone the moment the training inputs are on CephFS — long
    #: before the last worker drains its WAN transfer queue.
    streams_output = True

    default_params: dict[str, object] = {
        "n_workers": 10,
        "subset": True,
        # An optional per-worker liveness heartbeat timeout: a worker
        # stalled behind a partition longer than this is killed and
        # restarted by the kubelet (charged to the Job's backoff_limit).
        "worker_liveness_s": None,
        # Laptop-scale content materialization: fetch this many leading
        # granules' REAL arrays through the THREDDS subset service,
        # compute IVT, and store the stacked volume (+ the CONNECT label
        # dataset [23]) on CephFS for the training step to consume.
        # 0 disables the content path (catalog/bytes only).
        "materialize_timesteps": 24,
    }

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "download")
        kwargs.setdefault("image", "chase-ci/thredds-downloader:1.2")
        kwargs.setdefault(
            "description",
            "Download MERRA-2 IVT subset from THREDDS into the Ceph store",
        )
        super().__init__(**kwargs)

    def execute(self, ctx: StepContext):
        tb = ctx.testbed
        env = tb.env
        p = ctx.params
        n_workers = int(p["n_workers"])
        subset_vars = ("U", "V", "QV") if p["subset"] else None
        policy = RetryPolicy()
        liveness_s = p["worker_liveness_s"]

        queue = RedisQueue(env, name=f"{ctx.namespace}-downloads")
        n_chunks = max(1, math.ceil(len(tb.archive) / MANIFEST_CHUNK_FILES))
        chunks = tb.archive.manifest_chunks(n_chunks)
        queue.push_all(chunks)

        done_event = env.event()
        cluster = tb.cluster
        # Auxiliary pods: 1 redis + 1 manifest builder + 2 monitors — with
        # the 10 workers this is the paper's 14-pod / 42-CPU footprint.
        cluster.create_pod(
            f"redis-{len(cluster.pods)}", _aux_pod("redis:5", 1, "8G", done_event), namespace=ctx.namespace
        )
        cluster.create_pod(
            f"manifest-builder-{len(cluster.pods)}",
            _aux_pod("chase-ci/manifest:1.0", 1, "5G", done_event),
            namespace=ctx.namespace,
        )
        for i in range(2):
            cluster.create_pod(
                f"monitor-{i}-{len(cluster.pods)}",
                _aux_pod("chase-ci/job-monitor:1.0", 0, "1G", done_event),
                namespace=ctx.namespace,
            )

        merged_objects: list[str] = []
        bytes_downloaded = [0.0]

        def worker_pod(index: int) -> PodSpec:
            def main(pod_ctx):
                worker = pod_ctx.pod.meta.name
                host = pod_ctx.node.spec.name
                downloader = Aria2Downloader(
                    env,
                    tb.flowsim,
                    tb.topology,
                    tb.thredds,
                    host=host,
                    connections=ARIA2_CONNECTIONS,
                    coalesce_threshold=COALESCE_FILES,
                    retry_policy=policy,
                    metrics=tb.registry,
                    on_progress=pod_ctx.heartbeat,
                    seed=tb.seed,
                    tracer=tb.tracer,
                    span_parent=ctx.span,
                )
                resolve_rng = np.random.default_rng(
                    derive_seed(tb.seed, "resolve", worker)
                )
                planner = MergePlanner(files_per_merge=FILES_PER_MERGE)
                try:
                    while True:
                        try:
                            msg = queue.try_pop(worker)
                        except QueueEmptyError:
                            break
                        indices = list(msg.body)
                        # Catalog lookups see the same transient 503s as
                        # streams; retry them under the same policy.
                        requests = yield from retry_call(
                            env,
                            lambda: tb.thredds.resolve_many(
                                indices, subset_vars
                            ),
                            policy,
                            resolve_rng,
                        )
                        stats = yield from downloader.download_batch(requests)
                        sizes = dict(zip(indices, requests.nbytes))
                        for plan in planner.plan(indices, sizes, worker):
                            yield env.timeout(plan.cpu_seconds)
                            yield tb.ceph.put(
                                TARGET_POOL,
                                plan.output_name,
                                plan.output_bytes,
                                client_host=host,
                            )
                            merged_objects.append(plan.output_name)
                            pod_ctx.heartbeat()
                        queue.ack(worker, msg)
                        bytes_downloaded[0] += stats.bytes
                except Exception:
                    # Crash/NodeLost/LivenessFailed (ProcessKilled) or a
                    # terminal transfer failure: put the unacked chunk back
                    # for the replacement pod (§III-A's fault tolerance).
                    queue.recover(worker)
                    raise

            return PodSpec(
                containers=[
                    ContainerSpec(
                        name="aria2-worker",
                        image=self.image,
                        main=main,
                        resources=ResourceRequirements(
                            cpu=WORKER_CPU, memory=WORKER_MEMORY
                        ),
                    )
                ],
                liveness=(
                    LivenessProbe(
                        period_s=max(1.0, float(liveness_s) / 4.0),
                        timeout_s=float(liveness_s),
                    )
                    if liveness_s is not None
                    else None
                ),
            )

        job = cluster.create_job(
            f"download-workers-{len(cluster.jobs)}",
            JobSpec(
                template=worker_pod,
                completions=n_workers,
                parallelism=n_workers,
                backoff_limit=max(6, 2 * n_workers),
            ),
            namespace=ctx.namespace,
        )
        # Pipelined mode: materialize the training inputs CONCURRENTLY
        # with the worker job and announce them on the stream, so the
        # training step can start while the transfer tail is still
        # running.  Barrier mode keeps the sequential order (job, then
        # materialization) — byte-identical to previous releases.
        stream = ctx.stream_out()
        mat_proc = None
        content_box: dict[str, object] = {}
        if stream is not None:

            def materialize_streaming():
                result = yield from self._materialize(ctx, subset_vars, policy)
                content_box.update(result)
                if result:
                    stream.mark("content-ready", dict(result))

            mat_proc = env.process(
                materialize_streaming(), name=f"{ctx.namespace}-materialize"
            )
            # The join below consumes any failure; don't crash the run
            # if materialization breaks while we wait on the job.
            mat_proc.defuse()
        try:
            yield job.completion_event
        except BaseException:
            if mat_proc is not None and mat_proc.is_alive:
                mat_proc.interrupt("download attempt torn down")
            raise
        finally:
            done_event.succeed()

        if mat_proc is not None:
            yield mat_proc  # join (re-raises a materialization failure)
            content = content_box
        else:
            content = yield from self._materialize(ctx, subset_vars, policy)

        ctx.report.artifacts.update(
            {
                "merged_objects": sorted(merged_objects),
                "pool": TARGET_POOL,
                "files_downloaded": len(tb.archive),
                "bytes_downloaded": bytes_downloaded[0],
                "queue_acked": queue.acked_total,
                "queue_requeued": queue.requeued_total,
                **content,
            }
        )

    def _materialize(self, ctx: StepContext, subset_vars, policy):
        """Content path: real arrays through the subset service -> IVT ->
        the shared store.  This is the actual data the training step
        reads back out of Ceph.  A generator; returns the content
        artifact dict ({} when materialization is disabled).  Its RNG
        stream is derived independently of the worker pods', so the
        produced bytes are identical whether it runs after the worker
        job (barrier) or concurrently with it (overlap).
        """
        tb = ctx.testbed
        env = tb.env
        p = ctx.params
        content: dict[str, object] = {}
        nt = min(int(p["materialize_timesteps"]), len(tb.archive))
        if nt > 0 and tb.thredds.generator is not None:
            mat_rng = np.random.default_rng(
                derive_seed(tb.seed, "materialize", ctx.namespace)
            )
            fields = []
            for t in range(nt):
                granule = yield from retry_call(
                    env,
                    lambda t=t: tb.thredds.open_granule(
                        t, variables=subset_vars
                    ),
                    policy,
                    mat_rng,
                )
                fields.append(granule)
            from repro.data.ivt import ivt_magnitude

            levels = tb.ml_grid.levels_hpa
            ivt = np.stack(
                [
                    ivt_magnitude(
                        g.variables["U"].data,
                        g.variables["V"].data,
                        g.variables["QV"].data,
                        levels,
                    )
                    for g in fields
                ]
            )
            labels = tb.merra_generator().label_volume(0, nt)
            volume_path = "/ivt/connect-input-volume.npy"
            labels_path = "/ivt/connect-labels.npy"
            with ctx.trace(
                "materialize-content",
                "transfer",
                bytes=float(ivt.nbytes + labels.nbytes),
                timesteps=nt,
            ):
                yield tb.cephfs.write_timed(
                    volume_path, float(ivt.nbytes), payload=ivt
                )
                yield tb.cephfs.write_timed(
                    labels_path, float(labels.nbytes), payload=labels
                )
            content = {
                "content_volume_path": volume_path,
                "content_labels_path": labels_path,
                "content_timesteps": nt,
            }
        return content


class TrainingStep(WorkflowStep):
    """Step 2: FFN training on one GPU (data prep + SGD + checkpoint)."""

    base_gpus = 1  # one 1080ti trainer pod (§III-B)

    #: In overlap mode, start as soon as the download step is *running*
    #: and block on its ``content-ready`` milestone instead of on the
    #: whole-step barrier (the download's WAN tail overlaps training).
    stream_inputs = ("download",)

    default_params: dict[str, object] = {
        "train_timesteps": 240,  # 30 days of 3-hourly data (§III-B)
        "real_ml": True,
        "real_train_steps": 150,
        "real_train_timesteps": 24,
    }

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "training")
        kwargs.setdefault("image", "chase-ci/ffn-train:1.0")
        kwargs.setdefault(
            "description", "Train the flood-filling network on labelled IVT"
        )
        super().__init__(**kwargs)

    def execute(self, ctx: StepContext):
        tb = ctx.testbed
        env = tb.env
        p = ctx.params
        train_voxels = PAPER_GRID.nlat * PAPER_GRID.nlon * int(p["train_timesteps"])
        results: dict[str, object] = {}

        def main(pod_ctx):
            host = pod_ctx.node.spec.name
            worker = pod_ctx.pod.meta.name
            # Pull the training volume (the 381 MB merged HDF) from Ceph.
            with ctx.trace("fetch-training-volume", "transfer",
                           bytes=TRAIN_DATA_BYTES, input=True):
                yield tb.cephfs.cluster.put(
                    "merra", "training/connect-labels-30d.h5", TRAIN_DATA_BYTES
                )
                yield tb.ceph.get("merra", "training/connect-labels-30d.h5",
                                  client_host=host)
            # Data prep: partition volumes + coordinates (Figure 5, purple).
            with ctx.trace("data-prep", "compute", voxels=train_voxels):
                yield env.timeout(tb.perf.train_prep_seconds(train_voxels))
            # Real ML: train the FFN — preferably on the data step 1
            # materialized into the shared store ("the data has been
            # transferred to the storage volume (CephFS accessible by all
            # nodes)", §III-B), falling back to the generator.
            if p["real_ml"]:
                gen = tb.merra_generator()
                nt = int(p["real_train_timesteps"])
                download_art = ctx.artifacts.get("download", {})
                if not download_art:
                    # Pipelined mode: the download step is still running.
                    # Wait for its content milestone (a queueing interval
                    # in the time partition), not for the whole step.
                    chan = ctx.stream_in("download")
                    if chan is not None:
                        with ctx.trace("wait-content-stream", "queueing"):
                            payload = yield from chan.wait_milestone(
                                "content-ready", default=None
                            )
                        download_art = dict(payload) if payload else {}
                volume_path = download_art.get("content_volume_path")
                if volume_path and tb.cephfs.exists(str(volume_path)):
                    volume = np.asarray(
                        tb.cephfs.read_payload(str(volume_path))
                    )
                    labels = np.asarray(
                        tb.cephfs.read_payload(
                            str(download_art["content_labels_path"])
                        )
                    )
                    nt = volume.shape[0]
                    results["volume_source"] = "cephfs"
                else:
                    volume = gen.ivt_volume(0, nt)
                    labels = gen.label_volume(0, nt)
                    results["volume_source"] = "generator"
                # "the input to this system is translated from NetCDF
                # files to a binary representation in a protocol buffer
                # file" (§III-E.1): serialize the training example to a
                # real TFRecord-like blob in the store.
                from repro.data.tfrecord import TFRecordWriter, VolumeExample

                writer = TFRecordWriter()
                writer.write(
                    VolumeExample(
                        volume=volume.astype(np.float32),
                        label=labels.astype(np.uint8),
                        meta={"t0": 0, "nt": int(nt)},
                    )
                )
                blob = writer.getvalue()
                yield tb.cephfs.write_timed(
                    "/protobuf/train-000.pb", float(len(blob)), payload=blob
                )
                results["protobuf_path"] = "/protobuf/train-000.pb"
                results["protobuf_bytes"] = len(blob)

                config = FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=tb.seed)
                model = FFNModel(config)
                trainer = FFNTrainer(model, seed=tb.seed)
                training_report = trainer.train(
                    volume, labels, steps=int(p["real_train_steps"])
                )
                results["model_state"] = model.state_dict()
                results["ffn_config"] = config
                results["training_report"] = training_report
                results["train_window"] = (0, nt)
                checkpoint_bytes = sum(
                    a.nbytes for a in results["model_state"].values()
                )
            else:
                checkpoint_bytes = 4e6
            # Paper-scale training time (Figure 5, green).
            with ctx.trace("training", "compute", voxels=train_voxels):
                yield env.timeout(
                    tb.perf.training_seconds(
                        train_voxels, worker=worker, seed=tb.seed
                    )
                )
            # Save the checkpoint: "the trained FFN model is then saved in
            # the Ceph Object Store, including all parameters" (§III-C).
            with ctx.trace(
                "save-checkpoint", "transfer", bytes=float(checkpoint_bytes)
            ):
                yield tb.ceph.put(
                    "models",
                    MODEL_OBJECT,
                    checkpoint_bytes,
                    payload=results.get("model_state"),
                    client_host=host,
                )

        spec = PodSpec(
            containers=[
                ContainerSpec(
                    name="trainer",
                    image=self.image,
                    main=main,
                    resources=ResourceRequirements(cpu=1, memory="14.8G", gpu=1),
                )
            ]
        )
        job = tb.cluster.create_job(
            f"ffn-training-{len(tb.cluster.jobs)}",
            JobSpec(template=lambda i: spec, completions=1, parallelism=1),
            namespace=ctx.namespace,
        )
        yield job.completion_event

        ctx.report.artifacts.update(
            {
                "model_object": MODEL_OBJECT,
                "train_voxels": train_voxels,
                **results,
            }
        )


class InferenceStep(WorkflowStep):
    """Step 3: sharded multi-GPU flood-fill inference."""

    default_params: dict[str, object] = {
        "n_gpus": 50,
        "real_ml": True,
        "real_test_timesteps": 16,
        "real_shards": 4,  # logical workers for the real sharded run
    }

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "inference")
        kwargs.setdefault("image", "chase-ci/ffn-infer:1.0")
        kwargs.setdefault(
            "description", "Distributed FFN inference across dedicated GPUs"
        )
        super().__init__(**kwargs)

    def execute(self, ctx: StepContext):
        tb = ctx.testbed
        env = tb.env
        p = ctx.params
        n_gpus = int(p["n_gpus"])
        training = ctx.artifacts.get("training", {})

        n_files = len(tb.archive)
        shards = split_shards(n_files, n_gpus)
        voxels_per_file = PAPER_GRID.nlat * PAPER_GRID.nlon
        subset_bytes = tb.archive.total_subset_bytes
        result_objects: list[str] = []
        total_result_bytes = [0.0]

        def shard_pod(index: int) -> PodSpec:
            t0, t1 = shards[index % len(shards)]
            shard_files = t1 - t0
            shard_voxels = shard_files * voxels_per_file
            shard_bytes = subset_bytes * shard_files / n_files

            def main(pod_ctx):
                host = pod_ctx.node.spec.name
                worker = f"inf-{index}"
                # Fetch the model + this shard's data from the store.
                with ctx.trace(f"fetch-shard:{index}", "transfer",
                               bytes=shard_bytes, input=True):
                    yield tb.ceph.get(
                        "models", str(training.get("model_object", MODEL_OBJECT)),
                        client_host=host,
                    )
                    yield from _timed_ceph_read(tb, shard_bytes, host, worker)
                with ctx.trace(
                    f"infer-shard:{index}", "compute", voxels=shard_voxels
                ):
                    yield env.timeout(
                        tb.perf.inference_seconds(
                            shard_voxels, worker=worker, seed=tb.seed
                        )
                    )
                result_name = f"{RESULTS_PREFIX}/shard-{index:03d}.labels"
                result_bytes = shard_voxels * RESULT_BYTES_PER_VOXEL
                with ctx.trace(
                    f"put-results:{index}", "transfer", bytes=result_bytes
                ):
                    yield tb.ceph.put(
                        "results", result_name, result_bytes, client_host=host
                    )
                result_objects.append(result_name)
                total_result_bytes[0] += result_bytes

            return PodSpec(
                containers=[
                    ContainerSpec(
                        name="ffn-infer",
                        image=self.image,
                        main=main,
                        resources=ResourceRequirements(cpu=1, memory="12G", gpu=1),
                    )
                ]
            )

        job = tb.cluster.create_job(
            f"ffn-inference-{len(tb.cluster.jobs)}",
            JobSpec(
                template=shard_pod,
                completions=len(shards),
                parallelism=n_gpus,
                backoff_limit=2 * n_gpus,
            ),
            namespace=ctx.namespace,
        )
        yield job.completion_event

        # Real ML: segment a held-out window with the trained model,
        # sharded across logical workers with halo overlap and stitched
        # across shard boundaries — the algorithm the 50-GPU fan-out
        # needs so CONNECT life-cycles spanning shards stay one object.
        # The shards run on a shared-memory pool over the CPUs this
        # process may use (in-process on one CPU); the labels and the
        # shard spans are the same either way.
        real: dict[str, object] = {}
        if p["real_ml"] and "model_state" in training:
            from repro.ml.distributed_inference import distributed_segment
            from repro.ml.shm_pool import usable_cpus

            gen = tb.merra_generator()
            _, train_end = training.get("train_window", (0, 24))
            nt = int(p["real_test_timesteps"])
            volume = gen.ivt_volume(train_end, nt)
            truth = gen.label_volume(train_end, nt)
            model = FFNModel(training["ffn_config"])
            model.load_state_dict(training["model_state"])
            labels, real_shards = distributed_segment(
                model,
                volume,
                n_workers=int(p["real_shards"]),
                halo=REAL_HALO,
                max_workers=usable_cpus(),
                tracer=tb.tracer,
                span_parent=ctx.span,
            )
            scores = voxel_metrics(labels, truth)
            real = {
                "label_volume": labels,
                "truth_volume": truth,
                "ivt_volume": volume,
                "voxel_f1": scores.f1,
                "voxel_recall": scores.recall,
                "voxel_precision": scores.precision,
                "real_shard_count": len(real_shards),
            }

        ctx.report.artifacts.update(
            {
                "result_objects": sorted(result_objects),
                "result_bytes": total_result_bytes[0],
                "n_shards": len(shards),
                "voxels_total": n_files * voxels_per_file,
                **real,
            }
        )


def _timed_ceph_read(tb, nbytes: float, host: str, name: str):
    """Read ``nbytes`` of shard data from the store (as one bulk flow
    from the nearest OSD host's disk through the network)."""
    osd = next(iter(tb.ceph.osds.values()))
    resources = [osd.disk]
    if host != osd.host:
        resources = [osd.disk, *tb.topology.path_resources(osd.host, host)]
    yield tb.flowsim.transfer(resources, nbytes, name=f"shard-read:{name}")


class VisualizationStep(WorkflowStep):
    """Step 4: JupyterLab analysis of segmentation results."""

    base_gpus = 1  # one JupyterLab GPU pod (§III-D)

    default_params: dict[str, object] = {"real_ml": True}

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "visualization")
        kwargs.setdefault("image", "chase-ci/jupyterlab-gpu:2.0")
        kwargs.setdefault(
            "description",
            "Load results from the object store; plot objects and statistics",
        )
        super().__init__(**kwargs)

    def execute(self, ctx: StepContext):
        tb = ctx.testbed
        p = ctx.params
        inference = ctx.artifacts.get("inference", {})
        result_bytes = float(inference.get("result_bytes", 0.0))
        stats: dict[str, object] = {}

        def main(pod_ctx):
            host = pod_ctx.node.spec.name
            # Mount the store; load the most recent results (§III-D).
            with ctx.trace("load-results", "transfer",
                           bytes=result_bytes, input=True):
                for name in list(inference.get("result_objects", []))[:8]:
                    yield tb.ceph.get("results", name, client_host=host)
                if result_bytes:
                    yield from _timed_ceph_read(tb, result_bytes, host, "viz")
            # Real analysis: object statistics over the FFN labels via
            # CONNECT's life-cycle machinery.
            if p["real_ml"] and "label_volume" in inference:
                labels = inference["label_volume"]
                ivt = inference["ivt_volume"]
                report = connect_segmentation(
                    np.where(labels > 0, ivt, 0.0), threshold=1e-9, min_voxels=2
                )
                stats["n_objects"] = report.n_objects
                stats["lifetimes"] = [o.lifetime_steps for o in report.objects]
                stats["mean_lifetime_steps"] = (
                    float(np.mean(stats["lifetimes"])) if report.objects else 0.0
                )
                stats["max_intensity"] = max(
                    (o.max_intensity for o in report.objects), default=0.0
                )
            return "visualized"

        spec = PodSpec(
            containers=[
                ContainerSpec(
                    name="jupyterlab",
                    image=self.image,
                    main=main,
                    resources=ResourceRequirements(cpu=1, memory="12G", gpu=1),
                )
            ]
        )
        job = tb.cluster.create_job(
            f"jupyterlab-viz-{len(tb.cluster.jobs)}",
            JobSpec(template=lambda i: spec, completions=1, parallelism=1),
            namespace=ctx.namespace,
        )
        yield job.completion_event
        ctx.report.interactive = True  # Table I: "NA"
        ctx.report.artifacts.update(stats)


def build_connect_workflow(
    testbed=None,
    *,
    n_workers: int = 10,
    n_gpus: int = 50,
    subset: bool = True,
    real_ml: bool = True,
    overrides: dict[str, dict] | None = None,
) -> Workflow:
    """Assemble the 4-step CONNECT workflow of Figure 2.

    ``testbed`` is accepted for signature symmetry but the workflow binds
    to a testbed only at run time (steps are testbed-agnostic specs).
    """
    overrides = overrides or {}
    # The download step moves data over the WAN; give it a step-level
    # retry budget so a partition converts to a retry instead of a hang
    # (and so the DAG005 lint rule is satisfied by construction).
    download = DownloadStep(
        max_retries=1,
        params={"n_workers": n_workers, "subset": subset,
                **overrides.get("download", {})}
    )
    training = TrainingStep(
        params={"real_ml": real_ml, **overrides.get("training", {})}
    ).after("download")
    inference = InferenceStep(
        params={"n_gpus": n_gpus, "real_ml": real_ml,
                **overrides.get("inference", {})}
    ).after("training")
    visualization = VisualizationStep(
        params={"real_ml": real_ml, **overrides.get("visualization", {})}
    ).after("inference")
    return Workflow("connect", [download, training, inference, visualization])
