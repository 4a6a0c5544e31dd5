"""The paper's planned workflow extensions (§III-E), implemented.

1. **Distributed data pre-processing** (§III-E.1): the serial
   NetCDF→protobuf conversion becomes a queue of conversion jobs fanned
   out to worker pods, "able to scale up to any needed number of jobs
   very easily by just changing the scaling configuration of the Job
   structure" — each output protobuf lands on CephFS for the training
   step to combine.

2. **Distributed training** (§III-E.2): a ReplicaSet of TensorFlow-style
   training clients plus a Service for stable hostnames; data-parallel
   SGD with gradient averaging (implemented for real in NumPy) and a
   ring-allreduce communication model for paper-scale timing.

3. **Hyperparameters and validation datasets** (§III-E.3): "a Redis queue
   is being developed to store model training/testing validation split
   methodologies and parameters sets to be used in multi-model
   validation" — workers pop configurations, train a real FFN on the
   train split, score on the validation split, and the sweep reports the
   best configuration.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.cluster import ContainerSpec, JobSpec, PodSpec, ReplicaSetSpec, ResourceRequirements
from repro.errors import QueueEmptyError, ValidationError
from repro.ml import FFNConfig, FFNModel, FFNTrainer
from repro.ml.ffn import zscore
from repro.transfer import RedisQueue
from repro.workflow.step import StepContext, WorkflowStep

__all__ = [
    "DistributedPreprocessing",
    "data_parallel_train",
    "allreduce_seconds",
    "DistributedTraining",
    "HyperparameterSweep",
]

#: Pre-processing work items: 4 GB of NetCDF per conversion job, each
#: writing its protobuf under this CephFS prefix.
PREP_CHUNK_BYTES = 4e9
PREP_OUTPUT_PREFIX = "protobuf/v1"

#: Distributed training: gradient exchanges at paper scale, and the real
#: data-parallel SGD steps of the laptop-scale run.
SYNC_STEPS = 200
REAL_DP_STEPS = 30


class DistributedPreprocessing(WorkflowStep):
    """§III-E.1: parallel protobuf generation via a work queue.

    ``n_workers=1`` reproduces the current serial pipeline; larger values
    are the proposed extension.  Artifacts include the serial-equivalent
    time so ablation A4 can report the speedup directly.
    """

    default_params: dict[str, object] = {
        "n_workers": 8,
        "bytes_to_convert": None,  # default: archive subset bytes
    }

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "preprocessing")
        kwargs.setdefault("image", "chase-ci/tf-preprocess:1.0")
        kwargs.setdefault(
            "description", "Parallel NetCDF -> protobuf conversion (§III-E.1)"
        )
        super().__init__(**kwargs)

    def execute(self, ctx: StepContext):
        tb = ctx.testbed
        env = tb.env
        p = ctx.params
        n_workers = int(p["n_workers"])
        total_bytes = float(
            p["bytes_to_convert"] or tb.archive.total_subset_bytes
        )
        chunk_bytes = PREP_CHUNK_BYTES
        n_chunks = max(1, int(np.ceil(total_bytes / chunk_bytes)))
        queue = RedisQueue(env, name=f"{ctx.namespace}-prep")
        queue.push_all(
            [min(chunk_bytes, total_bytes - i * chunk_bytes) for i in range(n_chunks)]
        )
        outputs: list[str] = []

        def worker_pod(index: int) -> PodSpec:
            def main(pod_ctx):
                worker = pod_ctx.pod.meta.name
                host = pod_ctx.node.spec.name
                while True:
                    try:
                        msg = queue.try_pop(worker)
                    except QueueEmptyError:
                        break
                    nbytes = float(msg.body)
                    with ctx.trace(f"convert:{msg.id}", "compute",
                                   bytes=nbytes, input=True):
                        yield env.timeout(tb.perf.prep_seconds(nbytes))
                    name = f"{PREP_OUTPUT_PREFIX}/{worker}-{msg.id:04d}.pb"
                    # Protobufs land "in the attached CephFS directory
                    # that all nodes in the namespace can see" (§III-E.1).
                    yield tb.cephfs.write_timed(
                        name, nbytes * 0.9, client_host=host
                    )
                    outputs.append(name)
                    queue.ack(worker, msg)

            return PodSpec(
                containers=[
                    ContainerSpec(
                        name="tf-preprocess",
                        image=self.image,
                        main=main,
                        resources=ResourceRequirements(cpu=2, memory="8G"),
                    )
                ]
            )

        job = tb.cluster.create_job(
            f"prep-{len(tb.cluster.jobs)}",
            JobSpec(
                template=worker_pod,
                completions=n_workers,
                parallelism=n_workers,
            ),
            namespace=ctx.namespace,
        )
        yield job.completion_event
        ctx.report.artifacts.update(
            {
                "protobuf_objects": sorted(outputs),
                "serial_equivalent_s": tb.perf.prep_seconds(total_bytes),
                "n_chunks": n_chunks,
            }
        )


# ---------------------------------------------------------------- training


#: A FIONA8's 10 GbE NIC in bytes per second, the allreduce link rate.
ALLREDUCE_NIC_BPS = 1.25e9


def allreduce_seconds(model_bytes: float, n_workers: int) -> float:
    """Ring-allreduce time for one gradient exchange.

    Each worker sends/receives ``2 * (K-1)/K * model_bytes`` over a
    10 GbE NIC — the standard ring cost; zero for a single worker.
    """
    if n_workers <= 1:
        return 0.0
    return 2.0 * (n_workers - 1) / n_workers * model_bytes / ALLREDUCE_NIC_BPS


def data_parallel_train(
    config: FFNConfig,
    volume: np.ndarray,
    labels: np.ndarray,
    n_workers: int,
    steps: int = 40,
    seed: int = 0,
) -> tuple[FFNModel, float]:
    """Real data-parallel SGD: each of ``n_workers`` logical workers draws
    one patch per step from its own sample stream (seed ``seed + w``);
    the workers are the shards of one :meth:`FFNTrainer.train_step`
    batch, whose gradient scaling averages their gradients (the
    allreduce) before a single update — numerically the scheme
    TensorFlow's distributed training performs, in NumPy.

    Returns ``(model, final_loss)``.
    """
    if n_workers < 1:
        raise ValidationError("n_workers must be >= 1")
    model = FFNModel(config)
    trainer = FFNTrainer(model, batch_size=n_workers, fov_steps=1, seed=seed)
    streams = [
        FFNTrainer(model, seed=seed + worker)._patch_centers(labels, steps)
        for worker in range(n_workers)
    ]
    image = zscore(volume)
    final_loss = 0.0
    for batch in zip(*streams):
        final_loss, _ = trainer.train_step(image, labels, list(batch))
    return model, final_loss


class DistributedTraining(WorkflowStep):
    """§III-E.2: ReplicaSet + Service data-parallel training."""

    default_params: dict[str, object] = {
        "n_replicas": 4,
        "train_timesteps": 240,
        "real_ml": True,
    }

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "distributed-training")
        kwargs.setdefault("image", "chase-ci/tf-distributed:1.0")
        kwargs.setdefault(
            "description", "Data-parallel FFN training on a ReplicaSet (§III-E.2)"
        )
        super().__init__(**kwargs)

    def execute(self, ctx: StepContext):
        tb = ctx.testbed
        env = tb.env
        p = ctx.params
        replicas = int(p["n_replicas"])
        from repro.data.merra import PAPER_GRID

        voxels = PAPER_GRID.nlat * PAPER_GRID.nlon * int(p["train_timesteps"])
        compute_s = tb.perf.training_seconds(voxels) / replicas
        model_bytes = 4e6  # checkpoint-sized gradient exchange
        comm_s = SYNC_STEPS * allreduce_seconds(model_bytes, replicas)

        # Stable hostnames: "Hostnames will be used instead of IP
        # addresses by creating a service" (§III-E.2).
        svc = tb.cluster.create_service(
            f"tf-train-{len(tb.cluster.services)}",
            selector={"app": "tf-train"},
            namespace=ctx.namespace,
        )

        done: list[str] = []

        def client_pod(index: int) -> PodSpec:
            def main(pod_ctx):
                yield env.timeout(compute_s + comm_s)
                done.append(pod_ctx.pod.meta.name)
                # Workers idle (parameter serving) until all finish.
                while len(done) < replicas:
                    yield env.timeout(10.0)
                return "synced"

            return PodSpec(
                containers=[
                    ContainerSpec(
                        name="tf-client",
                        image=self.image,
                        main=main,
                        resources=ResourceRequirements(cpu=2, memory="14.8G", gpu=1),
                    )
                ]
            )

        rs = tb.cluster.create_replicaset(
            f"tf-train-{len(tb.cluster.replicasets)}",
            ReplicaSetSpec(template=client_pod, replicas=replicas),
            namespace=ctx.namespace,
            labels={"app": "tf-train"},
        )
        # Wait until every client reports completion, then scale down
        # ("scaling it up and down depending on our needs").
        while len(done) < replicas:
            yield env.timeout(30.0)
        rs.delete()

        real: dict[str, object] = {}
        if p["real_ml"]:
            gen = tb.merra_generator()
            volume = gen.ivt_volume(0, 16)
            labels = gen.label_volume(0, 16)
            config = FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=tb.seed)
            model, loss = data_parallel_train(
                config, volume, labels, n_workers=replicas,
                steps=REAL_DP_STEPS, seed=tb.seed,
            )
            real = {"model_state": model.state_dict(), "final_loss": loss}

        ctx.report.artifacts.update(
            {
                "replicas": replicas,
                "service_hostname": svc.hostname,
                "compute_seconds": compute_s,
                "comm_seconds": comm_s,
                "modelled_total_seconds": compute_s + comm_s,
                **real,
            }
        )


# ---------------------------------------------------------------- sweeps


@dataclasses.dataclass
class SweepResult:
    """One hyperparameter evaluation."""

    params: dict[str, object]
    validation_loss: float
    worker: str


class HyperparameterSweep(WorkflowStep):
    """§III-E.3: queue-driven multi-model validation.

    Parameter sets and the train/validation split methodology live on a
    Redis queue; worker pods pop a set, train a real FFN on the training
    window, evaluate on the held-out window ("it is important to separate
    training and test data"), and report.  The artifact carries every
    result plus the winner.
    """

    default_params: dict[str, object] = {
        "param_grid": (
            {"lr": 0.05, "filters": 4},
            {"lr": 0.1, "filters": 6},
            {"lr": 0.2, "filters": 6},
        ),
        "n_workers": 2,
        "train_window": (0, 12),
        "validation_window": (12, 20),
        "train_steps": 25,
    }

    def __init__(self, **kwargs):
        kwargs.setdefault("name", "hp-sweep")
        kwargs.setdefault("image", "chase-ci/ffn-sweep:1.0")
        kwargs.setdefault(
            "description", "Queue-driven hyperparameter sweep (§III-E.3)"
        )
        super().__init__(**kwargs)

    def execute(self, ctx: StepContext):
        tb = ctx.testbed
        env = tb.env
        p = ctx.params
        queue = RedisQueue(env, name=f"{ctx.namespace}-sweep")
        queue.set("split:train", tuple(p["train_window"]))
        queue.set("split:validation", tuple(p["validation_window"]))
        queue.push_all(list(p["param_grid"]))

        gen = tb.merra_generator()
        t0, t1 = p["train_window"]
        v0, v1 = p["validation_window"]
        train_vol = gen.ivt_volume(t0, t1 - t0)
        train_lab = gen.label_volume(t0, t1 - t0)
        val_vol = gen.ivt_volume(v0, v1 - v0)
        val_lab = gen.label_volume(v0, v1 - v0)
        results: list[SweepResult] = []

        def worker_pod(index: int) -> PodSpec:
            def main(pod_ctx):
                worker = pod_ctx.pod.meta.name
                while True:
                    try:
                        msg = queue.try_pop(worker)
                    except QueueEmptyError:
                        break
                    hp: dict = dict(msg.body)
                    config = FFNConfig(
                        fov=(5, 5, 5),
                        filters=int(hp.get("filters", 6)),
                        modules=1,
                        seed=tb.seed,
                    )
                    model = FFNModel(config)
                    trainer = FFNTrainer(
                        model, lr=float(hp.get("lr", 0.1)), seed=tb.seed
                    )
                    with np.errstate(all="ignore"):
                        trainer.train(
                            train_vol, train_lab, steps=int(p["train_steps"])
                        )
                        val_loss = trainer.evaluate(val_vol, val_lab,
                                                    n_patches=20)
                    if not np.isfinite(val_loss):
                        # A diverged configuration still yields a result
                        # row, ranked behind every convergent one.
                        val_loss = float("inf")
                    results.append(
                        SweepResult(params=hp, validation_loss=val_loss,
                                    worker=worker)
                    )
                    # Account GPU time for the trial at paper scale.
                    yield env.timeout(600.0)
                    queue.ack(worker, msg)
                return len(results)

            return PodSpec(
                containers=[
                    ContainerSpec(
                        name="sweep-worker",
                        image=self.image,
                        main=main,
                        resources=ResourceRequirements(cpu=1, memory="12G", gpu=1),
                    )
                ]
            )

        job = tb.cluster.create_job(
            f"sweep-{len(tb.cluster.jobs)}",
            JobSpec(
                template=worker_pod,
                completions=int(p["n_workers"]),
                parallelism=int(p["n_workers"]),
            ),
            namespace=ctx.namespace,
        )
        yield job.completion_event

        best = min(results, key=lambda r: r.validation_loss)
        ctx.report.artifacts.update(
            {
                "results": [dataclasses.asdict(r) for r in results],
                "best_params": best.params,
                "best_validation_loss": best.validation_loss,
                "trials": len(results),
            }
        )
