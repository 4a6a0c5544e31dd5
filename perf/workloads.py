"""The benchmark's four workloads.

Each workload generates its own inputs from the seed and drives the
program only through its public API, calling functions through their
modules so the probes of :mod:`perf.layers` see every call.

A workload has four parts:

- ``setup(seed)`` builds the fixture (imports, model, pool) whose cost
  is the ``setup_s`` metric;
- ``iterate(fixture)`` is the timed unit of work;
- ``summarize(fixture, raw, full)`` checks one iteration's outputs
  (untimed) and reduces it to an :class:`Iteration`; ``full`` adds the
  checks too costly to repeat on every iteration;
- ``verify_run(fixture, first)`` runs the once-per-run reference checks.

Why each workload exists is in ``perf/README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
import typing as _t

import numpy as np

__all__ = [
    "Workload",
    "ConnectPaper",
    "ConnectPipelined",
    "FFN",
    "Iteration",
    "TenantDrill",
    "WORKLOADS",
    "digest",
]

#: Table I of the paper: minutes for steps 1-3 of CONNECT.
PAPER_STEP_MINUTES = (("download", 37.0), ("training", 306.0), ("inference", 1133.0))


@dataclasses.dataclass
class Iteration:
    """One iteration, reduced to what the benchmark keeps."""

    #: Fingerprint of every output; equal across iterations of one seed.
    checksum: str
    #: Operations attempted and failed (steps, workflows or phase calls).
    ops: int
    failures: int
    #: Failed output checks, as messages.
    problems: list[str]
    #: Deterministic simulated-time and quality outputs.
    reference: dict[str, float]
    #: Host seconds per phase, for workloads with phases.
    phases: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Light per-run data ``verify_run`` compares against.
    detail: dict[str, object] = dataclasses.field(default_factory=dict)
    #: Program state the per-layer metrics read (traced iteration only).
    observed: dict[str, object] = dataclasses.field(default_factory=dict)


def digest(value: object) -> str:
    """A SHA-256 fingerprint of nested outputs, arrays by their bytes."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def _feed(h, value: object) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.shape}{value.dtype}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value, key=str):
            _feed(h, str(key))
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        _feed(h, {f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    else:
        h.update(repr(value).encode())
    h.update(b";")


def nearest_rank(values: _t.Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (``inf`` entries allowed)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    """Defaults shared by the workloads."""

    name = ""

    def verify_run(self, fixture, first: Iteration) -> list[str]:
        return []

    def throughputs(self, phase_s: _t.Mapping[str, float]) -> dict[str, float]:
        """Work per second from the median seconds of each phase."""
        return {}

    def close(self, fixture) -> None:
        pass


# -------------------------------------------------------------- CONNECT


def _workflow_problems(tb, report, full: bool) -> list[str]:
    from repro.tracing import analyze_run, validate_spans

    problems = [f"step {s.name} failed: {s.error}" for s in report.steps if not s.succeeded]
    problems += [f"span tree: {p}" for p in validate_spans(tb.tracer.spans)[:3]]
    if full:
        analysis = analyze_run(tb.tracer)
        partition = sum(analysis.layers.values())
        if abs(partition - analysis.total_s) > 1e-6 * max(1.0, analysis.total_s):
            problems.append(
                f"layer partition {partition} != makespan {analysis.total_s}"
            )
    return problems


def _artifacts(report) -> dict:
    return {step.name: step.artifacts for step in report.steps}


class ConnectPaper(Workload):
    """The paper's Table I run: CONNECT at full archive scale, no real ML."""

    name = "connect_paper"

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def setup(self, seed: int) -> dict:
        import repro.testbed  # noqa: F401 - the import is part of set-up
        import repro.tracing  # noqa: F401
        import repro.transfer  # noqa: F401
        import repro.workflow  # noqa: F401

        return {"seed": seed}

    def iterate(self, fixture: dict):
        import repro.testbed as testbed
        import repro.workflow as workflow

        tb = testbed.build_nautilus_testbed(seed=fixture["seed"], scale=self.scale)
        report = workflow.WorkflowDriver(tb).run(
            workflow.build_connect_workflow(real_ml=False)
        )
        return tb, report

    def summarize(self, fixture: dict, raw, full: bool) -> Iteration:
        tb, report = raw
        problems = _workflow_problems(tb, report, full)
        downloaded = report.step("download").artifacts.get("files_downloaded")
        if downloaded != len(tb.archive):
            problems.append(f"downloaded {downloaded} of {len(tb.archive)} files")
        errors = [
            abs(report.step(step).duration_minutes - paper) / paper
            for step, paper in PAPER_STEP_MINUTES
        ]
        return Iteration(
            checksum=digest((report.to_dict(), _artifacts(report))),
            ops=len(report.steps),
            failures=sum(not s.succeeded for s in report.steps),
            problems=problems,
            reference={
                "paper_step_err": sum(errors) / len(errors),
                "sim_makespan_s": report.total_duration_s,
            },
            observed={"testbeds": [tb], "reports": [report]},
        )


class ConnectPipelined(ConnectPaper):
    """CONNECT at 1% scale with real ML, driven in overlap mode.

    The testbed seed is pinned, so this workload does not vary with
    ``--seed``: the workflow's real FFN training diverges on about half
    of all testbed seeds, after which inference floods every seed
    candidate, so host time would be bimodal in the seed.
    """

    name = "connect_pipelined"
    TESTBED_SEED = 42

    def __init__(self):
        super().__init__(scale=0.01)

    def _run(self, fixture: dict, overlap: bool):
        import repro.testbed as testbed
        import repro.workflow as workflow

        tb = testbed.build_nautilus_testbed(seed=self.TESTBED_SEED, scale=self.scale)
        report = workflow.WorkflowDriver(tb).run(
            workflow.build_connect_workflow(real_ml=True),
            overlap=overlap,
        )
        return tb, report

    def iterate(self, fixture: dict):
        return self._run(fixture, overlap=True)

    def summarize(self, fixture: dict, raw, full: bool) -> Iteration:
        tb, report = raw
        artifacts = _artifacts(report)
        return Iteration(
            checksum=digest((report.to_dict(), artifacts)),
            ops=len(report.steps),
            failures=sum(not s.succeeded for s in report.steps),
            problems=_workflow_problems(tb, report, full),
            reference={"sim_makespan_s": report.total_duration_s},
            detail={"artifacts": digest(artifacts)},
            observed={"testbeds": [tb], "reports": [report]},
        )

    def verify_run(self, fixture: dict, first: Iteration) -> list[str]:
        _tb, barrier = self._run(fixture, overlap=False)
        if digest(_artifacts(barrier)) != first.detail["artifacts"]:
            return ["overlap=True artifacts differ from the overlap=False run"]
        return []


# ----------------------------------------------------------------- drill


class TenantDrill(Workload):
    """The default overload drill: closed-loop tenants on 4 GPU nodes."""

    name = "tenant_drill"

    def __init__(self, n_tenants: int = 50, workflows_per_tenant: int = 4):
        self.n_tenants = n_tenants
        self.workflows_per_tenant = workflows_per_tenant

    def setup(self, seed: int) -> dict:
        import repro.loadgen  # noqa: F401 - the import is part of set-up

        return {"seed": seed}

    def iterate(self, fixture: dict):
        import repro.loadgen as loadgen

        config = loadgen.LoadgenConfig(
            seed=fixture["seed"],
            n_tenants=self.n_tenants,
            workflows_per_tenant=self.workflows_per_tenant,
        )
        # Capture the testbed the drill builds, to read its registry.
        captured = []
        build = loadgen.build_nautilus_testbed

        def capture(*args, **kwargs):
            captured.append(build(*args, **kwargs))
            return captured[-1]

        loadgen.build_nautilus_testbed = capture
        try:
            report = loadgen.run_loadtest(config)
        finally:
            loadgen.build_nautilus_testbed = build
        return captured[0], report

    def summarize(self, fixture: dict, raw, full: bool) -> Iteration:
        tb, report = raw
        expected = report.config.expected_workflows()
        problems = []
        if report.lost or report.hung:
            problems.append(f"lost={report.lost} hung={report.hung}")
        if len(report.outcomes) != expected:
            problems.append(f"{len(report.outcomes)} outcomes for {expected} workflows")
        latencies = [
            o.finished_at - o.submitted_at if o.outcome == "completed" else math.inf
            for o in report.outcomes
        ] + [math.inf] * report.lost
        binds: dict[str, list[float]] = {}
        for series in tb.registry.all_series("scheduler_bind_latency_seconds"):
            binds.setdefault(dict(series.labels).get("class", ""), []).extend(series.values)
        counts = report.counts
        return Iteration(
            checksum=report.checksum(),
            ops=expected,
            failures=report.lost,
            problems=problems,
            reference={
                "failed_frac": (expected - counts["completed"]) / expected,
                "wf_latency_p50_s": nearest_rank(latencies, 0.50),
                "wf_latency_p95_s": nearest_rank(latencies, 0.95),
                "bind_p99_batch_s": nearest_rank(binds.get("batch", [0.0]), 0.99),
                "bind_p90_high_s": nearest_rank(binds.get("high", [0.0]), 0.90),
                "sim_makespan_s": report.makespan_s,
            },
            observed={"testbeds": [tb], "drill": report},
        )


# ------------------------------------------------------------------- ffn


def blob_volume(
    shape: tuple[int, int, int],
    centers: _t.Sequence[tuple[int, int, int]],
    radius: float,
    noise_seed: int,
    noise: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Bright spherical blobs on Gaussian noise, plus the binary truth."""
    rng = np.random.default_rng(noise_seed)
    zz, yy, xx = np.meshgrid(*map(np.arange, shape), indexing="ij")
    volume = rng.normal(0.0, noise, size=shape)
    truth = np.zeros(shape, dtype=np.uint8)
    for cz, cy, cx in centers:
        d2 = (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2
        volume += 2.0 * np.exp(-d2 / (2 * radius**2))
        truth |= (d2 <= radius**2).astype(np.uint8)
    return volume.astype(np.float32), truth


def _centers(rng, shape, count: int, margin: int) -> list[tuple[int, int, int]]:
    return [
        tuple(int(rng.integers(margin, side - margin)) for side in shape)
        for _ in range(count)
    ]


@dataclasses.dataclass
class FFNFixture:
    config: object
    model: object
    pool: object
    train: tuple[np.ndarray, np.ndarray]
    large: tuple[np.ndarray, np.ndarray]
    small: np.ndarray


class FFN(Workload):
    """The FFN kernels without the simulator: train, data-parallel
    train, segment (fat and thin frontiers) and the pool fan-out."""

    name = "ffn"
    PHASES = ("train", "dp_train", "segment", "fanout")
    SHAPE = (32, 96, 96)  # both segmentation volumes
    TRAIN_SHAPE = (24, 48, 48)
    TRAIN_STEPS, TRAIN_BATCH = 300, 4
    DP_WORKERS, DP_STEPS = 4, 100
    N_LARGE, N_SMALL = 24, 120
    SHARDS = 4

    def setup(self, seed: int) -> FFNFixture:
        from repro.ml import FFNConfig, FFNModel, FFNTrainer, SharedMemoryPool
        import repro.workflow.extensions  # noqa: F401 - part of set-up

        # The model is pinned: unpinned training is bimodal across seeds,
        # so only the volumes vary with the seed.
        config = FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=1)
        model = FFNModel(config)
        pin_volume, pin_truth = blob_volume((12, 16, 16), [(6, 8, 8)], 3.0, 0)
        FFNTrainer(model, seed=0).train(pin_volume, pin_truth, steps=100)
        rng = np.random.default_rng(seed)
        train = blob_volume(
            self.TRAIN_SHAPE, _centers(rng, self.TRAIN_SHAPE, 8, 5), 4.0, seed
        )
        large = blob_volume(
            self.SHAPE, _centers(rng, self.SHAPE, self.N_LARGE, 6), 5.0, seed + 1
        )
        small, _ = blob_volume(
            self.SHAPE, _centers(rng, self.SHAPE, self.N_SMALL, 3), 1.6, seed + 2
        )
        pool = SharedMemoryPool(model, n_workers=min(2, os.cpu_count() or 1))
        return FFNFixture(config, model, pool, train, large, small)

    def iterate(self, fx: FFNFixture):
        retried_before = len(fx.pool.retried)
        outputs, seconds, errors = {}, {}, []
        for phase in self.PHASES:
            start = time.perf_counter()
            try:
                outputs[phase] = getattr(self, f"_{phase}")(fx)
            except Exception as exc:  # noqa: BLE001 - counted as a failed call
                outputs[phase] = None
                errors.append(f"{phase}: {exc!r}")
            seconds[phase] = time.perf_counter() - start
        return outputs, seconds, errors, retried_before

    def _train(self, fx: FFNFixture):
        from repro.ml import FFNModel, FFNTrainer

        model = FFNModel(fx.config)
        trainer = FFNTrainer(model, seed=0, batch_size=self.TRAIN_BATCH)
        report = trainer.train(*fx.train, steps=self.TRAIN_STEPS)
        return model.state_dict(), report.losses

    def _dp_train(self, fx: FFNFixture):
        import repro.workflow.extensions as extensions

        model, loss = extensions.data_parallel_train(
            fx.config, *fx.train, n_workers=self.DP_WORKERS, steps=self.DP_STEPS
        )
        return model.state_dict(), loss

    def _segment(self, fx: FFNFixture):
        import repro.ml.inference as inference

        return (
            inference.segment_volume(fx.model, fx.large[0], seed_batch=1),
            inference.segment_volume(fx.model, fx.small, seed_batch=4),
        )

    def _fanout(self, fx: FFNFixture):
        import repro.ml.distributed_inference as dist

        return dist.distributed_segment(
            fx.model, fx.large[0], n_workers=self.SHARDS, pool=fx.pool
        )[0]

    def summarize(self, fx: FFNFixture, raw, full: bool) -> Iteration:
        from repro.ml import voxel_metrics

        outputs, seconds, errors, retried_before = raw
        segment = outputs["segment"]
        f1 = voxel_metrics(segment[0], fx.large[1]).f1 if segment else 0.0
        return Iteration(
            checksum=digest(outputs),
            ops=len(self.PHASES),
            failures=len(errors),
            problems=errors,
            reference={"seg_f1": f1},
            phases=seconds,
            detail={"large_labels": segment[0] if segment else None,
                    "fanout_labels": outputs["fanout"]},
            observed={"pool": fx.pool, "pool_retried_before": retried_before},
        )

    def throughputs(self, phase_s: _t.Mapping[str, float]) -> dict[str, float]:
        voxels = math.prod(self.SHAPE)
        work = {
            "train_patches_per_s": ("train", self.TRAIN_STEPS * self.TRAIN_BATCH),
            "dp_train_patches_per_s": ("dp_train", self.DP_STEPS * self.DP_WORKERS),
            "seg_voxels_per_s": ("segment", 2 * voxels),
            "fanout_voxels_per_s": ("fanout", voxels),
        }
        return {name: amount / phase_s[phase] for name, (phase, amount) in work.items()}

    def verify_run(self, fx: FFNFixture, first: Iteration) -> list[str]:
        import repro.ml.distributed_inference as dist
        import repro.ml.inference as inference

        large = fx.large[0]
        problems = []
        serial = inference.segment_volume(fx.model, large, seed_batch=1, engine="serial")
        if not np.array_equal(serial, first.detail["large_labels"]):
            problems.append("batched labels differ from engine='serial'")
        in_process, _ = dist.distributed_segment(
            fx.model, large, n_workers=self.SHARDS, max_workers=1
        )
        if not np.array_equal(in_process, first.detail["fanout_labels"]):
            problems.append("pool labels differ from max_workers=1")
        return problems

    def close(self, fx: FFNFixture) -> None:
        fx.pool.close()


WORKLOADS: dict[str, _t.Callable[[], Workload]] = {
    "connect_paper": ConnectPaper,
    "tenant_drill": TenantDrill,
    "ffn": FFN,
    "connect_pipelined": ConnectPipelined,
}
