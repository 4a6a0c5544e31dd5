"""Closed-loop multi-tenant load generator for overload drills.

ROADMAP item 1 asks whether the control plane survives *fleet-scale*
load, not whether it schedules one workflow.  This module answers it
executably: ``run_loadtest`` builds a deliberately small Nautilus
testbed, registers tens of simulated tenants with the admission
gateway, and has every tenant submit CONNECT-derived workflows
(download → train → inference fan-out → optional viz) closed-loop on
the sim clock (a tenant submits its next workflow only after the
previous one ends, plus an exponential think time) while a :class:`~repro.chaos.ChaosMonkey` degrades links and
kills nodes underneath.

The invariant under test: **no workflow is ever lost**.  Every one of
``n_tenants × workflows_per_tenant`` submissions must end in a
structured outcome — ``completed``, ``shed`` (the cluster chose to drop
it: scheduling timeout, open breaker), ``rejected`` (lint/quota/
backpressure, retries exhausted), or ``failed`` (pod killed by faults,
retries exhausted) — and high-priority tenants must keep bounded
scheduling latency while low-priority traffic absorbs the shedding.

Everything is measured through the metric registry: admission→bind
latency percentiles per priority class, scheduler throughput, queue
depths, preemption and shed counters.  ``python -m repro loadtest``
drives this module; ``tests/test_loadgen.py`` pins the checksum of the
outcome summary per seed to hold the drill deterministic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing as _t

import numpy as np

from repro.chaos import ChaosMonkey
from repro.cluster.objects import ResourceRequirements
from repro.cluster.pod import ContainerSpec, Pod, PodPhase, PodSpec
from repro.gateway import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionGateway,
    GatewayConfig,
    TenantPolicy,
)
from repro.sim.rng import derive_seed
from repro.testbed import build_nautilus_testbed
from repro.workflow.degradation import DegradationPolicy

__all__ = [
    "LoadgenConfig",
    "WorkflowOutcome",
    "LoadTestReport",
    "run_loadtest",
    "loadtest_deployment_view",
]


@dataclasses.dataclass
class LoadgenConfig:
    """Knobs for one overload drill (defaults = the acceptance scenario)."""

    n_tenants: int = 50
    workflows_per_tenant: int = 4
    seed: int = 42
    #: GPU nodes in the testbed — small on purpose, so the drill is a
    #: genuine overload, not a capacity test.
    n_fiona8: int = 4
    #: fraction of tenants granted the ``high`` priority class (the
    #: rest run ``batch``); deterministic: the first ceil(f*n) tenants.
    high_priority_fraction: float = 0.2
    #: mean seconds between one tenant's workflow submissions
    mean_interarrival_s: float = 30.0
    chaos: bool = True
    chaos_mean_interval_s: float = 240.0
    chaos_recovery_after_s: float = 90.0
    #: inference shards per workflow (coarsened under saturation)
    inference_fanout: int = 4
    #: drop the optional viz step / coarsen fan-out while saturated
    degradation: bool = True
    # Gateway knobs.
    pending_timeout_s: float = 900.0
    max_queue_depth: int = 16
    tenant_rate: float = 0.2
    tenant_burst: float = 4.0
    breaker_failure_threshold: int = 4
    breaker_cooldown_s: float = 300.0
    #: resubmission budget for backpressure / open-breaker bounces
    max_submit_retries: int = 8
    #: resubmission budget for pods killed by faults or preemption
    max_pod_retries: int = 4
    #: cluster pending-pod depth that also counts as saturation for the
    #: degradation policy (None = 8 pods per GPU node)
    saturation_pending_threshold: int | None = None
    #: sim-time ceiling: anything unfinished by now counts as hung
    horizon_s: float = 4 * 3600.0

    def expected_workflows(self) -> int:
        return self.n_tenants * self.workflows_per_tenant

    def n_high_priority(self) -> int:
        return math.ceil(self.high_priority_fraction * self.n_tenants)


@dataclasses.dataclass
class WorkflowOutcome:
    """The structured fate of one submitted workflow."""

    tenant: str
    workflow: str
    priority_class: str
    outcome: str  # completed | shed | rejected | failed
    reason: str = ""
    submitted_at: float = 0.0
    finished_at: float = 0.0
    #: viz step dropped / fan-out coarsened for this workflow
    degraded: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class LoadTestReport:
    """Everything an overload drill measured."""

    config: LoadgenConfig
    outcomes: list[WorkflowOutcome]
    hung: int
    makespan_s: float
    #: admission→bind pods/sec over the whole drill
    scheduler_throughput: float
    #: per-priority-class scheduling latency percentiles, e.g.
    #: ``{"high": {"p50": ..., "p99": ...}, "batch": {...}}``
    latency_by_class: dict[str, dict[str, float]]
    #: peak of the gateway queue depth (``gateway_queue_depth``) and
    #: of the scheduler's pending set (``scheduler_pending_pods``)
    peak_queue_depth: float
    preemptions: float
    chaos_failures: int
    degradation_summary: dict

    @property
    def counts(self) -> dict[str, int]:
        out = {"completed": 0, "shed": 0, "rejected": 0, "failed": 0}
        for o in self.outcomes:
            out[o.outcome] = out.get(o.outcome, 0) + 1
        return out

    @property
    def lost(self) -> int:
        """Workflows that never reached a structured outcome — the number
        the drill's core invariant requires to be zero.  (``hung`` is the
        diagnostic companion: tenant processes still alive at the
        horizon, i.e. lost workflows that were mid-flight rather than
        never started.)"""
        return max(0, self.config.expected_workflows() - len(self.outcomes))

    def outcome_summary(self) -> list[tuple]:
        """Canonical, order-independent projection of every outcome —
        the determinism fingerprint ``tests/test_loadgen.py`` pins."""
        return sorted(
            (o.tenant, o.workflow, o.priority_class, o.outcome, o.reason)
            for o in self.outcomes
        )

    def checksum(self) -> str:
        payload = json.dumps(self.outcome_summary(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "counts": self.counts,
            "lost": self.lost,
            "hung": self.hung,
            "makespan_s": self.makespan_s,
            "scheduler_throughput_pods_per_s": self.scheduler_throughput,
            "latency_by_class": self.latency_by_class,
            "peak_queue_depth": self.peak_queue_depth,
            "preemptions": self.preemptions,
            "chaos_failures": self.chaos_failures,
            "degradation": self.degradation_summary,
            "checksum": self.checksum(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


def _sleeper(duration_s: float):
    """A container entrypoint that works for ``duration_s`` sim-seconds."""

    def main(ctx):
        remaining = float(duration_s)
        # Heartbeat in slices so liveness probes (if any) stay green.
        while remaining > 0:
            slice_s = min(remaining, 30.0)
            yield ctx.env.timeout(slice_s)
            ctx.heartbeat()
            remaining -= slice_s
        return "done"

    return main


def _pod_spec(
    kind: str, duration_s: float, cpu: float, memory: float, gpu: float
) -> PodSpec:
    return PodSpec(
        containers=[
            ContainerSpec(
                name=kind,
                image=f"chase-ci/loadgen-{kind}:1",
                main=_sleeper(duration_s),
                resources=ResourceRequirements(cpu=cpu, memory=memory, gpu=gpu),
            )
        ]
    )


class _PodWaiter:
    """One env-event per watched pod, fired on its terminal phase.

    Cheaper and sharper than polling: the workflow process resumes at
    the exact sim time the pod finishes.
    """

    def __init__(self, cluster):
        self.env = cluster.env
        self._waiting: dict[str, object] = {}
        cluster.phase_hooks.append(self._on_phase)

    def _on_phase(self, pod: Pod, _old: PodPhase, new: PodPhase) -> None:
        if new.is_terminal():
            event = self._waiting.pop(pod.meta.uid, None)
            if event is not None:
                event.succeed(pod)  # type: ignore[attr-defined]

    def wait(self, pod: Pod):
        """An event that fires when ``pod`` terminates (immediately if
        it already has)."""
        event = self.env.event()
        if pod.is_terminal:
            event.succeed(pod)
        else:
            self._waiting[pod.meta.uid] = event
        return event


class _TenantRunner:
    """Drives one tenant's closed-loop workflow stream."""

    #: CONNECT-derived stages: (kind, cpu, memory, gpu, mean seconds).
    #: Durations are drawn lognormally around the mean per workflow.
    STAGES = {
        "download": (2.0, 4 * 2**30, 0.0, 60.0),
        "train": (4.0, 8 * 2**30, 1.0, 150.0),
        "infer": (2.0, 4 * 2**30, 1.0, 45.0),
        "viz": (1.0, 2 * 2**30, 0.0, 30.0),
    }

    def __init__(
        self,
        name: str,
        gateway: AdmissionGateway,
        waiter: _PodWaiter,
        config: LoadgenConfig,
        priority_class: str,
        degradation: DegradationPolicy | None,
        outcomes: list[WorkflowOutcome],
        rng: np.random.Generator,
    ):
        self.name = name
        self.gw = gateway
        self.waiter = waiter
        self.cfg = config
        self.priority_class = priority_class
        self.degradation = degradation
        self.outcomes = outcomes
        self.rng = rng
        self.env = gateway.env

    # -- submission helpers ---------------------------------------------------

    def _duration(self, mean_s: float) -> float:
        """Lognormal around the stage mean (sigma 0.35, clipped 5s..10x)."""
        draw = float(self.rng.lognormal(math.log(mean_s), 0.35))
        return min(max(draw, 5.0), mean_s * 10.0)

    def _submit(self, pod_name: str, spec: PodSpec):
        """Submit with bounded retries on backpressure / open breaker.

        Returns the final :class:`AdmissionDecision`; outcome
        ``admitted`` means ``decision.pod`` is live.
        """
        decision = None
        for attempt in range(self.cfg.max_submit_retries + 1):
            decision = yield from self.gw.admit(
                f"{pod_name}-a{attempt}", spec, self.name
            )
            if decision.outcome == ADMITTED:
                return decision
            retryable = (
                decision.outcome == REJECTED
                and decision.reason == "Backpressure"
            ) or (
                decision.outcome == SHED and decision.reason == "CircuitOpen"
            )
            if not retryable or attempt >= self.cfg.max_submit_retries:
                return decision
            backoff = max(decision.retry_after_s, 1.0)
            backoff *= 1.0 + 0.25 * float(self.rng.random())  # decorrelate
            yield self.env.timeout(backoff)
        return decision

    def _run_stage(self, wf: str, stage: str, fanout: int = 1):
        """Run one stage (possibly fanned out); returns (ok, reason).

        Pods killed by faults or preemption are resubmitted up to
        ``max_pod_retries``; a gateway shed is final for the workflow.
        """
        cpu, memory, gpu, mean_s = self.STAGES[stage]
        shards = list(range(fanout))
        for retry in range(self.cfg.max_pod_retries + 1):
            pods: list[tuple[int, Pod]] = []
            for shard in shards:
                spec = _pod_spec(
                    stage, self._duration(mean_s), cpu, memory, gpu
                )
                name = f"{wf}-{stage}-s{shard}-r{retry}"
                decision = yield from self._submit(name, spec)
                if decision.outcome != ADMITTED:
                    return False, f"{decision.outcome}:{decision.reason}"
                pods.append((shard, decision.pod))
            if pods:
                yield self.env.all_of(
                    [self.waiter.wait(pod) for _shard, pod in pods]
                )
            failed = [
                (shard, pod)
                for shard, pod in pods
                if pod.phase is not PodPhase.SUCCEEDED
            ]
            if not failed:
                return True, ""
            for _shard, pod in failed:
                shed = self.gw.shed_reasons.get(pod.meta.uid)
                if shed is not None:
                    return False, f"shed:{shed}"
            if retry >= self.cfg.max_pod_retries:
                # Repeated preemption is the cluster explicitly choosing
                # higher-priority work over this pod — report it as shed,
                # not as an unexplained failure.
                if any(
                    pod.termination_reason == "Preempted"
                    for _shard, pod in failed
                ):
                    return False, "shed:Preempted"
                return False, "failed:PodFailed"
            # Chaos/preemption casualties: back off briefly and resubmit
            # only the failed shards.
            shards = [shard for shard, _pod in failed]
            yield self.env.timeout(5.0 + 10.0 * float(self.rng.random()))
        return False, "failed:PodFailed"

    # -- the tenant process ---------------------------------------------------

    def run(self):
        for index in range(self.cfg.workflows_per_tenant):
            yield self.env.timeout(
                float(self.rng.exponential(self.cfg.mean_interarrival_s))
            )
            yield from self._run_workflow(f"{self.name}-wf{index}")

    def _run_workflow(self, wf: str):
        started = self.env.now
        degraded = False
        outcome = WorkflowOutcome(
            tenant=self.name,
            workflow=wf,
            priority_class=self.priority_class,
            outcome="completed",
            submitted_at=started,
        )
        for stage in ("download", "train", "infer", "viz"):
            if stage == "viz" and self.degradation is not None:
                if self.degradation.saturated():
                    self.degradation.note_skip(f"{wf}-viz")
                    degraded = True
                    continue  # optional step dropped under saturation
            fanout = 1
            if stage == "infer":
                fanout = self.cfg.inference_fanout
                if self.degradation is not None:
                    granted = self.degradation.effective_fanout(
                        fanout, f"{wf}-infer"
                    )
                    degraded = degraded or granted < fanout
                    fanout = granted
            ok, reason = yield from self._run_stage(wf, stage, fanout)
            if not ok:
                kind, _, detail = reason.partition(":")
                outcome.outcome = kind if kind in ("shed", "rejected", "failed") else "failed"
                outcome.reason = detail or reason
                break
        outcome.finished_at = self.env.now
        outcome.degraded = degraded
        self.outcomes.append(outcome)


def loadtest_deployment_view(config: "LoadgenConfig | None" = None):
    """The overload drill's config as a lint :class:`DeploymentView`.

    This is the cross-layer join ``repro lint`` (no paths) inspects with the
    ``deploy`` pack: the gateway's tenant policies, the client retry
    budgets of :class:`_TenantRunner` (which *honors*
    ``decision.retry_after_s`` — the property DEPLOY001 checks), and the
    CONNECT-derived workflow shape with its inference fan-out.  CI
    asserts the default config passes the pack clean, so config drift
    that opens a retry-storm loop fails the build before any drill runs.
    """
    from repro.analysis.model import (
        ClientRetryView,
        DeploymentView,
        GatewayView,
        StepView,
        TenantView,
        WorkflowView,
    )

    cfg = config or LoadgenConfig()
    n_high = cfg.n_high_priority()
    tenants = []
    if n_high:
        tenants.append(
            TenantView(
                name="high-tenants",
                rate=cfg.tenant_rate,
                burst=cfg.tenant_burst,
                weight=4.0,
                priority_class="high",
                count=n_high,
            )
        )
    if cfg.n_tenants - n_high:
        tenants.append(
            TenantView(
                name="batch-tenants",
                rate=cfg.tenant_rate,
                burst=cfg.tenant_burst,
                weight=1.0,
                priority_class="batch",
                count=cfg.n_tenants - n_high,
            )
        )
    # The drill's workflow DAG: download -> train -> infer×fanout -> viz.
    steps = [
        StepView(name="download", network_bound=True, max_retries=cfg.max_pod_retries,
                 timeout_s=cfg.pending_timeout_s),
        StepView(name="train", depends_on=("download",), gpus=1,
                 max_retries=cfg.max_pod_retries,
                 timeout_s=cfg.pending_timeout_s),
    ]
    infer_names = tuple(
        f"infer-s{shard}" for shard in range(cfg.inference_fanout)
    )
    for name in infer_names:
        steps.append(
            StepView(name=name, depends_on=("train",), gpus=1,
                     max_retries=cfg.max_pod_retries,
                     timeout_s=cfg.pending_timeout_s)
        )
    steps.append(
        StepView(name="viz", depends_on=infer_names,
                 max_retries=cfg.max_pod_retries,
                 timeout_s=cfg.pending_timeout_s)
    )
    return DeploymentView(
        gateway=GatewayView(
            max_queue_depth=cfg.max_queue_depth,
            pending_timeout_s=cfg.pending_timeout_s,
            breaker_failure_threshold=cfg.breaker_failure_threshold,
            breaker_cooldown_s=cfg.breaker_cooldown_s,
            tenants=tuple(tenants),
        ),
        workflows=(
            WorkflowView(name="loadgen-connect", steps=tuple(steps)),
        ),
        client=ClientRetryView(
            max_submit_retries=cfg.max_submit_retries,
            max_pod_retries=cfg.max_pod_retries,
            # _TenantRunner._submit sleeps >= decision.retry_after_s
            # (floored at 1s, jittered) before every resubmission.
            honors_retry_after=True,
            backoff_base_s=1.0,
        ),
        transfer_retry_attempts=1,
    )


def _percentiles(values: _t.Sequence[float]) -> dict[str, float]:
    if not values:
        return {"p50": 0.0, "p99": 0.0, "count": 0}
    arr = np.asarray(values, dtype=float)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "count": int(arr.size),
    }


def _latency_by_class(registry) -> dict[str, dict[str, float]]:
    out: dict[str, list[float]] = {}
    for series in registry.all_series("scheduler_bind_latency_seconds"):
        label = dict(series.labels).get("class", "")
        out.setdefault(label, []).extend(series.values)
    return {cls: _percentiles(vals) for cls, vals in sorted(out.items())}


def run_loadtest(config: LoadgenConfig | None = None) -> LoadTestReport:
    """Run one overload drill and return its report.

    Deterministic for a fixed config: all randomness derives from
    ``config.seed`` via per-tenant substreams.
    """
    cfg = config or LoadgenConfig()
    testbed = build_nautilus_testbed(
        seed=cfg.seed,
        n_fiona8=cfg.n_fiona8,
    )
    env = testbed.env
    cluster = testbed.cluster
    gateway = AdmissionGateway(
        cluster,
        GatewayConfig(
            max_queue_depth=cfg.max_queue_depth,
            pending_timeout_s=cfg.pending_timeout_s,
            breaker_failure_threshold=cfg.breaker_failure_threshold,
            breaker_cooldown_s=cfg.breaker_cooldown_s,
        ),
    )
    pending_threshold = (
        cfg.saturation_pending_threshold
        if cfg.saturation_pending_threshold is not None
        else 8 * cfg.n_fiona8
    )

    def _saturated() -> bool:
        # Saturation = the gateway's queues are filling OR the scheduler
        # itself has a deep unschedulable backlog (preemption churn).
        return (
            gateway.saturated()
            or len(cluster.pending_pods()) >= pending_threshold
        )

    degradation = DegradationPolicy(_saturated) if cfg.degradation else None
    waiter = _PodWaiter(cluster)

    outcomes: list[WorkflowOutcome] = []
    n_high = cfg.n_high_priority()
    procs = []
    for i in range(cfg.n_tenants):
        tenant = f"tenant-{i:03d}"
        high = i < n_high
        gateway.register_tenant(
            tenant,
            TenantPolicy(
                rate=cfg.tenant_rate,
                burst=cfg.tenant_burst,
                weight=4.0 if high else 1.0,
                priority_class="high" if high else "batch",
            ),
        )
        runner = _TenantRunner(
            tenant,
            gateway,
            waiter,
            cfg,
            priority_class="high" if high else "batch",
            degradation=degradation,
            outcomes=outcomes,
            rng=np.random.default_rng(derive_seed(cfg.seed, f"loadgen:{tenant}")),
        )
        procs.append(env.process(runner.run(), name=f"loadgen:{tenant}"))

    monkey = None
    if cfg.chaos:
        monkey = ChaosMonkey(
            testbed,
            mean_interval=cfg.chaos_mean_interval_s,
            recovery_after=cfg.chaos_recovery_after_s,
            include_links=True,
            seed=cfg.seed,
        )

    start = env.now
    env.run(until=env.any_of([env.all_of(procs), env.timeout(cfg.horizon_s)]))
    if monkey is not None:
        monkey.stop()
    hung = sum(1 for p in procs if p.is_alive)
    makespan = env.now - start

    registry = testbed.registry
    binds = registry.counter_sum("scheduler_binds_total")
    # The gateway hands admitted pods straight to the cluster, so its own
    # queue is usually empty; pods wait in the scheduler's pending set.
    depth_peak = 0.0
    for name in ("gateway_queue_depth", "scheduler_pending_pods"):
        for series in registry.all_series(name):
            if series.values:
                depth_peak = max(depth_peak, max(series.values))

    return LoadTestReport(
        config=cfg,
        outcomes=outcomes,
        hung=hung,
        makespan_s=makespan,
        scheduler_throughput=binds / makespan if makespan > 0 else 0.0,
        latency_by_class=_latency_by_class(registry),
        peak_queue_depth=depth_peak,
        preemptions=registry.counter_sum("scheduler_preemptions_total"),
        chaos_failures=(monkey.failures_injected if monkey is not None else 0),
        degradation_summary=(
            degradation.summary() if degradation is not None else {}
        ),
    )
