"""Deployment lint (DEPLOY001-DEPLOY005): cross-layer config joins."""

from __future__ import annotations

import dataclasses

from repro.analysis import (
    ClientRetryView,
    ClusterSpecView,
    DeploymentView,
    GatewayView,
    NamespaceView,
    NodeView,
    PodView,
    Severity,
    StepView,
    TenantView,
    WorkflowView,
)
from repro.analysis.deployment_rules import (
    RETRY_AMPLIFICATION_BOUND,
    priority_rank,
    run_deployment_rules,
)
from repro.loadgen import LoadgenConfig, loadtest_deployment_view

GI = 2**30
TWO_FIONA8 = (
    NodeView(name="fiona8-a", cpu=32, memory=192 * GI, gpu=8),
    NodeView(name="fiona8-b", cpu=32, memory=192 * GI, gpu=8),
)
BATCH_GATEWAY = GatewayView(
    max_queue_depth=16,
    pending_timeout_s=900.0,
    breaker_failure_threshold=4,
    breaker_cooldown_s=300.0,
)

# Seeded defects: DEPLOY001 (client ignores retry_after against breaker
# + rate limits), DEPLOY004 (fan-out wave exceeds burst + queue) and
# DEPLOY005 (retry budgets multiply past the storm bound).
RETRY_STORM = DeploymentView(
    gateway=GatewayView(
        max_queue_depth=2,
        pending_timeout_s=300.0,
        breaker_failure_threshold=3,
        breaker_cooldown_s=120.0,
        tenants=(
            TenantView(name="impatient", rate=0.1, burst=2.0,
                       priority_class="batch", count=10),
        ),
    ),
    workflows=(
        WorkflowView(
            name="spray",
            steps=(
                StepView("fetch", network_bound=True, timeout_s=600,
                         max_retries=2),
                *(
                    StepView(f"shard-{i}", depends_on=("fetch",),
                             timeout_s=600)
                    for i in range(6)
                ),
            ),
        ),
    ),
    client=ClientRetryView(
        max_submit_retries=12,
        max_pod_retries=9,
        honors_retry_after=False,
        backoff_base_s=0.0,
    ),
    transfer_retry_attempts=3,
)

# Seeded defect: DEPLOY002. Long-running high-class pods pin every GPU
# while batch tenants submit GPU workflows; fair-share weight cannot
# help because preemption only evicts lower priorities.
STARVATION = DeploymentView(
    cluster=ClusterSpecView(
        nodes=TWO_FIONA8,
        pods=tuple(
            PodView(name=f"resident-serving-{x}", cpu=8, memory=64 * GI,
                    gpu=8, long_running=True, has_liveness=True,
                    priority_class="high", has_priority=True)
            for x in "ab"
        ),
    ),
    gateway=dataclasses.replace(
        BATCH_GATEWAY,
        tenants=(
            TenantView(name="starved-batch", rate=0.5, burst=8.0,
                       weight=2.0, priority_class="batch", count=20),
        ),
    ),
    workflows=(
        WorkflowView(
            name="train-and-infer",
            steps=(
                StepView("train", gpus=2, timeout_s=3600, max_retries=1),
                StepView("infer", depends_on=("train",), gpus=1,
                         timeout_s=600, max_retries=1),
            ),
        ),
    ),
)

# Seeded defects: a DEPLOY003 error (one step outgrows its namespace
# quota, so it can never be admitted) and a DEPLOY003 warning (the
# concurrent shard wave outgrows the other tenant's quota and
# serializes).
QUOTA_TRAP = DeploymentView(
    cluster=ClusterSpecView(
        nodes=TWO_FIONA8,
        namespaces=(
            NamespaceView(name="small-lab", quota_cpu=16,
                          quota_memory=96 * GI, quota_gpu=2, quota_pods=20),
            NamespaceView(name="mid-lab", quota_cpu=32,
                          quota_memory=192 * GI, quota_gpu=4, quota_pods=40),
        ),
    ),
    gateway=dataclasses.replace(
        BATCH_GATEWAY,
        tenants=tuple(
            TenantView(name=f"{size}-tenant", rate=0.5, burst=8.0,
                       priority_class="batch", namespace=f"{size}-lab")
            for size in ("small", "mid")
        ),
    ),
    workflows=(
        WorkflowView(
            name="wide-train",
            steps=(
                StepView("download", network_bound=True, timeout_s=600,
                         max_retries=2),
                StepView("train-big", depends_on=("download",), gpus=4,
                         timeout_s=3600, max_retries=1),
                *(
                    StepView(f"infer-{x}", depends_on=("train-big",),
                             gpus=2, timeout_s=600, max_retries=1)
                    for x in "abc"
                ),
            ),
        ),
    ),
)


def codes_of(findings):
    return [f.code for f in findings]


# ---------------------------------------------------- seeded deployments


def test_retry_storm_fixture_fires_deploy001_004_005():
    findings = run_deployment_rules(RETRY_STORM)
    assert sorted(codes_of(findings)) == ["DEPLOY001", "DEPLOY004", "DEPLOY005"]
    by_code = {f.code: f for f in findings}
    assert by_code["DEPLOY001"].severity is Severity.ERROR
    assert "retry_after" in by_code["DEPLOY001"].message
    assert "6 pods" in by_code["DEPLOY004"].message
    # (12+1) submit x (9+1) pod x 3 transfer = 390 worst-case attempts.
    assert "390" in by_code["DEPLOY005"].message
    assert str(RETRY_AMPLIFICATION_BOUND) in by_code["DEPLOY005"].message


def test_starvation_fixture_fires_deploy002():
    findings = run_deployment_rules(STARVATION)
    assert codes_of(findings) == ["DEPLOY002"]
    (f,) = findings
    assert f.severity is Severity.ERROR
    assert "starved-batch" in f.message
    assert "16 GPUs" in f.message


def test_quota_trap_fixture_fires_deploy003_error_and_warning():
    findings = run_deployment_rules(QUOTA_TRAP)
    assert sorted(codes_of(findings)) == ["DEPLOY003", "DEPLOY003"]
    severities = {f.severity for f in findings}
    assert severities == {Severity.ERROR, Severity.WARNING}
    error = next(f for f in findings if f.severity is Severity.ERROR)
    assert "train-big" in error.message and "small-lab" in error.message
    warning = next(f for f in findings if f.severity is Severity.WARNING)
    assert "mid-lab" in warning.message


# ---------------------------------------------------- loadgen integration


def test_loadgen_default_deployment_is_clean():
    view = loadtest_deployment_view(LoadgenConfig())
    assert run_deployment_rules(view) == []


def test_loadgen_view_with_impatient_client_fires_deploy001():
    view = loadtest_deployment_view(LoadgenConfig())
    bad = dataclasses.replace(
        view, client=dataclasses.replace(view.client, honors_retry_after=False)
    )
    assert "DEPLOY001" in codes_of(run_deployment_rules(bad))


def test_loadgen_view_with_runaway_retries_fires_deploy005():
    view = loadtest_deployment_view(LoadgenConfig())
    bad = dataclasses.replace(
        view,
        client=dataclasses.replace(
            view.client, max_submit_retries=20, max_pod_retries=9
        ),
    )
    assert "DEPLOY005" in codes_of(run_deployment_rules(bad))


# ----------------------------------------------------------------- helpers


def test_priority_rank_matches_cluster_classes():
    assert priority_rank("high") > priority_rank("batch")
    assert priority_rank("system") > priority_rank("high")
    assert priority_rank("no-such-class") == 0


def test_deployment_rules_are_deterministic():
    first = [(f.code, f.message) for f in run_deployment_rules(RETRY_STORM)]
    second = [(f.code, f.message) for f in run_deployment_rules(RETRY_STORM)]
    assert first == second
