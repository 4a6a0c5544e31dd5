"""Spec pack (SPEC001–SPEC008) over views and live clusters."""

from __future__ import annotations

from repro.analysis import (
    Baseline,
    ClusterSpecView,
    JobView,
    LintEngine,
    NamespaceView,
    NodeView,
    PodView,
    ServiceView,
    Severity,
    cluster_view,
    node_views,
    registry,
)
from repro.analysis.cluster_rules import run_spec_rules
from repro.cluster import Cluster
from repro.cluster.node import fiona8_node_spec, fiona_node_spec
from repro.sim import Environment

FIONA8 = NodeView(name="fiona8", cpu=24, memory=96 * 2**30, gpu=8)
DTN = NodeView(name="dtn", cpu=24, memory=96 * 2**30, gpu=0)


def codes_of(findings):
    return {f.code for f in findings}


def _pod(name="p", cpu=1.0, memory=2**30, gpu=0, **kwargs) -> PodView:
    return PodView(name=name, cpu=cpu, memory=memory, gpu=gpu, **kwargs)


# ---------------------------------------------------------------- SPEC001


def test_spec001_gpu_request_over_largest_node():
    view = ClusterSpecView(nodes=(FIONA8, DTN), pods=(_pod(gpu=16),))
    findings = run_spec_rules(view)
    assert codes_of(findings) == {"SPEC001"}
    (finding,) = findings
    assert finding.severity is Severity.ERROR
    assert "16 GPUs" in finding.message
    assert "largest node has 8" in finding.message


def test_spec001_cpu_and_memory_dimensions():
    view = ClusterSpecView(nodes=(FIONA8,), pods=(_pod(cpu=48.0),))
    assert codes_of(run_spec_rules(view)) == {"SPEC001"}
    view = ClusterSpecView(nodes=(FIONA8,), pods=(_pod(memory=200 * 2**30),))
    assert codes_of(run_spec_rules(view)) == {"SPEC001"}


def test_spec001_fitting_pod_is_clean():
    view = ClusterSpecView(nodes=(FIONA8,), pods=(_pod(gpu=8, cpu=24.0),))
    assert codes_of(run_spec_rules(view)) == set()


def test_spec001_job_template_counts_once():
    template = _pod(name="worker", gpu=9, kind="Job")
    job = JobView(name="j", parallelism=5, template=template)
    view = ClusterSpecView(nodes=(FIONA8,), jobs=(job,))
    findings = [f for f in run_spec_rules(view) if f.code == "SPEC001"]
    assert len(findings) == 1  # not one per parallel slot


# ---------------------------------------------------------------- SPEC002


def test_spec002_missing_requests():
    view = ClusterSpecView(
        nodes=(FIONA8,), pods=(_pod(cpu=0.0, memory=0.0, has_requests=False),)
    )
    findings = run_spec_rules(view)
    assert "SPEC002" in codes_of(findings)
    (f,) = [f for f in findings if f.code == "SPEC002"]
    assert f.severity is Severity.WARNING


# ---------------------------------------------------------------- SPEC003


def test_spec003_long_running_without_liveness():
    view = ClusterSpecView(
        nodes=(FIONA8,), pods=(_pod(long_running=True, has_liveness=False),)
    )
    assert "SPEC003" in codes_of(run_spec_rules(view))
    view = ClusterSpecView(
        nodes=(FIONA8,), pods=(_pod(long_running=True, has_liveness=True),)
    )
    assert "SPEC003" not in codes_of(run_spec_rules(view))


# ---------------------------------------------------------------- SPEC004


def test_spec004_zero_backoff_job():
    job = JobView(name="fragile", backoff_limit=0, template=_pod(kind="Job"))
    view = ClusterSpecView(nodes=(FIONA8,), jobs=(job,))
    assert "SPEC004" in codes_of(run_spec_rules(view))


# ---------------------------------------------------------------- SPEC005


def test_spec005_quota_oversubscription():
    ns = NamespaceView(name="small", quota_gpu=4)
    pods = tuple(
        _pod(name=f"p{i}", gpu=2, namespace="small") for i in range(3)
    )
    view = ClusterSpecView(nodes=(FIONA8,), namespaces=(ns,), pods=pods)
    findings = [f for f in run_spec_rules(view) if f.code == "SPEC005"]
    assert len(findings) == 1
    assert "gpu 6 > 4" in findings[0].message


def test_spec005_within_quota_is_clean():
    ns = NamespaceView(name="small", quota_gpu=8)
    pods = (_pod(gpu=2, namespace="small"),)
    view = ClusterSpecView(nodes=(FIONA8,), namespaces=(ns,), pods=pods)
    assert "SPEC005" not in codes_of(run_spec_rules(view))


# ---------------------------------------------------------------- SPEC006


def test_spec006_quota_exceeds_cluster():
    ns = NamespaceView(name="greedy", quota_gpu=100)
    view = ClusterSpecView(nodes=(FIONA8,), namespaces=(ns,))
    assert "SPEC006" in codes_of(run_spec_rules(view))


# ---------------------------------------------------------------- SPEC007


def test_spec007_service_selects_nothing():
    svc = ServiceView(name="lonely", selector={"app": "ghost"})
    view = ClusterSpecView(nodes=(FIONA8,), services=(svc,))
    findings = [f for f in run_spec_rules(view) if f.code == "SPEC007"]
    assert len(findings) == 1
    assert "app=ghost" in findings[0].message


def test_spec007_matched_selector_is_clean():
    svc = ServiceView(name="redis", selector={"app": "redis"})
    pod = _pod(labels={"app": "redis"})
    view = ClusterSpecView(nodes=(FIONA8,), services=(svc,), pods=(pod,))
    assert "SPEC007" not in codes_of(run_spec_rules(view))


# ---------------------------------------------------------------- SPEC008


def test_spec008_silent_when_nothing_declares_priority():
    view = ClusterSpecView(nodes=(FIONA8,), pods=(_pod("a"), _pod("b")))
    assert "SPEC008" not in codes_of(run_spec_rules(view))


def test_spec008_flags_unclassed_pods_once_priorities_exist():
    view = ClusterSpecView(
        nodes=(FIONA8,),
        pods=(
            _pod("classed", priority_class="high", has_priority=True),
            _pod("legacy"),
        ),
    )
    findings = [f for f in run_spec_rules(view) if f.code == "SPEC008"]
    assert len(findings) == 1
    assert findings[0].severity is Severity.WARNING
    assert "legacy" in findings[0].message


def test_spec008_numeric_priority_counts_as_classed():
    view = ClusterSpecView(
        nodes=(FIONA8,),
        pods=(_pod("numeric", has_priority=True), _pod("legacy")),
    )
    findings = [f for f in run_spec_rules(view) if f.code == "SPEC008"]
    assert [f.location.name for f in findings] == ["legacy"]


def test_spec008_fixture_and_baseline_grandfather():
    """A mixed-priority deployment trips SPEC008 under strict; a
    baseline entry grandfathers the legacy pod."""
    view = ClusterSpecView(
        nodes=(FIONA8,),
        pods=(
            _pod("realtime-infer", cpu=4.0, priority_class="high",
                 has_priority=True),
            _pod("legacy-batch", cpu=2.0),
        ),
    )
    report = LintEngine().lint_views(cluster=view)
    assert report.exit_code(strict=True) == 1
    (finding,) = report.findings
    assert finding.code == "SPEC008"
    assert "legacy-batch" in finding.message

    baseline = Baseline()
    baseline.add(finding, justification="predates priority classes")
    report = LintEngine(baseline=baseline).lint_views(cluster=view)
    assert report.exit_code(strict=True) == 0
    assert report.findings == []
    assert [f.code for f in report.suppressed] == ["SPEC008"]


# ----------------------------------------------------------- live adapter


def test_cluster_view_adapter_and_lint_cluster():
    cluster = Cluster(Environment(), name="test")
    cluster.add_node(fiona8_node_spec("fiona8-00", site="UCSD"))
    cluster.add_node(fiona_node_spec("dtn-00", site="UCSD"))
    view = cluster_view(cluster)
    assert view.nodes == node_views(cluster)
    assert [n.name for n in view.nodes] == ["dtn-00", "fiona8-00"]
    assert max(n.gpu for n in view.nodes) == 8
    assert run_spec_rules(view) == []


def test_registry_spec_pack_complete():
    assert registry.codes(pack="spec") == [
        f"SPEC00{i}" for i in range(1, 9)
    ]
