"""The overload drill's core invariants on a scaled-down fleet.

The full acceptance drill (50 tenants × 4 workflows) is pinned per seed
below (outcome checksum, makespan, latency percentiles); the CI
``loadtest-smoke`` job runs a 12-tenant copy under a second hash seed.
The remaining tests check the invariants on a smaller copy fast enough
for tier-1.
"""

import pytest

import repro.loadgen as loadgen
from repro.loadgen import LoadgenConfig, run_loadtest
from tests.helpers import assert_prometheus_names, registry_digest


@pytest.fixture(scope="module")
def smoke_report():
    cfg = LoadgenConfig(
        n_tenants=6,
        workflows_per_tenant=2,
        seed=17,
        n_fiona8=2,
        mean_interarrival_s=20.0,
    )
    return run_loadtest(cfg)


def test_no_workflow_lost_or_hung(smoke_report):
    """Every workflow completes or is explicitly shed/rejected with a
    structured reason — none silently disappear."""
    report = smoke_report
    assert report.lost == 0
    assert report.hung == 0
    assert len(report.outcomes) == report.config.expected_workflows()
    for outcome in report.outcomes:
        assert outcome.outcome in ("completed", "shed", "rejected", "failed")
        if outcome.outcome != "completed":
            assert outcome.reason, f"{outcome} has no structured reason"
    assert report.counts["completed"] > 0
    assert report.counts["failed"] == 0


def test_chaos_injected_and_survived(smoke_report):
    assert smoke_report.chaos_failures > 0


def test_metrics_summarized(smoke_report):
    report = smoke_report
    assert report.scheduler_throughput > 0
    assert report.makespan_s > 0
    assert "high" in report.latency_by_class
    assert "batch" in report.latency_by_class
    for pcts in report.latency_by_class.values():
        assert pcts["p50"] <= pcts["p99"]


def test_drill_is_deterministic(smoke_report):
    cfg = LoadgenConfig(
        n_tenants=6,
        workflows_per_tenant=2,
        seed=17,
        n_fiona8=2,
        mean_interarrival_s=20.0,
    )
    rerun = run_loadtest(cfg)
    assert rerun.checksum() == smoke_report.checksum()
    assert rerun.outcome_summary() == smoke_report.outcome_summary()


def test_different_seed_changes_the_drill(smoke_report):
    cfg = LoadgenConfig(
        n_tenants=6,
        workflows_per_tenant=2,
        seed=18,
        n_fiona8=2,
        mean_interarrival_s=20.0,
    )
    other = run_loadtest(cfg)
    assert other.lost == 0 and other.hung == 0
    # The checksum hashes the outcome multiset, so two healthy seeds can
    # legitimately collide (everything completed); the seed must still
    # move the underlying timeline.
    timeline = sorted(o.submitted_at for o in other.outcomes)
    baseline = sorted(o.submitted_at for o in smoke_report.outcomes)
    assert timeline != baseline


def test_report_serializes(smoke_report):
    import json

    data = smoke_report.to_dict()
    json.dumps(data)  # JSON-safe
    assert data["counts"]["completed"] == smoke_report.counts["completed"]
    assert data["lost"] == 0


#: The default 50-tenant drill's outputs per seed, pinned so a change to
#: the control plane that moves bind order (and with it the latency
#: percentiles and the makespan) fails here even when every workflow
#: outcome, and so ``checksum()``, stays the same.
PINNED_DEFAULT_DRILL = {
    7: {
        "checksum": "6dfdb3f635fef0f1a6795f9e3e95aa29"
        "50ca77b967773d6163b0c06717a7ee7c",
        "makespan_s": 2582.3748677405842,
        "latency_by_class": {
            "batch": {
                "p50": 14.405393077292274,
                "p99": 438.2868452439846,
                "count": 1031,
            },
            "high": {"p50": 0.0, "p99": 0.0, "count": 196},
        },
    },
    42: {
        "checksum": "020017892601c841bf3cda0cd514f1f2"
        "bd550c40545063f8d54de41d5ac6d816",
        "makespan_s": 2612.508582223288,
        "latency_by_class": {
            "batch": {
                "p50": 21.879708558635002,
                "p99": 591.2937563998933,
                "count": 1061,
            },
            "high": {"p50": 0.0, "p99": 0.0, "count": 194},
        },
    },
}

#: :func:`registry_digest` of the default drill's testbed per seed: every
#: metric series, so a control-plane change that keeps the outcomes but
#: moves any sample (a bind latency, a pending-pod gauge) fails here.
PINNED_DEFAULT_REGISTRY = {7: "443a433e0128875e", 42: "2aa54b3b3cb02f8f"}


@pytest.fixture(scope="module", params=sorted(PINNED_DEFAULT_DRILL))
def default_drill(request):
    """The default drill's report and the testbed it ran on."""
    built = []
    build = loadgen.build_nautilus_testbed

    def capture(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loadgen, "build_nautilus_testbed", capture)
        report = run_loadtest(LoadgenConfig(seed=request.param))
    assert len(built) == 1
    return report, built[0]


@pytest.fixture(scope="module")
def default_report(default_drill):
    return default_drill[0]


def test_default_drill_matches_pinned_outputs(default_report):
    pinned = PINNED_DEFAULT_DRILL[default_report.config.seed]
    assert default_report.checksum() == pinned["checksum"]
    assert default_report.makespan_s == pinned["makespan_s"]
    assert default_report.latency_by_class == pinned["latency_by_class"]


def test_default_drill_matches_pinned_registry(default_drill):
    report, testbed = default_drill
    assert registry_digest(testbed.registry) == (
        PINNED_DEFAULT_REGISTRY[report.config.seed]
    )
    assert_prometheus_names(testbed.registry)


def test_default_drill_reports_scheduler_queue_depth(default_report):
    """The gateway hands pods straight to the cluster, so the peak depth
    must include the scheduler's pending set to be nonzero."""
    assert default_report.peak_queue_depth > 0
