"""The ``connect_paper`` outputs that every host-time optimisation keeps.

One barrier run of CONNECT at the paper's full archive scale, no real
ML, seed 42 -- the configuration of the ``connect_paper`` benchmark
workload.  A speed-up must leave its report, artifacts, simulated
makespan, THREDDS request count and every metric series bit-identical.
"""

import warnings

import pytest

from perf.workloads import digest
from repro.testbed import build_nautilus_testbed
from repro.viz import figure3_stats, figure5_stats
from repro.workflow import WorkflowDriver, build_connect_workflow
from tests.helpers import (
    assert_data_cells_match_their_sources,
    assert_prometheus_names,
    registry_digest,
)


@pytest.fixture(scope="module")
def paper_run():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        testbed = build_nautilus_testbed(seed=42, scale=1.0)
        report = WorkflowDriver(testbed).run(build_connect_workflow(real_ml=False))
    return report, testbed


def test_connect_paper_outputs_pinned(paper_run):
    report, testbed = paper_run
    artifacts = {step.name: step.artifacts for step in report.steps}
    assert report.succeeded, [s.error for s in report.steps]
    assert digest((report.to_dict(), artifacts)) == "9d5c80568d5bd279"
    assert report.total_duration_s == 93459.2050363148
    assert testbed.thredds.requests_served == 112273


def test_connect_paper_registry_pinned(paper_run):
    """Every registry series, plus the flow engine's and the THREDDS
    server's byte counters: a solver or resolve change that keeps the
    report but moves one sample (a link rate, a bytes gauge) fails here.
    Every series it writes follows the Prometheus naming conventions."""
    _, testbed = paper_run
    assert registry_digest(testbed.registry) == "c46af44e328713e5"
    assert_prometheus_names(testbed.registry)
    assert testbed.flowsim.completed_count == 4227
    assert testbed.flowsim.bytes_moved == 1250521863152.0027
    assert testbed.thredds.bytes_served == 246007858176.003


def test_connect_paper_data_cells_match_their_sources(paper_run):
    report, testbed = paper_run
    assert_data_cells_match_their_sources(report, testbed)
    # The download cell is the exact sum of its 2,260 stream spans.
    assert report.step("download").data_processed_bytes == 245999999999.99997


def test_connect_paper_figures_pinned(paper_run):
    """Figures 3 and 5 read the trace: the download Job's ``running``
    spans and the training step's ``data-prep``, ``training`` and
    ``save-checkpoint`` spans."""
    report, testbed = paper_run
    assert figure3_stats(testbed, report) == {
        "workers": 10.0,
        "minutes": 34.30888970186084,
        "gigabytes": 245.99999999999997,
        "files": 112249.0,
        "pods": 14.0,
        "cpus": 42.0,
    }
    assert figure5_stats(testbed, report) == {
        "total_minutes": 313.36262535248846,
        "prep_minutes": 61.20000000000001,
        "train_minutes": 251.81579201915514,
        "train_voxels": 49904640.0,
    }
