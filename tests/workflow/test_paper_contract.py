"""The ``connect_paper`` outputs that every host-time optimisation keeps.

One barrier run of CONNECT at the paper's full archive scale, no real
ML, per pinned seed: 42 is the configuration of the ``connect_paper``
benchmark workload, 23 a second seed it never runs.  A speed-up must
leave each run's report, artifacts, simulated makespan, THREDDS request
count and every metric series bit-identical.
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

PINS = {
    42: {
        "report": "9d5c80568d5bd279",
        "total_duration_s": 93459.2050363148,
        "registry": "c46af44e328713e5",
        "bytes_moved": 1250521863152.0027,
        "bytes_served": 246007858176.003,
        # The exact sum of the download step's 2,260 stream spans.
        "download_bytes": 245999999999.99997,
        "figure3": {
            "workers": 10.0,
            "minutes": 34.30888970186084,
            "gigabytes": 245.99999999999997,
            "files": 112249.0,
            "pods": 14.0,
            "cpus": 42.0,
        },
        "figure5": {
            "total_minutes": 313.36262535248846,
            "prep_minutes": 61.20000000000001,
            "train_minutes": 251.81579201915514,
            "train_voxels": 49904640.0,
        },
    },
    23: {
        "report": "bd8d1f3fc4e8e85b",
        "total_duration_s": 92648.81808961592,
        "registry": "6e0a0eac817a6b69",
        "bytes_moved": 1250521863152.0005,
        "bytes_served": 246007858176.00064,
        "download_bytes": 246000000000.0,
        "figure3": {
            "workers": 10.0,
            "minutes": 35.12124946410553,
            "gigabytes": 246.0,
            "files": 112249.0,
            "pods": 14.0,
            "cpus": 42.0,
        },
        "figure5": {
            "total_minutes": 295.8073506011214,
            "prep_minutes": 61.20000000000001,
            "train_minutes": 234.2605172677881,
            "train_voxels": 49904640.0,
        },
    },
}


@pytest.fixture(scope="module")
def paper_runs():
    """One run per pinned seed: seed -> (report, testbed)."""
    runs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in PINS:
            testbed = build_nautilus_testbed(seed=seed, scale=1.0)
            workflow = build_connect_workflow(real_ml=False)
            runs[seed] = (WorkflowDriver(testbed).run(workflow), testbed)
    return runs


def test_connect_paper_outputs_pinned(paper_runs):
    for seed, (report, testbed) in paper_runs.items():
        pins = PINS[seed]
        artifacts = {step.name: step.artifacts for step in report.steps}
        assert report.succeeded, (seed, [s.error for s in report.steps])
        assert digest((report.to_dict(), artifacts)) == pins["report"], seed
        assert report.total_duration_s == pins["total_duration_s"], seed
        assert testbed.thredds.requests_served == 112273, seed


def test_connect_paper_registry_pinned(paper_runs):
    """Every registry series, plus the flow engine's and the THREDDS
    server's byte counters: a solver or resolve change that keeps the
    report but moves one sample (a link rate, a bytes gauge) fails here.
    Every series it writes follows the Prometheus naming conventions."""
    for seed, (_, testbed) in paper_runs.items():
        pins = PINS[seed]
        assert registry_digest(testbed.registry) == pins["registry"], seed
        assert_prometheus_names(testbed.registry)
        assert testbed.flowsim.completed_count == 4227, seed
        assert testbed.flowsim.bytes_moved == pins["bytes_moved"], seed
        assert testbed.thredds.bytes_served == pins["bytes_served"], seed


def test_connect_paper_data_cells_match_their_sources(paper_runs):
    for seed, (report, testbed) in paper_runs.items():
        assert_data_cells_match_their_sources(report, testbed)
        download = report.step("download").data_processed_bytes
        assert download == PINS[seed]["download_bytes"], seed


def test_connect_paper_figures_pinned(paper_runs):
    """Figures 3 and 5 read the trace: the download Job's ``running``
    spans and the training step's ``data-prep``, ``training`` and
    ``save-checkpoint`` spans."""
    for seed, (report, testbed) in paper_runs.items():
        assert figure3_stats(testbed, report) == PINS[seed]["figure3"], seed
        assert figure5_stats(testbed, report) == PINS[seed]["figure5"], seed
