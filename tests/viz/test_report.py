"""Tests for the figure/table renderers."""

import pytest

from repro.testbed import build_nautilus_testbed
from repro.viz import (
    bar_chart,
    figure3_stats,
    figure4_stats,
    figure5_stats,
    figure6_stats,
    render_figure1,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure6,
    render_table1,
    text_table,
)
from repro.workflow import WorkflowDriver, build_connect_workflow


@pytest.fixture(scope="module")
def executed():
    # Fine-grained sampling so the short small-scale download job is
    # actually caught by the scrape loop (Figure 4 peaks).
    testbed = build_nautilus_testbed(seed=11, scale=0.005, sampler_interval=1.0)
    workflow = build_connect_workflow(testbed, real_ml=False)
    report = WorkflowDriver(testbed).run(workflow)
    assert report.succeeded
    return testbed, workflow, report


class TestPrimitives:
    def test_text_table_alignment(self):
        out = text_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_bar_chart(self):
        out = bar_chart([("x", 10.0), ("y", 5.0)], width=10, unit="s")
        assert "█" * 10 in out
        assert "█" * 5 in out

    def test_bar_chart_empty(self):
        assert bar_chart([], title="none") == "none"


class TestFigures:
    def test_figure1_inventory(self, executed):
        testbed, _, _ = executed
        out = render_figure1(testbed)
        assert "PRP partner sites" in out
        assert "Storage capacity (PB)" in out

    def test_figure2_lists_steps(self, executed):
        _, workflow, _ = executed
        out = render_figure2(workflow)
        for name in ("download", "training", "inference", "visualization"):
            assert name in out

    def test_figure3_stats_and_render(self, executed):
        testbed, _, report = executed
        stats = figure3_stats(testbed, report)
        assert stats["workers"] >= 10
        assert stats["pods"] == 14
        out = render_figure3(testbed, report)
        assert "Redis queue" in out
        # One row per download worker, each showing when it ran (even a
        # worker shorter than one time bucket); the step's other pods
        # draw none.
        rows = [
            line.split()
            for line in out.splitlines()
            if line.strip().startswith("download-workers-")
        ]
        assert len({pod for pod, _, _ in rows}) == len(rows) == stats["workers"]
        assert all("█" in bar and cpu == "4" for _, bar, cpu in rows)
        assert "redis" not in out.split("per-worker CPU")[1]

    def test_figure4_peaks_positive(self, executed):
        testbed, _, report = executed
        stats = figure4_stats(testbed, report)
        assert stats["wan_egress_peak_MBps"] > 0
        out = render_figure4(testbed, report)
        assert "IOPS" in out

    def test_figure5_phases_sum_to_total(self, executed):
        testbed, _, report = executed
        stats = figure5_stats(testbed, report)
        assert stats["prep_minutes"] > 0
        assert stats["train_minutes"] > stats["prep_minutes"]
        assert (
            stats["prep_minutes"] + stats["train_minutes"]
            <= stats["total_minutes"] + 1e-6
        )
        assert "Figure 5" in render_figure5(testbed, report)

    def test_figure6_gpu_peak(self, executed):
        testbed, _, report = executed
        stats = figure6_stats(testbed, report)
        assert stats["gpus"] == 50
        assert stats["peak_gpus_in_use"] >= 40  # sampled at 15s intervals
        assert "GPUs in use" in render_figure6(testbed, report)

    def test_table1_layout(self, executed):
        _, _, report = executed
        out = render_table1(report)
        assert "Table I" in out
        assert "# of Pods" in out
        assert "NA" in out  # visualization time
