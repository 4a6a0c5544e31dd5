"""Integration tests: the 4-step CONNECT workflow on a small testbed.

These run the complete paper pipeline (download -> train -> infer ->
visualize) at 0.2% archive scale with the real ML path enabled, and
assert both the orchestration outcomes and the Table-I resource shape.
"""

import numpy as np
import pytest

from repro.testbed import build_nautilus_testbed
from repro.workflow import WorkflowDriver, build_connect_workflow


@pytest.fixture(scope="module")
def executed():
    """One full workflow execution shared by this module's assertions."""
    testbed = build_nautilus_testbed(seed=42, scale=0.002)
    workflow = build_connect_workflow(testbed)
    report = WorkflowDriver(testbed).run(workflow)
    return testbed, report


class TestWorkflowOutcome:
    def test_all_steps_succeed(self, executed):
        _, report = executed
        assert report.succeeded
        assert [s.name for s in report.steps] == [
            "download",
            "training",
            "inference",
            "visualization",
        ]

    def test_table1_pod_row(self, executed):
        """Paper Table I: pods 14 / 1 / 50 / 1."""
        _, report = executed
        assert [s.pods for s in report.steps] == [14, 1, 50, 1]

    def test_table1_cpu_row(self, executed):
        """Paper Table I: CPUs 42 / 1 / 50 / 1."""
        _, report = executed
        assert [round(s.cpus) for s in report.steps] == [42, 1, 50, 1]

    def test_table1_gpu_row(self, executed):
        """Paper Table I: GPUs 0 / 1 / 50 / 1."""
        _, report = executed
        assert [s.gpus for s in report.steps] == [0, 1, 50, 1]

    def test_table1_memory_row(self, executed):
        """Paper Table I: memory 225 / 14.8 / 600 / 12 GB."""
        _, report = executed
        mems = [round(s.memory_bytes / 1e9, 1) for s in report.steps]
        assert mems == [225.0, 14.8, 600.0, 12.0]

    def test_visualization_reports_na(self, executed):
        _, report = executed
        assert report.step("visualization").total_time_cell() == "NA"

    def test_training_time_matches_paper_at_any_scale(self, executed):
        """The training volume is fixed (30 days), so step 2 should take
        ~306 paper-minutes even on a small archive."""
        _, report = executed
        minutes = report.step("training").duration_minutes
        assert 290 <= minutes <= 330

    def test_data_processed_scales_with_archive(self, executed):
        testbed, report = executed
        expected = testbed.archive.total_subset_bytes
        assert report.step("download").data_processed_bytes == pytest.approx(
            expected, rel=0.01
        )
        assert report.step("inference").data_processed_bytes == pytest.approx(
            expected, rel=0.01
        )


class TestWorkflowArtifacts:
    def test_download_populates_object_store(self, executed):
        testbed, report = executed
        merged = report.step("download").artifacts["merged_objects"]
        assert merged
        for name in merged:
            assert testbed.ceph.exists("merra", name)

    def test_queue_fully_drained(self, executed):
        _, report = executed
        art = report.step("download").artifacts
        assert art["queue_acked"] >= 1
        assert art["files_downloaded"] == 224  # 0.2% of 112,249

    def test_model_checkpoint_saved(self, executed):
        testbed, report = executed
        model_object = report.step("training").artifacts["model_object"]
        ref = testbed.ceph.stat("models", str(model_object))
        assert ref.payload is not None  # real weights stored

    def test_training_consumes_store_content(self, executed):
        """Step 2 trains on the IVT volume step 1 materialized into
        CephFS — real arrays flowed through the shared store."""
        testbed, report = executed
        download = report.step("download").artifacts
        training = report.step("training").artifacts
        assert training["volume_source"] == "cephfs"
        assert testbed.cephfs.exists(str(download["content_volume_path"]))
        # And the training example was re-serialized as a protobuf blob.
        from repro.data.tfrecord import TFRecordReader

        blob = testbed.cephfs.read_payload(str(training["protobuf_path"]))
        (example,) = TFRecordReader(blob).read_all()
        assert example.volume.shape[0] == download["content_timesteps"]
        assert example.meta["nt"] == download["content_timesteps"]

    def test_real_ffn_learns(self, executed):
        _, report = executed
        training_report = report.step("training").artifacts["training_report"]
        assert training_report.improved
        assert training_report.final_loss < training_report.initial_loss * 0.7

    def test_inference_segmentation_quality(self, executed):
        """The trained FFN must genuinely segment held-out rivers."""
        _, report = executed
        art = report.step("inference").artifacts
        assert art["voxel_recall"] > 0.5
        assert art["voxel_f1"] > 0.4

    def test_inference_shards_cover_archive(self, executed):
        testbed, report = executed
        art = report.step("inference").artifacts
        assert art["n_shards"] == 50
        assert len(art["result_objects"]) == 50
        assert art["voxels_total"] == 576 * 361 * len(testbed.archive)

    def test_visualization_object_statistics(self, executed):
        _, report = executed
        art = report.step("visualization").artifacts
        assert art["n_objects"] >= 1
        assert art["mean_lifetime_steps"] > 1.0  # objects persist in time

    def test_label_volume_is_binary_objects(self, executed):
        _, report = executed
        labels = report.step("inference").artifacts["label_volume"]
        assert labels.dtype == np.int32
        assert labels.max() >= 1


class TestMonitoringDuringWorkflow:
    def test_per_worker_download_series_exist(self, executed):
        """Figure 3 draws one row per download worker's running span."""
        testbed, _ = executed
        running = [
            s
            for s in testbed.tracer.find(category="running")
            if s.name.startswith("download-workers-")
        ]
        assert len({s.attributes["pod"] for s in running}) >= 10

    def test_gpu_busy_series_for_inference(self, executed):
        """Each GPU's busy interval is its shard's compute span."""
        testbed, _ = executed
        shards = [
            s
            for s in testbed.tracer.find(category="compute")
            if s.name.startswith("infer-shard:")
        ]
        assert len(shards) == 50

    def test_node_gauges_sampled(self, executed):
        testbed, _ = executed
        series = testbed.registry.all_series("node_cpu_allocated_cores")
        assert series
        assert all(len(ts) > 10 for ts in series)
        assert series[0].times[:3] == [0.0, 15.0, 30.0]


class TestWorkflowVariants:
    def test_no_subset_downloads_full_bytes(self):
        testbed = build_nautilus_testbed(seed=7, scale=0.0005)
        workflow = build_connect_workflow(testbed, subset=False, real_ml=False)
        report = WorkflowDriver(testbed).run(workflow)
        assert report.succeeded
        assert report.step("download").data_processed_bytes == pytest.approx(
            testbed.archive.total_full_bytes, rel=0.01
        )

    def test_fewer_gpus_runs_longer(self):
        results = {}
        for n_gpus in (10, 50):
            testbed = build_nautilus_testbed(seed=7, scale=0.0005)
            workflow = build_connect_workflow(
                testbed, n_gpus=n_gpus, real_ml=False
            )
            report = WorkflowDriver(testbed).run(workflow)
            assert report.succeeded
            results[n_gpus] = report.step("inference").duration_s
        # Fixed overheads (image pull, model fetch) dilute the ideal 5x.
        assert results[10] > 2.0 * results[50]
