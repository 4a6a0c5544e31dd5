"""Tests for CONNECT labelling, metrics, and the GPU perf model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MLError, ShapeError
from repro.ml import GTX1080TI, connect_segmentation, voxel_metrics
from repro.ml.connect import label_volume
from repro.ml.perfmodel import (
    PAPER_INFER_VOXELS,
    PAPER_TRAIN_VOXELS,
)


class TestLabelVolume:
    def test_empty_mask(self):
        labels, n = label_volume(np.zeros((3, 4, 5), dtype=bool))
        assert n == 0
        assert labels.sum() == 0

    def test_single_voxel(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[1, 1, 1] = True
        labels, n = label_volume(mask)
        assert n == 1
        assert labels[1, 1, 1] == 1

    def test_two_separate_components(self):
        mask = np.zeros((3, 5, 5), dtype=bool)
        mask[0, 0, 0] = True
        mask[2, 4, 4] = True
        _, n = label_volume(mask)
        assert n == 2

    def test_temporal_connection_makes_one_object(self):
        """The same pixel lit in consecutive timesteps is ONE object —
        the core CONNECT idea of connecting pixels in time."""
        mask = np.zeros((4, 3, 3), dtype=bool)
        mask[:, 1, 1] = True
        _, n = label_volume(mask)
        assert n == 1

    def test_diagonal_is_not_connected(self):
        """6-connectivity: face neighbors only."""
        mask = np.zeros((1, 3, 3), dtype=bool)
        mask[0, 0, 0] = True
        mask[0, 1, 1] = True
        _, n = label_volume(mask)
        assert n == 2

    def test_l_shaped_object(self):
        mask = np.zeros((1, 4, 4), dtype=bool)
        mask[0, 0, :3] = True
        mask[0, 1:3, 2] = True
        _, n = label_volume(mask)
        assert n == 1

    def test_2d_input_rejected(self):
        with pytest.raises(ShapeError):
            label_volume(np.zeros((4, 4), dtype=bool))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_labels_partition_foreground(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((4, 6, 6)) > 0.7
        labels, n = label_volume(mask)
        assert (labels > 0).sum() == mask.sum()
        assert set(np.unique(labels)) <= set(range(n + 1))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_components_are_internally_connected(self, seed):
        """Every labelled component, re-labelled alone, is one component."""
        rng = np.random.default_rng(seed)
        mask = rng.random((3, 5, 5)) > 0.6
        labels, n = label_volume(mask)
        for obj_id in range(1, n + 1):
            _, sub_n = label_volume(labels == obj_id)
            assert sub_n == 1


class TestConnectSegmentation:
    def _volume_with_moving_river(self):
        """A bright streak moving one pixel per timestep + faint noise."""
        rng = np.random.default_rng(0)
        vol = rng.uniform(0, 10.0, size=(8, 12, 20)).astype(np.float32)
        for t in range(8):
            vol[t, 5:8, 3 + t : 9 + t] = 500.0
        return vol

    def test_moving_object_tracked_as_one(self):
        vol = self._volume_with_moving_river()
        report = connect_segmentation(vol, threshold=100.0)
        assert report.n_objects == 1
        obj = report.objects[0]
        assert obj.genesis_t == 0
        assert obj.termination_t == 7
        assert obj.lifetime_steps == 8

    def test_percentile_threshold_default(self):
        vol = self._volume_with_moving_river()
        report = connect_segmentation(vol, threshold_percentile=95.0)
        assert report.threshold == pytest.approx(np.percentile(vol, 95.0))
        assert report.n_objects >= 1

    def test_min_voxels_filters_noise(self):
        vol = np.zeros((3, 8, 8), dtype=np.float32)
        vol[0, 0, 0] = 100.0  # single-voxel speck
        vol[:, 4:6, 4:6] = 100.0  # real object (12 voxels)
        report = connect_segmentation(vol, threshold=50.0, min_voxels=4)
        assert report.n_objects == 1
        assert report.objects[0].voxels == 12

    def test_object_statistics(self):
        vol = np.zeros((2, 4, 4), dtype=np.float32)
        vol[0, 1, 1] = 10.0
        vol[0, 1, 2] = 20.0
        vol[0, 2, 1] = 30.0
        vol[0, 2, 2] = 40.0
        report = connect_segmentation(vol, threshold=5.0, min_voxels=1)
        obj = report.objects[0]
        assert obj.max_intensity == 40.0
        assert obj.mean_intensity == 25.0
        assert obj.centroid_txy == (0.0, 1.5, 1.5)

    def test_bad_shape_rejected(self):
        with pytest.raises(ShapeError):
            connect_segmentation(np.zeros((4, 4)))


class TestMetrics:
    def test_perfect_prediction(self):
        truth = np.zeros((4, 4, 4))
        truth[1:3, 1:3, 1:3] = 1
        scores = voxel_metrics(truth, truth)
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f1 == 1.0

    def test_empty_prediction(self):
        truth = np.ones((2, 2, 2))
        scores = voxel_metrics(np.zeros_like(truth), truth)
        assert scores.recall == 0.0
        assert scores.f1 == 0.0

    def test_half_overlap(self):
        truth = np.zeros(8)
        truth[:4] = 1
        pred = np.zeros(8)
        pred[2:6] = 1
        scores = voxel_metrics(pred.reshape(2, 2, 2), truth.reshape(2, 2, 2))
        assert scores.tp == 2
        assert scores.fp == 2
        assert scores.fn == 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            voxel_metrics(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPerfModel:
    def test_calibration_reproduces_paper_training_time(self):
        """Train-prep + training must total ~306 minutes at paper scale."""
        total = GTX1080TI.train_prep_seconds(PAPER_TRAIN_VOXELS) + (
            PAPER_TRAIN_VOXELS / GTX1080TI.train_voxels_per_s
        )
        assert total / 60.0 == pytest.approx(306.0, rel=1e-6)

    def test_calibration_reproduces_paper_inference_time(self):
        """§III-C: 2.3e10 voxels over 50 GPUs in 1133 minutes."""
        per_gpu = PAPER_INFER_VOXELS / 50
        seconds = per_gpu / GTX1080TI.infer_voxels_per_s
        assert seconds / 60.0 == pytest.approx(1133.0, rel=1e-6)

    def test_worker_jitter_bounded_and_deterministic(self):
        speeds = [GTX1080TI.worker_speed(f"w{i}") for i in range(50)]
        assert all(0.95 <= s <= 1.05 for s in speeds)
        assert GTX1080TI.worker_speed("w3") == GTX1080TI.worker_speed("w3")
        assert len(set(speeds)) > 10  # actually varies

    def test_invalid_voxels_rejected(self):
        with pytest.raises(MLError):
            GTX1080TI.training_seconds(0)
        with pytest.raises(MLError):
            GTX1080TI.inference_seconds(-5)

    def test_paper_voxel_constants(self):
        assert PAPER_TRAIN_VOXELS == 576 * 361 * 240
        assert PAPER_INFER_VOXELS == pytest.approx(2.3e10, rel=0.02)
