"""Tests for the FFN model, trainer, and flood-fill inference."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.ml import FFNConfig, FFNModel, FFNTrainer, flood_fill, segment_volume
from repro.ml.ffn import logit, sigmoid
from repro.ml.inference import split_shards


SMALL = FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=1)


def blob_volume(shape=(12, 16, 16), centers=((6, 8, 8),), radius=3.0,
                noise=0.05, seed=0):
    """A volume with bright spherical blobs on a noisy background, plus
    the binary ground truth."""
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.meshgrid(*map(np.arange, shape), indexing="ij")
    vol = rng.normal(0.0, noise, size=shape)
    truth = np.zeros(shape, dtype=np.uint8)
    for cz, cy, cx in centers:
        d2 = (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2
        vol += 2.0 * np.exp(-d2 / (2 * radius**2))
        truth |= (d2 <= radius**2).astype(np.uint8)
    return vol.astype(np.float32), truth


class TestModelMechanics:
    def test_forward_shape(self):
        model = FFNModel(SMALL)
        img = np.zeros(SMALL.fov, np.float32)
        mask = np.full(SMALL.fov, SMALL.init_logit, np.float32)
        out = model.forward(img, mask)
        assert out.shape == SMALL.fov

    def test_forward_shape_validation(self):
        model = FFNModel(SMALL)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))

    def test_deterministic_init(self):
        a, b = FFNModel(SMALL), FFNModel(SMALL)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.w, lb.w)

    def test_state_dict_roundtrip(self):
        model = FFNModel(SMALL)
        state = model.state_dict()
        other = FFNModel(SMALL)
        # Perturb, then restore.
        for layer in other.layers:
            layer.w += 1.0
        other.load_state_dict(state)
        img = np.random.default_rng(0).normal(size=SMALL.fov).astype(np.float32)
        mask = np.full(SMALL.fov, SMALL.init_logit, np.float32)
        np.testing.assert_allclose(
            model.forward(img, mask), other.forward(img, mask), rtol=1e-6
        )

    def test_state_dict_shape_mismatch_rejected(self):
        model = FFNModel(SMALL)
        state = model.state_dict()
        state["layer0.w"] = np.zeros((1, 1, 1, 1, 1), np.float32)
        with pytest.raises(ShapeError):
            model.load_state_dict(state)

    def test_bad_config_rejected(self):
        with pytest.raises(ShapeError):
            FFNConfig(fov=(4, 5, 5))
        with pytest.raises(ShapeError):
            FFNConfig(modules=0)

    def test_logit_sigmoid_inverses(self):
        for p in (0.05, 0.5, 0.95):
            assert sigmoid(np.array(logit(p)))[()] == pytest.approx(p)
        with pytest.raises(ValueError):
            logit(0.0)

    def test_logistic_loss_gradient_sign(self):
        logits = np.array([[2.0, -2.0]])
        labels = np.array([[0.0, 1.0]])
        (loss,), (grad,) = FFNModel.logistic_loss_batch(logits, labels)
        assert loss > 0
        assert grad[0] > 0  # predicted 1, truth 0 -> push logit down
        assert grad[1] < 0


class TestTraining:
    def test_training_reduces_loss(self):
        vol, truth = blob_volume()
        model = FFNModel(SMALL)
        trainer = FFNTrainer(model, seed=0)
        report = trainer.train(vol, truth, steps=60)
        assert report.improved
        assert report.final_loss < 0.5 * report.initial_loss

    def test_eval_on_heldout_improves(self):
        train_vol, train_truth = blob_volume(seed=0)
        test_vol, test_truth = blob_volume(seed=99, centers=((5, 7, 9),))
        model = FFNModel(SMALL)
        trainer = FFNTrainer(model, seed=0)
        before = trainer.evaluate(test_vol, test_truth, n_patches=30)
        trainer.train(train_vol, train_truth, steps=80)
        after = trainer.evaluate(test_vol, test_truth, n_patches=30)
        assert after < before

    def test_shape_mismatch_rejected(self):
        model = FFNModel(SMALL)
        with pytest.raises(ShapeError):
            FFNTrainer(model).train(np.zeros((8, 8, 8)), np.zeros((9, 8, 8)))

    def test_volume_smaller_than_fov_rejected(self):
        model = FFNModel(SMALL)
        with pytest.raises(ShapeError):
            FFNTrainer(model).train(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))


class TestFloodFill:
    @pytest.fixture(scope="class")
    def trained(self):
        vol, truth = blob_volume()
        model = FFNModel(SMALL)
        FFNTrainer(model, seed=0).train(vol, truth, steps=100)
        return model, vol, truth

    def test_flood_covers_object(self, trained):
        model, vol, truth = trained
        probs = flood_fill(model, vol, seed=(6, 8, 8))
        predicted = probs >= model.config.segment_threshold
        overlap = (predicted & (truth > 0)).sum() / truth.sum()
        assert overlap > 0.5

    def test_flood_stays_mostly_inside(self, trained):
        model, vol, truth = trained
        probs = flood_fill(model, vol, seed=(6, 8, 8))
        predicted = probs >= model.config.segment_threshold
        background_leak = (predicted & (truth == 0)).sum()
        assert background_leak < 4 * truth.sum()

    def test_seed_outside_volume_rejected(self, trained):
        model, vol, _ = trained
        with pytest.raises(ShapeError):
            flood_fill(model, vol, seed=(99, 0, 0))

    def test_volume_smaller_than_fov_rejected(self, trained):
        model, _, _ = trained
        with pytest.raises(ShapeError):
            flood_fill(model, np.zeros((3, 3, 3), np.float32), seed=(1, 1, 1))

    def test_segment_volume_finds_objects(self, trained):
        model, _, _ = trained
        vol, truth = blob_volume(
            shape=(12, 16, 28), centers=((6, 8, 7), (6, 8, 21)), seed=5
        )
        labels = segment_volume(model, vol, max_objects=8)
        found = len([i for i in np.unique(labels) if i != 0])
        assert found >= 1
        # Labelled voxels should mostly be true object voxels.
        overlap = ((labels > 0) & (truth > 0)).sum() / max(1, (labels > 0).sum())
        assert overlap > 0.4


class TestSharding:
    def test_even_split(self):
        shards = split_shards(100, 4)
        assert shards == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_uneven_split_differs_by_at_most_one(self):
        shards = split_shards(103, 10)
        lengths = [b - a for a, b in shards]
        assert sum(lengths) == 103
        assert max(lengths) - min(lengths) <= 1

    def test_more_workers_than_steps(self):
        shards = split_shards(3, 10)
        assert len(shards) == 3
        assert all(b - a == 1 for a, b in shards)

    def test_paper_scale_split(self):
        """§III-C: 112,249 timesteps over 50 GPUs."""
        shards = split_shards(112_249, 50)
        assert len(shards) == 50
        lengths = [b - a for a, b in shards]
        assert sum(lengths) == 112_249
        assert max(lengths) - min(lengths) <= 1

    def test_validation(self):
        with pytest.raises(ShapeError):
            split_shards(0, 5)
        with pytest.raises(ShapeError):
            split_shards(5, 0)
