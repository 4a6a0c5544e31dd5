"""Parity suite: every batched path must reproduce its serial reference.

- batched conv3d forward/backward vs unbatched, within tight tolerance
  (forward is exact: the unbatched API *is* the N=1 batched kernel);
- wavefront flood_fill vs the serial per-patch reference, bit for bit;
- distributed_segment across worker counts (process pool vs in-process)
  and vs the monolithic segment_volume on a single shard;
- the sigmoid dtype fix (float32 stays float32).
"""

import numpy as np
import pytest

from repro.errors import MLError, ShapeError
from repro.ml import (
    FFNConfig,
    FFNModel,
    FFNTrainer,
    conv3d_backward,
    conv3d_backward_batch,
    conv3d_forward,
    conv3d_forward_batch,
    distributed_segment,
    flood_fill,
    segment_volume,
)
from repro.ml.ffn import sigmoid


SMALL = FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=1)


def blob_volume(shape=(12, 16, 16), centers=((6, 8, 8),), radius=3.0,
                noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.meshgrid(*map(np.arange, shape), indexing="ij")
    vol = rng.normal(0.0, noise, size=shape)
    truth = np.zeros(shape, dtype=np.uint8)
    for cz, cy, cx in centers:
        d2 = (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2
        vol += 2.0 * np.exp(-d2 / (2 * radius**2))
        truth |= (d2 <= radius**2).astype(np.uint8)
    return vol.astype(np.float32), truth


@pytest.fixture(scope="module")
def trained():
    vol, truth = blob_volume()
    model = FFNModel(SMALL)
    FFNTrainer(model, seed=0).train(vol, truth, steps=100)
    return model


class TestConv3DBatchParity:
    def test_forward_batch_equals_unbatched_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3, 5, 6, 7)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        batched = conv3d_forward_batch(x, w, b)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(batched[i],
                                          conv3d_forward(x[i], w, b))

    def test_backward_batch_matches_summed_unbatched(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 2, 4, 4, 4)).astype(np.float64)
        w = rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float64) * 0.3
        grad_y = rng.normal(size=(5, 3, 4, 4, 4)).astype(np.float64)
        gx_b, gw_b, gb_b = conv3d_backward_batch(x, w, grad_y)
        gw_sum = np.zeros_like(gw_b)
        gb_sum = np.zeros_like(gb_b)
        for i in range(x.shape[0]):
            gx_i, gw_i, gb_i = conv3d_backward(x[i], w, grad_y[i])
            np.testing.assert_allclose(gx_b[i], gx_i, rtol=1e-12)
            gw_sum += gw_i
            gb_sum += gb_i
        np.testing.assert_allclose(gw_b, gw_sum, rtol=1e-10)
        np.testing.assert_allclose(gb_b, gb_sum, rtol=1e-10)

    def test_batch_shape_validation(self):
        with pytest.raises(ShapeError):
            conv3d_forward_batch(np.zeros((2, 3, 3, 3)),
                                 np.zeros((1, 2, 3, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv3d_backward_batch(
                np.zeros((2, 2, 3, 3, 3)), np.zeros((1, 2, 3, 3, 3)),
                np.zeros((2, 2, 3, 3, 3)),
            )


class TestFFNModelBatchParity:
    def test_forward_batch_rows_equal_single_forwards(self, trained):
        rng = np.random.default_rng(2)
        n = 5
        images = rng.normal(size=(n, *SMALL.fov)).astype(np.float32)
        masks = rng.normal(size=(n, *SMALL.fov)).astype(np.float32)
        batched = trained.forward_batch(images, masks)
        for i in range(n):
            np.testing.assert_array_equal(
                batched[i], trained.forward(images[i], masks[i])
            )

    def test_backward_batch_matches_sequential_grads(self, trained):
        rng = np.random.default_rng(3)
        n = 4
        images = rng.normal(size=(n, *SMALL.fov)).astype(np.float32)
        masks = rng.normal(size=(n, *SMALL.fov)).astype(np.float32)
        grads = rng.normal(size=(n, *SMALL.fov)).astype(np.float32)

        logits = trained.forward_batch(images, masks)
        assert logits.shape == (n, *SMALL.fov)
        trained.backward_batch(grads)
        batched_gw = [layer.grad_w.copy() for layer in trained.layers]
        for layer in trained.layers:
            layer.grad_w[:] = 0
            layer.grad_b[:] = 0

        for i in range(n):
            trained.forward(images[i], masks[i])
            trained.backward(grads[i])
        # Batched grads sum over the batch inside one GEMM; the
        # sequential reference accumulates in Python — same math, float32
        # addition order differs, so allow accumulation-order slack.
        for gw_b, layer in zip(batched_gw, trained.layers):
            np.testing.assert_allclose(gw_b, layer.grad_w,
                                       rtol=1e-3, atol=1e-5)
            layer.grad_w[:] = 0
            layer.grad_b[:] = 0

    def test_mixed_forward_backward_rejected(self, trained):
        img = np.zeros(SMALL.fov, np.float32)
        mask = np.zeros(SMALL.fov, np.float32)
        trained.forward(img, mask)
        with pytest.raises(ShapeError):
            trained.backward_batch(np.zeros((1, *SMALL.fov), np.float32))
        trained.forward_batch(img[None], mask[None])
        with pytest.raises(ShapeError):
            trained.backward(np.zeros(SMALL.fov, np.float32))

    def test_forward_batch_shape_validation(self, trained):
        with pytest.raises(ShapeError):
            trained.forward_batch(
                np.zeros(SMALL.fov, np.float32),
                np.zeros(SMALL.fov, np.float32),
            )


class TestFloodFillEngineParity:
    def test_wavefront_bitwise_equals_serial(self, trained):
        vol, _ = blob_volume()
        batched = flood_fill(trained, vol, (6, 8, 8), engine="batched")
        serial = flood_fill(trained, vol, (6, 8, 8), engine="serial")
        np.testing.assert_array_equal(batched, serial)

    def test_parity_on_multiple_seeded_volumes(self, trained):
        for vol_seed in (3, 11, 29):
            vol, _ = blob_volume(
                shape=(14, 18, 18), centers=((7, 9, 9), (7, 4, 13)),
                seed=vol_seed,
            )
            for seed_voxel in ((7, 9, 9), (2, 2, 2)):
                batched = flood_fill(trained, vol, seed_voxel,
                                     engine="batched")
                serial = flood_fill(trained, vol, seed_voxel,
                                    engine="serial")
                np.testing.assert_array_equal(batched, serial)

    def test_segment_volume_engine_parity(self, trained):
        vol, _ = blob_volume(
            shape=(12, 16, 28), centers=((6, 8, 7), (6, 8, 21)), seed=5
        )
        np.testing.assert_array_equal(
            segment_volume(trained, vol, max_objects=8, engine="batched"),
            segment_volume(trained, vol, max_objects=8, engine="serial"),
        )

    def test_window_cache_reused_and_harmless(self, trained):
        vol, _ = blob_volume()
        cache: dict = {}
        first = flood_fill(trained, vol, (6, 8, 8), window_cache=cache)
        assert cache  # the flood populated it
        n_windows = len(cache)
        again = flood_fill(trained, vol, (6, 8, 8), window_cache=cache)
        assert len(cache) == n_windows
        np.testing.assert_array_equal(first, again)

    def test_max_steps_budget_respected(self, trained):
        vol, _ = blob_volume()
        limited = flood_fill(trained, vol, (6, 8, 8), max_steps=3)
        full = flood_fill(trained, vol, (6, 8, 8))
        # A truncated flood touches no more voxels than the full one.
        thr = trained.config.segment_threshold
        assert (limited >= thr).sum() <= (full >= thr).sum()

    def test_unknown_engine_rejected(self, trained):
        vol, _ = blob_volume()
        with pytest.raises(MLError):
            flood_fill(trained, vol, (6, 8, 8), engine="gpu")


class TestMultiSeedWavefrontParity:
    def test_flood_fill_multi_rows_equal_individual_floods(self, trained):
        from repro.ml.inference import flood_fill_multi

        vol, _ = blob_volume(
            shape=(14, 18, 18), centers=((7, 9, 9), (7, 4, 13)), seed=3
        )
        seeds = [(7, 9, 9), (7, 4, 13), (2, 2, 2)]
        multi = flood_fill_multi(trained, vol, seeds)
        for seed_voxel, merged in zip(seeds, multi):
            alone = flood_fill(trained, vol, seed_voxel)
            np.testing.assert_array_equal(merged, alone)

    @pytest.mark.parametrize("seed_batch", [2, 4, 9])
    def test_segment_volume_seed_batch_bit_identical(self, trained,
                                                     seed_batch):
        vol, _ = blob_volume(
            shape=(12, 16, 28), centers=((6, 8, 7), (6, 8, 21)), seed=5
        )
        reference = segment_volume(trained, vol, max_objects=8)
        np.testing.assert_array_equal(
            segment_volume(trained, vol, max_objects=8,
                           seed_batch=seed_batch),
            reference,
        )

    def test_seed_batch_parity_on_serial_engine(self, trained):
        vol, _ = blob_volume(
            shape=(12, 16, 28), centers=((6, 8, 7), (6, 8, 21)), seed=7
        )
        np.testing.assert_array_equal(
            segment_volume(trained, vol, max_objects=8, engine="serial",
                           seed_batch=3),
            segment_volume(trained, vol, max_objects=8, engine="serial"),
        )

    def test_seed_batch_validation(self, trained):
        vol, _ = blob_volume()
        with pytest.raises(MLError):
            segment_volume(trained, vol, seed_batch=0)


class TestDistributedWorkerParity:
    @pytest.fixture(scope="class")
    def world(self, trained):
        vol, _ = blob_volume(
            shape=(16, 20, 20), centers=((5, 10, 10), (11, 6, 14)), seed=9
        )
        return trained, vol

    def test_pool_equals_in_process(self, world):
        model, vol = world
        serial_labels, serial_shards = distributed_segment(
            model, vol, n_workers=4, halo=2, max_workers=1
        )
        pool_labels, pool_shards = distributed_segment(
            model, vol, n_workers=4, halo=2, max_workers=4
        )
        np.testing.assert_array_equal(serial_labels, pool_labels)
        assert [s.n_objects for s in serial_shards] == \
               [s.n_objects for s in pool_shards]

    def test_single_shard_equals_monolithic(self, world):
        model, vol = world
        dist, shards = distributed_segment(model, vol, n_workers=1)
        mono = segment_volume(model, vol, max_objects=16)
        assert len(shards) == 1
        # One shard = the whole volume: identical up to label compaction,
        # which is the identity here because mono ids are already 1..n.
        np.testing.assert_array_equal(dist, mono)

    def test_max_workers_validation(self, world):
        model, vol = world
        with pytest.raises(ShapeError):
            distributed_segment(model, vol, n_workers=2, max_workers=0)


class TestSigmoidDtype:
    def test_float32_preserved(self):
        x = np.linspace(-10, 10, 7, dtype=np.float32)
        assert sigmoid(x).dtype == np.float32

    def test_float64_preserved(self):
        x = np.linspace(-10, 10, 7, dtype=np.float64)
        assert sigmoid(x).dtype == np.float64

    def test_integer_upcast_to_float64(self):
        assert sigmoid(np.array([-2, 0, 2])).dtype == np.float64

    def test_values_still_stable(self):
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0], dtype=np.float32)
        y = sigmoid(x)
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y[2], 0.5)
        assert y[0] == 0.0 or y[0] < 1e-12
        assert y[-1] == 1.0 or y[-1] > 1 - 1e-6
