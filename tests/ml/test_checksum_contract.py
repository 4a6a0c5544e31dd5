"""The FFN output contract: the checksums committed in
``BENCH_2026-08-08.json``, recomputed at full size.

The committed artifact is the contract file: a kernel change that moves
any FFN output by one bit changes one of these checksums.  The fixture
is built with the public :mod:`repro.ml` API only (the same config as
the benchmark harness's full-size world), so the contract outlives the
harness that first recorded it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.ml import (
    FFNConfig,
    FFNModel,
    FFNTrainer,
    conv3d_forward_batch,
    segment_volume,
)

CONTRACT = pathlib.Path(__file__).resolve().parents[2] / "BENCH_2026-08-08.json"
SEED = 42


def _checksum(arr: np.ndarray) -> str:
    """Shape/dtype-qualified SHA-256 of an array's exact bytes."""
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def _blob_volume(shape, centers, radius, seed, noise=0.05):
    """Bright spherical blobs on seeded Gaussian noise."""
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.meshgrid(*map(np.arange, shape), indexing="ij")
    vol = rng.normal(0.0, noise, size=shape)
    for cz, cy, cx in centers:
        d2 = (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2
        vol += 2.0 * np.exp(-d2 / (2 * radius**2))
    return vol.astype(np.float32)


@pytest.fixture(scope="module")
def contract() -> dict[str, str]:
    results = json.loads(CONTRACT.read_text())["results"]
    out = {}
    for record in results:
        assert record["checksum_baseline"] == record["checksum_optimized"]
        out[record["name"]] = record["checksum_optimized"]
    return out


@pytest.fixture(scope="module")
def model() -> FFNModel:
    """The pinned, trained model: weight seed 1, trainer seed 0, 100 steps
    on one blob."""
    model = FFNModel(FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=1))
    train_vol = _blob_volume((12, 16, 16), [(6, 8, 8)], radius=3.0, seed=0)
    zz, yy, xx = np.meshgrid(*map(np.arange, (12, 16, 16)), indexing="ij")
    truth = (((zz - 6) ** 2 + (yy - 8) ** 2 + (xx - 8) ** 2) <= 9.0)
    FFNTrainer(model, seed=0).train(train_vol, truth.astype(np.uint8), steps=100)
    return model


def test_conv3d_batched_checksum(contract):
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(64, 2, 9, 9, 9)).astype(np.float32)
    w = (rng.normal(size=(8, 2, 3, 3, 3)) * 0.1).astype(np.float32)
    y = conv3d_forward_batch(x, w, np.zeros(8, dtype=np.float32))
    assert _checksum(y) == contract["conv3d_batched"]


def test_segment_volume_wavefront_checksum(contract, model):
    centers = [(8, 12, 12), (14, 30, 30), (20, 12, 34),
               (8, 34, 14), (20, 36, 12), (14, 14, 38)]
    vol = _blob_volume((28, 48, 48), centers, radius=5.0, seed=SEED + 7)
    labels = segment_volume(model, vol, max_objects=16, engine="batched")
    assert _checksum(labels) == contract["segment_volume_wavefront"]


def test_multiseed_wavefront_checksum(contract, model):
    shape = (24, 48, 48)
    rng = np.random.default_rng(11)
    centers = list(zip(
        rng.integers(3, shape[0] - 3, 30).tolist(),
        rng.integers(3, shape[1] - 3, 30).tolist(),
        rng.integers(3, shape[2] - 3, 30).tolist(),
    ))
    vol = _blob_volume(shape, centers, radius=1.6, seed=49)
    labels = segment_volume(model, vol, max_objects=32, engine="batched",
                            seed_batch=4, max_steps_per_object=64)
    assert _checksum(labels) == contract["multiseed_wavefront"]
