"""The FFN output contract: the checksums committed in
``BENCH_2026-08-08.json``, recomputed at full size.

The committed artifact is the contract file: a kernel change that moves
any FFN output by one bit changes one of these checksums, and a driver
change that moves any CONNECT artifact changes ``pipelined_driver``.
The fixtures are built with the public :mod:`repro.ml` and
:mod:`repro.workflow` APIs only (the same configs that first recorded
the file), so the contract outlives the harness that wrote it.  Every
record is recomputed here except the overload drill's, which
``tests/test_loadgen.py`` pins; the ``contract`` fixture fails on a
record that neither checks.
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
    distributed_segment,
    flood_fill,
    segment_volume,
)

CONTRACT = pathlib.Path(__file__).resolve().parents[2] / "BENCH_2026-08-08.json"
SEED = 42

#: Records this module recomputes, one test each.
RECOMPUTED = {
    "conv3d_batched",
    "flood_fill_wavefront",
    "segment_volume_wavefront",
    "multiseed_wavefront",
    "distributed_fanout",
    "pipelined_driver",
}
#: Records pinned by another tier-1 test, and where.
PINNED_ELSEWHERE = {"control_plane_loadtest": "tests/test_loadgen.py"}

MACRO_CENTERS = [(8, 12, 12), (14, 30, 30), (20, 12, 34),
                 (8, 34, 14), (20, 36, 12), (14, 14, 38)]


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
    unchecked = set(out) - RECOMPUTED - set(PINNED_ELSEWHERE)
    assert not unchecked, f"contract records with no check: {sorted(unchecked)}"
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


@pytest.fixture(scope="module")
def macro_volume() -> np.ndarray:
    """Six radius-5 blobs in a (28, 48, 48) volume, noise seed 49."""
    return _blob_volume((28, 48, 48), MACRO_CENTERS, radius=5.0,
                        seed=SEED + 7)


def test_conv3d_batched_checksum(contract):
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(64, 2, 9, 9, 9)).astype(np.float32)
    w = (rng.normal(size=(8, 2, 3, 3, 3)) * 0.1).astype(np.float32)
    y = conv3d_forward_batch(x, w, np.zeros(8, dtype=np.float32))
    assert _checksum(y) == contract["conv3d_batched"]


def test_flood_fill_wavefront_checksum(contract, model, macro_volume):
    prob = flood_fill(model, macro_volume, MACRO_CENTERS[0], max_steps=256)
    assert _checksum(prob) == contract["flood_fill_wavefront"]


def test_segment_volume_wavefront_checksum(contract, model, macro_volume):
    labels = segment_volume(model, macro_volume, max_objects=16,
                            engine="batched")
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


def test_distributed_fanout_checksum(contract, model, macro_volume):
    labels = distributed_segment(model, macro_volume, n_workers=4, halo=2,
                                 max_workers=1)[0]
    assert _checksum(labels) == contract["distributed_fanout"]


def test_pipelined_driver_checksum(contract):
    """One overlap-mode CONNECT run at 1% scale, training shortened so
    the download tail is a visible share of the makespan.  The checksum
    hashes every step's final artifacts; ``tests/workflow/
    test_pipelined_driver.py`` holds the barrier run to the same
    artifacts."""
    from repro.testbed import build_nautilus_testbed
    from repro.workflow import WorkflowDriver, build_connect_workflow

    overrides = {
        "training": {
            "train_timesteps": 24,
            "real_train_steps": 60,
            "real_train_timesteps": 8,
        },
        "inference": {"real_test_timesteps": 8},
    }
    testbed = build_nautilus_testbed(seed=SEED, scale=0.01)
    workflow = build_connect_workflow(testbed, overrides=overrides)
    report = WorkflowDriver(testbed).run(workflow, overlap=True)
    assert report.succeeded
    projection = {s.name: s.to_dict()["artifacts"] for s in report.steps}
    blob = json.dumps(projection, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == contract["pipelined_driver"]


def test_records_pinned_elsewhere_agree(contract):
    """The drill's committed checksum is a prefix of its seed-42 pin."""
    from tests.test_loadgen import PINNED_DEFAULT_DRILL

    assert PINNED_DEFAULT_DRILL[SEED]["checksum"].startswith(
        contract["control_plane_loadtest"]
    )


def test_segment_volume_batches_the_same_patches(model, macro_volume,
                                                 monkeypatch):
    """The wavefront engine's speedup is the frontier batching itself:
    both engines evaluate the same patches, and the batched one does so
    in a few dozen ``forward_batch`` calls instead of one ``forward``
    per patch.  Counted exactly, so a broken batch shows with no timing
    noise."""
    calls = {"forward": 0, "forward_batch": []}
    forward, forward_batch = FFNModel.forward, FFNModel.forward_batch

    def counted_forward(self, *args, **kwargs):
        calls["forward"] += 1
        return forward(self, *args, **kwargs)

    def counted_forward_batch(self, images, *args, **kwargs):
        calls["forward_batch"].append(len(images))
        return forward_batch(self, images, *args, **kwargs)

    monkeypatch.setattr(FFNModel, "forward", counted_forward)
    monkeypatch.setattr(FFNModel, "forward_batch", counted_forward_batch)

    segment_volume(model, macro_volume, max_objects=16, engine="serial")
    assert calls == {"forward": 812, "forward_batch": []}

    calls["forward"] = 0
    segment_volume(model, macro_volume, max_objects=16, engine="batched")
    assert calls["forward"] == 0
    assert sum(calls["forward_batch"]) == 812
    assert len(calls["forward_batch"]) <= 60
