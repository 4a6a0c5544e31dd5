"""The flood fill against a frozen copy of its own loop.

:func:`flood_fill_multi` expands each confident face by clamping only
the coordinate that moved, and runs the final sigmoid only over the
bounding box of the visited FOVs, filling the rest with
``sigmoid(init_logit)``.  Before that, every neighbour went through a
three-axis clamp and every result through a full-volume sigmoid.
:func:`oracle_flood_fill_multi` keeps that loop verbatim (only the
docstring is cut).  Both must return the same bytes on every case
below: FOVs (5,5,5), (3,5,7) and (9,9,9); seeds at corners, on faces,
next to faces and in the interior; ``max_steps`` 1, 7 and 256; one and
three seeds per call; both engines; a trained model and one that
floods every face.  ``segment_volume`` must label an ``ffn``-sized blob
volume and a shard-sized IVT volume identically with either loop, at
``seed_batch`` 1 and 4.  Do not edit the oracle to make a test pass.
"""

from __future__ import annotations

import typing as _t
from collections import deque

import numpy as np
import pytest

from repro.data.merra import ML_GRID, MerraGenerator
from repro.errors import MLError, ShapeError
from repro.ml import FFNConfig, FFNModel, FFNTrainer
from repro.ml import inference
from repro.ml.ffn import sigmoid, zscore
from repro.ml.inference import _ENGINES, _eval_frontier, flood_fill_multi

# -- the oracle: the loop before the one-axis clamp and the boxed sigmoid ------


def oracle_flood_fill_multi(
    model: FFNModel,
    volume: np.ndarray,
    seeds: _t.Sequence[tuple[int, int, int]],
    max_steps: int = 256,
    normalized: bool = False,
    engine: str = "batched",
    window_cache: dict | None = None,
    tracer=None,
    span_parent=None,
) -> list[np.ndarray]:
    """Flood several seeds as one merged wavefront; one result per seed."""
    if engine not in _ENGINES:
        raise MLError(f"unknown flood-fill engine {engine!r}; use {_ENGINES}")
    cfg = model.config
    fov = np.array(cfg.fov)
    # Python ints, not numpy: the flood loop below slices and clamps with
    # them for every candidate neighbour of every step.
    half = tuple(int(f) // 2 for f in cfg.fov)
    vol_shape = np.array(volume.shape)
    if volume.ndim != 3:
        raise ShapeError(f"volume must be 3-D, got {volume.shape}")
    if np.any(vol_shape < fov):
        raise ShapeError(f"volume {volume.shape} smaller than FOV {cfg.fov}")
    seed_arrs = [np.array(seed) for seed in seeds]
    for seed, seed_arr in zip(seeds, seed_arrs):
        if np.any(seed_arr < 0) or np.any(seed_arr >= vol_shape):
            raise ShapeError(f"seed {tuple(seed)} outside volume {volume.shape}")
    if not seed_arrs:
        return []

    image = volume if normalized else zscore(volume)
    if window_cache is None:
        window_cache = {}
    bounds = tuple((h, n - h - 1) for h, n in zip(half, volume.shape))

    def clamp_center(center: _t.Sequence[int]) -> tuple:
        return tuple(
            min(max(int(c), lo), hi) for c, (lo, hi) in zip(center, bounds)
        )

    def image_window(center: tuple, slices: tuple) -> np.ndarray:
        win = window_cache.get(center)
        if win is None:
            win = np.ascontiguousarray(image[slices])
            window_cache[center] = win
        return win

    flood_span = None
    if tracer is not None:
        flood_span = tracer.start(
            "flood_fill",
            "compute",
            parent=span_parent,
            attributes={
                "seeds": [[int(v) for v in s] for s in seed_arrs],
                "engine": engine,
            },
        )

    n = len(seed_arrs)
    masks = []
    for seed_arr in seed_arrs:
        mask = np.full(volume.shape, cfg.init_logit, dtype=np.float32)
        mask[tuple(seed_arr)] = cfg.seed_logit
        masks.append(mask)
    visited: list[set[tuple]] = [set() for _ in range(n)]
    pending: list[deque[tuple]] = [
        deque([clamp_center(seed_arr)]) for seed_arr in seed_arrs
    ]
    steps = [0] * n
    wave_index = 0
    while True:
        # Per flood: drain its whole frontier (ordered, deduplicated,
        # unvisited, truncated to its budget).
        waves: list[tuple[int, list[tuple], list[tuple]]] = []
        for fi in range(n):
            if not pending[fi] or steps[fi] >= max_steps:
                continue
            frontier: list[tuple] = []
            seen: set[tuple] = set()
            while pending[fi]:
                center = pending[fi].popleft()
                if center in visited[fi] or center in seen:
                    continue
                seen.add(center)
                frontier.append(center)
            if steps[fi] + len(frontier) > max_steps:
                frontier = frontier[: max_steps - steps[fi]]
            if not frontier:
                continue
            steps[fi] += len(frontier)
            visited[fi].update(frontier)
            slices_list = [
                tuple(slice(c - h, c + h + 1) for c, h in zip(center, half))
                for center in frontier
            ]
            waves.append((fi, frontier, slices_list))
        if not waves:
            break
        # Stack every live flood's frontier into ONE forward batch.
        img_patches: list[np.ndarray] = []
        mask_patches: list[np.ndarray] = []
        for fi, frontier, slices_list in waves:
            for center, slc in zip(frontier, slices_list):
                img_patches.append(image_window(center, slc))
                mask_patches.append(masks[fi][slc])
        wave_span = None
        if tracer is not None:
            wave_span = tracer.start(
                f"wave:{wave_index}",
                "compute",
                parent=flood_span,
                attributes={"patches": len(img_patches), "floods": len(waves)},
            )
        wave_index += 1
        outs, face_max = _eval_frontier(model, img_patches, mask_patches, engine)
        # Write back + expand per flood, each in its own frontier order,
        # so a flood's result never depends on what shared its wave.
        offset = 0
        for fi, frontier, slices_list in waves:
            for j, slc in enumerate(slices_list):
                masks[fi][slc] = outs[offset + j]
            for j, center in enumerate(frontier):
                for axis in range(3):
                    for direction in (-1, 1):
                        side = 0 if direction == -1 else 1
                        if face_max[offset + j, axis, side] >= cfg.move_threshold:
                            nxt = list(center)
                            nxt[axis] += direction * half[axis]
                            nxt_t = clamp_center(nxt)
                            if nxt_t not in visited[fi]:
                                pending[fi].append(nxt_t)
            offset += len(frontier)
        if tracer is not None and wave_span is not None:
            tracer.finish(wave_span)
    if tracer is not None and flood_span is not None:
        tracer.finish(flood_span, attributes={"steps": steps})
    return [sigmoid(mask) for mask in masks]


# -- models and volumes --------------------------------------------------------


def blob_volume(shape, centers, radius, seed, noise=0.05):
    """Bright spherical blobs on Gaussian noise, plus the binary truth."""
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.meshgrid(*map(np.arange, shape), indexing="ij")
    vol = rng.normal(0.0, noise, size=shape)
    truth = np.zeros(shape, dtype=np.uint8)
    for cz, cy, cx in centers:
        d2 = (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2
        vol += 2.0 * np.exp(-d2 / (2 * radius**2))
        truth |= (d2 <= radius**2).astype(np.uint8)
    return vol.astype(np.float32), truth


FOVS = [(5, 5, 5), (3, 5, 7), (9, 9, 9)]
#: Fits a (9, 9, 9) FOV on every axis, with room to move on two.
SHAPE = (11, 14, 17)
D, H, W = SHAPE
SEEDS = {
    "corner_low": (0, 0, 0),
    "corner_high": (D - 1, H - 1, W - 1),
    "face": (0, H // 2, W // 2),
    "next_to_face": (D // 2, H - 2, 1),
    "interior": (D // 2, H // 2, W // 2),
}
SEED_SETS = [[seed] for seed in SEEDS.values()] + [
    [SEEDS["corner_high"], SEEDS["face"], SEEDS["interior"]],
    [SEEDS["next_to_face"], SEEDS["corner_low"], SEEDS["face"]],
]


@pytest.fixture(scope="module")
def weights():
    """The pinned ``ffn`` workload model: trained on one blob."""
    model = FFNModel(FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=1))
    vol, truth = blob_volume((12, 16, 16), [(6, 8, 8)], 3.0, 0)
    FFNTrainer(model, seed=0).train(vol, truth, steps=100)
    return model.state_dict()


#: Head biases: the trained one (most floods stop after one FOV), one
#: that grows floods part of the way, and one that makes every face
#: confident, so the flood runs into every wall.
HEADS = {"trained": None, "leaning": 1.5, "eager": 8.0}


def _model(weights, fov, head="trained"):
    # The FFN is fully convolutional: the same weights run at any FOV.
    model = FFNModel(FFNConfig(fov=fov, filters=6, modules=1, seed=1))
    model.load_state_dict(weights)
    if HEADS[head] is not None:
        model.head.b[:] = HEADS[head]
    return model


@pytest.fixture(scope="module")
def volume():
    return blob_volume(SHAPE, [(5, 7, 8), (3, 3, 13)], 3.0, 4)[0]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# -- flood_fill_multi -----------------------------------------------------------


@pytest.mark.parametrize("head", list(HEADS))
@pytest.mark.parametrize("fov", FOVS, ids=lambda f: "x".join(map(str, f)))
@pytest.mark.parametrize("max_steps", [1, 7, 256])
def test_floods_match_the_oracle(weights, volume, fov, max_steps, head):
    model = _model(weights, fov, head)
    for seeds in SEED_SETS:
        for engine in _ENGINES:
            assert_same_bytes(
                flood_fill_multi(model, volume, seeds, max_steps=max_steps,
                                 engine=engine),
                oracle_flood_fill_multi(model, volume, seeds,
                                        max_steps=max_steps, engine=engine),
            )


def test_the_matrix_reaches_the_walls_and_the_fill(weights, volume):
    """An eager flood writes every voxel, a leaning one part of the
    volume, and a trained one a single FOV."""
    fill = sigmoid(np.array([FFNConfig().init_logit], np.float32))[0]
    written = {
        head: (flood_fill_multi(_model(weights, (5, 5, 5), head), volume,
                                [SEEDS["face"]])[0] != fill).sum()
        for head in HEADS
    }
    assert written["trained"] == 5**3
    assert 5**3 < written["leaning"] < volume.size
    assert written["eager"] == volume.size


def test_a_flood_with_no_budget_matches_the_oracle(weights, volume):
    model = _model(weights, (5, 5, 5))
    seeds = [SEEDS["interior"], SEEDS["corner_low"]]
    assert_same_bytes(
        flood_fill_multi(model, volume, seeds, max_steps=0),
        oracle_flood_fill_multi(model, volume, seeds, max_steps=0),
    )


# -- segment_volume -------------------------------------------------------------


@pytest.fixture(scope="module")
def segment_inputs():
    rng = np.random.default_rng(3)
    shape = (32, 96, 96)  # the ffn workload's segmentation volume
    centers = [
        tuple(int(rng.integers(6, side - 6)) for side in shape)
        for _ in range(24)
    ]
    blobs = blob_volume(shape, centers, 5.0, 4)[0]
    shard = MerraGenerator(ML_GRID, seed=42).ivt_volume(0, 16)  # 16x45x72
    return {"blobs": blobs, "shard": shard}


@pytest.mark.parametrize("seed_batch", [1, 4])
@pytest.mark.parametrize("name", ["blobs", "shard"])
def test_segment_volume_matches_the_oracle(weights, segment_inputs, name,
                                           seed_batch, monkeypatch):
    model = _model(weights, (5, 5, 5))
    vol = segment_inputs[name]
    got = inference.segment_volume(model, vol, seed_batch=seed_batch)
    monkeypatch.setattr(inference, "flood_fill_multi", oracle_flood_fill_multi)
    want = inference.segment_volume(model, vol, seed_batch=seed_batch)
    assert got.max() > 1  # more than one object was committed
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
