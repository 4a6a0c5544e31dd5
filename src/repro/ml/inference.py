"""Flood-filling inference: seeded object growth and volume segmentation.

Implements the moving field-of-view loop of the FFN [20]: starting from a
seed voxel, the network repeatedly refines the mask inside its FOV and the
FOV relocates toward faces where the predicted object probability is high,
until no face is confident — at which point the flooded region is the
segmented object.

Flood filling is *wavefront-synchronous*: FOV centers are processed one
whole frontier (BFS level) at a time.  Every patch in a frontier reads
the mask as it stood when the frontier started, and results are written
back in frontier order (deterministic last-writer-wins where FOVs
overlap).  That definition makes the loop batchable — the ``"batched"``
engine stacks the frontier's patches and runs **one** batched FFN forward
per frontier, while the ``"serial"`` engine runs the same frontier one
patch at a time and exists as the reference implementation the batched
path is tested against, bit for bit.  One loop does this for every
caller: :func:`flood_fill_multi` merges several seeds' frontiers into
each wave, and :func:`flood_fill` is its one-seed case.

Also provides :func:`split_shards`, the exact sharding rule the paper's
step 3 uses ("The entire 246GB ... is evenly distributed across the 50
GPUs", §III-C), and :func:`segment_volume`, which seeds objects from IVT
peaks and floods them in candidate order.
"""

from __future__ import annotations

import typing as _t
from collections import deque

import numpy as np

from repro.errors import MLError, ShapeError
from repro.ml.ffn import FFNModel, sigmoid, zscore

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.tracing.span import Span, Tracer

__all__ = [
    "flood_fill",
    "flood_fill_multi",
    "segment_volume",
    "split_shards",
]

#: Saturation range for mask logits during flood filling.
_LOGIT_CLIP = (-16.0, 16.0)

#: Recognized flood-fill engines.
_ENGINES = ("batched", "serial")


def _eval_frontier(
    model: FFNModel,
    img_patches: list[np.ndarray],
    mask_patches: list[np.ndarray],
    engine: str,
):
    """Evaluate one frontier's patches; returns ``(outs, face_max)``.

    ``outs[i]`` is patch *i*'s clipped mask logits; ``face_max[i, axis,
    side]`` is the max object probability on that patch's low (side=0) /
    high (side=1) face along ``axis``.  The ``"batched"`` engine stacks
    everything into one FFN forward; ``"serial"`` runs the same patches
    one at a time.  Per-patch results are bit-identical between engines
    (and regardless of what else shares the stack — the property the
    multi-seed wavefront relies on).
    """
    if engine == "batched":
        # One batched forward for the whole frontier; clip, sigmoid,
        # and the six face maxima all run stacked too (elementwise /
        # per-row reductions, so bit-identical to per-patch).
        stacked = model.forward_batch(
            np.stack(img_patches), np.stack(mask_patches)
        )
        # Clip to keep repeated FOV visits from blowing up float32
        # (the reference FFN also saturates its mask logits).
        np.clip(stacked, _LOGIT_CLIP[0], _LOGIT_CLIP[1], out=stacked)
        probs = sigmoid(stacked)
        # face_max[i, axis, j]: max prob on patch i's low (j=0) /
        # high (j=1) face along axis.
        face_max = np.stack(
            [
                np.stack(
                    [
                        probs[(slice(None),) * (1 + axis) + (0,)].max(
                            axis=(1, 2)
                        ),
                        probs[(slice(None),) * (1 + axis) + (-1,)].max(
                            axis=(1, 2)
                        ),
                    ],
                    axis=1,
                )
                for axis in range(3)
            ],
            axis=1,
        )
        return stacked, face_max
    # Reference path: same frontier, one unbatched forward each.
    # np.stack inside forward copies the inputs, so all reads complete
    # before the caller's write-back mutates any mask.
    outs = []
    face_rows = []
    for img, msk in zip(img_patches, mask_patches):
        patch_logits = model.forward(img, np.array(msk))
        np.clip(patch_logits, _LOGIT_CLIP[0], _LOGIT_CLIP[1],
                out=patch_logits)
        p = sigmoid(patch_logits)
        face_rows.append(
            [
                [
                    p[(slice(None),) * axis + (0,)].max(),
                    p[(slice(None),) * axis + (-1,)].max(),
                ]
                for axis in range(3)
            ]
        )
        outs.append(patch_logits)
    return outs, np.array(face_rows)


def flood_fill(
    model: FFNModel,
    volume: np.ndarray,
    seed: tuple[int, int, int],
    max_steps: int = 256,
    engine: str = "batched",
    window_cache: dict | None = None,
) -> np.ndarray:
    """Flood one object from ``seed``; returns the probability volume.

    A one-seed, untraced :func:`flood_fill_multi` on a raw (not yet
    z-scored) ``volume``: every parameter means the same there.
    ``seed`` must lie inside ``volume`` (shape ``(D, H, W)``);
    ``max_steps`` is the FOV evaluation budget; ``engine`` is
    ``"batched"`` or the bit-identical ``"serial"`` reference;
    ``window_cache`` shares z-scored image windows across calls on the
    same image.

    Returns a float32 array of object probabilities, same shape as
    ``volume`` (``init_prob`` everywhere the flood never looked).
    """
    return flood_fill_multi(
        model,
        volume,
        [seed],
        max_steps=max_steps,
        engine=engine,
        window_cache=window_cache,
    )[0]


def flood_fill_multi(
    model: FFNModel,
    volume: np.ndarray,
    seeds: _t.Sequence[tuple[int, int, int]],
    max_steps: int = 256,
    normalized: bool = False,
    engine: str = "batched",
    window_cache: dict | None = None,
    tracer: "Tracer | None" = None,
    span_parent: "Span | None" = None,
) -> list[np.ndarray]:
    """Flood several seeds as one merged wavefront; one result per seed.

    Each seed grows its **own** independent flood (own mask, own visited
    set, own step budget) — floods never read each other's state — but
    every wave stacks *all* live floods' frontier patches into a single
    ``forward_batch``, so the GEMM stays fat even when individual
    frontiers are thin.  Because :meth:`FFNModel.forward_batch` is
    per-item bit-identical to the unbatched forward, each flood's output
    is **bit-identical** to running :func:`flood_fill` on its seed alone
    — the parity suite asserts exactly that.

    Each flood is wavefront-synchronous: its frontier (one BFS level of
    FOV centers, ordered, deduplicated, unvisited and truncated to its
    ``max_steps`` budget) reads the mask as it stood when the wave
    started, and results are written back in frontier order.
    ``normalized`` skips z-scoring an already z-scored ``volume``;
    ``window_cache`` maps FOV center -> z-scored image window and may be
    shared across calls on the same image (as :func:`segment_volume`
    does), so revisited centers only re-read the mask channel.

    Span schema (identical for both engines except the ``engine``
    attribute): one ``compute`` span named ``flood_fill`` with
    attributes ``seeds`` and ``engine`` (plus per-seed ``steps`` at
    finish), and one child ``compute`` span per merged wave
    (``wave:{i}``, attributes ``patches`` = stacked batch size and
    ``floods`` = live flood count).

    Returns a list of float32 probability volumes in seed order.
    Implementation note: only the bounding box of a flood's visited
    FOVs is run through :func:`~repro.ml.ffn.sigmoid`; the untouched
    region around it is filled with ``sigmoid(init_logit)``, the value
    every voxel there holds, not computed voxel by voxel.
    """
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
        # confident[i][axis][side]: move patch i's FOV across that face.
        confident = (face_max >= cfg.move_threshold).tolist()
        # Write back + expand per flood, each in its own frontier order,
        # so a flood's result never depends on what shared its wave.
        offset = 0
        for fi, frontier, slices_list in waves:
            for j, slc in enumerate(slices_list):
                masks[fi][slc] = outs[offset + j]
            for center, faces in zip(
                frontier, confident[offset:offset + len(frontier)]
            ):
                # Centers are clamped already, so a move along one axis
                # only needs that coordinate clamped.
                for axis, (lo, hi) in enumerate(bounds):
                    for side, step in ((0, -half[axis]), (1, half[axis])):
                        if faces[axis][side]:
                            nxt = list(center)
                            nxt[axis] = min(max(center[axis] + step, lo), hi)
                            nxt_t = tuple(nxt)
                            if nxt_t not in visited[fi]:
                                pending[fi].append(nxt_t)
            offset += len(frontier)
        if tracer is not None and wave_span is not None:
            tracer.finish(wave_span)
    if tracer is not None and flood_span is not None:
        tracer.finish(flood_span, attributes={"steps": steps})
    # A flood writes only inside its visited centers' FOVs, and the seed
    # voxel lies in the first one, centred on the clamped seed; outside
    # their bounding box every probability is sigmoid(init_logit).
    untouched = sigmoid(np.array([cfg.init_logit], dtype=np.float32))[0]
    results = []
    for mask, centers in zip(masks, visited):
        if not centers:  # no FOV evaluated: only the seed voxel moved
            results.append(sigmoid(mask))
            continue
        box = tuple(
            slice(min(c[axis] for c in centers) - h,
                  max(c[axis] for c in centers) + h + 1)
            for axis, h in enumerate(half)
        )
        probs = np.full(volume.shape, untouched, dtype=np.float32)
        probs[box] = sigmoid(mask[box])
        results.append(probs)
    return results


#: Voxels at or above this percentile of the raw volume seed objects.
SEED_PERCENTILE = 97.0


def segment_volume(
    model: FFNModel,
    volume: np.ndarray,
    max_objects: int = 32,
    max_steps_per_object: int = 256,
    engine: str = "batched",
    seed_batch: int = 1,
    tracer: "Tracer | None" = None,
    span_parent: "Span | None" = None,
) -> np.ndarray:
    """Segment a whole volume into labelled objects.

    Seeds are taken greedily from the highest-intensity voxels above
    the :data:`SEED_PERCENTILE` that no earlier object claimed; each seed is
    flooded with :func:`flood_fill_multi` and thresholded at the model's
    ``segment_threshold``.  A z-scored image-window cache is shared
    across floods, so centers revisited by later objects skip the window
    extraction.

    ``seed_batch > 1`` floods up to that many seeds **speculatively** in
    one merged wavefront, keeping the FFN batch dimension fat when
    individual frontiers are thin (``seed_batch=1`` is the same loop
    with one seed per wave).  Speculation is safe because a flood
    depends only on the image and its seed, never on ``labels``:
    results are *committed* strictly in candidate order with the same
    skip/reject rules for every batch width, so a
    batch member whose seed gets claimed by an earlier commit is simply
    discarded — wasted compute, never a changed output.  To keep that
    waste low, gathering prefers seeds at least one FOV apart (brightness
    ranks cluster inside a single object); which seeds flood together
    changes only the timing, so the label volume is **bit-identical**
    for every ``seed_batch`` value.

    Returns
    -------
    An int32 label volume: 0 = background, 1..N = object ids.
    """
    if seed_batch < 1:
        raise ShapeError("seed_batch must be >= 1")
    labels = np.zeros(volume.shape, dtype=np.int32)
    segment_span = None
    if tracer is not None:
        attributes = {"shape": list(volume.shape), "engine": engine}
        if seed_batch > 1:
            attributes["seed_batch"] = seed_batch
        segment_span = tracer.start(
            "segment_volume",
            "compute",
            parent=span_parent,
            attributes=attributes,
        )
    image = zscore(volume)
    threshold_value = np.percentile(volume, SEED_PERCENTILE)
    candidates = np.argwhere(volume >= threshold_value)
    # Brightest first: flood the most confident objects before leftovers.
    order = np.argsort(-volume[tuple(candidates.T)])
    candidates = candidates[order]
    next_id = 1
    window_cache: dict = {}
    voxels = [tuple(v) for v in candidates]
    n = len(voxels)
    # Gather-time diversity: candidate brightness ranks cluster inside
    # one object, and two seeds of the same object cost a whole wasted
    # flood (the first commit claims the second seed).  Batch members
    # are therefore kept at least a FOV apart; a skipped candidate stays
    # in the queue and is usually claimed by the time the cursor
    # reaches it.
    min_sep = max(model.config.fov)
    flooded: dict[int, np.ndarray] = {}
    pos = 0
    while pos < n and next_id <= max_objects:
        if labels[voxels[pos]] != 0:  # claimed by an earlier commit
            flooded.pop(pos, None)
            pos += 1
            continue
        if pos not in flooded:
            # Flood the cursor seed plus up to seed_batch-1 diverse,
            # currently-unclaimed seeds ahead of it in one merged
            # wavefront.
            batch = [pos]
            for j in range(pos + 1, n):
                if len(batch) == seed_batch:
                    break
                if j in flooded or labels[voxels[j]] != 0:
                    continue
                if any(
                    max(abs(a - b) for a, b in zip(voxels[j], voxels[k]))
                    < min_sep
                    for k in batch
                ):
                    continue
                batch.append(j)
            probs_list = flood_fill_multi(
                model,
                image,
                [voxels[j] for j in batch],
                max_steps=max_steps_per_object,
                normalized=True,
                engine=engine,
                window_cache=window_cache,
                tracer=tracer,
                span_parent=segment_span,
            )
            for j, probs in zip(batch, probs_list):
                flooded[j] = probs
        # Commit the cursor's flood in candidate order.
        probs = flooded.pop(pos)
        pos += 1
        obj = (probs >= model.config.segment_threshold) & (labels == 0)
        if obj.sum() < 2:  # reject degenerate single-voxel floods
            continue
        labels[obj] = next_id
        next_id += 1
    if tracer is not None and segment_span is not None:
        tracer.finish(segment_span, attributes={"objects": next_id - 1})
    return labels


def split_shards(n_timesteps: int, n_workers: int) -> list[tuple[int, int]]:
    """Evenly split a time axis into ``n_workers`` contiguous slices.

    This is the paper's step-3 distribution rule: the data volume "is
    evenly distributed across the 50 GPUs".  Shards differ in length by
    at most one timestep; empty shards are never produced (workers beyond
    the timestep count get nothing).
    """
    if n_workers < 1 or n_timesteps < 1:
        raise ShapeError("need at least one worker and one timestep")
    n_workers = min(n_workers, n_timesteps)
    bounds = np.linspace(0, n_timesteps, n_workers + 1).astype(int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_workers)
        if bounds[i + 1] > bounds[i]
    ]
