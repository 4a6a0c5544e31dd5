"""Distributed inference with cross-shard object stitching.

Paper §III-C shards the 112,249-timestep volume evenly across 50 GPUs.
But CONNECT-style objects are connected **in time** — an atmospheric
river alive at a shard boundary exists in two shards and would be
reported twice.  A correct distributed segmentation therefore needs:

1. **halo regions** — each shard is segmented with a few timesteps of
   overlap into its neighbor, so boundary objects are seen whole by at
   least one worker;
2. **label stitching** — after the fan-out, labels that touch across the
   boundary plane are merged with a union-find pass, and every object id
   is made globally unique.

This module implements that algorithm for real (NumPy + the disjoint-set
forest from :mod:`repro.ml.connect`) and is validated against the
monolithic segmentation in the test suite.

Every shard runs one routine, :func:`~repro.ml.shm_pool.segment_shard`,
either in-process (``max_workers=1``, the default and the reference:
the caller's model on views of the caller's volume) or on the zero-copy
:class:`~repro.ml.shm_pool.SharedMemoryPool` (``max_workers>1`` or a
caller-owned ``pool``) — long-lived workers over shared numpy buffers,
so per-task traffic is a handful of integers.  Results are stitched in
shard order regardless of completion order, so the output is identical
for every worker count.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.errors import ShapeError
from repro.ml.connect import _DisjointSet
from repro.ml.ffn import FFNModel
from repro.ml.inference import split_shards
from repro.ml.shm_pool import SharedMemoryPool, ShardSpec, segment_shard

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.tracing.span import Span, Tracer

__all__ = ["ShardSegmentation", "distributed_segment", "stitch_labels"]


@dataclasses.dataclass
class ShardSegmentation:
    """One worker's output: labels for its *owned* slice plus halo info.

    ``labels`` covers ``[t0, t1)`` (the owned region only); halo voxels
    are used during the shard's own segmentation and for stitching but
    are not part of the owned output.
    """

    shard_index: int
    t0: int
    t1: int
    labels: np.ndarray  # (t1 - t0, H, W) int32, local ids from 1
    n_objects: int


def _halo_bounds(
    n_timesteps: int, t0: int, t1: int, halo: int, fov_t: int
) -> tuple[int, int]:
    """Shard slice bounds with halo, widened to at least one FOV of time."""
    lo = max(0, t0 - halo)
    hi = min(n_timesteps, t1 + halo)
    while hi - lo < fov_t and (lo > 0 or hi < n_timesteps):
        lo = max(0, lo - 1)
        hi = min(n_timesteps, hi + 1)
    return lo, hi


def stitch_labels(shards: _t.Sequence[ShardSegmentation]) -> np.ndarray:
    """Merge per-shard labels into one globally consistent volume.

    Objects touching across a shard boundary (same spatial pixel lit in
    the last owned timestep of shard *k* and the first of shard *k+1* —
    the 6-connectivity CONNECT uses) are unioned into one id.
    """
    if not shards:
        raise ShapeError("no shards to stitch")
    ordered = sorted(shards, key=lambda s: s.t0)
    for a, b in zip(ordered, ordered[1:]):
        if a.t1 != b.t0:
            raise ShapeError(
                f"shards [{a.t0},{a.t1}) and [{b.t0},{b.t1}) are not contiguous"
            )
        if a.labels.shape[1:] != b.labels.shape[1:]:
            raise ShapeError("shards disagree on spatial shape")

    # Global id space: offset each shard's local ids.
    offsets = []
    total = 0
    for shard in ordered:
        offsets.append(total)
        total += shard.n_objects
    dsu = _DisjointSet(total + 1)

    # Union across each boundary plane (vectorized pair extraction).
    for k in range(len(ordered) - 1):
        left, right = ordered[k], ordered[k + 1]
        if left.labels.shape[0] == 0 or right.labels.shape[0] == 0:
            continue
        plane_a = left.labels[-1]
        plane_b = right.labels[0]
        both = (plane_a > 0) & (plane_b > 0)
        a_ids = plane_a[both] + offsets[k]
        b_ids = plane_b[both] + offsets[k + 1]
        for a, b in zip(a_ids.tolist(), b_ids.tolist()):
            dsu.union(a, b)

    # Compact the merged ids.
    roots = {}
    next_id = 0
    out = np.zeros(
        (ordered[-1].t1 - ordered[0].t0,) + ordered[0].labels.shape[1:],
        dtype=np.int32,
    )
    base_t = ordered[0].t0
    for k, shard in enumerate(ordered):
        if shard.n_objects == 0:
            continue
        # Map this shard's local ids -> global compact ids in one take.
        local_ids = np.arange(1, shard.n_objects + 1)
        mapping = np.zeros(shard.n_objects + 1, dtype=np.int32)
        for local in local_ids:
            root = dsu.find(int(local + offsets[k]))
            if root not in roots:
                next_id += 1
                roots[root] = next_id
            mapping[local] = roots[root]
        out[shard.t0 - base_t : shard.t1 - base_t] = mapping[shard.labels]
    return out


def distributed_segment(
    model: FFNModel,
    volume: np.ndarray,
    n_workers: int,
    halo: int = 2,
    max_workers: int | None = None,
    pool: SharedMemoryPool | None = None,
    tracer: "Tracer | None" = None,
    span_parent: "Span | None" = None,
) -> tuple[np.ndarray, list[ShardSegmentation]]:
    """Segment ``volume`` as the paper's GPU fan-out would: shard the
    time axis, segment each shard (with halo), stitch.  Each shard is
    segmented by :func:`~repro.ml.shm_pool.segment_shard` (the batched
    engine, one seed per wave, at most 16 objects).

    Parameters
    ----------
    n_workers:
        Number of logical shards (the paper's "50 GPUs").
    max_workers:
        Degree of *actual* parallelism: ``None`` or ``1`` segments the
        shards in-process; ``>1`` fans them out across the processes of
        a :class:`~repro.ml.shm_pool.SharedMemoryPool`.
        Results are gathered in shard order, so the stitched output is
        identical for every ``max_workers`` value.
    pool:
        An already-running :class:`~repro.ml.shm_pool.SharedMemoryPool`
        to reuse across calls (the caller keeps ownership; repeated
        inference amortizes worker spawn to zero).  When ``None`` and
        ``max_workers > 1``, an ephemeral pool is spun up and torn down
        inside the call.
    tracer, span_parent:
        Optional :class:`~repro.tracing.span.Tracer` (+ parent span):
        one ``compute`` span per shard plus a ``stitch`` span.  Spans are
        always emitted in the **parent** process in shard order (a tracer
        does not cross the process boundary), so the trace is identical
        for every ``max_workers`` value.

    Returns ``(global_labels, shard_outputs)``.
    """
    if volume.ndim != 3:
        raise ShapeError(f"volume must be (T, H, W), got {volume.shape}")
    if halo < 0:
        raise ShapeError("halo must be >= 0")
    if max_workers is not None and max_workers < 1:
        raise ShapeError("max_workers must be >= 1")
    fov_t = model.config.fov[0]
    specs = [
        ShardSpec(i, *_halo_bounds(volume.shape[0], t0, t1, halo, fov_t), t0, t1)
        for i, (t0, t1) in enumerate(split_shards(volume.shape[0], n_workers))
    ]
    fanout_span = None
    if tracer is not None:
        fanout_span = tracer.start(
            "distributed_segment",
            "compute",
            parent=span_parent,
            # The engine segment_shard runs; traces have always named it.
            attributes={"shards": len(specs), "engine": "batched"},
        )
    pooled = None
    if pool is not None or (
        max_workers is not None and max_workers > 1 and len(specs) > 1
    ):
        owned_pool = pool if pool is not None else SharedMemoryPool(
            model, n_workers=min(max_workers, len(specs))
        )
        try:
            slabs, receipts = owned_pool.segment_shards(volume, specs)
        finally:
            if pool is None:
                owned_pool.close()
        pooled = iter(zip(slabs, [r.n_objects for r in receipts]))
    # Shard spans are emitted in the parent, in shard order, with the
    # same start/finish interleaving however the shards ran.
    shard_outputs = []
    for spec in specs:
        span = None
        if tracer is not None:
            span = tracer.start(
                f"shard:{spec.shard_index}",
                "compute",
                parent=fanout_span,
                attributes={"t0": spec.t0, "t1": spec.t1},
            )
        labels, n_objects = (
            next(pooled) if pooled is not None
            else segment_shard(model, volume, spec)
        )
        if span is not None:
            tracer.finish(span, attributes={"objects": n_objects})
        shard_outputs.append(
            ShardSegmentation(spec.shard_index, spec.t0, spec.t1, labels, n_objects)
        )
    if tracer is None:
        stitched = stitch_labels(shard_outputs)
    else:
        with tracer.span(
            "stitch", "compute", parent=fanout_span,
            attributes={"shards": len(shard_outputs)},
        ):
            stitched = stitch_labels(shard_outputs)
        if fanout_span is not None:
            tracer.finish(fanout_span)
    return stitched, shard_outputs
