"""The CONNECT algorithm: connected objects in time and space.

The baseline the paper accelerates away from: "the CONNected objECT, or
CONNECT algorithm focuses on keeping track of the entire life-cycle of a
detected earth science phenomena by connecting pixels in time and space"
[21][22].  Given a time-stacked IVT volume, CONNECT thresholds the field
and labels 6-connected components of the ``(time, lat, lon)`` volume — so
an atmospheric river that persists across 3-hourly steps becomes **one**
object with a genesis time, a termination time, and a trajectory.

Implemented from scratch with a vectorized union-find: neighbor pairs
along each axis are found with array slicing (no Python voxel loop) and
merged through a path-compressing disjoint-set forest.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ShapeError

__all__ = ["ConnectedObject", "ConnectReport", "label_volume", "connect_segmentation"]


class _DisjointSet:
    """Path-compressing, union-by-size disjoint sets over ``n`` items."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def label_volume(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """6-connected component labelling of a binary 3-D mask.

    Returns ``(labels, n_objects)`` with labels 1..n (0 = background).
    """
    if mask.ndim != 3:
        raise ShapeError(f"mask must be 3-D (time, lat, lon), got {mask.shape}")
    fg = mask > 0
    n_fg = int(fg.sum())
    labels = np.zeros(mask.shape, dtype=np.int32)
    if n_fg == 0:
        return labels, 0

    # Dense index for foreground voxels.
    voxel_index = np.full(mask.shape, -1, dtype=np.int64)
    voxel_index[fg] = np.arange(n_fg)

    dsu = _DisjointSet(n_fg)
    # For each axis, adjacent foreground pairs found by slicing — fully
    # vectorized; only the union loop is per-pair.
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        both = fg[tuple(lo)] & fg[tuple(hi)]
        a_ids = voxel_index[tuple(lo)][both]
        b_ids = voxel_index[tuple(hi)][both]
        for a, b in zip(a_ids.tolist(), b_ids.tolist()):
            dsu.union(a, b)

    roots = np.fromiter(
        (dsu.find(i) for i in range(n_fg)), count=n_fg, dtype=np.int64
    )
    unique_roots, compact = np.unique(roots, return_inverse=True)
    labels[fg] = compact + 1
    return labels, len(unique_roots)


@dataclasses.dataclass
class ConnectedObject:
    """One tracked phenomenon with its full life cycle."""

    id: int
    genesis_t: int  # first timestep present
    termination_t: int  # last timestep present
    voxels: int
    max_intensity: float
    mean_intensity: float
    centroid_txy: tuple[float, float, float]

    @property
    def lifetime_steps(self) -> int:
        """Timesteps from genesis through termination, inclusive."""
        return self.termination_t - self.genesis_t + 1


@dataclasses.dataclass
class ConnectReport:
    """Output of a CONNECT run."""

    labels: np.ndarray
    objects: list[ConnectedObject]
    threshold: float

    @property
    def n_objects(self) -> int:
        return len(self.objects)


def connect_segmentation(
    ivt_volume: np.ndarray,
    threshold: float | None = None,
    threshold_percentile: float = 95.0,
    min_voxels: int = 4,
) -> ConnectReport:
    """Run CONNECT on a ``(time, lat, lon)`` IVT volume.

    Parameters
    ----------
    ivt_volume:
        The stacked IVT magnitude fields.
    threshold:
        Absolute IVT cut; when ``None``, the ``threshold_percentile`` of
        the volume is used (the CONNECT papers threshold IVT at a high
        climatological percentile).
    min_voxels:
        Objects smaller than this are discarded as noise.

    Returns
    -------
    A :class:`ConnectReport` with the label volume and per-object
    life-cycle statistics (genesis, termination, trajectory centroid).
    """
    if ivt_volume.ndim != 3:
        raise ShapeError(f"expected (time, lat, lon), got {ivt_volume.shape}")
    cut = float(
        threshold
        if threshold is not None
        else np.percentile(ivt_volume, threshold_percentile)
    )
    mask = ivt_volume >= cut
    labels, n = label_volume(mask)

    objects: list[ConnectedObject] = []
    next_id = 0
    for obj_id in range(1, n + 1):
        where = labels == obj_id
        count = int(where.sum())
        if count < min_voxels:
            labels[where] = 0
            continue
        ts, ys, xs = np.nonzero(where)
        vals = ivt_volume[where]
        next_id += 1
        labels[where] = next_id
        objects.append(
            ConnectedObject(
                id=next_id,
                genesis_t=int(ts.min()),
                termination_t=int(ts.max()),
                voxels=count,
                max_intensity=float(vals.max()),
                mean_intensity=float(vals.mean()),
                centroid_txy=(
                    float(ts.mean()),
                    float(ys.mean()),
                    float(xs.mean()),
                ),
            )
        )
    return ConnectReport(labels=labels, objects=objects, threshold=cut)
