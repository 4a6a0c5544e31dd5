"""Segmentation quality metrics.

"Note that the training volume is removed from the test data volume for
all validation metrics" (§III-C) — the callers enforce the split; this
module scores predictions voxelwise: precision, recall and F1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ShapeError

__all__ = ["SegmentationScores", "voxel_metrics"]


@dataclasses.dataclass
class SegmentationScores:
    """Voxel-level confusion summary."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def voxel_metrics(predicted: np.ndarray, truth: np.ndarray) -> SegmentationScores:
    """Binary voxelwise scores (any nonzero voxel counts as foreground)."""
    if predicted.shape != truth.shape:
        raise ShapeError(
            f"predicted {predicted.shape} and truth {truth.shape} differ"
        )
    p = predicted > 0
    t = truth > 0
    return SegmentationScores(
        tp=int(np.count_nonzero(p & t)),
        fp=int(np.count_nonzero(p & ~t)),
        fn=int(np.count_nonzero(~p & t)),
        tn=int(np.count_nonzero(~p & ~t)),
    )
