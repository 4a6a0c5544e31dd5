"""FFN training: FOV patch sampling + SGD.

"Training the model relies on a labeled dataset ... a binary
representation of locations on earth where intense large-scale moisture
transport (IVT) processes exist.  The CONNECT dataset is used for
training" (§III-B).  The trainer samples FOV-sized patches centered on
object voxels (plus background patches), seeds the mask at the center,
runs one FFN step, and minimizes voxelwise sigmoid cross-entropy —
each step trained independently, as in the reference FFN.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import MLError, ShapeError
from repro.ml.ffn import FFNModel, zscore

__all__ = ["TrainingReport", "FFNTrainer"]


@dataclasses.dataclass
class TrainingReport:
    """What a training run produced."""

    steps: int
    losses: list[float]
    final_loss: float
    initial_loss: float
    patches_seen: int

    @property
    def improved(self) -> bool:
        return self.final_loss < self.initial_loss


#: Fraction of sampled patches centered on labelled object voxels (the
#: rest are random background, so the model learns to *not* flood empty
#: air).
OBJECT_FRACTION = 0.7
#: Training steps between recorded batch losses (the last step is
#: always recorded).
LOG_EVERY = 10


class FFNTrainer:
    """Patch-based SGD trainer.

    Parameters
    ----------
    model:
        The :class:`FFNModel` to optimize (updated in place).
    lr:
        SGD learning rate (momentum is the model's, 0.9).
    seed:
        Sampling RNG seed.
    """

    def __init__(
        self,
        model: FFNModel,
        lr: float = 0.1,
        fov_steps: int = 3,
        batch_size: int = 4,
        seed: int = 0,
    ):
        if fov_steps < 1:
            raise MLError("fov_steps must be >= 1")
        if batch_size < 1:
            raise MLError("batch_size must be >= 1")
        self.model = model
        self.lr = lr
        #: FFN steps iterated per patch: later steps see partially flooded
        #: masks, which is exactly what inference produces — training only
        #: on fresh seeds makes the network over-flood at inference time.
        self.fov_steps = fov_steps
        #: Patches whose gradients are accumulated per optimizer step;
        #: single-patch SGD oscillates between flooding and suppressing.
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)

    # -- sampling ----------------------------------------------------------------

    def _patch_centers(
        self, labels: np.ndarray, count: int
    ) -> list[tuple[int, int, int]]:
        fov = np.array(self.model.config.fov)
        half = fov // 2
        shape = np.array(labels.shape)
        lo, hi = half, shape - half  # valid center range (exclusive hi)
        if np.any(lo >= hi):
            raise ShapeError(
                f"volume {labels.shape} too small for FOV {tuple(fov)}"
            )
        interior = labels[tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))]
        object_voxels = np.argwhere(interior > 0) + lo
        centers: list[tuple[int, int, int]] = []
        n_obj = int(round(count * OBJECT_FRACTION))
        if len(object_voxels) and n_obj:
            picks = self.rng.integers(0, len(object_voxels), size=n_obj)
            centers.extend(map(tuple, object_voxels[picks]))
        while len(centers) < count:
            centers.append(
                tuple(int(self.rng.integers(a, b)) for a, b in zip(lo, hi))
            )
        # Interleave object and background patches — a sorted curriculum
        # ends with a long background-only run and the model forgets how
        # to flood (catastrophic forgetting).
        self.rng.shuffle(centers)
        return centers

    # -- training -------------------------------------------------------------------

    def _patches(
        self, image: np.ndarray, labels: np.ndarray, centers: list
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(images, label masks, seeded mask logits)`` for the
        FOV patches centered at ``centers``."""
        cfg = self.model.config
        half = tuple(f // 2 for f in cfg.fov)
        slices_list = [
            tuple(slice(c - h, c + h + 1) for c, h in zip(center, half))
            for center in centers
        ]
        img_patches = np.stack([image[s] for s in slices_list])
        label_patches = np.stack(
            [(labels[s] > 0).astype(np.float32) for s in slices_list]
        )
        masks = np.full(
            (len(centers),) + cfg.fov, cfg.init_logit, dtype=np.float32
        )
        masks[(slice(None),) + half] = cfg.seed_logit  # every item's seed
        return img_patches, label_patches, masks

    def train_step(
        self, image: np.ndarray, labels: np.ndarray, centers: list
    ) -> tuple[float, float]:
        """One minibatch SGD step on the FOV patches at ``centers``.

        ``image`` is the z-scored volume (:func:`~repro.ml.ffn.zscore`).
        The whole batch moves through the conv stack as one set of
        batched kernels per FOV step (one GEMM per conv layer, instead
        of one per patch); gradients are scaled by
        ``1 / (len(centers) * fov_steps)`` and applied in one
        ``sgd_step``.

        Returns ``(batch_loss, first_loss)``: the mean item loss over
        the batch and FOV steps, and item 0's loss on the first FOV step.
        """
        img_patches, label_patches, masks = self._patches(image, labels, centers)
        grad_scale = 1.0 / (len(centers) * self.fov_steps)
        batch_loss = 0.0
        first_loss = None
        for _ in range(self.fov_steps):
            logits = self.model.forward_batch(img_patches, masks)
            item_losses, grad = FFNModel.logistic_loss_batch(
                logits, label_patches
            )
            if first_loss is None:
                first_loss = float(item_losses[0])
            batch_loss += float(item_losses.sum()) * grad_scale
            self.model.backward_batch(grad * grad_scale)
            # Next pass sees the (detached, saturated) updated masks.
            masks = np.clip(logits, -16.0, 16.0).astype(np.float32)
        self.model.sgd_step(self.lr)
        return batch_loss, first_loss

    def train(
        self,
        volume: np.ndarray,
        labels: np.ndarray,
        steps: int = 200,
    ) -> TrainingReport:
        """Run ``steps`` :meth:`train_step` calls of ``batch_size``
        patches each on (volume, labels).

        ``labels`` is binary (object/background) with the same shape as
        ``volume`` — the paper's "576x361x240 data volume" at any scale.
        """
        if volume.shape != labels.shape:
            raise ShapeError(
                f"volume {volume.shape} and labels {labels.shape} differ"
            )
        image = zscore(volume)
        losses: list[float] = []
        initial_loss = None
        centers = self._patch_centers(labels, steps * self.batch_size)
        for step in range(steps):
            batch = centers[step * self.batch_size : (step + 1) * self.batch_size]
            batch_loss, first_loss = self.train_step(image, labels, batch)
            if initial_loss is None:
                initial_loss = first_loss
            if step % LOG_EVERY == 0 or step == steps - 1:
                losses.append(batch_loss)
        return TrainingReport(
            steps=steps,
            losses=losses,
            final_loss=losses[-1],
            initial_loss=float(initial_loss),
            patches_seen=steps * self.batch_size,
        )

    def evaluate(self, volume: np.ndarray, labels: np.ndarray,
                 n_patches: int = 50) -> float:
        """Mean loss over freshly sampled patches (no updates)."""
        img_patches, label_patches, masks = self._patches(
            zscore(volume), labels, self._patch_centers(labels, n_patches)
        )
        logits = self.model.forward_batch(img_patches, masks)
        item_losses, _ = FFNModel.logistic_loss_batch(logits, label_patches)
        return float(item_losses.mean())
