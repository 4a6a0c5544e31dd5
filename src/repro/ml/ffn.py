"""The Flood-Filling Network model.

A faithful, laptop-scale NumPy implementation of the FFN of Januszewski
et al. [20], which the paper applies to NASA data: a residual stack of
3-D convolutions that reads a two-channel field of view (FOV) — the image
patch and the current object-mask logits — and predicts a **logit update**
for the mask.  Iterating the network while moving the FOV floods an
object outward from a seed (the inference loop lives in
:mod:`repro.ml.inference`).

The implementation is complete: forward, full backpropagation, and SGD
with momentum, all in vectorized NumPy.  Training each FOV step
independently (no backprop through the recursion) matches the reference
FFN training scheme.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.errors import ShapeError
from repro.ml.conv3d import Conv3D

__all__ = ["FFNConfig", "FFNModel", "logit", "sigmoid", "zscore"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    Preserves floating input dtypes: a float32 mask stays float32 (the
    flood-fill hot loop would otherwise double its memory traffic on
    every probability readout); integer inputs are computed in float64.
    """
    x = np.asarray(x)
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty_like(x, dtype=dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def zscore(volume: np.ndarray) -> np.ndarray:
    """Z-score an image volume as float32 (the FFN sees standardized
    inputs); a constant volume maps to zeros."""
    v = volume.astype(np.float32)
    std = v.std()
    if std == 0:
        return np.zeros_like(v)
    return (v - v.mean()) / std


def logit(p: float) -> float:
    """Inverse sigmoid for scalar probabilities."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    return float(np.log(p / (1.0 - p)))


@dataclasses.dataclass(frozen=True)
class FFNConfig:
    """Architecture + flood-fill hyperparameters.

    Attributes
    ----------
    fov:
        Field-of-view shape ``(depth, height, width)`` — odd entries.
    filters:
        Conv channels per layer.
    modules:
        Number of residual modules between the input and head convs.
    kernel:
        Cubic kernel size (odd).
    init_prob / seed_prob:
        Mask initialization: everything starts at ``init_prob`` except
        the seed voxel at ``seed_prob`` (the canonical 0.05 / 0.95).
    move_threshold:
        FOV moves toward a face whose max probability exceeds this.
    segment_threshold:
        Final object membership cut on the flooded mask.
    seed:
        Weight-initialization seed.
    """

    fov: tuple[int, int, int] = (9, 9, 9)
    filters: int = 8
    modules: int = 2
    kernel: int = 3
    init_prob: float = 0.05
    seed_prob: float = 0.95
    move_threshold: float = 0.9
    segment_threshold: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if any(f % 2 == 0 or f < 1 for f in self.fov):
            raise ShapeError(f"fov must be odd and positive, got {self.fov}")
        if self.modules < 1 or self.filters < 1:
            raise ShapeError("modules and filters must be >= 1")

    @property
    def init_logit(self) -> float:
        return logit(self.init_prob)

    @property
    def seed_logit(self) -> float:
        return logit(self.seed_prob)


class FFNModel:
    """The residual 3-D CNN computing mask-logit updates.

    Input: ``(2, *fov)`` — image channel + current mask-logit channel.
    Output: ``(*fov,)`` logit deltas, to be **added** to the mask.
    """

    def __init__(self, config: FFNConfig | None = None):
        self.config = config or FFNConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.conv_in = Conv3D(2, cfg.filters, cfg.kernel, rng=rng)
        self.res_convs: list[tuple[Conv3D, Conv3D]] = [
            (
                Conv3D(cfg.filters, cfg.filters, cfg.kernel, rng=rng),
                Conv3D(cfg.filters, cfg.filters, cfg.kernel, rng=rng),
            )
            for _ in range(cfg.modules)
        ]
        self.head = Conv3D(cfg.filters, 1, 1, rng=rng)
        self._cache: dict | None = None
        self._momentum: dict[int, dict] = {}

    # -- bookkeeping -----------------------------------------------------------

    @property
    def layers(self) -> list[Conv3D]:
        out = [self.conv_in]
        for a, b in self.res_convs:
            out.extend((a, b))
        out.append(self.head)
        return out

    @property
    def n_params(self) -> int:
        return sum(layer.n_params for layer in self.layers)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters (what step 2 saves to the object store:
        "all parameters and configurations needed to do inference", §III-C).
        """
        state = {}
        for i, layer in enumerate(self.layers):
            state[f"layer{i}.w"] = layer.w.copy()
            state[f"layer{i}.b"] = layer.b.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            w, b = state[f"layer{i}.w"], state[f"layer{i}.b"]
            if w.shape != layer.w.shape:
                raise ShapeError(
                    f"layer{i}: checkpoint {w.shape} != model {layer.w.shape}"
                )
            layer.w[:] = w
            layer.b[:] = b

    # -- forward / backward ------------------------------------------------------

    def forward(self, image: np.ndarray, mask_logits: np.ndarray) -> np.ndarray:
        """One FFN step: updated mask logits for this FOV."""
        fov = self.config.fov
        if image.shape != fov or mask_logits.shape != fov:
            raise ShapeError(
                f"image/mask must be {fov}, got {image.shape}/{mask_logits.shape}"
            )
        x = np.stack([image, mask_logits]).astype(np.float32)
        cache: dict = {}
        a = self.conv_in.forward(x)
        cache["z_in"] = a
        a = np.maximum(a, 0.0)
        residual_caches = []
        for conv1, conv2 in self.res_convs:
            z1 = conv1.forward(a)
            a1 = np.maximum(z1, 0.0)
            z2 = conv2.forward(a1)
            s = a + z2
            out = np.maximum(s, 0.0)
            residual_caches.append((z1, s))
            a = out
        cache["res"] = residual_caches
        delta = self.head.forward(a)[0]  # (D,H,W)
        self._cache = cache
        return mask_logits + delta

    def forward_batch(
        self, images: np.ndarray, mask_logits: np.ndarray
    ) -> np.ndarray:
        """One FFN step over a whole batch of FOVs in stacked kernels.

        Parameters
        ----------
        images / mask_logits:
            ``(N, *fov)`` stacks.  Every conv in the residual stack runs
            as one stacked ``matmul``, so an ``N``-FOV wavefront costs
            one kernel call per layer instead of ``N``.

        Returns
        -------
        Updated mask logits, ``(N, *fov)``.  Row ``i`` is bit-for-bit
        equal to ``forward(images[i], mask_logits[i])``.
        """
        fov = self.config.fov
        if (
            images.ndim != 4
            or images.shape[1:] != fov
            or mask_logits.shape != images.shape
        ):
            raise ShapeError(
                f"image/mask stacks must be (N, *{fov}), got "
                f"{images.shape}/{mask_logits.shape}"
            )
        x = np.stack([images, mask_logits], axis=1).astype(np.float32)
        cache: dict = {"batched": True}
        a = self.conv_in.forward_batch(x)
        cache["z_in"] = a
        a = np.maximum(a, 0.0)
        residual_caches = []
        for conv1, conv2 in self.res_convs:
            z1 = conv1.forward_batch(a)
            a1 = np.maximum(z1, 0.0)
            z2 = conv2.forward_batch(a1)
            s = a + z2
            out = np.maximum(s, 0.0)
            residual_caches.append((z1, s))
            a = out
        cache["res"] = residual_caches
        delta = self.head.forward_batch(a)[:, 0]  # (N, D, H, W)
        self._cache = cache
        return mask_logits + delta

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backprop ``dL/d(new_logits)`` into parameter gradients.

        The mask-input path contributes identity gradient to ``new_logits``
        but carries no parameters, so only the delta path is followed.
        """
        if self._cache is None:
            raise ShapeError("backward() before forward()")
        if self._cache.get("batched"):
            raise ShapeError(
                "backward() after forward_batch(); use backward_batch()"
            )
        grad = self.head.backward(grad_logits[None].astype(np.float32))
        for (conv1, conv2), (z1, s) in zip(
            reversed(self.res_convs), reversed(self._cache["res"])
        ):
            grad = grad * (s > 0)
            grad_z2 = grad
            grad_a1 = conv2.backward(grad_z2)
            grad_z1 = grad_a1 * (z1 > 0)
            grad = grad + conv1.backward(grad_z1)
        grad = grad * (self._cache["z_in"] > 0)
        self.conv_in.backward(grad)
        self._cache = None

    def backward_batch(self, grad_logits: np.ndarray) -> None:
        """Batched backprop: ``grad_logits`` is ``(N, *fov)``.

        Parameter gradients are summed over the batch inside the conv
        kernels (one weight-gradient GEMM per layer) and accumulated, mirroring
        ``N`` sequential :meth:`backward` calls.
        """
        if self._cache is None:
            raise ShapeError("backward_batch() before forward_batch()")
        if not self._cache.get("batched"):
            raise ShapeError("backward_batch() after forward(); use backward()")
        grad = self.head.backward_batch(
            grad_logits[:, None].astype(np.float32)
        )
        for (conv1, conv2), (z1, s) in zip(
            reversed(self.res_convs), reversed(self._cache["res"])
        ):
            grad = grad * (s > 0)
            grad_a1 = conv2.backward_batch(grad)
            grad_z1 = grad_a1 * (z1 > 0)
            grad = grad + conv1.backward_batch(grad_z1)
        grad = grad * (self._cache["z_in"] > 0)
        self.conv_in.backward_batch(grad)
        self._cache = None

    def sgd_step(self, lr: float) -> None:
        """Apply accumulated gradients to every layer (momentum 0.9)."""
        for i, layer in enumerate(self.layers):
            buf = self._momentum.setdefault(i, {})
            layer.sgd_step(lr, momentum_buf=buf)

    # -- loss -----------------------------------------------------------------------

    @staticmethod
    def logistic_loss_batch(
        logits: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-item sigmoid cross-entropy over a ``(N, *fov)`` batch.

        Returns ``(losses, grad)`` where ``losses`` is ``(N,)`` of
        per-item mean losses and ``grad`` is the ``(N, *fov)`` gradient,
        each item normalized by its own voxel count — so item ``i`` does
        not depend on the other items of the batch.
        """
        if logits.ndim < 2 or logits.shape != labels.shape:
            raise ShapeError(
                f"logits/labels must be matching (N, ...) stacks, got "
                f"{logits.shape}/{labels.shape}"
            )
        labels = labels.astype(np.float64)
        probs = sigmoid(logits)
        # Stable CE: max(z,0) - z*y + log(1+exp(-|z|))
        z = logits.astype(np.float64)
        loss = np.maximum(z, 0) - z * labels + np.log1p(np.exp(-np.abs(z)))
        axes = tuple(range(1, logits.ndim))
        item_size = int(np.prod(logits.shape[1:]))
        losses = loss.mean(axis=axes)
        grad = (probs - labels) / item_size
        return losses, grad.astype(np.float32)
