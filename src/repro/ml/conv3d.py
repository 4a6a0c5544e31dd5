"""Vectorized 3-D convolution with backpropagation, batched and unbatched.

The FFN is "a 3D convolution neural network (3D CNN) ... able to separate
objects within a 3D volume of spatial data or images by using a deep
stack of 3D convolutions" (§III-B).  This module supplies that kernel:
``same``-padded, stride-1, cross-correlation convention (as every DL
framework uses), lowered to im2col + one BLAS GEMM per call.

At the FFN's shapes (5³ FOVs, a handful of filters) the GEMM is a small
part of each call, so the operands are built with as little host work
as possible:

- **Padding** is one slice assignment into a preallocated ``np.zeros``
  buffer ``(N, C, D+2p, H+2p, W+2p)``, ``p = k // 2``.
- **The im2col matrix** is one C-level gather: ``np.take`` along the
  flattened padded buffer with a flat-index table that depends only on
  ``(C, k, spatial)`` and is memoised per shape.  The forward gathers the
  ``(N, C·k³, D·H·W)`` operand of ``np.matmul(w_mat, cols)``; the weight
  gradient gathers the ``(N·D·H·W, C·k³)`` operand of
  ``np.dot(grad_y_mat, cols_t)`` with the transposed table.  Both
  gathers pass ``mode="wrap"``: the default ``"raise"`` bounds-checks
  every index, which cost close to half of the gathers' time.  For
  indices in range every mode returns the same elements, and the tables
  are in range by construction (``tests/ml/test_conv_oracle.py`` checks
  it), so the mode changes no bit.
- **The bias** is added in place to the fresh ``matmul`` output, in the
  output's dtype.
- **A 1×1×1 kernel** (the FFN head) neither pads nor gathers: its im2col
  matrix is ``x`` itself, reshaped.

Every GEMM gets the operands that a pad + strided-window-view +
tensor-contraction lowering would build — same shape, values and
C-contiguous layout — so the results are bit-for-bit those of that
lowering (``tests/ml/test_conv_oracle.py`` keeps it as the oracle).
The one exception is a one-channel input with ``H == W == 1 < D`` and
``k > 1``: there that lowering's forward operand is a strided view, which
``np.matmul`` multiplies without BLAS, so such shapes differ from it in
the last bits.
The forward's im2col matrix is *not* kept for the backward: inference
would then hold every layer's matrix alive, which costs more memory than
the second gather costs time.

The batched entry points carry a leading batch axis ``N`` and run all
``N`` items in a single stacked GEMM; this is what makes wavefront
flood filling (:mod:`repro.ml.inference`) and minibatch training
(:mod:`repro.ml.training`) fast.  The unbatched functions are thin
``N=1`` wrappers, so both paths share one code path and one numerical
behaviour: per item, the contraction axes and their order are identical,
which keeps batched and unbatched results bit-for-bit equal (the parity
suite asserts this).

Shapes
------
Unbatched:

- input   ``x``: ``(C_in, D, H, W)``
- weights ``w``: ``(C_out, C_in, k, k, k)`` (odd ``k``)
- bias    ``b``: ``(C_out,)``
- output  ``y``: ``(C_out, D, H, W)``

Batched: ``x``: ``(N, C_in, D, H, W)`` and ``y``: ``(N, C_out, D, H, W)``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "conv3d_forward",
    "conv3d_backward",
    "conv3d_forward_batch",
    "conv3d_backward_batch",
    "Conv3D",
]


def _check_shapes_batch(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None
) -> int:
    """Validate a batched conv's operands; returns the kernel size ``k``.

    ``b`` is checked when given (the backward has no bias operand).
    """
    if x.ndim != 5:
        raise ShapeError(f"x must be (N,C,D,H,W), got {x.shape}")
    if w.ndim != 5 or w.shape[2] != w.shape[3] or w.shape[3] != w.shape[4]:
        raise ShapeError(f"w must be (O,C,k,k,k) with cubic kernel, got {w.shape}")
    if w.shape[1] != x.shape[1]:
        raise ShapeError(
            f"channel mismatch: x has {x.shape[1]}, w expects {w.shape[1]}"
        )
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"b must be ({w.shape[0]},), got {b.shape}")
    k = w.shape[2]
    if k % 2 != 1:
        raise ShapeError(f"kernel size must be odd, got {k}")
    return k


@functools.lru_cache(maxsize=64)
def _im2col_index(c: int, k: int, spatial: tuple[int, int, int]) -> np.ndarray:
    """Flat indices of the im2col matrix in one padded, flattened item.

    Row ``(c, a, b, g)`` (the weight layout), column ``(z, y, x)``: entry
    ``[c·k³ + a·k² + b·k + g, z·H·W + y·W + x]`` is the offset of padded
    voxel ``(c, z+a, y+b, x+g)``; shape ``(C·k³, D·H·W)``.  Every entry
    lies in ``[0, C·(D+2p)(H+2p)(W+2p))``, the padded item's size; the
    largest is that size minus one.  That range is what lets the gathers
    use ``np.take(..., mode="wrap")``, which skips the per-index bounds
    check and returns the same elements as ``"raise"`` for any in-range
    index; ``tests/ml/test_conv_oracle.py`` checks it over a grid of
    shapes.  The cached table is shared by every call and must not be
    written to; it is left writeable because ``np.take`` copies a
    read-only index array on every call, in every mode.
    """
    d, h, w = spatial
    pad = k // 2
    ph, pw = h + 2 * pad, w + 2 * pad
    plane = (d + 2 * pad) * ph * pw
    r = np.arange(k, dtype=np.intp)
    tap = (np.arange(c, dtype=np.intp)[:, None, None, None] * plane
           + r[:, None, None] * (ph * pw) + r[:, None] * pw + r).reshape(-1)
    origin = (np.arange(d, dtype=np.intp)[:, None, None] * (ph * pw)
              + np.arange(h, dtype=np.intp)[:, None] * pw
              + np.arange(w, dtype=np.intp)).reshape(-1)
    return tap[:, None] + origin[None, :]


@functools.lru_cache(maxsize=64)
def _im2col_index_t(c: int, k: int, spatial: tuple[int, int, int]) -> np.ndarray:
    """C-contiguous transpose of :func:`_im2col_index`, ``(D·H·W, C·k³)``."""
    return np.ascontiguousarray(_im2col_index(c, k, spatial).T)


def _padded(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` zero-padded by ``k // 2`` per spatial side, C-contiguous."""
    pad = k // 2
    if pad == 0:
        return np.ascontiguousarray(x)
    n, c, d, h, w = x.shape
    xp = np.zeros((n, c, d + 2 * pad, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + d, pad:pad + h, pad:pad + w] = x
    return xp


def _forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """The batched conv on validated operands (see the module docstring)."""
    n, c = x.shape[:2]
    spatial = x.shape[2:]
    xp = _padded(x, k)
    if k == 1:
        cols = xp.reshape(n, c, -1)
    else:
        cols = np.take(
            xp.reshape(n, -1), _im2col_index(c, k, spatial), axis=1, mode="wrap"
        )
    w_mat = w.reshape(w.shape[0], c * k**3)
    y = np.matmul(w_mat, cols)  # (N, O, D*H*W), a fresh array
    y = y.reshape(n, w.shape[0], *spatial)
    y += b[None, :, None, None, None]
    return y


def _grad_w(x: np.ndarray, grad_y: np.ndarray, k: int) -> np.ndarray:
    """Batch-summed weight gradient ``(O, C·k³)`` on validated operands.

    ``dL/dw[o, (c,a,b,g)]`` sums ``grad_y[n, o, v] * window(x)[n, v, (c,a,b,g)]``
    over items ``n`` and voxels ``v``: one
    ``(O, N·D·H·W) x (N·D·H·W, C·k³)`` GEMM.  A function of its own so
    that the im2col operand is freed before ``grad_x`` builds its own.
    """
    n, c = x.shape[:2]
    gy_mat = grad_y.transpose(1, 0, 2, 3, 4).reshape(grad_y.shape[1], -1)
    xp = _padded(x, k)
    if k == 1:
        cols_t = xp.transpose(0, 2, 3, 4, 1).reshape(-1, c)
    else:
        cols_t = np.take(
            xp.reshape(n, -1), _im2col_index_t(c, k, x.shape[2:]), axis=1,
            mode="wrap",
        ).reshape(-1, c * k**3)
    return np.dot(gy_mat, cols_t)


def conv3d_forward_batch(
    x: np.ndarray, w: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Same-padded stride-1 3-D convolution over a batch ``(N,C,D,H,W)``.

    The whole batch is one ``np.matmul`` call with the batch as the
    gufunc stack axis: numpy runs an *identically shaped* GEMM per item,
    so item ``i`` of the result is bit-for-bit the ``N=1`` result.  (A
    single fused GEMM over ``N * D * H * W`` columns would be marginally
    faster but is **not** per-item reproducible — BLAS edge-column
    kernels change with the total column count, and the flood-fill
    engines rely on exact batched/serial equivalence.)
    """
    k = _check_shapes_batch(x, w, b)
    return _forward(x, w, b, k)


def conv3d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Same-padded stride-1 3-D convolution (cross-correlation).

    Thin ``N=1`` wrapper over :func:`conv3d_forward_batch`.
    """
    if x.ndim != 4:
        raise ShapeError(f"x must be (C,D,H,W), got {x.shape}")
    return conv3d_forward_batch(x[None], w, b)[0]


def conv3d_backward_batch(
    x: np.ndarray,
    w: np.ndarray,
    grad_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a batched same-padded conv w.r.t. input, weights, bias.

    Parameters
    ----------
    x:
        The forward input ``(N, C, D, H, W)``.
    w:
        The forward weights ``(O, C, k, k, k)``.
    grad_y:
        Upstream gradient ``(N, O, D, H, W)``.

    Returns
    -------
    ``(grad_x, grad_w, grad_b)`` where ``grad_x`` has the batch axis and
    ``grad_w`` / ``grad_b`` are summed over the batch (minibatch
    accumulation happens inside the GEMM, not in Python).

    Raises
    ------
    ShapeError
        On the forward's shape errors (see :func:`conv3d_forward_batch`)
        or a ``grad_y`` that is not ``(N, O, D, H, W)``, before any
        array work.
    """
    k = _check_shapes_batch(x, w)
    n, c = x.shape[:2]
    o = w.shape[0]
    if grad_y.shape != (n, o) + x.shape[2:]:
        raise ShapeError(
            f"grad_y must be {(n, o) + x.shape[2:]}, got {grad_y.shape}"
        )
    grad_w = _grad_w(x, grad_y, k).reshape(w.shape)
    grad_b = grad_y.sum(axis=(0, 2, 3, 4))
    # dL/dx is a full correlation of grad_y with spatially flipped kernels,
    # with in/out channels swapped — i.e. another same-padded conv.
    w_flip = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    grad_x = _forward(
        grad_y, np.ascontiguousarray(w_flip), np.zeros(c, dtype=w.dtype), k
    )
    return grad_x, grad_w, grad_b


def conv3d_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a same-padded conv w.r.t. input, weights, bias.

    Thin ``N=1`` wrapper over :func:`conv3d_backward_batch`.

    Parameters
    ----------
    x:
        The forward input ``(C, D, H, W)``.
    w:
        The forward weights ``(O, C, k, k, k)``.
    grad_y:
        Upstream gradient ``(O, D, H, W)``.

    Returns
    -------
    (grad_x, grad_w, grad_b)
    """
    if x.ndim != 4:
        raise ShapeError(f"x must be (C,D,H,W), got {x.shape}")
    if grad_y.shape != (w.shape[0],) + x.shape[1:]:
        raise ShapeError(
            f"grad_y must be {(w.shape[0],) + x.shape[1:]}, got {grad_y.shape}"
        )
    grad_x, grad_w, grad_b = conv3d_backward_batch(x[None], w, grad_y[None])
    return grad_x[0], grad_w, grad_b


class Conv3D:
    """A learnable conv layer: parameters + forward/backward + SGD step."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel**3
        scale = np.sqrt(2.0 / fan_in)  # He init for ReLU stacks
        shape = (out_channels, in_channels, kernel, kernel, kernel)
        self.w = rng.normal(0.0, scale, size=shape).astype(np.float32)
        self.b = np.zeros(out_channels, dtype=np.float32)
        self._x: np.ndarray | None = None
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)

    @property
    def n_params(self) -> int:
        return self.w.size + self.b.size

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return conv3d_forward(x, self.w, self.b)

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Batched forward over ``(N, C, D, H, W)``."""
        self._x = x
        return conv3d_forward_batch(x, self.w, self.b)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ShapeError("backward() before forward()")
        if self._x.ndim != 4:
            raise ShapeError("backward() after forward_batch(); use backward_batch()")
        grad_x, gw, gb = conv3d_backward(self._x, self.w, grad_y)
        # Accumulate (zeroed by the optimizer step).
        self.grad_w += gw
        self.grad_b += gb
        return grad_x

    def backward_batch(self, grad_y: np.ndarray) -> np.ndarray:
        """Batched backward; accumulates batch-summed parameter grads."""
        if self._x is None:
            raise ShapeError("backward_batch() before forward_batch()")
        if self._x.ndim != 5:
            raise ShapeError("backward_batch() after forward(); use backward()")
        grad_x, gw, gb = conv3d_backward_batch(self._x, self.w, grad_y)
        self.grad_w += gw
        self.grad_b += gb
        return grad_x

    def sgd_step(self, lr: float, momentum_buf: dict | None = None,
                 momentum: float = 0.9) -> None:
        """In-place SGD (with optional momentum) and gradient reset."""
        if momentum_buf is not None:
            vw = momentum_buf.setdefault("w", np.zeros_like(self.w))
            vb = momentum_buf.setdefault("b", np.zeros_like(self.b))
            vw *= momentum
            vw += self.grad_w
            vb *= momentum
            vb += self.grad_b
            self.w -= lr * vw
            self.b -= lr * vb
        else:
            self.w -= lr * self.grad_w
            self.b -= lr * self.grad_b
        self.grad_w[:] = 0
        self.grad_b[:] = 0
