"""Bit-equality of the conv kernels against the ``np.pad`` +
``sliding_window_view`` + ``tensordot`` lowering.

:mod:`repro.ml.conv3d` builds its GEMM operands with one index gather
into a zero-padded buffer.  Its contract is that every GEMM sees the
operands the window-view lowering below would build, so each output is
bit-for-bit that lowering's: ``np.array_equal``, not ``allclose``.  The
gathers skip the per-index bounds check (``mode="wrap"``), so this file
also checks that every index table stays inside the padded item.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ShapeError
from repro.ml.conv3d import (
    Conv3D,
    _im2col_index,
    _im2col_index_t,
    conv3d_backward,
    conv3d_backward_batch,
    conv3d_forward,
    conv3d_forward_batch,
)


# -- the oracle: the window-view lowering ------------------------------------


def _oracle_windows(x, k):
    pad = k // 2
    xp = np.pad(
        x,
        ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad)),
        mode="constant",
    )
    return sliding_window_view(xp, (k, k, k), axis=(2, 3, 4))


def oracle_forward(x, w, b):
    k = w.shape[2]
    n, c = x.shape[:2]
    spatial = x.shape[2:]
    win = _oracle_windows(x, k)
    win_mat = win.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(n, c * k**3, -1)
    w_mat = w.reshape(w.shape[0], c * k**3)
    y = np.matmul(w_mat, win_mat)
    y = y.reshape(n, w.shape[0], *spatial)
    return y + b[None, :, None, None, None]


def oracle_backward(x, w, grad_y):
    k = w.shape[2]
    win = _oracle_windows(x, k)
    grad_w = np.tensordot(grad_y, win, axes=([0, 2, 3, 4], [0, 2, 3, 4]))
    grad_b = grad_y.sum(axis=(0, 2, 3, 4))
    w_flip = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
    grad_x = oracle_forward(
        grad_y, np.ascontiguousarray(w_flip), np.zeros(w.shape[1], dtype=w.dtype)
    )
    return grad_x, grad_w, grad_b


# -- helpers ------------------------------------------------------------------


def _operands(rng, n, c, o, k, spatial, dtype):
    x = rng.normal(size=(n, c, *spatial)).astype(dtype)
    w = (rng.normal(size=(o, c, k, k, k)) * 0.3).astype(dtype)
    b = rng.normal(size=o).astype(dtype)
    grad_y = rng.normal(size=(n, o, *spatial)).astype(dtype)
    return x, w, b, grad_y


def oracle_operand_is_contiguous(x, k):
    """Whether the oracle's forward im2col operand is C-contiguous.

    It is for every shape but ``C == 1``, ``H == W == 1 < D``, ``k > 1``.
    There the window reshape is a strided view into the padded buffer, which
    ``np.matmul`` cannot hand to BLAS and runs in its own loop; the
    gathered operand is C-contiguous for every shape, so those shapes
    take the BLAS kernel and differ from the oracle in the last bits.
    """
    n, c = x.shape[:2]
    win = _oracle_windows(x, k)
    return win.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(
        n, c * k**3, -1
    ).flags.c_contiguous


def assert_matches_oracle(x, w, b, grad_y):
    """Bit-equality with the oracle; for the one layout the oracle runs
    without BLAS (see :func:`oracle_operand_is_contiguous`), ``y`` and
    ``grad_x`` are checked to float32 rounding instead."""
    k = w.shape[2]
    # grad_x is the forward conv of grad_y with the flipped kernel.
    exact = (oracle_operand_is_contiguous(x, k),
             oracle_operand_is_contiguous(grad_y, k), True, True)
    got = (conv3d_forward_batch(x, w, b), *conv3d_backward_batch(x, w, grad_y))
    want = (oracle_forward(x, w, b), *oracle_backward(x, w, grad_y))
    names = ("y", "grad_x", "grad_w", "grad_b")
    for name, bitwise, g, e in zip(names, exact, got, want):
        assert g.shape == e.shape, name
        assert g.dtype == e.dtype, name
        if bitwise:
            assert np.array_equal(g, e), name
        else:
            np.testing.assert_allclose(g, e, rtol=1e-5, atol=1e-5, err_msg=name)


SPATIAL = [(5, 5, 5), (9, 9, 9), (3, 7, 5), (1, 1, 1)]


# -- the grid -----------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("spatial", SPATIAL)
def test_batched_kernels_match_oracle(spatial, k, dtype):
    rng = np.random.default_rng([*spatial, k])
    for n, c, o in itertools.product((1, 3, 8), (1, 2, 6), (1, 6)):
        x, w, b, grad_y = _operands(rng, n, c, o, k, spatial, dtype)
        assert_matches_oracle(x, w, b, grad_y)


@pytest.mark.parametrize("k", [1, 3])
def test_non_contiguous_input_matches_oracle(k):
    rng = np.random.default_rng(7)
    base = rng.normal(size=(4, 7, 6, 5, 3)).astype(np.float32)
    w = (rng.normal(size=(6, 3, k, k, k)) * 0.3).astype(np.float32)
    b = rng.normal(size=6).astype(np.float32)
    views = [
        base.transpose(0, 4, 1, 2, 3),  # (4, 3, 7, 6, 5), axes permuted
        base[:, ::2, :, ::-1, :].transpose(0, 4, 1, 2, 3),  # strided + flipped
        np.ascontiguousarray(base.transpose(0, 4, 1, 2, 3))[::2, :, 1:, :, ::2],
    ]
    for x in views:
        assert not x.flags.c_contiguous
        grad_y = rng.normal(size=(x.shape[0], 6) + x.shape[2:]).astype(np.float32)
        assert_matches_oracle(x, w, b, grad_y)
        # A non-contiguous upstream gradient too.
        assert_matches_oracle(x, w, b, np.asfortranarray(grad_y))


def test_unbatched_wrappers_match_oracle():
    rng = np.random.default_rng(11)
    for c, o, k, spatial in itertools.product((1, 2), (1, 6), (1, 3, 5), SPATIAL):
        x, w, b, grad_y = _operands(rng, 1, c, o, k, spatial, np.float32)
        y = conv3d_forward(x[0], w, b)
        assert np.array_equal(y, oracle_forward(x, w, b)[0])
        gx, gw, gb = conv3d_backward(x[0], w, grad_y[0])
        want_gx, want_gw, want_gb = oracle_backward(x, w, grad_y)
        assert gx.shape == want_gx.shape[1:]
        assert np.array_equal(gx, want_gx[0])
        assert np.array_equal(gw, want_gw)
        assert np.array_equal(gb, want_gb)


@pytest.mark.parametrize("k", [1, 3])
def test_layer_path_matches_oracle_over_two_steps(k):
    """``Conv3D.forward_batch`` then ``backward_batch``, grads accumulated."""
    rng = np.random.default_rng(13)
    layer = Conv3D(2, 6, kernel=k, rng=np.random.default_rng(1))
    w = layer.w.copy()
    b = layer.b.copy()
    want_gw = np.zeros_like(w)
    want_gb = np.zeros_like(b)
    for _ in range(2):
        x = rng.normal(size=(4, 2, 5, 5, 5)).astype(np.float32)
        grad_y = rng.normal(size=(4, 6, 5, 5, 5)).astype(np.float32)
        y = layer.forward_batch(x)
        assert np.array_equal(y, oracle_forward(x, w, b))
        gx = layer.backward_batch(grad_y)
        ogx, ogw, ogb = oracle_backward(x, w, grad_y)
        assert np.array_equal(gx, ogx)
        want_gw += ogw
        want_gb += ogb
    assert np.array_equal(layer.grad_w, want_gw)
    assert np.array_equal(layer.grad_b, want_gb)


def test_unbatched_layer_path_matches_oracle():
    rng = np.random.default_rng(17)
    layer = Conv3D(2, 6, kernel=3, rng=np.random.default_rng(2))
    x = rng.normal(size=(2, 5, 5, 5)).astype(np.float32)
    grad_y = rng.normal(size=(6, 5, 5, 5)).astype(np.float32)
    y = layer.forward(x)
    assert np.array_equal(y, oracle_forward(x[None], layer.w, layer.b)[0])
    gx = layer.backward(grad_y)
    ogx, ogw, ogb = oracle_backward(x[None], layer.w, grad_y[None])
    assert np.array_equal(gx, ogx[0])
    assert np.array_equal(layer.grad_w, ogw)
    assert np.array_equal(layer.grad_b, ogb)


def test_oracle_runs_without_blas_only_for_one_layout():
    """The single layout where bit-equality is not the contract."""
    sides = (1, 2, 5)
    for c, d, h, w, k in itertools.product((1, 2), sides, sides, sides, (1, 3, 5)):
        x = np.zeros((2, c, d, h, w), np.float32)
        strided = c == 1 and h == w == 1 < d and k > 1
        assert oracle_operand_is_contiguous(x, k) is not strided


# -- the gather tables stay in range ------------------------------------------


@pytest.mark.parametrize("spatial", [(5, 5, 5), (9, 9, 9), (3, 5, 7), (4, 1, 1)])
@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("c", [1, 2, 6, 8])
def test_gather_tables_stay_in_the_padded_item(c, k, spatial):
    """The gathers run ``np.take(..., mode="wrap")``, which returns what
    the bounds-checked ``"raise"`` does only for in-range indices."""
    pad = k // 2
    size = c * math.prod(n + 2 * pad for n in spatial)
    table = _im2col_index(c, k, spatial)
    table_t = _im2col_index_t(c, k, spatial)
    assert table.shape == (c * k**3, math.prod(spatial))
    assert table_t.shape == table.shape[::-1]
    for t in (table, table_t):
        assert t.min() >= 0
        assert t.max() == size - 1


# -- the backward validates its inputs ----------------------------------------


def test_backward_rejects_channel_mismatch():
    x = np.zeros((2, 3, 5, 5, 5), np.float32)
    w = np.zeros((4, 2, 3, 3, 3), np.float32)
    grad_y = np.zeros((2, 4, 5, 5, 5), np.float32)
    with pytest.raises(ShapeError, match="channel mismatch"):
        conv3d_backward_batch(x, w, grad_y)
    with pytest.raises(ShapeError, match="channel mismatch"):
        conv3d_backward(x[0], w, grad_y[0])


def test_backward_rejects_even_kernel():
    x = np.zeros((2, 2, 5, 5, 5), np.float32)
    w = np.zeros((4, 2, 2, 2, 2), np.float32)
    grad_y = np.zeros((2, 4, 5, 5, 5), np.float32)
    with pytest.raises(ShapeError, match="odd"):
        conv3d_backward_batch(x, w, grad_y)
    with pytest.raises(ShapeError, match="odd"):
        conv3d_backward(x[0], w, grad_y[0])


def test_layer_backward_batch_validates_before_accumulating():
    layer = Conv3D(2, 4, kernel=3)
    layer.forward_batch(np.zeros((2, 2, 5, 5, 5), np.float32))
    layer.w = np.zeros((4, 3, 3, 3, 3), np.float32)  # channel mismatch
    grad_w, grad_b = layer.grad_w.copy(), layer.grad_b.copy()
    with pytest.raises(ShapeError, match="channel mismatch"):
        layer.backward_batch(np.ones((2, 4, 5, 5, 5), np.float32))
    assert np.array_equal(layer.grad_w, grad_w)
    assert np.array_equal(layer.grad_b, grad_b)
