"""Property tests for the gathered conv kernels.

Over random ``(N, C, O, k, D, H, W)`` the kernels are bit-for-bit the
pad + window-view + ``tensordot`` oracle, and the per-shape memoised
index tables do not leak between shapes: calling the kernels again, for
the same shapes in a different order, returns the same bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import conv3d
from tests.ml.test_conv_oracle import assert_matches_oracle

sides = st.integers(min_value=1, max_value=7)
conv_shapes = st.tuples(
    st.integers(min_value=1, max_value=5),  # N
    st.integers(min_value=1, max_value=4),  # C
    st.integers(min_value=1, max_value=4),  # O
    st.sampled_from([1, 3, 5]),  # k
    sides, sides, sides,  # D, H, W
)


def _run(shape, seed):
    n, c, o, k, d, h, w = shape
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, d, h, w)).astype(np.float32)
    wt = (rng.normal(size=(o, c, k, k, k)) * 0.3).astype(np.float32)
    b = rng.normal(size=o).astype(np.float32)
    grad_y = rng.normal(size=(n, o, d, h, w)).astype(np.float32)
    return (x, wt, b, grad_y), (
        conv3d.conv3d_forward_batch(x, wt, b),
        *conv3d.conv3d_backward_batch(x, wt, grad_y),
    )


@settings(max_examples=60, deadline=None)
@given(shape=conv_shapes, seed=st.integers(min_value=0, max_value=2**31))
def test_kernels_match_oracle(shape, seed):
    (x, w, b, grad_y), _ = _run(shape, seed)
    assert_matches_oracle(x, w, b, grad_y)


@settings(max_examples=25, deadline=None)
@given(
    shapes=st.lists(conv_shapes, min_size=2, max_size=6),
    order=st.randoms(use_true_random=False),
)
def test_memoised_tables_are_stable_across_mixed_shapes(shapes, order):
    first = [_run(shape, i)[1] for i, shape in enumerate(shapes)]
    again = list(enumerate(shapes))
    order.shuffle(again)
    for i, shape in again:
        for want, got in zip(first[i], _run(shape, i)[1]):
            assert np.array_equal(want, got)
    for n, c, o, k, d, h, w in shapes:
        if k == 1:
            continue
        table = conv3d._im2col_index(c, k, (d, h, w))
        assert np.array_equal(table, conv3d._im2col_index.__wrapped__(c, k, (d, h, w)))
        assert np.array_equal(conv3d._im2col_index_t(c, k, (d, h, w)), table.T)
