"""Row-block gradient contributions in the backward walk.

A backward closure may return a :class:`~repro.tensor.RowBlock` instead of
a full-size array.  The walk must add it into one buffer per parameter so
that every ``.grad`` (and every gradient handed to a backward closure) is a
full array equal to the dense scatter-then-add sum, with the written rows
recorded as the buffer's dirty region.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import RowBlock, Tensor
from repro.tensor import dirty


def _block_op(x: Tensor, weight: Tensor, rows: np.ndarray) -> Tensor:
    """``sum(x @ weight[rows].T)`` with a row-block weight gradient."""
    out = x.data @ weight.data[rows].T

    def backward_weight(grad):
        return RowBlock(grad.T @ x.data, (rows,), rows)

    return Tensor.from_op(out, [(weight, backward_weight)], "block_op")


def _dense(values: np.ndarray, rows: np.ndarray, shape) -> np.ndarray:
    full = np.zeros(shape)
    full[rows] = values
    return full


def test_blocks_sum_to_the_dense_scatter_sum(rng):
    weight = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
    x = rng.normal(size=(4, 3))
    first, second = np.array([0, 2, 4]), np.array([4, 5, 8])
    (_block_op(Tensor(x), weight, first)
     + _block_op(Tensor(x), weight, second)).sum().backward()
    expected = (_dense(np.ones((3, 4)) @ x, second, (9, 3))
                + _dense(np.ones((3, 4)) @ x, first, (9, 3)))
    assert weight.grad.tobytes() == expected.tobytes()
    assert not weight.grad[[1, 3, 6, 7]].any()


def test_block_and_dense_contributions_mix_in_either_order(rng):
    weight = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    x = rng.normal(size=(2, 3))
    rows = np.array([1, 3])
    for dense_first in (True, False):
        weight.zero_grad()
        dense_term = (weight * 2.0).sum()
        block_term = _block_op(Tensor(x), weight, rows).sum()
        loss = dense_term + block_term if dense_first else block_term + dense_term
        loss.backward()
        expected = np.full((6, 3), 2.0)
        expected[rows] += np.ones((2, 2)) @ x
        np.testing.assert_array_equal(weight.grad, expected)


def test_non_leaf_parent_receives_a_full_array(rng):
    base = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    weight = base * 3.0          # non-leaf: its backward gets the block sum
    rows = np.array([0, 4])
    x = rng.normal(size=(2, 3))
    _block_op(Tensor(x), weight, rows).sum().backward()
    np.testing.assert_array_equal(
        base.grad, 3.0 * _dense(np.ones((2, 2)) @ x, rows, (5, 3)))


def test_written_rows_become_the_dirty_region(rng):
    weight = Tensor(rng.normal(size=(50, 4)), requires_grad=True)
    x = rng.normal(size=(3, 4))
    tracker = dirty.DirtyTracker()
    dirty.activate(tracker)
    try:
        (_block_op(Tensor(x), weight, np.arange(0, 50, 7)).sum()
         + _block_op(Tensor(x), weight, np.array([3, 7, 8])).sum()).backward()
        region = tracker.region_of(weight.grad)
    finally:
        dirty.deactivate(tracker)
    assert region[0] == "rows"
    np.testing.assert_array_equal(region[1], [0, 3, 7, 8, 14, 21, 28, 35,
                                              42, 49])


def test_dirty_union_matches_union1d():
    cases = [(np.arange(0, 40, 3), np.arange(10, 20)),
             (np.array([5, 1, 9]), np.array([2, 9])),
             (np.arange(5), np.arange(5, 9)),
             (np.array([], dtype=np.int64), np.array([4]))]
    for a, b in cases:
        merged = dirty._union(a, b)
        expected = np.union1d(a, b)
        assert merged.dtype == expected.dtype
        np.testing.assert_array_equal(merged, expected)
