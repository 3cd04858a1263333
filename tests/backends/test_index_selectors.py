"""Property tests: strided selectors are bit-identical to fancy indexing.

``_slice_or_index`` turns an ascending arithmetic progression (the kept set
of a regular row pattern) into a strided slice.  Every gather and scatter
primitive of every registered backend must give byte-for-byte the result of
plain numpy fancy indexing on the same index set, whatever its shape:
strided, contiguous, irregular, descending, or of length 0, 1 or 2.
Gathers must also return fresh arrays that never alias their source, in the
memory order the fancy index produced (row gathers C-ordered, column and
block gathers column-major), so the GEMMs they feed round as before.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import available_backends, create_backend
from repro.backends.base import _slice_or_index

ROWS, COLS = 13, 11


@st.composite
def index_sets(draw, n: int) -> np.ndarray:
    """A duplicate-free index set over an axis of length ``n``."""
    kind = draw(st.sampled_from(
        ["progression", "contiguous", "irregular", "descending", "short"]))
    if kind == "short":
        values = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=2,
                               unique=True))
    elif kind == "irregular":
        values = sorted(draw(st.lists(st.integers(0, n - 1), min_size=0,
                                      max_size=n, unique=True)))
    else:
        start = draw(st.integers(0, n - 1))
        step = 1 if kind == "contiguous" else draw(st.integers(1, n))
        values = list(range(start, n, step))
        values = values[:draw(st.integers(0, len(values)))]
        if kind == "descending":
            values = values[::-1]
    return np.array(values, dtype=np.int64)


def _source(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((ROWS, COLS))


def _layout(array: np.ndarray) -> tuple[bool, bool]:
    return array.flags.c_contiguous, array.flags.f_contiguous


def _assert_fresh_gather(out: np.ndarray, expected: np.ndarray,
                         source: np.ndarray) -> None:
    """Same bytes and the same memory order as the fancy-index copy (BLAS
    rounds small GEMMs differently for C and F operands), never a view."""
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert _layout(out) == _layout(expected)
    assert not np.shares_memory(out, source)


def _rows_before(grad: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The context primitives' row selection before strided selectors: a
    view of a contiguous run of two or more, a fancy index otherwise."""
    if len(rows) >= 2 and rows[-1] - rows[0] + 1 == len(rows) and np.all(
            np.diff(rows) == 1):
        return grad[:, int(rows[0]):int(rows[-1]) + 1]
    return grad[:, rows]


#: Backend instances are stateless apart from their call counters, so one
#: per registered name serves every example.
BACKENDS = {name: create_backend(name) for name in available_backends()}
each_backend = pytest.mark.parametrize("name", sorted(BACKENDS))


class TestSelector:
    @given(st.integers(0, 50), st.integers(1, 7), st.integers(2, 40))
    def test_ascending_progressions_become_slices(self, start, step, length):
        indices = np.arange(start, start + step * length, step)
        assert _slice_or_index(indices) == slice(
            start, int(indices[-1]) + 1, step)

    @pytest.mark.parametrize("indices", [[], [4], [5, 3, 1], [0, 1, 3],
                                         [-2, -1], [2, 2]])
    def test_other_index_sets_stay_fancy(self, indices):
        indices = np.array(indices, dtype=np.int64)
        assert _slice_or_index(indices) is indices


@each_backend
class TestGathers:
    @settings(max_examples=40, deadline=None)
    @given(rows=index_sets(ROWS), seed=st.integers(0, 2**16))
    def test_gather_rows(self, name, rows, seed):
        backend = BACKENDS[name]
        source = _source(seed)
        _assert_fresh_gather(backend.gather_rows(source, rows), source[rows],
                             source)

    @settings(max_examples=40, deadline=None)
    @given(cols=index_sets(COLS), seed=st.integers(0, 2**16))
    def test_gather_cols(self, name, cols, seed):
        backend = BACKENDS[name]
        source = _source(seed)
        _assert_fresh_gather(backend.gather_cols(source, cols),
                             source[:, cols], source)

    @settings(max_examples=40, deadline=None)
    @given(rows=index_sets(ROWS), cols=index_sets(COLS),
           seed=st.integers(0, 2**16))
    def test_gather_block(self, name, rows, cols, seed):
        backend = BACKENDS[name]
        source = _source(seed)
        # Laid out as the row-then-column gather it replaces in the ops.
        _assert_fresh_gather(backend.gather_block(source, rows, cols),
                             source[rows][:, cols], source)


@each_backend
class TestScatters:
    @settings(max_examples=40, deadline=None)
    @given(rows=index_sets(ROWS), seed=st.integers(0, 2**16))
    def test_scatter_rows(self, name, rows, seed):
        backend = BACKENDS[name]
        values = _source(seed)[:len(rows)]
        out, expected = np.zeros((ROWS, COLS)), np.zeros((ROWS, COLS))
        backend.scatter_rows(out, rows, values)
        expected[rows] = values
        assert out.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(cols=index_sets(COLS), seed=st.integers(0, 2**16))
    def test_scatter_cols(self, name, cols, seed):
        backend = BACKENDS[name]
        values = _source(seed)[:, :len(cols)]
        out, expected = np.zeros((ROWS, COLS)), np.zeros((ROWS, COLS))
        backend.scatter_cols(out, cols, values)
        expected[:, cols] = values
        assert out.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=index_sets(ROWS), cols=index_sets(COLS),
           seed=st.integers(0, 2**16))
    def test_scatter_block(self, name, rows, cols, seed):
        backend = BACKENDS[name]
        values = _source(seed)[:len(rows), :len(cols)]
        out, expected = np.zeros((ROWS, COLS)), np.zeros((ROWS, COLS))
        backend.scatter_block(out, rows, cols, values)
        expected[np.ix_(rows, cols)] = values
        assert out.tobytes() == expected.tobytes()


@each_backend
class TestContextOps:
    """The window-context primitives select ``h[:, cols]`` and accumulate
    ``grad_h[:, cols]`` through the same selectors."""

    @settings(max_examples=40, deadline=None)
    @given(rows=index_sets(ROWS), cols=index_sets(COLS),
           seed=st.integers(0, 2**16))
    def test_context_primitives_match_fancy_indexing(self, name, rows,
                                                     cols, seed):
        backend = BACKENDS[name]
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((4, COLS))
        grad = rng.standard_normal((4, ROWS))
        block = rng.standard_normal((len(rows), len(cols)))
        classes = ((rows, cols),)

        out, expected = np.zeros((4, ROWS)), np.zeros((4, ROWS))
        backend.context_forward(("ctx", seed), classes, (block,), h, out)
        expected[:, rows] = h[:, cols] @ block.T
        assert out.tobytes() == expected.tobytes()

        grad_h, expected_h = np.zeros_like(h), np.zeros_like(h)
        backend.context_backward_h(("ctx", seed), classes, (block,), grad,
                                   grad_h, scale=0.5)
        expected_h[:, cols] += (_rows_before(grad, rows) * 0.5) @ block
        assert grad_h.tobytes() == expected_h.tobytes()

        (piece,) = backend.context_backward_blocks(("ctx", seed), classes,
                                                   grad, h, scale=0.5)
        expected_piece = (_rows_before(grad, rows) * 0.5).T @ h[:, cols]
        assert piece.tobytes() == expected_piece.tobytes()
