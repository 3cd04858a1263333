"""The execution backend of the compact pattern engine.

An :class:`ExecutionBackend` owns the numeric primitives the compact dropout
ops are built from — dense GEMM on the gathered operands, compact
gather/scatter of the surviving rows/columns, scatter-buffer allocation, the
execution of a whole compiled
:class:`~repro.dropout.engine.TileExecutionPlan` (forward and both backward
passes, one GEMM per surviving tile-row group) and the per-class GEMMs of the
recurrent window context.  The autodiff orchestration stays in
:mod:`repro.dropout.compact_ops`: the ops build the tape and decide *what* to
compute, the backend produces the arrays.

Every primitive increments a per-operation call counter (``self.calls``),
which :meth:`repro.execution.EngineRuntime.stats` reports as
``backend_calls``.  Each :class:`~repro.execution.EngineRuntime` owns one
instance, so the counters of concurrent runtimes never mix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.tensor import dirty as _dirty

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> backends)
    from repro.dropout.engine import CompactWorkspace, TileExecutionPlan


def _slice_or_index(indices):
    """``indices`` as a slice when it is an ascending arithmetic progression.

    The regular patterns keep one unit in every ``dp`` (``arange(bias, n,
    dp)``), so their index sets are strided runs.  A strided slice selects
    the same elements in the same order as the fancy index, so swapping it
    in is bit-identical, but it reads (gather) or writes (scatter) them as
    regular strided memory access instead of a per-element index lookup.
    Anything else (fewer than two, descending, irregular, negative or
    non-integer indices, or a selector that already is a slice) is returned
    as given.  Callers pass in-range indices: a slice clips where an
    out-of-range fancy index would raise.
    """
    if isinstance(indices, slice):
        return indices
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.size < 2 or indices.dtype.kind not in "iu":
        return indices
    first, last = int(indices[0]), int(indices[-1])
    span, gaps = last - first, indices.size - 1
    if first < 0 or span <= 0 or span % gaps:
        return indices
    step = span // gaps
    if (indices[1:] - indices[:-1] == step).all():
        return slice(first, last + 1, step)
    return indices


def block_selector(row_indices, col_indices):
    """The 2-D selector of the block ``array[ix_(rows, cols)]``.

    Each axis degrades to a slice where :func:`_slice_or_index` allows it;
    with at least one slice, mixed basic/advanced indexing selects the same
    block as ``np.ix_`` without the 2-D index broadcast.  ``col_indices=None``
    selects whole rows.
    """
    rows = _slice_or_index(row_indices)
    if col_indices is None:
        return (rows,)
    cols = _slice_or_index(col_indices)
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return np.ix_(rows, cols)


#: Rows per chunk of a column-major gather copy.  Copying a row-major view
#: into column-major memory transposes it; chunking keeps each chunk's reads
#: and writes in cache (about 5x faster than one strided pass on a
#: 23000 x 128 float64 vocabulary band, measured on x86_64 with numpy 2.4).
_F_COPY_ROWS = 128


def _gather(array: np.ndarray, selector, order: str) -> np.ndarray:
    """``array[selector]`` as a fresh array in memory ``order``.

    A slice-only selector yields a view of ``array``; it is copied so a
    gathered operand never aliases its source (a parameter, say), exactly
    as the fancy-index copy it replaces.  ``order`` is the memory order
    that fancy index produced (``"C"`` for a row gather, ``"F"`` for a
    column gather, whose index axis numpy lays out outermost): small BLAS
    GEMMs round differently for C and F operands, so keeping the order
    keeps every product bit-identical.
    """
    out = array[selector]
    fresh = not all(isinstance(part, slice) for part in selector)
    if order == "C":
        return np.ascontiguousarray(out) if fresh else out.copy()
    if fresh and out.flags.f_contiguous:
        return out
    copy = np.empty(out.shape, dtype=out.dtype, order="F")
    for start in range(0, out.shape[0], _F_COPY_ROWS):
        copy[start:start + _F_COPY_ROWS] = out[start:start + _F_COPY_ROWS]
    return copy


def _gather_cols(array: np.ndarray, indices) -> np.ndarray:
    """``array[:, indices]``, laid out as the fancy index lays it out."""
    return _gather(array, (slice(None), _slice_or_index(indices)), "F")


def _operand_cols(array: np.ndarray, indices) -> np.ndarray:
    """``array[:, indices]`` as a GEMM operand: a view of a contiguous run,
    otherwise a column-major copy — the two layouts the context primitives
    have always fed their GEMMs."""
    selector = _slice_or_index(indices)
    if isinstance(selector, slice) and selector.step in (None, 1):
        return array[:, selector]
    return _gather(array, (slice(None), selector), "F")


class ExecutionBackend:
    """Numeric execution of the compact dropout ops.

    Provides workspace-aware buffer allocation, gather/scatter helpers, the
    GEMM and plan primitives, and the per-operation call counters.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}

    def count(self, op: str, n: int = 1) -> None:
        """Record ``n`` executions of primitive ``op``."""
        self.calls[op] = self.calls.get(op, 0) + n

    # ------------------------------------------------------------------
    # workspace allocation
    # ------------------------------------------------------------------
    def zeros(self, workspace: "CompactWorkspace | None", key: str,
              shape: tuple[int, ...], dtype) -> np.ndarray:
        """A zero-filled scatter buffer, drawn from ``workspace`` when given.

        This is the single allocation point of the compact ops' full-size
        output/gradient arrays; the workspace ring (when present) turns the
        per-step allocation into a ``fill(0)``.  Every buffer handed out is
        reported to the active dirty tracker as freshly zeroed, so the
        sparse optimizer knows its region starts empty.
        """
        self.count("alloc")
        if workspace is None:
            out = np.zeros(shape, dtype=dtype)
            _dirty.record_reset(out)
            # A fresh allocation has no later writer, so the backward pass
            # may adopt it as a leaf ``.grad`` without the defensive copy.
            # Ring buffers stay unmarked: a later request of the same key
            # refills them in place.
            _dirty.mark_transferable(out)
        else:
            out = workspace.zeros(key, shape, dtype=dtype)
            _dirty.record_reset(out)
        return out

    # ------------------------------------------------------------------
    # compact gather / scatter
    # ------------------------------------------------------------------
    def gather_rows(self, array: np.ndarray, indices) -> np.ndarray:
        """The rows of ``array`` selected by ``indices`` (compact gather)."""
        self.count("gather")
        return _gather(array, (_slice_or_index(indices),), "C")

    def gather_cols(self, array: np.ndarray, indices) -> np.ndarray:
        """The columns of ``array`` selected by ``indices`` (compact gather)."""
        self.count("gather")
        return _gather_cols(array, indices)

    def gather_block(self, array: np.ndarray, row_indices,
                     col_indices) -> np.ndarray:
        """The 2-D block ``array[ix_(rows, cols)]`` (compact tile-class gather).

        Laid out as the row gather followed by a column gather it replaces
        (``array[rows][:, cols]``, column-major).
        """
        self.count("gather")
        return _gather(array, block_selector(row_indices, col_indices), "F")

    def scatter_rows(self, out: np.ndarray, indices, values: np.ndarray) -> None:
        """``out[indices] = values`` (compact scatter into a zeroed buffer)."""
        self.count("scatter")
        out[_slice_or_index(indices)] = values
        _dirty.record_rows(out, indices)

    def scatter_block(self, out: np.ndarray, row_indices, col_indices,
                      values: np.ndarray) -> None:
        """``out[ix_(rows, cols)] = values`` — the 2-D counterpart of
        :meth:`gather_block` (compact tile/class-block scatter).  Recorded as
        a dirty *row* set (a safe overapproximation: the untouched columns of
        a recorded row stay exactly zero)."""
        self.count("scatter")
        out[block_selector(row_indices, col_indices)] = values
        _dirty.record_rows(out, row_indices)

    def scatter_cols(self, out: np.ndarray, indices, values: np.ndarray) -> None:
        """``out[:, indices] = values`` (compact scatter into a zeroed buffer)."""
        self.count("scatter")
        out[:, _slice_or_index(indices)] = values
        _dirty.record_cols(out, indices)

    # ------------------------------------------------------------------
    # GEMM primitives
    # ------------------------------------------------------------------
    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product ``a @ b`` of the gathered compact operands."""
        self.count("gemm")
        return a @ b

    # ------------------------------------------------------------------
    # tile-plan execution (one GEMM per surviving tile-row group)
    # ------------------------------------------------------------------
    def tile_forward(self, plan: "TileExecutionPlan", x: np.ndarray,
                     weight: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out[:, row_start:row_stop]`` for every surviving tile-row.

        ``out`` arrives zero-filled; dropped tile-rows stay zero.
        """
        self.count("tile_forward")
        self.count("tile_group_gemm", len(plan.row_groups))
        for group in plan.row_groups:
            block = weight[group.row_start:group.row_stop, group.selector]
            out[:, group.row_start:group.row_stop] = x[:, group.selector] @ block.T

    def tile_backward_input(self, plan: "TileExecutionPlan", grad: np.ndarray,
                            weight: np.ndarray, grad_x: np.ndarray,
                            scale: float = 1.0) -> None:
        """Accumulate ``d loss / d x`` into the zero-filled ``grad_x``."""
        self.count("tile_backward_input")
        self.count("tile_group_gemm", len(plan.row_groups))
        for group in plan.row_groups:
            block = weight[group.row_start:group.row_stop, group.selector]
            grad_compact = grad[:, group.row_start:group.row_stop]
            if scale != 1.0:
                grad_compact = grad_compact * scale
            # += not =: tiles from different tile-rows may share columns.
            grad_x[:, group.selector] += grad_compact @ block

    def tile_backward_weight(self, plan: "TileExecutionPlan", grad: np.ndarray,
                             x: np.ndarray, grad_weight: np.ndarray,
                             scale: float = 1.0) -> None:
        """Write ``d loss / d W`` for the surviving tiles into ``grad_weight``."""
        self.count("tile_backward_weight")
        self.count("tile_group_gemm", len(plan.row_groups))
        for group in plan.row_groups:
            grad_compact = grad[:, group.row_start:group.row_stop]
            if scale != 1.0:
                grad_compact = grad_compact * scale
            grad_weight[group.row_start:group.row_stop, group.selector] = (
                grad_compact.T @ x[:, group.selector])

    # ------------------------------------------------------------------
    # window-context execution (per-class GEMMs on pre-gathered blocks)
    # ------------------------------------------------------------------
    #
    # The per-window recurrent context (`recurrent_compact_context`) gathers
    # the surviving weight tiles once per BPTT window into per-class blocks;
    # every timestep then runs one small GEMM per column class against those
    # blocks.

    def context_forward(self, classes, blocks, h: np.ndarray,
                        out: np.ndarray) -> None:
        """Fill ``out[:, rows] = h[:, cols] @ block.T`` for every class.

        ``classes`` is a sequence of ``(row_indices, col_indices)`` pairs
        with disjoint row sets (so plain assignment is exact) and ``blocks``
        the matching pre-gathered ``(R, C)`` weight blocks.  ``out`` arrives
        zero-filled.

        Gate-aligned recurrent plans often keep *every* tile-row, so a
        class's row set is one contiguous run — selecting it as a slice
        instead of a fancy index turns three per-timestep permutation
        copies of the gate-width gradient into views (same elements, same
        GEMMs, bit-identical results).
        """
        self.count("context_forward")
        self.count("context_gemm", len(classes))
        for (rows, cols), block in zip(classes, blocks):
            out[:, _slice_or_index(rows)] = _gather_cols(h, cols) @ block.T

    def context_backward_h(self, classes, blocks, grad: np.ndarray,
                           grad_h: np.ndarray, scale: float = 1.0) -> None:
        """Accumulate ``d loss / d h`` into the zero-filled ``grad_h``."""
        self.count("context_backward_h")
        self.count("context_gemm", len(classes))
        for (rows, cols), block in zip(classes, blocks):
            grad_compact = _operand_cols(grad, rows)
            if scale != 1.0:
                grad_compact = grad_compact * scale
            # += not =: different column classes may share some columns.
            grad_h[:, _slice_or_index(cols)] += grad_compact @ block

    def context_backward_blocks(self, classes, grad: np.ndarray, h: np.ndarray,
                                scale: float = 1.0) -> list[np.ndarray]:
        """Per-class block gradients ``grad[:, rows].T @ h[:, cols]``, in
        class order (the caller flattens them back into the compact gather's
        gradient)."""
        self.count("context_backward_blocks")
        self.count("context_gemm", len(classes))
        pieces: list[np.ndarray] = []
        for rows, cols in classes:
            grad_compact = _operand_cols(grad, rows)
            if scale != 1.0:
                grad_compact = grad_compact * scale
            pieces.append(grad_compact.T @ _gather_cols(h, cols))
        return pieces
