"""Execution-side machinery of the vectorized pattern-pool engine.

The compact GEMM ops in :mod:`repro.dropout.compact_ops` are semantically
simple — gather the surviving rows/tiles, run a small GEMM, scatter back —
but the seed implementation rebuilt every piece of bookkeeping (kept-index
arrays, tile slices, zero-filled scatter buffers) from scratch on every
training step.  This module provides the cached execution state that the fast
path consumes instead:

* :class:`TileExecutionPlan` — a compiled, immutable description of a TDP
  pattern: the surviving tiles grouped by tile-row with their column indices
  pre-concatenated, so the block-sparse matmul runs one GEMM per surviving
  tile-row instead of one per surviving tile, and the backward pass can
  scatter compact gradients without touching dropped tiles at all.
* :func:`compile_tile_plan` — interned plan construction (one compilation per
  distinct pattern per process, LRU-cached).
* :class:`CompactWorkspace` — a small ring of preallocated scatter buffers
  reused across training steps, so the per-step cost of the zero-filled
  full-size output/gradient arrays is a ``fill(0)`` instead of an allocation.

Buffer-reuse contract: a workspace key hands out its slots round-robin, so an
op that executes at most ``slots`` times inside one autodiff graph (the
default of 2 covers every layer in this repo, which runs once per step) never
sees one of its buffers overwritten while the tape still references it.  Ops
that may run many times per graph (e.g. inside a BPTT unroll) should not pass
a workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dropout.patterns import TileDropoutPattern, _freeze


@dataclass(frozen=True)
class TileRowGroup:
    """All surviving tiles of one (or several merged) tile-rows, fused into a
    single compact GEMM."""

    row_start: int
    row_stop: int
    col_indices: np.ndarray  # concatenated column indices of the surviving tiles
    #: When the surviving columns form one contiguous run, a slice selecting
    #: them — lets the executor take views instead of gather copies.
    col_slice: slice | None = None

    @property
    def selector(self) -> "slice | np.ndarray":
        """The cheapest numpy column selector for this group."""
        return self.col_slice if self.col_slice is not None else self.col_indices

    @property
    def num_rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def num_cols(self) -> int:
        return len(self.col_indices)


@dataclass(frozen=True)
class TileExecutionPlan:
    """Compiled compact-execution schedule for one :class:`TileDropoutPattern`.

    ``row_groups`` holds one entry per tile-row that has at least one
    surviving tile.  Within a group the column indices of the surviving tiles
    are concatenated (they are disjoint by construction), so the forward pass
    is ``out[:, r0:r1] += x[:, cols] @ W[r0:r1][:, cols].T`` — one GEMM per
    group.  The backward passes reuse the same groups to compute input and
    weight gradients compactly, never materialising the dense mask product.
    """

    rows: int
    cols: int
    dp: int
    bias: int
    tile: int
    row_groups: tuple[TileRowGroup, ...]
    #: Plan family: ``"tile"`` (a generic TDP pattern) or ``"recurrent"`` (a
    #: gate-aligned :class:`~repro.dropout.patterns.RecurrentTilePattern`
    #: replicated per gate block).  Part of the plan identity — the per-plan
    #: caches key on it so two structurally different plans with the same
    #: ``(rows, cols, dp, bias, tile)`` never share a cached layout.
    kind: str = "tile"

    @property
    def identity(self) -> tuple:
        """Hashable cache key uniquely identifying this plan's structure."""
        return (self.kind, self.rows, self.cols, self.dp, self.bias, self.tile)

    @property
    def compact_flops_fraction(self) -> float:
        """Fraction of the dense GEMM's multiply-adds the plan executes."""
        dense = self.rows * self.cols
        compact = sum(g.num_rows * g.num_cols for g in self.row_groups)
        return compact / dense if dense else 0.0


def _make_group(row_start: int, row_stop: int, col_indices: np.ndarray) -> TileRowGroup:
    contiguous = (len(col_indices) > 0
                  and col_indices[-1] - col_indices[0] + 1 == len(col_indices))
    col_slice = (slice(int(col_indices[0]), int(col_indices[-1]) + 1)
                 if contiguous else None)
    return TileRowGroup(row_start=row_start, row_stop=row_stop,
                        col_indices=_freeze(col_indices), col_slice=col_slice)


def _build_tile_plan(rows: int, cols: int, dp: int, bias: int,
                     tile: int) -> TileExecutionPlan:
    pattern = TileDropoutPattern(rows=rows, cols=cols, dp=dp, bias=bias, tile=tile)
    grid_rows, grid_cols = pattern.tile_grid
    groups: list[TileRowGroup] = []
    for tile_row in range(grid_rows):
        row_start = tile_row * tile
        row_stop = min(row_start + tile, rows)
        col_chunks: list[np.ndarray] = []
        for tile_col in range(grid_cols):
            tile_id = tile_row * grid_cols + tile_col
            if tile_id % dp == bias:
                col_start = tile_col * tile
                col_stop = min(col_start + tile, cols)
                col_chunks.append(np.arange(col_start, col_stop))
        if not col_chunks:
            continue
        group = _make_group(row_start, row_stop, np.concatenate(col_chunks))
        # Fuse with the previous group when the row ranges are adjacent and the
        # column selections identical (always the case for dp == 1, where the
        # whole plan collapses to one dense GEMM).
        if (groups and groups[-1].row_stop == group.row_start
                and groups[-1].num_cols == group.num_cols
                and np.array_equal(groups[-1].col_indices, group.col_indices)):
            previous = groups.pop()
            group = _make_group(previous.row_start, group.row_stop,
                                np.asarray(group.col_indices))
        groups.append(group)
    return TileExecutionPlan(rows=rows, cols=cols, dp=dp, bias=bias, tile=tile,
                             row_groups=tuple(groups))


@lru_cache(maxsize=65536)
def _compile_tile_plan(rows: int, cols: int, dp: int, bias: int,
                       tile: int) -> TileExecutionPlan:
    return _build_tile_plan(rows, cols, dp, bias, tile)


def compile_tile_plan(pattern: TileDropoutPattern) -> TileExecutionPlan:
    """Interned execution plan for ``pattern`` (compiled once per process)."""
    return _compile_tile_plan(pattern.rows, pattern.cols, pattern.dp,
                              pattern.bias, pattern.tile)


def tile_plan_cache_info():
    """Cache statistics of the tile-plan compiler (for diagnostics)."""
    return _compile_tile_plan.cache_info()


# ----------------------------------------------------------------------
# recurrent (gate-aligned) plan compilation
# ----------------------------------------------------------------------

def _offset_group(group: TileRowGroup, offset: int) -> TileRowGroup:
    return TileRowGroup(row_start=group.row_start + offset,
                        row_stop=group.row_stop + offset,
                        col_indices=group.col_indices,
                        col_slice=group.col_slice)


@lru_cache(maxsize=65536)
def _compile_recurrent_plan(hidden_size: int, num_gates: int, dp: int,
                            bias: int, tile: int) -> TileExecutionPlan:
    gate_plan = _compile_tile_plan(hidden_size, hidden_size, dp, bias, tile)
    groups: list[TileRowGroup] = []
    for gate in range(num_gates):
        offset = gate * hidden_size
        groups.extend(_offset_group(group, offset)
                      for group in gate_plan.row_groups)
    return TileExecutionPlan(rows=num_gates * hidden_size, cols=hidden_size,
                             dp=dp, bias=bias, tile=tile,
                             row_groups=tuple(groups), kind="recurrent")


def compile_recurrent_plan(pattern) -> TileExecutionPlan:
    """Interned execution plan for a gate-aligned
    :class:`~repro.dropout.patterns.RecurrentTilePattern`.

    The per-gate TDP plan is compiled once and replicated with a row offset
    per gate block, so the gates' tile-row groups share identical column
    sets (see :func:`plan_column_classes`).
    """
    return _compile_recurrent_plan(pattern.hidden_size, pattern.num_gates,
                                   pattern.dp, pattern.bias, pattern.tile)


def recurrent_plan_cache_info():
    """Cache statistics of the recurrent-plan compiler (for diagnostics)."""
    return _compile_recurrent_plan.cache_info()


# ----------------------------------------------------------------------
# column-class decomposition (used by the recurrent window context)
# ----------------------------------------------------------------------

#: Safety cap of the per-plan-identity caches below (plans are interned, so
#: in practice they hold a few dozen entries).
_PLAN_CACHE_CAP = 65536

_COLUMN_CLASS_CACHE: dict[tuple, tuple] = {}


def plan_column_classes(plan: TileExecutionPlan) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Group a plan's tile-row groups by identical column set.

    Returns ``(row_indices, col_indices)`` pairs — one per distinct column
    set, in first-appearance order, with the member groups' row ranges
    concatenated (they are disjoint by construction).  The per-window
    recurrent context gathers one weight block per class.  Cached per plan
    identity (plans are interned, so the cache stays small).
    """
    key = plan.identity
    classes = _COLUMN_CLASS_CACHE.get(key)
    if classes is None:
        if len(_COLUMN_CLASS_CACHE) >= _PLAN_CACHE_CAP:
            _COLUMN_CLASS_CACHE.clear()
        by_cols: dict[bytes, list[TileRowGroup]] = {}
        for group in plan.row_groups:
            by_cols.setdefault(np.asarray(group.col_indices).tobytes(),
                               []).append(group)
        classes = _COLUMN_CLASS_CACHE[key] = tuple(
            (_freeze(np.concatenate([np.arange(g.row_start, g.row_stop)
                                     for g in groups])),
             groups[0].col_indices)
            for groups in by_cols.values())
    return classes


_PLAN_ROW_CACHE: dict[tuple, np.ndarray] = {}


def plan_row_indices(plan: TileExecutionPlan) -> np.ndarray:
    """All weight rows a plan's surviving tile-row groups cover, concatenated.

    This is the dirty-row set of a plan-driven weight-gradient write
    (:meth:`~repro.backends.ExecutionBackend.tile_backward_weight` touches
    exactly these rows, and within them only surviving columns — a row-level
    overapproximation is safe because the untouched columns stay exactly
    zero).  Row groups are disjoint and ascending by construction, so the
    concatenation is sorted and duplicate-free.  Cached per plan identity
    (plans are interned, so the cache stays small).
    """
    key = plan.identity
    rows = _PLAN_ROW_CACHE.get(key)
    if rows is None:
        if len(_PLAN_ROW_CACHE) >= _PLAN_CACHE_CAP:
            _PLAN_ROW_CACHE.clear()
        if plan.row_groups:
            rows = np.concatenate([np.arange(g.row_start, g.row_stop)
                                   for g in plan.row_groups])
        else:
            rows = np.zeros(0, dtype=np.intp)
        rows = _PLAN_ROW_CACHE[key] = _freeze(rows)
    return rows


class CompactWorkspace:
    """Ring of preallocated scratch buffers for the compact ops' scatter steps.

    ``zeros(key, shape)`` returns a zero-filled float64 buffer.  Buffers are
    reused across calls with the same key and shape; each key rotates through
    ``slots`` physical arrays so a buffer handed out for step ``t`` is not
    recycled until ``slots`` further requests, which keeps the autodiff tape of
    the current step safe while the previous step's tape is still being
    consumed (e.g. by an optimizer reading ``.grad`` arrays in place).
    """

    def __init__(self, slots: int = 2):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = int(slots)
        self._buffers: dict[object, list[np.ndarray]] = {}
        self._cursor: dict[object, int] = {}
        self.hits = 0
        self.misses = 0

    def zeros(self, key: object, shape: tuple[int, ...],
              dtype=np.float64) -> np.ndarray:
        """A zero-filled buffer of ``shape`` for ``key`` (reused when possible)."""
        ring = self._buffers.setdefault(key, [])
        cursor = self._cursor.get(key, 0)
        if len(ring) < self.slots:
            self.misses += 1
            buffer = np.zeros(shape, dtype=dtype)
            ring.append(buffer)
            self._cursor[key] = len(ring) % self.slots
            return buffer
        buffer = ring[cursor]
        self._cursor[key] = (cursor + 1) % self.slots
        if buffer.shape != shape or buffer.dtype != np.dtype(dtype):
            self.misses += 1
            buffer = np.zeros(shape, dtype=dtype)
            ring[cursor] = buffer
            return buffer
        self.hits += 1
        buffer.fill(0.0)
        return buffer

    def clear(self) -> None:
        """Drop every buffer (and the hit/miss counters)."""
        self._buffers.clear()
        self._cursor.clear()
        self.hits = 0
        self.misses = 0

    @property
    def num_buffers(self) -> int:
        return sum(len(ring) for ring in self._buffers.values())

    def __repr__(self) -> str:
        return (f"CompactWorkspace(slots={self.slots}, buffers={self.num_buffers}, "
                f"hits={self.hits}, misses={self.misses})")
