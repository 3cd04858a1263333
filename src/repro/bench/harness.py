"""Timed comparison of mask-based dropout vs compact pattern execution.

Each benchmark case trains nothing — it repeatedly runs the *hot path* of one
training step (pattern draw, forward, scalar loss, backward) for a single
affine layer, which is exactly the code the compact engine accelerates, and
measures wall-clock time per step.  Three modes are timed per case:

``masked``
    Dense GEMM + elementwise mask via the autodiff ops — what conventional
    dropout costs (the paper's Fig. 1(a) baseline).
``compact``
    The compact ops called the way the seed repo called them: a fresh pattern
    object per step (kept indices recomputed), no workspace reuse.
``pooled``
    The full vectorized engine: the pattern stream pre-drawn in one batched
    call, interned pattern objects and compiled tile plans, and a
    :class:`~repro.dropout.engine.CompactWorkspace` reusing the scatter
    buffers across steps.

All three modes replay the *same* pre-drawn ``(dp, bias)`` sequence, so the
comparison is not confounded by one mode drawing cheaper patterns.

The ``lstm_rec`` family times one *recurrent* projection (``h @ weight_h.T``
with ``weight_h`` the 4-gate LSTM stack) under gate-aligned structured
DropConnect — the recurrent pattern site added by the recurrent-path PR —
with the same three-mode protocol as ``row``/``tile``.

The ``head`` family times one *loss-head* step (vocabulary projection +
cross-entropy, forward and backward) under the class-pruned sampled softmax
of :mod:`repro.heads`: ``masked`` runs the dense projection plus
full-vocabulary cross-entropy, ``compact`` the sampled loss with fresh
(uninterned) class patterns, ``pooled`` the same loss with interned patterns
and workspace buffer reuse.  ``width`` is the vocabulary size.

The ``e2e`` family widens the measurement from one layer to *whole trainer
steps*: it times ``ClassifierTrainer.train_step`` (MLP) and
``LanguageModelTrainer.train_step`` (LSTM) with the model and trainer built
through the same :class:`~repro.execution.ExecutionConfig` the experiment
drivers use.  There, ``masked`` is the conventional-dropout baseline (the
``original`` strategy: dense GEMMs + i.i.d. Bernoulli masks), while
``compact`` and ``pooled`` run the pattern strategy under
``ExecutionConfig(mode="compact")`` / ``ExecutionConfig(mode="pooled")``;
``BenchmarkConfig.recurrent`` (default ``"tiled"``) additionally routes the
LSTM case's recurrent projections through the pattern machinery, and
``BenchmarkConfig.loss_head`` (default ``"sampled"``, ``--loss-head`` on the
CLI) selects the loss head the LSTM case's compact/pooled modes train with —
the ``masked`` baseline always runs the dense head.

The ``e2e_dist`` family measures *data-parallel scaling*: it times one MLP
trainer step ``single`` (in-process, ``shards=1``) against ``sharded`` (the
:class:`~repro.distributed.DistributedTrainer` coordinator driving
``BenchmarkConfig.dist_shards`` worker processes through the shared-memory
all-reduce).  Both modes run the same pooled engine configuration, so
``speedup_pooled`` reports pure multi-process scaling efficiency; the
entry additionally records ``shards`` and ``cpu_count`` so the delta gate
can skip the absolute scaling bar on machines with fewer cores than
workers (where a >1x speedup is physically impossible).

The ``serve`` family measures the *serving path*: for an MLP classifier and
an LSTM language model it drives ``serve_requests`` single requests through
(a) a per-request dense baseline — one eval-mode ``forward()`` per request,
the way inference worked before :mod:`repro.serving` — and (b) the frozen
:class:`~repro.serving.engine.InferenceEngine` behind a
:class:`~repro.serving.batcher.MicroBatcher`, both under the same
closed-loop load (``serve_concurrency`` in-flight requests).  ``mode_ms``
records the mean per-request latency of each mode (``masked`` = per-request
baseline, ``pooled`` = micro-batched engine, keeping ``speedup_pooled``
meaningful), and the entry's ``serving`` dict carries the full
p50/p99/throughput reports of both modes.  Entries are stamped
``cpu_gated`` when the box has a single core — the baseline's concurrent
request threads then serialise, so the comparison measures the machine.

The ``e2e_elastic`` family measures the *elastic recovery* machinery: its
``step`` mode times one coordinator step of the same distributed MLP trainer
(dirty-region gradient compression active under the sparse optimizer), and
its ``recover`` mode times one full recovery cycle — tear the cluster down,
respawn every worker at the current step, deterministically fast-forward,
and replay the in-flight step.  Recovery is dominated by process spawn, so
it gets its own best-of-``_RECOVER_CYCLES`` protocol instead of being
amortised over ``steps`` iterations.

Sharding: ``BenchmarkConfig.shards`` splits the (family, width, rate) cases
across that many worker *processes*, each pinned to its own BLAS thread
domain (``OMP_NUM_THREADS`` & friends set to ``cpu_count // shards`` before
numpy is imported in the worker), so concurrently timed cases do not fight
over the same BLAS pool.  Every case still times all of its modes inside one
worker, which keeps the per-case mode comparison fair.

Results are written as ``BENCH_compact_engine.json`` so successive PRs can
track the perf trajectory (see :mod:`repro.bench.delta` for the regression
gate).
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from repro.backends import ExecutionBackend
from repro.dropout.compact_ops import row_compact_linear, tile_compact_linear
from repro.dropout.engine import CompactWorkspace, compile_tile_plan
from repro.dropout.patterns import RowDropoutPattern, TileDropoutPattern
from repro.dropout.sampler import PatternSampler
from repro.tensor import Tensor, functional as F


@dataclass
class BenchmarkConfig:
    """Knobs of the benchmark run.

    ``steps`` hot-path iterations are timed per repeat; ``repeats`` repeats are
    run per (family, width, rate, mode) and the *best* repeat is reported,
    which is the standard way to suppress scheduler noise in wall-clock
    microbenchmarks.  ``warmup`` untimed steps precede every timed repeat so
    one-time costs (distribution search, pattern interning, plan compilation,
    BLAS thread spin-up) are excluded from the per-step figure — they are
    amortised over a whole training run, which is the scenario being modelled.
    """

    widths: tuple[int, ...] = (512, 1024, 2048)
    rates: tuple[float, ...] = (0.5, 0.7)
    batch: int = 128
    in_features: int | None = None  # defaults to the layer width (square layer)
    steps: int = 12
    #: Requests the ``serve`` family's MLP case drives through each mode (the
    #: heavier LSTM case runs a tenth of this, floored at 200).
    serve_requests: int = 10000
    #: Concurrent in-flight requests of the ``serve`` family's closed-loop
    #: driver (and the micro-batcher's batch bound, so a full wave of
    #: in-flight requests executes as exactly one pooled step).
    serve_concurrency: int = 8
    # Best-of estimation needs enough interleaved repeats that every mode
    # catches a quiet window on noisy single-core machines; 3 was too few.
    repeats: int = 6
    warmup: int = 2
    tile: int = 32
    max_period: int = 16
    seed: int = 0
    families: tuple[str, ...] = ("row", "tile", "e2e", "head", "serve",
                                 "e2e_dist", "e2e_elastic")
    #: Floating dtype of the e2e trainer-step cases ("float64" or "float32").
    e2e_dtype: str = "float64"
    #: Recurrent-projection execution of the e2e LSTM case's compact/pooled
    #: modes ("dense" keeps the pre-PR behaviour, "tiled" runs the recurrent
    #: DropConnect site).  The ``lstm_rec`` family always times the tiled op.
    recurrent: str = "tiled"
    #: Loss-head execution of the e2e LSTM case's compact/pooled modes
    #: ("dense" = exact full softmax, "sampled" = the class-pruned head).
    #: The ``head`` family always times the sampled loss.
    loss_head: str = "sampled"
    #: Vocabulary sizes of the ``head_vocab`` cases (dense vs sampled vs
    #: adaptive loss-head step at large vocab; sprouted by the ``head``
    #: family, or selected directly as the ``head_vocab`` family).  Empty
    #: disables the axis.
    head_vocab: tuple[int, ...] = (8192, 50000)
    #: Optimizer execution of the e2e cases' compact/pooled modes ("dense" =
    #: the plain SGD update, "sparse" = the dirty-region SparseSGD).  The
    #: ``masked`` baseline always runs the dense update.
    optimizer: str = "sparse"
    #: Worker processes the cases are sharded across (1 = run in-process).
    shards: int = 1
    #: Shard count of the ``e2e_dist`` data-parallel scaling case (the
    #: worker processes of *one* distributed trainer, not case sharding).
    dist_shards: int = 2
    output: str = "BENCH_compact_engine.json"

    #: Valid benchmark family names (``lstm_rec`` = one recurrent projection,
    #: ``head`` = one loss-head step: vocab projection + cross-entropy,
    #: ``serve`` = per-request dense inference vs the micro-batched frozen
    #: engine, ``e2e_dist`` = data-parallel scaling of one MLP trainer step,
    #: ``e2e_elastic`` = distributed step + full worker-recovery cycle).
    FAMILIES = ("row", "tile", "lstm_rec", "e2e", "head", "head_vocab",
                "serve", "e2e_dist", "e2e_elastic")

    def __post_init__(self):
        if self.batch <= 0 or self.steps <= 0 or self.repeats <= 0:
            raise ValueError("batch, steps and repeats must be positive")
        if self.serve_requests < 1 or self.serve_concurrency < 1:
            raise ValueError(
                "serve_requests and serve_concurrency must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.dist_shards < 2:
            raise ValueError("dist_shards must be >= 2 (the e2e_dist case "
                             "compares single-process against that many "
                             "data-parallel workers)")
        from repro.execution import (
            LOSS_HEAD_MODES,
            OPTIMIZER_MODES,
            RECURRENT_MODES,
        )

        if self.recurrent not in RECURRENT_MODES:
            raise ValueError(
                f"unknown recurrent execution {self.recurrent!r}; "
                f"available: {RECURRENT_MODES}")
        if self.loss_head not in LOSS_HEAD_MODES:
            raise ValueError(
                f"unknown loss head {self.loss_head!r}; "
                f"available: {LOSS_HEAD_MODES}")
        if self.optimizer not in OPTIMIZER_MODES:
            raise ValueError(
                f"unknown optimizer execution {self.optimizer!r}; "
                f"available: {OPTIMIZER_MODES}")
        for family in self.families:
            if family not in self.FAMILIES:
                raise ValueError(
                    f"unknown benchmark family {family!r}; "
                    f"valid families: {', '.join(self.FAMILIES)}")
        for vocab in self.head_vocab:
            if vocab < 2:
                raise ValueError(
                    f"head_vocab sizes must be >= 2, got {vocab}")


@dataclass
class BenchmarkResult:
    """One (family, width, rate) case: per-step wall-clock of each mode."""

    family: str
    width: int
    in_features: int
    batch: int
    rate: float
    steps: int
    repeats: int
    #: Recurrent-projection execution of the case (None = not applicable).
    recurrent: str | None = None
    #: Loss-head execution of the case (None = not applicable).
    loss_head: str | None = None
    #: Optimizer execution of the case (None = not applicable).
    optimizer: str | None = None
    #: Vocabulary size of the ``head_vocab`` cases (None for families whose
    #: ``width`` is not a vocabulary).
    vocab: int | None = None
    #: Data-parallel worker count of the ``e2e_dist`` case (None otherwise).
    shards: int | None = None
    #: CPU cores the case was measured on (recorded for ``e2e_dist`` so the
    #: scaling gate can tell "regressed" from "machine too small to scale").
    cpu_count: int | None = None
    #: True when the box is too small for the case's comparison to be
    #: meaningful (``e2e_dist``/``e2e_elastic``: fewer cores than shards + 1;
    #: ``serve``: a single core, so the baseline's concurrent request threads
    #: serialise).  Gates treat such entries as machine facts, not
    #: regressions.  None for families where the question doesn't arise.
    cpu_gated: bool | None = None
    mode_ms: dict[str, float] = field(default_factory=dict)
    #: Mean fraction of the dense GEMM the compact modes execute over the
    #: case's shared pattern sequence (kept rows / kept tile area).
    keep_fraction: float | None = None
    #: ``serve``-family detail: per-mode :class:`~repro.serving.loadgen.LoadReport`
    #: dicts plus the driver's concurrency/batching knobs (None otherwise).
    serving: dict | None = None

    @property
    def speedup_compact(self) -> float | None:
        """masked / compact per-step time (None for cases without the mode)."""
        if "compact" not in self.mode_ms:
            return None
        return self.mode_ms["masked"] / self.mode_ms["compact"]

    @property
    def speedup_pooled(self) -> float:
        """masked / pooled per-step time (the full cached engine).

        The ``e2e_dist`` family has no masked baseline — there the headline
        ratio is single-process / sharded per-step time, i.e. the
        data-parallel scaling factor, kept under the same key so every
        report entry gates through one field.  The ``e2e_elastic`` family's
        headline is recovery / step time: how many ordinary steps one full
        worker-recovery cycle costs (lower is better there; the elastic
        gate bounds the absolute recovery time instead).
        """
        if "pooled" in self.mode_ms:
            return self.mode_ms["masked"] / self.mode_ms["pooled"]
        if "recover" in self.mode_ms:
            return self.mode_ms["recover"] / self.mode_ms["step"]
        return self.mode_ms["single"] / self.mode_ms["sharded"]

    def to_dict(self) -> dict:
        compact = self.speedup_compact
        return {
            "family": self.family,
            "width": self.width,
            "in_features": self.in_features,
            "batch": self.batch,
            "rate": self.rate,
            "steps": self.steps,
            "repeats": self.repeats,
            "recurrent": self.recurrent,
            "loss_head": self.loss_head,
            "optimizer": self.optimizer,
            "vocab": self.vocab,
            "shards": self.shards,
            "cpu_count": self.cpu_count,
            "cpu_gated": self.cpu_gated,
            "mode_ms": {mode: round(ms, 4) for mode, ms in self.mode_ms.items()},
            "keep_fraction": (round(self.keep_fraction, 4)
                              if self.keep_fraction is not None else None),
            "serving": self.serving,
            "speedup_compact": round(compact, 3) if compact is not None else None,
            "speedup_pooled": round(self.speedup_pooled, 3),
        }


def _make_operands(rng: np.random.Generator, batch: int, in_features: int,
                   out_features: int) -> tuple[Tensor, Tensor, Tensor]:
    x = Tensor(rng.normal(size=(batch, in_features)), requires_grad=True)
    weight = Tensor(rng.normal(size=(out_features, in_features)) * 0.01,
                    requires_grad=True)
    bias = Tensor(np.zeros(out_features), requires_grad=True)
    return x, weight, bias


def _timed_modes(step_fns: dict[str, object], steps: int, warmup: int,
                 repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` mean per-step time of each mode, in milliseconds.

    The repeats of the different modes are interleaved (mode A repeat 1,
    mode B repeat 1, ..., mode A repeat 2, ...) so slow drift in machine load
    biases every mode equally instead of whichever mode happened to run last.
    """
    best = {mode: float("inf") for mode in step_fns}
    for _ in range(repeats):
        for mode, step_fn in step_fns.items():
            for _ in range(warmup):
                step_fn()
            start = time.perf_counter()
            for _ in range(steps):
                step_fn()
            elapsed = time.perf_counter() - start
            best[mode] = min(best[mode], elapsed / steps)
    return {mode: value * 1000.0 for mode, value in best.items()}


def _zero_grads(*tensors: Tensor) -> None:
    for tensor in tensors:
        tensor.zero_grad()


def _shared_pattern_sequence(sampler: PatternSampler, limit: int,
                             count: int) -> list[tuple[int, int]]:
    """One ``(dp, bias)`` sequence shared by every mode of a case.

    All three modes replay the *same* pattern stream, so the comparison is not
    confounded by one mode happening to draw cheaper (larger-``dp``) patterns
    than another — the compact modes' cost is proportional to ``1/dp``.
    """
    periods, biases = sampler.sample_many(count)
    periods = np.minimum(periods, limit)
    biases = biases % periods
    return [(int(dp), int(b)) for dp, b in zip(periods, biases)]


class _Cycle:
    """Tiny deterministic cycle iterator (one per mode, same sequence)."""

    def __init__(self, items):
        self.items = items
        self.index = 0

    def next(self):
        item = self.items[self.index % len(self.items)]
        self.index += 1
        return item


def _bench_row_case(config: BenchmarkConfig, width: int, rate: float,
                    rng: np.random.Generator) -> BenchmarkResult:
    from repro.dropout.patterns import row_keep_counts, row_pattern, row_pattern_mask

    in_features = config.in_features or width
    x, weight, bias = _make_operands(rng, config.batch, in_features, width)
    sampler = PatternSampler(rate, min(config.max_period, width),
                             rng=np.random.default_rng(config.seed))
    sampler.result  # run the one-time distribution search outside the timers
    sequence = _shared_pattern_sequence(sampler, width,
                                        config.steps + config.warmup)
    masked_seq, compact_seq, pooled_seq = _Cycle(sequence), _Cycle(sequence), None
    backend = ExecutionBackend()

    def masked_step():
        _zero_grads(x, weight, bias)
        dp, bias_phase = masked_seq.next()
        mask = row_pattern_mask(width, dp, bias_phase)  # built per step, as Fig. 1(a)
        out = F.apply_mask(F.linear(x, weight, bias), mask[None, :])
        out.sum().backward()

    def compact_step():
        _zero_grads(x, weight, bias)
        dp, bias_phase = compact_seq.next()
        pattern = RowDropoutPattern(width, dp, bias_phase)  # fresh object, no interning
        out = row_compact_linear(x, weight, bias, pattern, backend=backend)
        out.sum().backward()

    # The pooled mode replays the same (dp, bias) stream through interned
    # pattern objects — exactly what a PatternPool hands a trainer.
    pooled_seq = _Cycle([row_pattern(width, dp, b) for dp, b in sequence])
    workspace = CompactWorkspace()

    def pooled_step():
        _zero_grads(x, weight, bias)
        pattern = pooled_seq.next()  # interned pattern from the pre-drawn pool
        out = row_compact_linear(x, weight, bias, pattern, workspace=workspace,
                                 backend=backend)
        out.sum().backward()

    periods = np.array([dp for dp, _ in sequence])
    phases = np.array([b for _, b in sequence])
    result = BenchmarkResult(family="row", width=width, in_features=in_features,
                             batch=config.batch, rate=rate, steps=config.steps,
                             repeats=config.repeats,
                             keep_fraction=float(
                                 row_keep_counts(width, periods, phases).mean() / width))
    result.mode_ms = _timed_modes(
        {"masked": masked_step, "compact": compact_step, "pooled": pooled_step},
        config.steps, config.warmup, config.repeats)
    return result


def _bench_tile_case(config: BenchmarkConfig, width: int, rate: float,
                     rng: np.random.Generator) -> BenchmarkResult:
    in_features = config.in_features or width
    x, weight, bias = _make_operands(rng, config.batch, in_features, width)
    from repro.dropout.patterns import tile_pattern, tile_pattern_mask

    reference = TileDropoutPattern(rows=width, cols=in_features, dp=1, bias=0,
                                   tile=config.tile)
    sampler = PatternSampler(rate, min(config.max_period, reference.num_tiles),
                             rng=np.random.default_rng(config.seed))
    sampler.result
    sequence = _shared_pattern_sequence(sampler, reference.num_tiles,
                                        config.steps + config.warmup)
    masked_seq, compact_seq = _Cycle(sequence), _Cycle(sequence)
    backend = ExecutionBackend()

    def masked_step():
        _zero_grads(x, weight, bias)
        dp, bias_phase = masked_seq.next()
        mask = tile_pattern_mask(width, in_features, dp, bias_phase, config.tile)
        out = x.matmul(F.apply_mask(weight, mask).transpose()) + bias
        out.sum().backward()

    def compact_step():
        _zero_grads(x, weight, bias)
        dp, bias_phase = compact_seq.next()
        pattern = TileDropoutPattern(width, in_features, dp, bias_phase,
                                     config.tile)  # fresh object, no interning
        out = tile_compact_linear(x, weight, bias, pattern, backend=backend)
        out.sum().backward()

    pooled_seq = _Cycle([tile_pattern(width, in_features, dp, b, config.tile)
                         for dp, b in sequence])
    workspace = CompactWorkspace()

    def pooled_step():
        _zero_grads(x, weight, bias)
        pattern = pooled_seq.next()  # interned pattern from the pre-drawn pool
        out = tile_compact_linear(x, weight, bias, pattern, workspace=workspace,
                                  plan=compile_tile_plan(pattern), backend=backend)
        out.sum().backward()

    result = BenchmarkResult(family="tile", width=width, in_features=in_features,
                             batch=config.batch, rate=rate, steps=config.steps,
                             repeats=config.repeats,
                             keep_fraction=float(np.mean(
                                 [plan.compact_flops_fraction
                                  for plan in (compile_tile_plan(p)
                                               for p in pooled_seq.items)])))
    result.mode_ms = _timed_modes(
        {"masked": masked_step, "compact": compact_step, "pooled": pooled_step},
        config.steps, config.warmup, config.repeats)
    return result


def _bench_lstm_rec_case(config: BenchmarkConfig, width: int, rate: float,
                         rng: np.random.Generator) -> BenchmarkResult:
    """One recurrent projection ``h @ weight_h.T`` under gate-aligned DropConnect.

    ``width`` is the hidden size; the weight has ``4 * width`` rows (the LSTM
    gate stack).  ``masked`` rebuilds the gate-replicated weight mask every
    step and runs the dense GEMM; ``compact`` executes fresh (uninterned)
    recurrent patterns through the plan op; ``pooled`` replays interned
    patterns with precompiled plans and workspace buffer reuse.  (The
    per-window weight-gather hoist the LSTM unroll adds on top only pays off
    when one pattern serves many timesteps — the ``e2e`` family measures
    that.)
    """
    from repro.dropout.compact_ops import recurrent_compact_linear
    from repro.dropout.engine import compile_recurrent_plan
    from repro.dropout.patterns import (
        RecurrentTilePattern,
        recurrent_tile_mask,
        recurrent_tile_pattern,
    )

    num_gates = 4
    # The recurrent projection is inherently square: h has `width` (hidden)
    # features regardless of any rectangular-layer override.
    in_features = width
    h = Tensor(rng.normal(size=(config.batch, width)), requires_grad=True)
    weight = Tensor(rng.normal(size=(num_gates * width, width)) * 0.01,
                    requires_grad=True)
    reference = TileDropoutPattern(rows=width, cols=width, dp=1, bias=0,
                                   tile=config.tile)
    sampler = PatternSampler(rate, min(config.max_period, reference.num_tiles),
                             rng=np.random.default_rng(config.seed))
    sampler.result
    sequence = _shared_pattern_sequence(sampler, reference.num_tiles,
                                        config.steps + config.warmup)
    masked_seq, compact_seq = _Cycle(sequence), _Cycle(sequence)
    backend = ExecutionBackend()

    def masked_step():
        _zero_grads(h, weight)
        dp, bias_phase = masked_seq.next()
        mask = recurrent_tile_mask(width, num_gates, dp, bias_phase, config.tile)
        out = h.matmul(F.apply_mask(weight, mask).transpose())
        out.sum().backward()

    def compact_step():
        _zero_grads(h, weight)
        dp, bias_phase = compact_seq.next()
        pattern = RecurrentTilePattern(width, num_gates, dp, bias_phase,
                                       config.tile)  # fresh object, no interning
        out = recurrent_compact_linear(h, weight, pattern, backend=backend)
        out.sum().backward()

    pooled_seq = _Cycle([recurrent_tile_pattern(width, num_gates, dp, b,
                                                config.tile)
                         for dp, b in sequence])
    workspace = CompactWorkspace()

    def pooled_step():
        _zero_grads(h, weight)
        pattern = pooled_seq.next()  # interned pattern from the pre-drawn pool
        out = recurrent_compact_linear(h, weight, pattern, workspace=workspace,
                                       plan=compile_recurrent_plan(pattern),
                                       backend=backend)
        out.sum().backward()

    result = BenchmarkResult(family="lstm_rec", width=width,
                             in_features=in_features, batch=config.batch,
                             rate=rate, steps=config.steps,
                             repeats=config.repeats,
                             recurrent="tiled",
                             keep_fraction=float(np.mean(
                                 [compile_recurrent_plan(p).compact_flops_fraction
                                  for p in pooled_seq.items])))
    result.mode_ms = _timed_modes(
        {"masked": masked_step, "compact": compact_step, "pooled": pooled_step},
        config.steps, config.warmup, config.repeats)
    return result


def _bench_head_case(config: BenchmarkConfig, width: int, rate: float,
                     rng: np.random.Generator) -> BenchmarkResult:
    """One loss-head step: vocabulary projection + cross-entropy, fwd + bwd.

    ``width`` is the vocabulary size (the class-pattern dimension);
    ``in_features`` the hidden width feeding the projection.  ``masked``
    computes the dense projection and the full-vocabulary cross-entropy —
    what every trainer paid before the head subsystem; ``compact`` computes
    the sampled softmax with fresh (uninterned) class patterns and no
    workspace; ``pooled`` replays interned patterns with the workspace ring
    reusing the full-size gradient scatter buffers (the ``vocab x hidden``
    weight gradient is the big one).
    """
    from repro.dropout.patterns import row_pattern
    from repro.heads import sampled_softmax_loss

    in_features = config.in_features or width
    x, weight, bias = _make_operands(rng, config.batch, in_features, width)
    targets = rng.integers(0, width, size=config.batch)
    sampler = PatternSampler(rate, min(config.max_period, width),
                             rng=np.random.default_rng(config.seed))
    sampler.result  # run the one-time distribution search outside the timers
    sequence = _shared_pattern_sequence(sampler, width,
                                        config.steps + config.warmup)
    masked_seq, compact_seq = _Cycle(sequence), _Cycle(sequence)
    backend = ExecutionBackend()

    def masked_step():
        _zero_grads(x, weight, bias)
        masked_seq.next()  # the dense baseline ignores the pattern stream
        loss = F.cross_entropy(F.linear(x, weight, bias), targets)
        loss.backward()

    def compact_step():
        _zero_grads(x, weight, bias)
        dp, bias_phase = compact_seq.next()
        pattern = RowDropoutPattern(width, dp, bias_phase)  # fresh object, no interning
        loss = sampled_softmax_loss(x, weight, bias, targets, pattern,
                                    backend=backend)
        loss.backward()

    pooled_seq = _Cycle([row_pattern(width, dp, b) for dp, b in sequence])
    workspace = CompactWorkspace()

    def pooled_step():
        _zero_grads(x, weight, bias)
        pattern = pooled_seq.next()  # interned pattern from the pre-drawn pool
        loss = sampled_softmax_loss(x, weight, bias, targets, pattern,
                                    workspace=workspace, backend=backend)
        loss.backward()

    from repro.heads import sampled_class_set

    # The executed class set is union(pattern kept, batch targets) — count
    # exactly what the sampled loss gathers, not the pattern alone.
    kept_counts = [len(sampled_class_set(pattern, targets)[0])
                   for pattern in pooled_seq.items]
    result = BenchmarkResult(family="head", width=width,
                             in_features=in_features, batch=config.batch,
                             rate=rate, steps=config.steps,
                             repeats=config.repeats,
                             loss_head="sampled",
                             keep_fraction=float(np.mean(kept_counts) / width))
    result.mode_ms = _timed_modes(
        {"masked": masked_step, "compact": compact_step, "pooled": pooled_step},
        config.steps, config.warmup, config.repeats)
    return result


#: Hidden width feeding the ``head_vocab`` cases' projection (overridable
#: via ``BenchmarkConfig.in_features``): fixed rather than square because
#: the axis sweeps the vocabulary, not the feature width.
_HEAD_VOCAB_HIDDEN = 256


def _bench_head_vocab_case(config: BenchmarkConfig, vocab: int, rate: float,
                           rng: np.random.Generator) -> BenchmarkResult:
    """Dense vs sampled vs adaptive loss-head step at large vocabulary.

    The large-vocab companion of the ``head`` family: one loss-head step
    (projection + cross-entropy, forward and backward) over a
    Zipf-distributed target batch, at a fixed hidden width and with the
    vocabulary as the swept axis.  The modes map the three head kinds onto
    the report's standard keys so the existing gates read the entry
    unchanged:

    * ``masked`` — the exact dense head (full projection + full softmax);
    * ``compact`` — the sampled head's importance-weighted loss with pooled
      interned class patterns at the case ``rate``;
    * ``pooled`` — the :class:`~repro.heads.AdaptiveSoftmaxHead` loss
      (auto-sized shortlist, default cluster count), so ``speedup_pooled``
      is the adaptive head's wall-clock win over the dense head — the
      number the delta gate's adaptive acceptance case bounds.

    Targets are Zipfian (matching the synthetic corpus and the adaptive
    head's frequency-ordered-ids assumption), so the batch concentrates in
    the shortlist and the frequent tail bands exactly as a real large-vocab
    training step would.
    """
    from repro.data.synthetic_text import _zipf_weights
    from repro.dropout.patterns import row_pattern
    from repro.heads import AdaptiveSoftmaxHead, sampled_softmax_loss

    hidden = config.in_features or _HEAD_VOCAB_HIDDEN
    x, weight, bias = _make_operands(rng, config.batch, hidden, vocab)
    unigram_cdf = np.cumsum(_zipf_weights(vocab, 1.05))
    targets = np.minimum(np.searchsorted(unigram_cdf,
                                         rng.random(config.batch)),
                         vocab - 1).astype(np.int64)
    sampler = PatternSampler(rate, min(config.max_period, vocab),
                             rng=np.random.default_rng(config.seed))
    sampler.result  # run the one-time distribution search outside the timers
    sequence = _shared_pattern_sequence(sampler, vocab,
                                        config.steps + config.warmup)
    backend = ExecutionBackend()

    def masked_step():
        _zero_grads(x, weight, bias)
        loss = F.cross_entropy(F.linear(x, weight, bias), targets)
        loss.backward()

    sampled_seq = _Cycle([row_pattern(vocab, dp, b) for dp, b in sequence])
    workspace = CompactWorkspace()

    def sampled_step():
        _zero_grads(x, weight, bias)
        pattern = sampled_seq.next()  # interned pattern from the pre-drawn pool
        loss = sampled_softmax_loss(x, weight, bias, targets, pattern,
                                    workspace=workspace, backend=backend)
        loss.backward()

    head = AdaptiveSoftmaxHead(vocab)
    head.train()
    head.execution_mode = "compact"
    head.use_workspace = True
    head.backend = backend

    def adaptive_step():
        _zero_grads(x, weight, bias)
        loss = head.loss(x, weight, bias, targets)
        loss.backward()

    # The dense mode's per-step cost grows linearly with the vocabulary, so
    # the protocol is halved against the grid families to keep the sweep
    # affordable; the speedups at this scale dwarf protocol noise.
    steps = max(2, config.steps // 2)
    repeats = max(2, config.repeats // 2)
    result = BenchmarkResult(family="head_vocab", width=vocab,
                             in_features=hidden, batch=config.batch,
                             rate=rate, steps=steps, repeats=repeats,
                             loss_head="adaptive",
                             vocab=vocab)
    result.mode_ms = _timed_modes(
        {"masked": masked_step, "compact": sampled_step,
         "pooled": adaptive_step},
        steps, config.warmup, repeats)
    # Mean fraction of the vocabulary the adaptive head actually projected
    # (head level + expanded bands), averaged over every timed+warmup step.
    counters = head.head_counters()
    if counters["draws"]:
        result.keep_fraction = float(
            counters["kept_classes"] / (counters["draws"] * vocab))
    return result


# ----------------------------------------------------------------------
# end-to-end trainer-step cases
# ----------------------------------------------------------------------
#
# The e2e family times *whole* training steps — forward, loss, backward,
# gradient clip/update, pattern (re)sampling — with the model and trainer
# wired through the same ExecutionConfig/EngineRuntime the experiment drivers
# use.  The "masked" mode is the conventional-dropout baseline (the paper's
# "old time"): the `original` strategy with dense GEMMs and i.i.d. Bernoulli
# masks.  "compact" and "pooled" train the pattern (`row`) strategy under the
# matching engine mode.  Dimensions are derived from the sweep config but
# capped so the CPU-bound dense baselines stay affordable.

_E2E_STRATEGY = {"masked": "original", "compact": "row", "pooled": "row"}


def _e2e_runtime(mode: str, config: BenchmarkConfig):
    from repro.execution import EngineRuntime, ExecutionConfig

    # The masked baseline trains the `original` strategy, which has no
    # recurrent pattern sites and always pays the dense loss head and the
    # dense parameter update — the recurrent/loss-head/optimizer toggles only
    # affect the compact/pooled pattern runs.  The sampled head prunes
    # classes at the case's dropout rate.
    recurrent = "dense" if mode == "masked" else config.recurrent
    loss_head = "dense" if mode == "masked" else config.loss_head
    optimizer = "dense" if mode == "masked" else config.optimizer
    return EngineRuntime(ExecutionConfig(mode=mode, dtype=config.e2e_dtype,
                                         recurrent=recurrent,
                                         loss_head=loss_head,
                                         loss_head_rate=max(config.rates),
                                         optimizer=optimizer,
                                         seed=config.seed))


def _bench_e2e_mlp_case(config: BenchmarkConfig,
                        rng: np.random.Generator) -> BenchmarkResult:
    from repro.data.synthetic_mnist import make_synthetic_mnist
    from repro.models.mlp import MLPClassifier, MLPConfig
    from repro.training.trainer import ClassifierTrainer, ClassifierTrainingConfig

    hidden = min(max(config.widths), 512)
    rate = max(config.rates)
    batch = config.batch
    data = make_synthetic_mnist(num_train=max(batch, 64), num_test=32,
                                seed=config.seed)
    images = data.train_images[:batch]
    labels = data.train_labels[:batch]

    step_fns: dict[str, object] = {}
    for mode, strategy in _E2E_STRATEGY.items():
        model = MLPClassifier(MLPConfig(
            input_size=data.num_features, hidden_sizes=(hidden, hidden),
            num_classes=data.num_classes, drop_rates=(rate, rate),
            strategy=strategy, seed=config.seed))
        trainer = ClassifierTrainer(
            model, data,
            ClassifierTrainingConfig(batch_size=batch, epochs=1, seed=config.seed),
            runtime=_e2e_runtime(mode, config))
        step_fns[mode] = (lambda t=trainer: t.train_step(images, labels))

    result = BenchmarkResult(family="e2e_mlp", width=hidden,
                             in_features=data.num_features, batch=batch,
                             rate=rate, steps=config.steps, repeats=config.repeats,
                             optimizer=config.optimizer)
    result.mode_ms = _timed_modes(step_fns, config.steps, config.warmup,
                                  config.repeats)
    return result


def _bench_e2e_lstm_case(config: BenchmarkConfig,
                         rng: np.random.Generator) -> BenchmarkResult:
    from repro.data.synthetic_text import make_synthetic_corpus
    from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
    from repro.training.lm_trainer import (
        LanguageModelTrainer,
        LanguageModelTrainingConfig,
    )

    hidden = min(max(config.widths) // 2, 256)
    vocab = 8 * hidden
    seq_len = 12
    batch = max(4, config.batch // 4)
    rate = max(config.rates)
    corpus = make_synthetic_corpus(vocab_size=vocab,
                                   num_train_tokens=seq_len * batch * 4,
                                   num_valid_tokens=seq_len * batch,
                                   num_test_tokens=seq_len * batch,
                                   seed=config.seed)
    inputs = rng.integers(0, vocab, size=(seq_len, batch))
    targets = rng.integers(0, vocab, size=(seq_len, batch))

    step_fns: dict[str, object] = {}
    for mode, strategy in _E2E_STRATEGY.items():
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=vocab, embed_size=hidden, hidden_size=hidden,
            num_layers=2, drop_rates=(rate, rate), strategy=strategy,
            seed=config.seed))
        trainer = LanguageModelTrainer(
            model, corpus,
            LanguageModelTrainingConfig(batch_size=batch, seq_len=seq_len,
                                        epochs=1, seed=config.seed),
            runtime=_e2e_runtime(mode, config))
        state = model.init_state(batch)

        def step_fn(t=trainer, state_box=[state]):
            _, state_box[0] = t.train_step(inputs, targets, state_box[0])

        step_fns[mode] = step_fn

    result = BenchmarkResult(family="e2e_lstm", width=hidden, in_features=vocab,
                             batch=batch, rate=rate, steps=config.steps,
                             repeats=config.repeats,
                             recurrent=config.recurrent,
                             loss_head=config.loss_head,
                             optimizer=config.optimizer)
    result.mode_ms = _timed_modes(step_fns, config.steps, config.warmup,
                                  config.repeats)
    return result


def _bench_e2e_dist_case(config: BenchmarkConfig,
                         rng: np.random.Generator) -> BenchmarkResult:
    """Data-parallel scaling of one MLP trainer step.

    ``single`` times ``ClassifierTrainer.train_step`` in-process;
    ``sharded`` times one :meth:`_Cluster.step` of the distributed
    coordinator — publish params, release ``dist_shards`` workers on their
    strided batch slices, shared-memory tree reduce, one optimizer step.
    Both modes run the same pooled-engine configuration, so the ratio is
    pure multi-process scaling (workers idle at the params barrier while
    the single mode is timed, so the interleaved repeats stay fair).
    """
    from repro.data.synthetic_mnist import make_synthetic_mnist
    from repro.distributed import DistributedTrainer
    from repro.execution import EngineRuntime, ExecutionConfig
    from repro.models.mlp import MLPClassifier, MLPConfig
    from repro.training.trainer import ClassifierTrainer, ClassifierTrainingConfig

    hidden = min(max(config.widths), 512)
    rate = max(config.rates)
    batch = config.batch
    # Enough training data that every shard's strided slice of the epoch
    # schedule stays non-empty, and the step loop cycles a few batches.
    data = make_synthetic_mnist(num_train=max(batch * 4, 256), num_test=32,
                                seed=config.seed)
    train_config = ClassifierTrainingConfig(batch_size=batch, epochs=1,
                                            seed=config.seed)

    def build(shards: int):
        model = MLPClassifier(MLPConfig(
            input_size=data.num_features, hidden_sizes=(hidden, hidden),
            num_classes=data.num_classes, drop_rates=(rate, rate),
            strategy="row", seed=config.seed))
        runtime = EngineRuntime(ExecutionConfig(
            mode="pooled", dtype=config.e2e_dtype,
            optimizer=config.optimizer, seed=config.seed, shards=shards))
        return model, runtime

    model, runtime = build(1)
    single = ClassifierTrainer(model, data, train_config, runtime=runtime)
    images = data.train_images[:batch]
    labels = data.train_labels[:batch]

    dist_model, dist_runtime = build(config.dist_shards)
    dist = DistributedTrainer(dist_model, data, train_config,
                              runtime=dist_runtime)

    result = BenchmarkResult(family="e2e_dist", width=hidden,
                             in_features=data.num_features, batch=batch,
                             rate=rate, steps=config.steps,
                             repeats=config.repeats,
                             optimizer=config.optimizer,
                             shards=config.dist_shards,
                             cpu_count=os.cpu_count(),
                             cpu_gated=(os.cpu_count() or 1)
                             < config.dist_shards + 1)
    with dist.session() as cluster:
        result.mode_ms = _timed_modes(
            {"single": lambda: single.train_step(images, labels),
             "sharded": cluster.step},
            config.steps, config.warmup, config.repeats)
    return result


#: Full teardown -> respawn -> replay cycles timed by the ``e2e_elastic``
#: case's ``recover`` mode (best cycle reported).  Each cycle respawns every
#: worker process, so this is deliberately far below ``repeats``.
_RECOVER_CYCLES = 2


def _bench_e2e_elastic_case(config: BenchmarkConfig,
                            rng: np.random.Generator) -> BenchmarkResult:
    """Distributed step plus one full elastic recovery cycle.

    ``step`` times one :meth:`_Cluster.step` of the distributed MLP trainer
    (with dirty-region gradient compression active whenever
    ``config.optimizer == "sparse"``); ``recover`` times what the elastic
    retry loop pays per failure once the fault is detected — tear the whole
    cluster down, respawn every worker with ``start_step`` at the current
    step, let them deterministically fast-forward, and replay the in-flight
    step.  The carry-state snapshot is threaded through the respawn exactly
    like :meth:`DistributedTrainer._run` does (a no-op for the stateless
    classifier, but the cycle being timed is the real recovery path).
    """
    from repro.data.synthetic_mnist import make_synthetic_mnist
    from repro.distributed import DistributedTrainer
    from repro.distributed.trainer import _Cluster
    from repro.execution import EngineRuntime, ExecutionConfig
    from repro.models.mlp import MLPClassifier, MLPConfig
    from repro.training.trainer import ClassifierTrainingConfig

    hidden = min(max(config.widths), 512)
    rate = max(config.rates)
    batch = config.batch
    data = make_synthetic_mnist(num_train=max(batch * 4, 256), num_test=32,
                                seed=config.seed)
    train_config = ClassifierTrainingConfig(batch_size=batch, epochs=1,
                                            seed=config.seed)
    model = MLPClassifier(MLPConfig(
        input_size=data.num_features, hidden_sizes=(hidden, hidden),
        num_classes=data.num_classes, drop_rates=(rate, rate),
        strategy="row", seed=config.seed))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", dtype=config.e2e_dtype,
        optimizer=config.optimizer, seed=config.seed,
        shards=config.dist_shards))
    trainer = DistributedTrainer(model, data, train_config, runtime=runtime)

    result = BenchmarkResult(family="e2e_elastic", width=hidden,
                             in_features=data.num_features, batch=batch,
                             rate=rate, steps=config.steps,
                             repeats=config.repeats,
                             optimizer=config.optimizer,
                             shards=config.dist_shards,
                             cpu_count=os.cpu_count(),
                             cpu_gated=(os.cpu_count() or 1)
                             < config.dist_shards + 1)
    cluster = _Cluster(trainer)
    try:
        cluster.start()
        result.mode_ms = _timed_modes({"step": cluster.step}, config.steps,
                                      config.warmup, config.repeats)
        best = float("inf")
        for _ in range(_RECOVER_CYCLES):
            resume_step = cluster.start_step + cluster.steps
            states = cluster.states_snapshot()
            start = time.perf_counter()
            cluster.close(join_timeout=10.0)
            cluster = _Cluster(trainer, start_step=resume_step,
                               resume_states=states)
            cluster.start()
            cluster.step()
            best = min(best, time.perf_counter() - start)
        result.mode_ms["recover"] = best * 1000.0
    finally:
        cluster.close()
    return result


def _bench_serve_case(config: BenchmarkConfig, kind: str,
                      rng: np.random.Generator) -> BenchmarkResult:
    """Per-request dense inference vs the micro-batched frozen engine.

    Both modes serve the same frozen (eval-mode) model under the same
    closed-loop load: ``serve_concurrency`` request threads, each keeping
    one request in flight.  ``masked`` answers every request with its own
    synchronous eval-mode ``forward()`` — the per-request GEMV-shaped path
    inference took before :mod:`repro.serving` existed.  ``pooled`` routes
    the same requests through an :class:`~repro.serving.engine.InferenceEngine`
    behind a :class:`~repro.serving.batcher.MicroBatcher` whose batch bound
    equals the concurrency, so each full wave of in-flight requests executes
    as exactly one GEMM-shaped pooled step.  ``mode_ms`` records each mode's
    mean per-request latency (keeping ``speedup_pooled`` the headline ratio);
    the entry's ``serving`` dict carries both full
    :class:`~repro.serving.loadgen.LoadReport` summaries plus the batcher's
    realised occupancy, and a ``rate_sweep`` ladder — one open-loop
    (Poisson-arrival) report per offered rate at 30/60/90% of the pooled
    closed loop's realised throughput (see
    :func:`~repro.serving.loadgen.run_rate_sweep`).
    """
    from repro.execution import EngineRuntime, ExecutionConfig
    from repro.serving import (InferenceEngine, MicroBatcher, run_closed_loop,
                               run_rate_sweep)
    from repro.tensor.tensor import no_grad

    concurrency = config.serve_concurrency
    rate = max(config.rates)
    exec_config = ExecutionConfig(
        mode="pooled", dtype=config.e2e_dtype,
        recurrent=config.recurrent, seed=config.seed,
        serve_max_batch=concurrency)
    runtime = EngineRuntime(exec_config)

    if kind == "serve_mlp":
        from repro.models.mlp import MLPClassifier, MLPConfig

        hidden = min(max(config.widths), 2048)
        in_features = 784
        model = MLPClassifier(MLPConfig(
            input_size=in_features, hidden_sizes=(hidden, hidden),
            num_classes=10, drop_rates=(rate, rate), strategy="row",
            seed=config.seed))
        runtime.bind(model)
        requests = [rng.normal(size=in_features).astype(runtime.np_dtype)
                    for _ in range(config.serve_requests)]

        def baseline(request):
            with no_grad():
                return model(Tensor(request[None, :],
                                    dtype=runtime.np_dtype)).data[0]

        width, recurrent = hidden, None
    else:  # serve_lstm
        from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel

        hidden = min(max(config.widths) // 2, 256)
        vocab = 8 * hidden
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=vocab, embed_size=hidden, hidden_size=hidden,
            num_layers=2, drop_rates=(rate, rate), strategy="row",
            seed=config.seed))
        runtime.bind(model)
        # Variable-length token requests so the pooled path pays its real
        # padding cost; a tenth of the MLP request count (each request is a
        # full sequence unroll, not one GEMV).
        count = max(200, config.serve_requests // 10)
        lengths = rng.integers(4, 17, size=count)
        requests = [rng.integers(0, vocab, size=int(length))
                    for length in lengths]

        def baseline(request):
            with no_grad():
                logits, _ = model(np.asarray(request)[:, None])
            return logits.data

        width, in_features, recurrent = hidden, vocab, config.recurrent

    model.eval()
    engine = InferenceEngine(model, runtime=runtime)

    # Warm both paths (interns the engine's workspace ring, faults the
    # baseline's allocation patterns in) before anything is timed.
    warm = requests[:min(len(requests), 2 * concurrency)]
    for request in warm:
        baseline(request)
    engine.infer_requests(list(warm))

    masked = run_closed_loop(baseline, requests, concurrency=concurrency)
    with MicroBatcher(engine, max_batch=concurrency) as batcher:
        pooled = run_closed_loop(batcher.submit, requests,
                                 concurrency=concurrency)
        # Latency-vs-offered-load ladder through the same batcher: Poisson
        # arrivals at fractions of the closed loop's realised capacity, so
        # the report shows how the engine's quantiles grow toward
        # saturation.  Bounded request count per rung — the ladder is a
        # characterisation, not the headline timing.
        sweep_requests = requests[:min(len(requests), 50 * concurrency)]
        sweep_rates = [round(pooled.throughput_rps * fraction, 2)
                       for fraction in (0.3, 0.6, 0.9)]
        if min(sweep_rates, default=0.0) > 0:
            sweep_reports = run_rate_sweep(batcher.submit, sweep_requests,
                                           rates_rps=sweep_rates,
                                           seed=config.seed)
        else:  # degenerate closed loop (zero throughput): nothing to sweep
            sweep_rates, sweep_reports = [], []

    result = BenchmarkResult(family=kind, width=width,
                             in_features=in_features, batch=concurrency,
                             rate=rate, steps=len(requests), repeats=1,
                             recurrent=recurrent,
                             cpu_count=os.cpu_count(),
                             cpu_gated=(os.cpu_count() or 1) < 2)
    result.mode_ms = {"masked": masked.mean_ms, "pooled": pooled.mean_ms}
    occupancy = (batcher.requests_served / batcher.batches_formed
                 if batcher.batches_formed else 0.0)
    result.serving = {
        "concurrency": concurrency,
        "max_batch": batcher.max_batch,
        "max_wait_ms": batcher.max_wait_ms,
        "batches": batcher.batches_formed,
        "mean_occupancy": round(occupancy, 3),
        "masked": masked.to_dict(),
        "pooled": pooled.to_dict(),
        "rate_sweep": [{"rate_rps": rate, **report.to_dict()}
                       for rate, report in zip(sweep_rates, sweep_reports)],
    }
    return result


# ----------------------------------------------------------------------
# case scheduling (in-process or sharded across worker processes)
# ----------------------------------------------------------------------

def case_descriptors(config: BenchmarkConfig) -> list[tuple[str, int | None, float | None]]:
    """The flat list of ``(kind, width, rate)`` cases ``config`` expands to.

    ``e2e`` expands to one descriptor per trainer workload (their dimensions
    derive from the sweep bounds, not the grid).  The descriptor list is the
    unit of sharding: each descriptor runs entirely inside one worker.
    """
    cases: list[tuple[str, int | None, float | None]] = []
    for family in config.families:
        if family == "e2e":
            cases.append(("e2e_mlp", None, None))
            cases.append(("e2e_lstm", None, None))
            continue
        if family == "serve":
            cases.append(("serve_mlp", None, None))
            cases.append(("serve_lstm", None, None))
            continue
        if family in ("e2e_dist", "e2e_elastic"):
            cases.append((family, None, None))
            continue
        if family == "head_vocab":
            # One case per swept vocabulary at the top rate (the rate only
            # drives the sampled mode; the dense/adaptive modes ignore it).
            for vocab in config.head_vocab:
                cases.append(("head_vocab", vocab, max(config.rates)))
            continue
        for width in config.widths:
            for rate in config.rates:
                cases.append((family, width, rate))
        if family == "head" and "head_vocab" not in config.families:
            # The head family sprouts its large-vocab axis so a plain
            # `--families head` run (and the delta gate) measures it without
            # naming the sub-family explicitly.
            for vocab in config.head_vocab:
                cases.append(("head_vocab", vocab, max(config.rates)))
    return cases


def run_case(config: BenchmarkConfig, index: int,
             case: tuple[str, int | None, float | None]) -> BenchmarkResult:
    """Run one case descriptor (the unit of work a shard executes).

    Each case gets an independent, deterministic operand stream seeded from
    ``(config.seed, index)``, so the results do not depend on which process
    (or in which order) a case ran.
    """
    kind, width, rate = case
    rng = np.random.default_rng([config.seed, index])
    if kind == "e2e_mlp":
        return _bench_e2e_mlp_case(config, rng)
    if kind == "e2e_lstm":
        return _bench_e2e_lstm_case(config, rng)
    if kind in ("serve_mlp", "serve_lstm"):
        return _bench_serve_case(config, kind, rng)
    if kind == "e2e_dist":
        return _bench_e2e_dist_case(config, rng)
    if kind == "e2e_elastic":
        return _bench_e2e_elastic_case(config, rng)
    bench = {"row": _bench_row_case, "tile": _bench_tile_case,
             "lstm_rec": _bench_lstm_rec_case, "head": _bench_head_case,
             "head_vocab": _bench_head_vocab_case}[kind]
    return bench(config, width, rate, rng)


def _run_sharded(config: BenchmarkConfig,
                 cases: list[tuple[str, int | None, float | None]],
                 verbose: bool) -> list[BenchmarkResult]:
    from concurrent.futures import ProcessPoolExecutor, as_completed

    from repro.distributed.procs import pinned_blas_env, spawn_context

    shards = min(config.shards, len(cases))
    results: list[BenchmarkResult | None] = [None] * len(cases)
    # Each worker gets its own BLAS thread domain: the caps are exported in
    # the parent for the duration of the pool (spawn-context children
    # snapshot the environment at exec time), see repro.distributed.procs.
    with pinned_blas_env(shards):
        with ProcessPoolExecutor(max_workers=shards,
                                 mp_context=spawn_context()) as pool:
            futures = {pool.submit(run_case, config, index, case): index
                       for index, case in enumerate(cases)}
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                if verbose:
                    print(_format_row(results[index]))
    return list(results)


def run_benchmark(config: BenchmarkConfig | None = None,
                  verbose: bool = False) -> list[BenchmarkResult]:
    """Run every (family, width, rate) case of ``config`` and return the results.

    With ``config.shards > 1`` the cases are distributed across that many
    worker processes (one BLAS thread domain each); results always come back
    in descriptor order regardless of completion order.
    """
    config = config or BenchmarkConfig()
    cases = case_descriptors(config)
    if config.shards > 1:
        return _run_sharded(config, cases, verbose)
    results: list[BenchmarkResult] = []
    for index, case in enumerate(cases):
        result = run_case(config, index, case)
        results.append(result)
        if verbose:
            print(_format_row(result))
    return results


def _format_row(result: BenchmarkResult) -> str:
    modes = "  ".join(f"{mode}={ms:8.3f}ms"
                      for mode, ms in result.mode_ms.items())
    return (f"[{result.family:8s}] width={result.width:5d} rate={result.rate:.2f}  "
            f"{modes}  speedup(pooled)={result.speedup_pooled:5.2f}x")


def write_report(results: list[BenchmarkResult], config: BenchmarkConfig,
                 path: str | None = None) -> str:
    """Serialise the results (plus environment metadata) to JSON; returns the path."""
    path = path or config.output
    report = {
        "benchmark": "compact_engine",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {
            "widths": list(config.widths),
            "rates": list(config.rates),
            "batch": config.batch,
            "steps": config.steps,
            "repeats": config.repeats,
            "warmup": config.warmup,
            "tile": config.tile,
            "max_period": config.max_period,
            "families": list(config.families),
            "head_vocab": list(config.head_vocab),
            "e2e_dtype": config.e2e_dtype,
            "recurrent": config.recurrent,
            "loss_head": config.loss_head,
            "optimizer": config.optimizer,
            "shards": config.shards,
            "dist_shards": config.dist_shards,
            "serve_requests": config.serve_requests,
            "serve_concurrency": config.serve_concurrency,
            "seed": config.seed,
        },
        "results": [result.to_dict() for result in results],
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return path
