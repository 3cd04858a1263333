"""The three training workloads: trainer steps through the public API.

Each workload builds its data, model and trainer from the seed alone
(:func:`setup`), then :func:`run_steps` fetches batches and calls
``trainer.train_step`` exactly as ``trainer.train()`` would, timing every
step from outside.  Tracing attaches to the same objects through
:mod:`perfbench.tracing`, so a traced and an untraced run execute the same
arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.data.batching import BatchIterator, BPTTBatcher
from repro.data.synthetic_mnist import make_synthetic_mnist
from repro.data.synthetic_text import make_synthetic_corpus
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.models.mlp import MLPClassifier, MLPConfig
from repro.nn.losses import CrossEntropyLoss
from repro.tensor import Tensor, no_grad
from repro.training.lm_trainer import (LanguageModelTrainer,
                                       LanguageModelTrainingConfig)
from repro.training.trainer import ClassifierTrainer, ClassifierTrainingConfig

from perfbench.tracing import maybe_span, timed_phase


@dataclass(frozen=True)
class TrainSpec:
    """Sizes and measurement plan of one training workload."""

    name: str
    kind: str                  # "mlp" or "lm"
    batch: int
    rate: float
    # MLP
    hidden: int = 0
    train_images: int = 0
    test_images: int = 0
    # LM
    vocab: int = 0
    width: int = 0
    seq_len: int = 0
    loss_head: str = "dense"
    train_windows: int = 0     # BPTT windows per epoch
    eval_windows: int = 0
    learning_rate: float = 1.0
    # measurement
    warmup: int = 3
    min_steps: int = 20        # timed steps before the eval point
    tail_q: float = 0.5        # tail quantile reported (needs min_steps)
    trace_steps: int = 10      # steps per phase of the traced run

    @property
    def items_per_step(self) -> int:
        """Samples (MLP) or target tokens (LM) one step trains on."""
        return self.batch * (self.seq_len if self.kind == "lm" else 1)


SPECS = {
    "mlp_train": TrainSpec(
        name="mlp_train", kind="mlp", batch=128, rate=0.7, hidden=2048,
        train_images=128 * 64, test_images=1000,
        min_steps=100, tail_q=0.9, trace_steps=60),
    # At the trainer's default learning rate 1.0 the held-out loss after 53
    # steps spread by 13-17% across seeds; at 0.5 by 7%.
    "lm_train": TrainSpec(
        name="lm_train", kind="lm", batch=20, rate=0.5, vocab=2048,
        width=256, seq_len=35, loss_head="sampled", train_windows=60,
        eval_windows=4, learning_rate=0.5, min_steps=50, tail_q=0.8,
        trace_steps=30),
    # Two warm-up steps and p66 keep a run near 40 s at ≈1 s a step.
    "lm_train_50k": TrainSpec(
        name="lm_train_50k", kind="lm", batch=20, rate=0.5, vocab=50000,
        width=256, seq_len=35, loss_head="adaptive", train_windows=60,
        eval_windows=4, warmup=2, min_steps=30, tail_q=0.66, trace_steps=20),
}

#: Same code paths at toy sizes, for the benchmark's own tests.
TINY_SPECS = {
    "mlp_train": TrainSpec(
        name="mlp_train", kind="mlp", batch=16, rate=0.7, hidden=64,
        train_images=16 * 8, test_images=64, warmup=1, min_steps=4,
        trace_steps=3),
    "lm_train": TrainSpec(
        name="lm_train", kind="lm", batch=4, rate=0.5, vocab=64, width=16,
        seq_len=5, loss_head="sampled", train_windows=6, eval_windows=2,
        warmup=1, min_steps=4, trace_steps=3),
    "lm_train_50k": TrainSpec(
        name="lm_train_50k", kind="lm", batch=4, rate=0.5, vocab=512,
        width=16, seq_len=5, loss_head="adaptive", train_windows=6,
        eval_windows=2, warmup=1, min_steps=4, trace_steps=3),
}


class TrainRun:
    """One set-up workload: the trainer plus an endless batch stream."""

    def __init__(self, spec: TrainSpec, setup_s: dict):
        self.spec = spec
        self.setup_s = setup_s     # per-phase set-up seconds
        self.trainer = None
        self.model = None
        self.runtime = None
        self._epochs = None
        self._state = None

    # The batch stream of trainer.train(): epoch after epoch, a pool plan
    # at every epoch start and (LM) a fresh carried state.
    def fetch(self):
        return next(self._epochs)

    def step(self, batch) -> float:
        trainer = self.trainer
        if self.spec.kind == "mlp":
            return trainer.train_step(*batch)
        inputs, targets, fresh = batch
        if fresh:
            self._state = self.model.init_state(self.spec.batch)
        loss, self._state = trainer.train_step(inputs, targets, self._state)
        return loss

    def evaluate(self) -> dict:
        """Held-out quality: exact dense eval, deterministic per seed."""
        if self.spec.kind == "lm":
            perplexity = self.trainer.evaluate("test")
            return {"eval_loss": math.log(perplexity), "eval_ppl": perplexity}
        trainer = self.trainer
        data = trainer.dataset
        accuracy = trainer.evaluate()
        self.model.eval()
        try:
            with no_grad():
                logits = self.model(Tensor(data.test_images,
                                           dtype=trainer.runtime.np_dtype))
                loss = CrossEntropyLoss()(logits, data.test_labels)
        finally:
            self.model.train()
        return {"eval_loss": float(loss.data), "eval_acc": accuracy}


def _mlp_epochs(trainer, data, batch, rng):
    iterator = BatchIterator(data.train_images, data.train_labels, batch,
                             rng=rng)
    for _ in itertools.count():
        trainer.pattern_schedule.plan(len(iterator))
        yield from iterator


def _lm_epochs(trainer, corpus, batch, seq_len):
    batcher = BPTTBatcher(corpus.train, batch, seq_len)
    for _ in itertools.count():
        trainer.pattern_schedule.plan(len(batcher))
        fresh = True
        for inputs, targets in batcher:
            yield inputs, targets, fresh
            fresh = False


def setup(spec: TrainSpec, seed: int, tracer=None) -> TrainRun:
    """Build data, model and trainer from ``seed``; time each phase."""
    phases = {}
    timed = functools.partial(timed_phase, phases, tracer)
    run = TrainRun(spec, phases)
    if spec.kind == "mlp":
        data = timed("data", lambda: make_synthetic_mnist(
            num_train=spec.train_images, num_test=spec.test_images,
            seed=seed))
        model = timed("model", lambda: MLPClassifier(MLPConfig(
            input_size=data.num_features,
            hidden_sizes=(spec.hidden, spec.hidden),
            num_classes=data.num_classes, drop_rates=(spec.rate, spec.rate),
            strategy="row", seed=seed)))
        runtime = EngineRuntime(ExecutionConfig(mode="pooled", seed=seed))
        trainer = timed("bind", lambda: ClassifierTrainer(
            model, data,
            ClassifierTrainingConfig(batch_size=spec.batch, seed=seed),
            runtime=runtime))
        run._epochs = _mlp_epochs(trainer, data, spec.batch,
                                  np.random.default_rng(seed))
    else:
        tokens = spec.batch * spec.seq_len
        corpus = timed("data", lambda: make_synthetic_corpus(
            vocab_size=spec.vocab, num_train_tokens=tokens * spec.train_windows + spec.batch,
            num_valid_tokens=tokens * spec.eval_windows + spec.batch,
            num_test_tokens=tokens * spec.eval_windows + spec.batch,
            seed=seed))
        model = timed("model", lambda: LSTMLanguageModel(LSTMConfig(
            vocab_size=spec.vocab, embed_size=spec.width,
            hidden_size=spec.width, num_layers=2,
            drop_rates=(spec.rate, spec.rate), strategy="row", seed=seed)))
        runtime = EngineRuntime(ExecutionConfig(
            mode="pooled", recurrent="tiled", loss_head=spec.loss_head,
            loss_head_rate=spec.rate, optimizer="sparse", seed=seed))
        trainer = timed("bind", lambda: LanguageModelTrainer(
            model, corpus,
            LanguageModelTrainingConfig(batch_size=spec.batch,
                                        seq_len=spec.seq_len,
                                        learning_rate=spec.learning_rate,
                                        seed=seed),
            runtime=runtime))
        run._epochs = _lm_epochs(trainer, corpus, spec.batch, spec.seq_len)
    run.trainer, run.model, run.runtime = trainer, model, runtime
    return run


@dataclass
class StepLog:
    """What a sequence of steps did: per-step loss and wall time."""

    losses: list
    step_ms: list          # timed steps only (warm-up excluded)
    cpu_ms: list = field(default_factory=list)     # CPU time of each timed step
    probe_ms: list = field(default_factory=list)   # probe after each timed step
    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0   # wall time of the timed steps
    quality: dict | None = None


def run_steps(run: TrainRun, *, warmup: int, seconds: float = 0.0,
              min_steps: int = 0, max_steps: int | None = None,
              eval_after: int | None = None, tracer=None,
              index0: int = 0, probe=None) -> StepLog:
    """Warm up, then time steps until ``seconds`` and ``min_steps`` are met.

    A step counts as failed if it raises or returns a non-finite loss; its
    loss is logged as NaN.  ``eval_after`` (timed steps) runs the held-out
    evaluation once at that point, outside the timed region.  With a
    ``tracer`` each step is a ``step`` span whose group is its index,
    counted from ``index0``.  Each timed step records its wall and its CPU
    time.  With a ``probe``
    (:class:`perfbench.probe.SpeedProbe`) the probe runs after every timed
    step, outside the step's time.
    """
    log = StepLog(losses=[], step_ms=[])

    def one(index: int) -> tuple[float, float]:
        cpu = time.process_time()
        start = time.perf_counter()
        with maybe_span(tracer, "step", group=index):
            loss = _guarded(run, tracer)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        log.attempted += 1
        if not math.isfinite(loss):
            log.failed += 1
        log.losses.append(loss)
        return elapsed, cpu

    for index in range(warmup):
        one(index0 + index)
    deadline = time.perf_counter() + seconds
    timed = 0
    while timed < min_steps or time.perf_counter() < deadline:
        if max_steps is not None and timed >= max_steps:
            break
        elapsed, cpu = one(index0 + warmup + timed)
        log.step_ms.append(elapsed * 1e3)
        log.cpu_ms.append(cpu * 1e3)
        log.timed_s += elapsed
        timed += 1
        if probe is not None:
            log.probe_ms.append(probe.measure())
        if eval_after is not None and timed == eval_after:
            paused = time.perf_counter()
            log.quality = run.evaluate()
            deadline += time.perf_counter() - paused
    return log


def _guarded(run: TrainRun, tracer=None) -> float:
    try:
        with maybe_span(tracer, "data.fetch"):
            batch = run.fetch()
        return float(run.step(batch))
    except Exception:  # noqa: BLE001 - a failed step is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return float("nan")
