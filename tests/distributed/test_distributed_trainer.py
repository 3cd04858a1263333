"""End-to-end tests of the sharded data-parallel trainer.

These spawn real worker processes (the ``spawn`` start method), so each
distributed run costs interpreter startup; the runs are kept tiny and every
run pulls double duty (determinism + stats + shared-memory hygiene).
"""

import os

import pytest

from repro.distributed import DistributedTrainer
from repro.execution import EngineRuntime, ExecutionConfig, FaultPolicy
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.models.mlp import MLPClassifier, MLPConfig
from repro.training.lm_trainer import (
    LanguageModelTrainer,
    LanguageModelTrainingConfig,
)
from repro.training.trainer import ClassifierTrainer, ClassifierTrainingConfig


def shm_entries() -> set:
    """Shared-memory segments only (``psm_*``): barrier/event semaphore files
    (``sem.mp-*``) are owned by the resource tracker and reaped lazily."""
    try:
        return {entry for entry in os.listdir("/dev/shm")
                if entry.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def history_of(result):
    return (result.history.train_loss, result.history.eval_metric)


def run_mlp(tiny_mnist, shards, *, exec_seed=11, optimizer="dense",
            distributed=True, max_iterations=None):
    model = MLPClassifier(MLPConfig(
        input_size=tiny_mnist.num_features, hidden_sizes=(24, 24),
        num_classes=tiny_mnist.num_classes, drop_rates=(0.5, 0.5),
        strategy="row", seed=0))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", seed=exec_seed, shards=shards, optimizer=optimizer))
    config = ClassifierTrainingConfig(batch_size=64, epochs=2, seed=3,
                                      max_iterations=max_iterations)
    if distributed:
        trainer = DistributedTrainer(model, tiny_mnist, config, runtime=runtime)
    else:
        trainer = ClassifierTrainer(model, tiny_mnist, config, runtime=runtime)
    return trainer.train()


def run_lstm(tiny_corpus, shards, *, exec_seed=11, optimizer="dense",
             recurrent="dense", loss_head="dense", distributed=True):
    model = LSTMLanguageModel(LSTMConfig(
        vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
        num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", seed=exec_seed, shards=shards, optimizer=optimizer,
        recurrent=recurrent, loss_head=loss_head,
        head_shortlist=12 if loss_head == "adaptive" else 0))
    config = LanguageModelTrainingConfig(batch_size=10, seq_len=20, epochs=2,
                                         seed=3)
    if distributed:
        trainer = DistributedTrainer(model, tiny_corpus, config,
                                     runtime=runtime)
    else:
        trainer = LanguageModelTrainer(model, tiny_corpus, config,
                                       runtime=runtime)
    return trainer.train()


class TestShardOneDelegation:
    """shards=1 runs in-process and must be bit-exact with the plain trainer."""

    def test_mlp(self, tiny_mnist):
        dist = run_mlp(tiny_mnist, shards=1)
        plain = run_mlp(tiny_mnist, shards=1, distributed=False)
        assert history_of(dist) == history_of(plain)
        assert "distributed" not in (dist.engine_stats or {})

    def test_lstm(self, tiny_corpus):
        dist = run_lstm(tiny_corpus, shards=1)
        plain = run_lstm(tiny_corpus, shards=1, distributed=False)
        assert history_of(dist) == history_of(plain)


class TestShardedDeterminism:
    """Same seed + same shard count must replay bit-identical histories."""

    def test_mlp_two_shards_dense(self, tiny_mnist):
        before = shm_entries()
        first = run_mlp(tiny_mnist, shards=2)
        second = run_mlp(tiny_mnist, shards=2)
        assert history_of(first) == history_of(second)
        # Every run pulls triple duty: stats stamped, segment destroyed.
        dist_stats = first.engine_stats["distributed"]
        assert dist_stats["shards"] == 2
        assert dist_stats["steps"] == first.iterations
        assert dist_stats["reduce_ms"] >= 0.0
        assert shm_entries() <= before

    def test_mlp_two_shards_sparse(self, tiny_mnist):
        first = run_mlp(tiny_mnist, shards=2, optimizer="sparse")
        second = run_mlp(tiny_mnist, shards=2, optimizer="sparse")
        assert history_of(first) == history_of(second)

    def test_mlp_three_shards(self, tiny_mnist):
        first = run_mlp(tiny_mnist, shards=3)
        second = run_mlp(tiny_mnist, shards=3)
        assert history_of(first) == history_of(second)
        assert first.engine_stats["distributed"]["shards"] == 3

    def test_mlp_seed_changes_history(self, tiny_mnist):
        base = run_mlp(tiny_mnist, shards=2, max_iterations=3)
        other = run_mlp(tiny_mnist, shards=2, max_iterations=3, exec_seed=12)
        assert history_of(base) != history_of(other)

    def test_lstm_two_shards_dense(self, tiny_corpus):
        first = run_lstm(tiny_corpus, shards=2)
        second = run_lstm(tiny_corpus, shards=2)
        assert history_of(first) == history_of(second)

    def test_lstm_two_shards_adaptive_head(self, tiny_corpus):
        """ISSUE 10: the adaptive loss head composes with sharded data-
        parallel training — its computed class set depends only on each
        shard's targets, so replays stay bit-identical."""
        first = run_lstm(tiny_corpus, shards=2, loss_head="adaptive")
        second = run_lstm(tiny_corpus, shards=2, loss_head="adaptive")
        assert history_of(first) == history_of(second)

    def test_lstm_two_shards_sparse_tiled(self, tiny_corpus):
        first = run_lstm(tiny_corpus, shards=2, optimizer="sparse",
                         recurrent="tiled")
        second = run_lstm(tiny_corpus, shards=2, optimizer="sparse",
                          recurrent="tiled")
        assert history_of(first) == history_of(second)


class TestFailureAndCleanup:
    def test_worker_exception_surfaces_and_frees_shm(self, tiny_mnist):
        before = shm_entries()
        model = MLPClassifier(MLPConfig(
            input_size=tiny_mnist.num_features, hidden_sizes=(24,),
            num_classes=tiny_mnist.num_classes, drop_rates=(0.5,),
            strategy="row", seed=0))
        # max_retries=0: the injected failure is persistent, so letting the
        # elastic default retry it would just burn spawn time before the
        # same abort (retry exhaustion itself is covered in test_faults.py).
        runtime = EngineRuntime(ExecutionConfig(
            mode="pooled", seed=11, shards=2,
            fault_policy=FaultPolicy(max_retries=0)))
        trainer = DistributedTrainer(
            model, tiny_mnist,
            ClassifierTrainingConfig(batch_size=64, epochs=1, seed=3),
            runtime=runtime)
        trainer._fail_at_step = 0
        with pytest.raises(RuntimeError) as excinfo:
            trainer.train()
        message = str(excinfo.value)
        assert "shard" in message
        assert "injected worker failure" in message
        assert shm_entries() <= before


class TestValidation:
    def make(self, tiny_mnist, **exec_overrides):
        model = MLPClassifier(MLPConfig(
            input_size=tiny_mnist.num_features, hidden_sizes=(24,),
            num_classes=tiny_mnist.num_classes, drop_rates=(0.5,),
            strategy="row", seed=0))
        overrides = {"mode": "pooled", "seed": 11, "shards": 2}
        overrides.update(exec_overrides)
        runtime = EngineRuntime(ExecutionConfig(**overrides))
        return model, runtime

    def test_seedless_distributed_run_rejected(self, tiny_mnist):
        model, runtime = self.make(tiny_mnist, seed=None)
        with pytest.raises(ValueError, match="seed"):
            DistributedTrainer(model, tiny_mnist,
                               ClassifierTrainingConfig(batch_size=64),
                               runtime=runtime)

    def test_batch_smaller_than_shards_rejected(self, tiny_mnist):
        model, runtime = self.make(tiny_mnist, shards=4)
        with pytest.raises(ValueError, match="batch_size"):
            DistributedTrainer(model, tiny_mnist,
                               ClassifierTrainingConfig(batch_size=3),
                               runtime=runtime)

    def test_session_requires_multiple_shards(self, tiny_mnist):
        model, runtime = self.make(tiny_mnist, shards=1)
        trainer = DistributedTrainer(model, tiny_mnist,
                                     ClassifierTrainingConfig(batch_size=64),
                                     runtime=runtime)
        with pytest.raises(ValueError, match="shards >= 2"):
            with trainer.session():
                pass

    def test_unsupported_model_type_rejected(self, tiny_mnist):
        with pytest.raises(TypeError, match="MLPClassifier"):
            DistributedTrainer(object(), tiny_mnist)
