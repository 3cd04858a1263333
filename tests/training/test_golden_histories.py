"""Golden seeded training histories, pinned bit for bit.

Three tiny runs cover the compact paths the engine's gather/scatter and
gradient-accumulation code serves: a row-dropout MLP (row-compact GEMMs
with input-column compaction), an LSTM with the sampled loss head and an
LSTM with the adaptive loss head at vocab 20000.  Each run's per-step
training losses are recorded as ``float.hex`` literals, so any change to
the order or rounding of the arithmetic shows up as a failed equality,
not as a tolerance drift.  Seeded histories are bit-identical across the
execution backends, so every backend must reproduce the same literals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_synthetic_corpus, make_synthetic_mnist
from repro.data.batching import BatchIterator, BPTTBatcher
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import LSTMConfig, LSTMLanguageModel, MLPClassifier, MLPConfig
from repro.training import (
    ClassifierTrainer,
    ClassifierTrainingConfig,
    LanguageModelTrainer,
    LanguageModelTrainingConfig,
)

BACKENDS = ("numpy", "fused", "stacked")
STEPS = 6


def mlp_losses(backend: str) -> list[str]:
    data = make_synthetic_mnist(num_train=64, num_test=16, seed=3)
    model = MLPClassifier(MLPConfig(
        input_size=data.num_features, hidden_sizes=(48, 48),
        num_classes=data.num_classes, drop_rates=(0.7, 0.5),
        strategy="row", seed=3))
    runtime = EngineRuntime(ExecutionConfig(mode="pooled", backend=backend,
                                            optimizer="sparse", seed=3))
    trainer = ClassifierTrainer(
        model, data, ClassifierTrainingConfig(batch_size=16, seed=3),
        runtime=runtime)
    iterator = BatchIterator(data.train_images, data.train_labels, 16,
                             rng=np.random.default_rng(3))
    losses = []
    while len(losses) < STEPS:
        trainer.pattern_schedule.plan(len(iterator))
        for images, labels in iterator:
            losses.append(trainer.train_step(images, labels).hex())
    return losses[:STEPS]


def lm_losses(backend: str, loss_head: str, vocab: int) -> list[str]:
    batch, seq_len = 4, 5
    corpus = make_synthetic_corpus(
        vocab_size=vocab, num_train_tokens=batch * seq_len * STEPS + batch,
        num_valid_tokens=64, num_test_tokens=64, seed=5)
    model = LSTMLanguageModel(LSTMConfig(
        vocab_size=vocab, embed_size=16, hidden_size=16, num_layers=2,
        drop_rates=(0.5, 0.5), strategy="row", seed=5))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", backend=backend, recurrent="tiled",
        loss_head=loss_head, loss_head_rate=0.5, optimizer="sparse", seed=5))
    trainer = LanguageModelTrainer(
        model, corpus,
        LanguageModelTrainingConfig(batch_size=batch, seq_len=seq_len,
                                    learning_rate=0.5, seed=5),
        runtime=runtime)
    batcher = BPTTBatcher(corpus.train, batch, seq_len)
    trainer.pattern_schedule.plan(len(batcher))
    state = model.init_state(batch)
    losses = []
    for inputs, targets in batcher:
        loss, state = trainer.train_step(inputs, targets, state)
        losses.append(loss.hex())
    return losses[:STEPS]


GOLDEN_MLP = [
    "0x1.23bf7a12adff4p+1",
    "0x1.25f45f875b6dap+1",
    "0x1.2996f0a9a5f35p+1",
    "0x1.2465f94e21be8p+1",
    "0x1.20bc87fe63d4ap+1",
    "0x1.2b15fba8c47dep+1",
]
GOLDEN_LSTM_SAMPLED = [
    "0x1.63638494f8d4cp+2",
    "0x1.613a70da22764p+2",
    "0x1.5f26989492a7bp+2",
    "0x1.5da6eae9c9ec0p+2",
    "0x1.5cf423a366883p+2",
    "0x1.5ac58eb74713bp+2",
]
GOLDEN_LSTM_ADAPTIVE_20K = [
    "0x1.23c74f8f91de2p+3",
    "0x1.09e230e45b020p+3",
    "0x1.331193c8ec411p+3",
    "0x1.22e9637200ea8p+3",
    "0x1.08603be6a3095p+3",
    "0x1.2f1a8d777e3e6p+3",
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_row_dropout_mlp_history(backend):
    assert mlp_losses(backend) == GOLDEN_MLP


@pytest.mark.parametrize("backend", BACKENDS)
def test_lstm_sampled_head_history(backend):
    assert lm_losses(backend, "sampled", 256) == GOLDEN_LSTM_SAMPLED


@pytest.mark.parametrize("backend", BACKENDS)
def test_lstm_adaptive_head_history_at_vocab_20000(backend):
    assert lm_losses(backend, "adaptive", 20000) == GOLDEN_LSTM_ADAPTIVE_20K
