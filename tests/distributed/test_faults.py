"""Elastic-recovery tests: kill/hang/corrupt faults, checkpoint resume, teardown.

Every fault run is compared bit-for-bit against an uninterrupted baseline with
the same seed and shard count — the elastic contract is that recovery is
invisible in the training history.  The trainer/optimizer matrix is covered
pairwise (each trainer with each optimizer) rather than exhaustively: the
fault machinery never branches on the combination, so pairwise coverage
exercises every code path.

The LSTM runs cover both recurrent paths: ``recurrent="dense"`` and the
tiled-recurrent site.  The tiled path caches worker-side context state, but
that cache is a pure function of the current parameters and the shared
pattern schedule — a respawned worker rebuilds it deterministically during
its fast-forward, so elastic recovery is bit-identical there too (the chaos
matrix below proves it).

These spawn real worker processes, so runs are kept tiny and baselines are
shared module-wide.
"""

import os

import pytest

from repro.distributed import DistributedTrainer, FaultSpec, WorkerFailure
from repro.distributed import trainer as trainer_module
from repro.distributed.trainer import _Cluster
from repro.execution import EngineRuntime, ExecutionConfig, FaultPolicy
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.models.mlp import MLPClassifier, MLPConfig
from repro.training.lm_trainer import LanguageModelTrainingConfig
from repro.training.trainer import ClassifierTrainingConfig

#: Must comfortably exceed the 1-CPU worker spawn time (a few seconds), or a
#: *healthy* respawn would itself time out and eat the retry budget.
HANG_TIMEOUT_S = 15.0


def shm_entries() -> set:
    """Shared-memory segments only (``psm_*``); see test_distributed_trainer."""
    try:
        return {entry for entry in os.listdir("/dev/shm")
                if entry.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def history_of(result):
    return (result.history.train_loss, result.history.eval_metric)


def make_mlp(tiny_mnist, *, optimizer="dense", policy=FaultPolicy()):
    model = MLPClassifier(MLPConfig(
        input_size=tiny_mnist.num_features, hidden_sizes=(24, 24),
        num_classes=tiny_mnist.num_classes, drop_rates=(0.5, 0.5),
        strategy="row", seed=0))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", seed=11, shards=2, optimizer=optimizer,
        fault_policy=policy))
    config = ClassifierTrainingConfig(batch_size=64, epochs=2, seed=3)
    return DistributedTrainer(model, tiny_mnist, config, runtime=runtime)


def make_lstm(tiny_corpus, *, optimizer="dense", recurrent="dense",
              policy=FaultPolicy()):
    model = LSTMLanguageModel(LSTMConfig(
        vocab_size=tiny_corpus.vocab_size, embed_size=12, hidden_size=16,
        num_layers=2, drop_rates=(0.5, 0.5), strategy="row", seed=0))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", seed=11, shards=2, optimizer=optimizer,
        recurrent=recurrent, fault_policy=policy))
    config = LanguageModelTrainingConfig(batch_size=10, seq_len=20, epochs=2,
                                         seed=3)
    return DistributedTrainer(model, tiny_corpus, config, runtime=runtime)


@pytest.fixture(scope="module")
def baseline_mlp_dense(tiny_mnist):
    return make_mlp(tiny_mnist).train()


@pytest.fixture(scope="module")
def baseline_mlp_sparse(tiny_mnist):
    return make_mlp(tiny_mnist, optimizer="sparse").train()


@pytest.fixture(scope="module")
def baseline_lstm_dense(tiny_corpus):
    return make_lstm(tiny_corpus).train()


@pytest.fixture(scope="module")
def baseline_lstm_sparse(tiny_corpus):
    return make_lstm(tiny_corpus, optimizer="sparse").train()


@pytest.fixture(scope="module")
def baseline_lstm_tiled(tiny_corpus):
    return make_lstm(tiny_corpus, recurrent="tiled").train()


class TestKillRecovery:
    """A worker killed mid-run is respawned and the history is unchanged."""

    def test_mlp_dense_numpy(self, tiny_mnist, baseline_mlp_dense):
        before = shm_entries()
        trainer = make_mlp(tiny_mnist)
        trainer._faults = (FaultSpec(shard=1, step=3, kind="kill"),)
        result = trainer.train()
        assert history_of(result) == history_of(baseline_mlp_dense)
        stats = result.engine_stats["distributed"]
        assert stats["recoveries"] == 1
        assert stats["steps"] == result.iterations
        assert shm_entries() <= before

    def test_lstm_sparse_numpy_compressed(self, tiny_corpus,
                                          baseline_lstm_sparse):
        # sparse + default compress_cutover: the respawned worker's
        # compressed writer restarts with a clean footprint over the fresh
        # (zero-filled) arena, so recovery must stay bit-identical even with
        # region-sliced gradient transport.
        trainer = make_lstm(tiny_corpus, optimizer="sparse")
        trainer._faults = (FaultSpec(shard=0, step=2, kind="kill"),)
        result = trainer.train()
        assert history_of(result) == history_of(baseline_lstm_sparse)
        assert result.engine_stats["distributed"]["recoveries"] == 1

    def test_lstm_tiled_recurrent(self, tiny_corpus, baseline_lstm_tiled):
        # The tiled-recurrent site's worker-side context cache is rebuilt
        # deterministically by the respawned worker's fast-forward, so the
        # recovery stays bit-identical on the tiled path too.
        trainer = make_lstm(tiny_corpus, recurrent="tiled")
        trainer._faults = (FaultSpec(shard=1, step=2, kind="kill"),)
        result = trainer.train()
        assert history_of(result) == history_of(baseline_lstm_tiled)
        assert result.engine_stats["distributed"]["recoveries"] == 1


class TestKillCheckpointResume:
    """Exhausted retries abort cleanly; resume() replays bit-identically."""

    def _abort_and_resume(self, build, tmp_path):
        policy = FaultPolicy(max_retries=0, checkpoint_every=2,
                             checkpoint_dir=str(tmp_path))
        trainer = build(policy)
        trainer._faults = (FaultSpec(shard=1, step=3, kind="kill"),)
        with pytest.raises(WorkerFailure) as excinfo:
            trainer.train()
        # The abort carries the failed shard's traceback.
        assert "shard 1" in str(excinfo.value)
        assert "injected worker failure" in str(excinfo.value)
        return build(policy).resume()

    def test_mlp_sparse(self, tiny_mnist, tmp_path, baseline_mlp_sparse):
        before = shm_entries()
        result = self._abort_and_resume(
            lambda policy: make_mlp(tiny_mnist, optimizer="sparse",
                                    policy=policy),
            tmp_path)
        assert history_of(result) == history_of(baseline_mlp_sparse)
        assert result.final_metric == baseline_mlp_sparse.final_metric
        assert shm_entries() <= before

    def test_lstm_dense(self, tiny_corpus, tmp_path, baseline_lstm_dense):
        result = self._abort_and_resume(
            lambda policy: make_lstm(tiny_corpus, policy=policy), tmp_path)
        assert history_of(result) == history_of(baseline_lstm_dense)

    def test_resume_without_checkpoint_fails(self, tiny_mnist, tmp_path):
        from repro.distributed import CheckpointError

        trainer = make_mlp(tiny_mnist)
        with pytest.raises(CheckpointError, match="no readable checkpoint"):
            trainer.resume(str(tmp_path))

    def test_resume_needs_a_directory(self, tiny_mnist):
        with pytest.raises(ValueError, match="checkpoint directory"):
            make_mlp(tiny_mnist).resume()


class TestHangRecovery:
    def test_hung_worker_times_out_and_recovers(self, tiny_mnist,
                                                baseline_mlp_dense):
        """A hung shard must trip the barrier timeout, never deadlock."""
        policy = FaultPolicy(max_retries=1, barrier_timeout_s=HANG_TIMEOUT_S)
        trainer = make_mlp(tiny_mnist, policy=policy)
        trainer._faults = (FaultSpec(shard=1, step=2, kind="hang"),)
        result = trainer.train()
        assert history_of(result) == history_of(baseline_mlp_dense)
        assert result.engine_stats["distributed"]["recoveries"] == 1


class TestCorruptRecovery:
    def test_nonfinite_grads_detected_before_step(self, tiny_mnist,
                                                  baseline_mlp_dense):
        """NaN shard output is rejected *before* the optimizer step commits,
        so the retry replays the step and the history stays identical."""
        trainer = make_mlp(tiny_mnist)
        trainer._faults = (FaultSpec(shard=0, step=4, kind="corrupt"),)
        result = trainer.train()
        assert history_of(result) == history_of(baseline_mlp_dense)
        assert result.engine_stats["distributed"]["recoveries"] == 1


class TestRetryExhaustion:
    def test_persistent_failure_aborts_with_traceback(self, tiny_mnist):
        before = shm_entries()
        policy = FaultPolicy(max_retries=1)
        trainer = make_mlp(tiny_mnist, policy=policy)
        trainer._fail_at_step = 0  # persistent: re-fires on every respawn
        with pytest.raises(WorkerFailure) as excinfo:
            trainer.train()
        message = str(excinfo.value)
        assert "injected worker failure" in message
        assert "shard" in message
        assert excinfo.value.failures
        assert shm_entries() <= before

    def test_fault_on_missing_shard_rejected(self, tiny_mnist):
        trainer = make_mlp(tiny_mnist)
        trainer._faults = (FaultSpec(shard=5, step=0, kind="kill"),)
        with pytest.raises(ValueError, match="shard 5"):
            trainer.train()


class TestSessionTeardown:
    """The shared segment must be unlinked on *every* exit path."""

    def test_close_before_start_is_a_noop(self, tiny_mnist):
        cluster = _Cluster(make_mlp(tiny_mnist))
        cluster.close()  # must not raise: nothing was created yet
        cluster.close()  # and stays idempotent

    def test_partial_start_failure_unlinks_arena(self, tiny_mnist,
                                                 monkeypatch):
        """start() dying between arena creation and worker spawn must not
        leak the segment (regression: close() used to assume start()
        finished)."""
        before = shm_entries()

        def boom(workers):
            raise RuntimeError("injected spawn failure")

        monkeypatch.setattr(trainer_module, "pinned_blas_env", boom)
        trainer = make_mlp(tiny_mnist)
        with pytest.raises(RuntimeError, match="injected spawn failure"):
            with trainer.session():
                pass  # pragma: no cover - start() never completes
        assert shm_entries() <= before

    def test_error_in_session_body_unlinks_arena(self, tiny_mnist):
        before = shm_entries()
        trainer = make_mlp(tiny_mnist)
        with pytest.raises(KeyError, match="session body"):
            with trainer.session():
                raise KeyError("session body")
        assert shm_entries() <= before
