"""Micro-batcher tests: fan-out correctness, batching behaviour, shutdown.

Fan-out results are compared with ``np.allclose`` rather than bitwise
equality: a request answered alone runs an m=1 GEMM and the same request
pooled into a batch runs an m=N GEMM, and BLAS does not promise the two
blockings produce bitwise-identical sums.  (The *engine* itself is bitwise
against eval ``forward()`` at equal batch shapes — that contract lives in
``test_inference_engine.py``.)  The isolation tests below compare bitwise:
a malformed request makes its batch re-run one request at a time, so every
valid co-batched request is answered exactly as it would be alone.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.execution import EngineRuntime, ExecutionConfig
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.models.mlp import MLPClassifier, MLPConfig
from repro.serving import InferenceEngine, MicroBatcher
from repro.tensor.tensor import Tensor, no_grad


def make_engine(input_size: int = 12, **config_overrides) -> InferenceEngine:
    model = MLPClassifier(MLPConfig(
        input_size=input_size, hidden_sizes=(16,), num_classes=4,
        drop_rates=(0.5,), strategy="row", seed=11))
    return freeze(model, **config_overrides)


def make_lm_engine() -> InferenceEngine:
    return freeze(LSTMLanguageModel(LSTMConfig(
        vocab_size=50, embed_size=8, hidden_size=8, num_layers=2,
        drop_rates=(0.5, 0.5), strategy="row", seed=11)))


def freeze(model, **config_overrides) -> InferenceEngine:
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", dtype="float64", **config_overrides))
    runtime.bind(model)
    return InferenceEngine(model, runtime=runtime)


def reference(engine: InferenceEngine, request: np.ndarray) -> np.ndarray:
    engine.model.eval()
    with no_grad():
        return engine.model(Tensor(request[None, :])).data[0]


class TestFanOut:
    def test_each_future_gets_its_own_row(self, rng):
        engine = make_engine()
        requests = [rng.normal(size=12) for _ in range(10)]
        with MicroBatcher(engine, max_batch=4, max_wait_ms=5.0) as batcher:
            futures = [batcher.submit(request) for request in requests]
            outputs = [future.result(timeout=10) for future in futures]
        for request, output in zip(requests, outputs):
            assert np.allclose(output, reference(engine, request))

    def test_interleaved_arrivals_from_many_threads(self, rng):
        """Concurrent submitters each get back their own request's answer."""
        engine = make_engine()
        requests = [rng.normal(size=12) for _ in range(40)]
        outputs: list = [None] * len(requests)

        with MicroBatcher(engine, max_batch=8, max_wait_ms=2.0) as batcher:
            def submitter(indices):
                for index in indices:
                    future = batcher.submit(requests[index])
                    outputs[index] = future.result(timeout=10)
                    time.sleep(0.0005)

            threads = [threading.Thread(target=submitter,
                                        args=(range(start, 40, 4),))
                       for start in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        for request, output in zip(requests, outputs):
            assert np.allclose(output, reference(engine, request))
        assert batcher.requests_served == 40

    def test_full_wave_forms_one_batch(self, rng):
        """max_batch queued requests execute as a single pooled step."""
        engine = make_engine()
        # A long wait window, so the batch boundary is the size bound.
        with MicroBatcher(engine, max_batch=6, max_wait_ms=500.0) as batcher:
            futures = [batcher.submit(rng.normal(size=12)) for _ in range(6)]
            for future in futures:
                future.result(timeout=10)
            assert batcher.batches_formed == 1
            assert batcher.requests_served == 6

    def test_asyncio_entry_point(self, rng):
        engine = make_engine()
        requests = [rng.normal(size=12) for _ in range(5)]

        async def drive(batcher):
            return await asyncio.gather(
                *(batcher.submit_async(request) for request in requests))

        with MicroBatcher(engine, max_batch=4, max_wait_ms=2.0) as batcher:
            outputs = asyncio.run(drive(batcher))
        for request, output in zip(requests, outputs):
            assert np.allclose(output, reference(engine, request))


class TestShutdown:
    def test_close_flushes_every_accepted_future(self, rng):
        """No future accepted before close() is ever dropped unresolved."""
        engine = make_engine()
        batcher = MicroBatcher(engine, max_batch=4, max_wait_ms=50.0)
        futures = [batcher.submit(rng.normal(size=12)) for _ in range(11)]
        batcher.close()
        for future in futures:
            assert future.done()
            assert future.result().shape == (4,)

    def test_submit_after_close_raises(self, rng):
        engine = make_engine()
        batcher = MicroBatcher(engine)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(rng.normal(size=12))

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(make_engine())
        batcher.close()
        batcher.close()

    def test_engine_error_fans_out_to_futures(self):
        """A failing batch resolves every member future with the exception."""
        engine = make_engine()
        batcher = MicroBatcher(engine, max_batch=2, max_wait_ms=500.0)
        futures = [batcher.submit(np.zeros((3, 3, 3)))  # bad request shape
                   for _ in range(2)]
        with pytest.raises(Exception):
            futures[0].result(timeout=10)
        with pytest.raises(Exception):
            futures[1].result(timeout=10)
        # The worker survives a failing batch and keeps serving.
        good = batcher.submit(np.zeros(12))
        assert good.result(timeout=10).shape == (4,)
        batcher.close()


def serve_as_one_batch(engine: InferenceEngine, requests: list) -> list:
    """Submit ``requests`` so they form exactly one micro-batch (the size
    bound fires before the long wait window) and return their futures,
    all resolved."""
    with MicroBatcher(engine, max_batch=len(requests),
                      max_wait_ms=10_000.0) as batcher:
        futures = [batcher.submit(request) for request in requests]
    return futures


def assert_isolated(engine: InferenceEngine, requests: list,
                    malformed: set[int]) -> None:
    """Only the ``malformed`` requests fail; every other request gets
    exactly its solo answer."""
    futures = serve_as_one_batch(engine, requests)
    for index, (request, future) in enumerate(zip(requests, futures)):
        if index in malformed:
            with pytest.raises((ValueError, IndexError)):
                future.result(timeout=10)
        else:
            assert np.array_equal(future.result(timeout=10),
                                  engine.infer_requests([request])[0])


@pytest.fixture(scope="module")
def mlp_engine() -> InferenceEngine:
    return make_engine(input_size=8)


@pytest.fixture(scope="module")
def lm_engine() -> InferenceEngine:
    return make_lm_engine()


class TestRequestIsolation:
    """One malformed request fails its own future, never its batch."""

    def test_short_feature_vector_fails_alone(self, mlp_engine, rng):
        requests = [rng.normal(size=8) for _ in range(6)]
        requests.insert(3, rng.normal(size=5))
        assert_isolated(mlp_engine, requests, malformed={3})

    def test_out_of_vocab_token_fails_alone(self, lm_engine):
        requests = [np.array([1, 2, 3]), np.array([999]), np.array([4, 5])]
        assert_isolated(lm_engine, requests, malformed={1})

    def test_non_finite_input_fails_alone(self, mlp_engine, rng):
        requests = [rng.normal(size=8) for _ in range(4)]
        requests[2][5] = np.nan
        assert_isolated(mlp_engine, requests, malformed={2})
        with pytest.raises(ValueError, match="non-finite"):
            mlp_engine.infer_requests([requests[2]])


_FLOATS = st.floats(-3.0, 3.0, allow_nan=False)


def _vector(size: int):
    return st.lists(_FLOATS, min_size=size, max_size=size).map(np.array)


#: MLP requests of an 8-feature model: (request, malformed) pairs.
_MLP_REQUESTS = st.one_of(
    _vector(8).map(lambda r: (r, False)),
    st.integers(0, 12).filter(lambda n: n != 8).flatmap(_vector)
    .map(lambda r: (r, True)),                               # wrong length
    st.sampled_from([(1, 8), (2, 4), (8, 1), ()]).flatmap(
        lambda shape: _vector(int(np.prod(shape))).map(
            lambda r: (r.reshape(shape), True))),           # wrong ndim
    st.tuples(_vector(8), st.integers(0, 7),
              st.sampled_from([np.nan, np.inf, -np.inf])).map(
        lambda t: (np.where(np.arange(8) == t[1], t[2], t[0]), True)),
)

#: LM requests of a 50-token vocabulary: (request, malformed) pairs.
_TOKENS = st.lists(st.integers(0, 49), min_size=1, max_size=6)
_LM_REQUESTS = st.one_of(
    _TOKENS.map(lambda ids: (np.array(ids), False)),
    st.tuples(_TOKENS, st.integers(50, 10_000)).map(
        lambda t: (np.array(t[0] + [t[1]]), True)),          # out of vocab
    st.tuples(_TOKENS, st.integers(-10_000, -1)).map(
        lambda t: (np.array([t[1]] + t[0]), True)),          # negative id
)


def _with_a_malformed_request(requests):
    return st.lists(requests, min_size=2, max_size=8).filter(
        lambda pairs: any(bad for _, bad in pairs))


class TestRequestIsolationProperty:
    """Fuzzed batches mixing valid and malformed requests: every malformed
    future raises, every valid one is bit-identical to its solo answer."""

    @settings(max_examples=40, deadline=None)
    @given(pairs=_with_a_malformed_request(_MLP_REQUESTS))
    def test_mlp_batches(self, mlp_engine, pairs):
        assert_isolated(mlp_engine, [request for request, _ in pairs],
                        {i for i, (_, bad) in enumerate(pairs) if bad})

    @settings(max_examples=40, deadline=None)
    @given(pairs=_with_a_malformed_request(_LM_REQUESTS))
    def test_lm_batches(self, lm_engine, pairs):
        assert_isolated(lm_engine, [request for request, _ in pairs],
                        {i for i, (_, bad) in enumerate(pairs) if bad})


class TestConfiguration:
    def test_defaults_come_from_engine_config(self):
        engine = make_engine(serve_max_batch=17, serve_max_wait_ms=3.5)
        batcher = MicroBatcher(engine)
        assert batcher.max_batch == 17
        assert batcher.max_wait_ms == 3.5
        batcher.close()

    def test_invalid_bounds_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            MicroBatcher(engine, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(engine, max_wait_ms=-1.0)

    def test_runtime_stats_fold_engine_and_batcher(self, rng):
        engine = make_engine()
        with MicroBatcher(engine, max_batch=4, max_wait_ms=2.0) as batcher:
            futures = [batcher.submit(rng.normal(size=12)) for _ in range(8)]
            for future in futures:
                future.result(timeout=10)
        serving = engine.runtime.stats()["serving"]
        assert serving["engines"] == 1
        assert serving["batchers"] == 1
        assert serving["requests"] == 8
        assert serving["rows"] == 8
        assert serving["queue_depth"] == 0
        assert serving["mean_occupancy"] > 0
