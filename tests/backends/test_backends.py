"""Tests for the execution backend.

Two areas are covered:

* the window-context primitives — the recurrent window-context op must
  agree with the plain numpy reference (the dense product with the
  pattern-masked weight) on the forward pass and both gradients;
* runtime integration — ``EngineRuntime`` installs its own backend instance
  on the bound model's layers and reports per-operation call counts in
  ``stats()``.
"""

import numpy as np
import pytest

from repro.backends import ExecutionBackend, default_backend
from repro.dropout.compact_ops import (
    recurrent_compact_context,
    recurrent_context_linear,
    row_compact_linear,
)
from repro.dropout.patterns import RecurrentTilePattern, RowDropoutPattern
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import MLPClassifier, MLPConfig
from repro.tensor import Tensor


def _random_operands(rng, batch, rows, cols):
    x = Tensor(rng.normal(size=(batch, cols)), requires_grad=True)
    weight = Tensor(rng.normal(size=(rows, cols)) * 0.1, requires_grad=True)
    bias = Tensor(rng.normal(size=rows), requires_grad=True)
    return x, weight, bias


def _run_and_collect(op):
    """Run ``op`` (returning a Tensor) and collect output + operand grads."""
    out = op()
    seed_grad = np.random.default_rng(99).normal(size=out.shape)
    (out * Tensor(seed_grad)).sum().backward()
    return out


class TestContextEquivalence:
    """The window-context op (`recurrent_context_linear`) routes its
    per-class GEMMs through the backend's ``context_*`` primitives; it must
    agree with the dense numpy product against the pattern-masked weight on
    the forward pass and both gradients (through the whole gather op, so the
    full-size weight gradient is compared too)."""

    RECURRENT_CASES = [
        # (hidden, num_gates, dp, bias, tile) — dp=4 over an 8-wide tile
        # grid produces several equal-shape column classes.
        (96, 4, 3, 1, 32),
        (160, 4, 4, 0, 32),
        (256, 4, 7, 2, 32),
        (64, 2, 2, 1, 32),
    ]

    @pytest.mark.parametrize("hidden,gates,dp,bias_phase,tile",
                             RECURRENT_CASES)
    def test_context_linear_matches_numpy(self, hidden, gates, dp,
                                          bias_phase, tile):
        pattern = RecurrentTilePattern(hidden_size=hidden, num_gates=gates,
                                       dp=dp, bias=bias_phase, tile=tile)
        scale = 1.4
        backend = ExecutionBackend()
        rng = np.random.default_rng(13)
        h = Tensor(rng.normal(size=(6, hidden)), requires_grad=True)
        weight = Tensor(rng.normal(size=(gates * hidden, hidden)) * 0.1,
                        requires_grad=True)
        context = recurrent_compact_context(weight, pattern, backend=backend)
        out = _run_and_collect(lambda: recurrent_context_linear(
            h, context, scale_factor=scale, backend=backend))
        assert backend.calls.get("context_forward") == 1

        mask = pattern.mask()
        masked = pattern.apply_mask(weight.data)
        seed_grad = np.random.default_rng(99).normal(size=out.shape)
        expected = (
            scale * (h.data @ masked.T),
            scale * (seed_grad @ masked),
            scale * (seed_grad.T @ h.data) * mask,
        )
        for got, ref in zip((out.data, h.grad, weight.grad), expected):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)
        # Dropped tiles receive exactly zero weight gradient.
        assert not weight.grad[mask == 0.0].any()


class TestRuntimeIntegration:
    def test_bind_installs_backend_on_layers(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                        drop_rates=(0.5, 0.5),
                                        strategy="tile", seed=0))
        runtime = EngineRuntime(ExecutionConfig())
        runtime.bind(model)
        installed = [module.backend for module in model.modules()
                     if getattr(module, "backend", None) is not None]
        assert installed, "no layer received the backend"
        assert all(backend is runtime.backend for backend in installed)
        assert runtime.backend is not default_backend()

    def test_stats_report_backend_calls(self):
        model = MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                        drop_rates=(0.5, 0.5),
                                        strategy="row", seed=0))
        runtime = EngineRuntime(ExecutionConfig(seed=0))
        runtime.bind(model)
        model.train()
        logits = model(Tensor(np.random.default_rng(0).normal(size=(4, 784))))
        logits.sum().backward()
        stats = runtime.stats()
        assert sum(stats["backend_calls"].values()) > 0
        assert stats["backend_calls"].get("gemm", 0) > 0

    def test_per_op_counters_cover_all_primitives(self):
        backend = ExecutionBackend()
        pattern = RowDropoutPattern(32, 2, 0)
        rng = np.random.default_rng(1)
        x, weight, bias = _random_operands(rng, 3, 32, 16)
        _run_and_collect(lambda: row_compact_linear(x, weight, bias, pattern,
                                                    backend=backend))
        for op in ("gemm", "gather", "alloc", "scatter"):
            assert backend.calls.get(op, 0) > 0, f"{op} never counted"

    def test_default_backend_is_shared_numpy(self):
        assert isinstance(default_backend(), ExecutionBackend)
        assert default_backend() is default_backend()

    def test_per_model_stats_report_per_run_call_deltas(self):
        """A runtime shared across runs must not leak one run's backend
        calls into the next run's per-model record."""
        def make():
            return MLPClassifier(MLPConfig(hidden_sizes=(32, 32),
                                           drop_rates=(0.5, 0.5),
                                           strategy="row", seed=0))

        runtime = EngineRuntime(ExecutionConfig(seed=0))
        batch = Tensor(np.random.default_rng(0).normal(size=(4, 784)))

        first = make()
        runtime.bind(first)
        first.train()
        first(batch).sum().backward()
        first_calls = runtime.stats(model=first)["backend_calls"]

        second = make()
        runtime.bind(second)
        second.train()
        second(batch).sum().backward()
        second_calls = runtime.stats(model=second)["backend_calls"]

        # One identical forward+backward each: the per-run records match
        # instead of the second one doubling up with the first run's work.
        assert second_calls == first_calls
        # The runtime-wide record still aggregates both runs.
        totals = runtime.stats()["backend_calls"]
        assert totals["gemm"] == 2 * first_calls["gemm"]
