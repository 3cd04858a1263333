"""Wall-clock benchmark harness for the compact pattern-execution engine.

``python -m repro.bench`` times the training hot path (forward + backward of
one affine dropout layer) under three execution modes and writes the results
to ``BENCH_compact_engine.json``:

* ``masked`` — the conventional baseline: dense GEMM followed by an
  elementwise 0/1 mask (Fig. 1(a) of the paper);
* ``compact`` — the compact ops with per-step scalar pattern sampling and no
  buffer reuse (the seed repo's execution model);
* ``pooled`` — the vectorized pattern-pool engine: batched pattern draws,
  interned patterns/plans and preallocated scatter buffers.

The ``lstm_rec`` family times one recurrent projection (gate-aligned
structured DropConnect on an LSTM ``weight_h``) under the same protocol, and
the ``e2e`` family times *whole trainer steps* (MLP classifier and LSTM
language model) built through :class:`repro.execution.ExecutionConfig`, with
``masked`` being the conventional-dropout baseline model and
``--recurrent tiled`` routing the LSTM's recurrent GEMMs through the pattern
machinery.

See :mod:`repro.bench.harness` for the configuration knobs and
:mod:`repro.bench.delta` for the CI regression gate
(``python -m repro.bench.delta``).
"""

from repro.bench.harness import (
    BenchmarkConfig,
    BenchmarkResult,
    run_benchmark,
    write_report,
)

__all__ = [
    "BenchmarkConfig",
    "BenchmarkResult",
    "compare_reports",
    "load_report",
    "run_benchmark",
    "write_report",
]


def __getattr__(name: str):
    # The gate's exports load on first use: importing repro.bench.delta here
    # would put it in sys.modules before ``python -m repro.bench.delta``
    # executes it, which runpy warns about.
    if name in ("compare_reports", "load_report"):
        from repro.bench import delta

        return getattr(delta, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
