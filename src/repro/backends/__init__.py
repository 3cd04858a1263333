"""The execution backend of the compact pattern engine.

The compact dropout ops (:mod:`repro.dropout.compact_ops`) describe *what* to
compute — gather the surviving rows/tiles, multiply, scatter back — and an
:class:`ExecutionBackend` executes it: one BLAS GEMM per gathered operand
pair and per surviving tile-row group, with per-operation call counters.

Each :class:`~repro.execution.EngineRuntime` owns one instance and installs
it on every pattern layer it binds, so the counters of concurrent runtimes
never mix; ops called without a runtime fall back to
:func:`default_backend`.
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend

#: Shared fallback instance used by compact ops called without a runtime
#: (ad-hoc layer use, unit tests); runtimes always install their own instance.
_DEFAULT_BACKEND = ExecutionBackend()


def default_backend() -> ExecutionBackend:
    """The process-wide fallback :class:`ExecutionBackend` instance."""
    return _DEFAULT_BACKEND


__all__ = ["ExecutionBackend", "default_backend"]
