"""Run one workload in this process: the untraced or the traced run.

:func:`run_workload` returns a :class:`Result` whose ``metrics`` are the
end-to-end metrics (``trace=False``) or the per-layer metrics
(``trace=True``), plus human-readable ``notes`` that name every figure the
way ``perfbench/README.md`` describes it.
"""

from __future__ import annotations

import gc
import math
import resource
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.tensor import Tensor

from perfbench import serving, training
from perfbench.probe import SpeedProbe, block_ms, normalise, scale
from perfbench.stats import (check_metric_names, median, min_samples,
                             percentile)
from perfbench.tracing import Tracer

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Steps (or full-batch engine calls) per tracemalloc peak sample.
ALLOC_SAMPLES = 3

WORKLOADS = ("mlp_train", "lm_train", "lm_train_50k", "lm_serve")

#: End-to-end metrics: name -> (unit, better).  Every workload reports all.
E2E = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_tail": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "eval_loss": ("nats", "lower"),
}

_LAYER_COMMON = {
    "data.fetch_ms": ("ms", "lower"),
    "dropout.schedule_ms": ("ms", "lower"),
    "dropout.keep_fraction": ("fraction", "lower"),
    "dropout.pattern_cache_hit_ratio": ("ratio", "higher"),
    "dropout.pool_refills": ("count", "lower"),
    "execution.workspace_hit_ratio": ("ratio", "higher"),
    "execution.plan_cache_hit_ratio": ("ratio", "higher"),
    "backends.calls_per_step": ("count", "lower"),
    "backends.gemm_per_step": ("count", "lower"),
    "backends.scatter_per_step": ("count", "lower"),
    "backends.alloc_per_step": ("count", "lower"),
    "backends.context_gemm_per_step": ("count", "lower"),
    "models.forward_ms": ("ms", "lower"),
    "nn.embedding_ms": ("ms", "lower"),
    "nn.lstm_ms": ("ms", "lower"),
    "heads.loss_ms": ("ms", "lower"),
    "heads.kept_class_fraction": ("fraction", "lower"),
    "heads.clusters_per_step": ("count", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.step_alloc_peak_mb": ("MB", "lower"),
    "optim.zero_grad_ms": ("ms", "lower"),
    "optim.step_ms": ("ms", "lower"),
    "optim.dirty_fraction": ("fraction", "lower"),
    "optim.dense_fallbacks_per_step": ("count", "lower"),
    "setup.data_s": ("s", "lower"),
    "setup.model_s": ("s", "lower"),
    "setup.bind_s": ("s", "lower"),
    "setup.engine_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unaccounted_ms": ("ms", "lower"),
    "trace.unaccounted_pct": ("%", "lower"),
}

_LAYER_RUNG = {
    "serving.queue_wait_ms_p50": ("ms", "lower"),
    "serving.queue_wait_ms_p95": ("ms", "lower"),
    "serving.service_ms_p50": ("ms", "lower"),
    "serving.service_ms_p95": ("ms", "lower"),
    "serving.batch_size_mean": ("count", "higher"),
    "serving.pad_fraction": ("fraction", "lower"),
    "serving.fanout_ms_p95": ("ms", "lower"),
    "serving.backlog_end": ("count", "lower"),
    "loadgen.dispatch_lag_ms_p95": ("ms", "lower"),
}

#: Per-layer metrics: name -> (unit, better).  A layer a workload does not
#: run reads 0 on that workload.
PER_LAYER = dict(_LAYER_COMMON)
for _rung, _ in serving.SPEC.rungs:
    for _name, _meta in _LAYER_RUNG.items():
        PER_LAYER[f"{_name}.{_rung}"] = _meta

check_metric_names(E2E)
check_metric_names(PER_LAYER)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list = field(default_factory=list)   # (name, value, unit) lines

    def payload(self) -> dict:
        """The result object run.py prints last (non-finite values become null)."""
        units = PER_LAYER if set(self.metrics) <= set(PER_LAYER) else E2E
        return {"correct": bool(self.correct),
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {name: {"value": _finite(value),
                                   "unit": units[name][0]}
                            for name, value in self.metrics.items()}}


def _finite(value):
    value = float(value)
    return value if math.isfinite(value) else None


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path | None = None, tiny: bool = False) -> Result:
    """Run workload ``name`` once; see the module docstring."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if name == "lm_serve":
        spec = serving.TINY_SPEC if tiny else serving.SPEC
        if trace:
            return _serve_traced(spec, seed, seconds, trace_dir)
        return _serve_e2e(spec, seed, seconds)
    spec = (training.TINY_SPECS if tiny else training.SPECS)[name]
    if trace:
        return _train_traced(spec, seed, trace_dir)
    return _train_e2e(spec, seed, seconds)


def _repeated_setup(build, release, probe: SpeedProbe):
    """Set up ``SETUP_REPEATS`` times; keep the last.

    Returns the run, the median set-up CPU time in seconds, each set-up
    normalised by the probe blocks run just before and after it, and the
    median wall time as measured.  The served model's training steps (the
    ``train`` phase of ``run.setup_s``) are not set-up time.
    """
    totals, raw = [], []
    run = None
    before = block_ms(probe)
    for _ in range(SETUP_REPEATS):
        if run is not None:
            release(run)
            run = None
            gc.collect()
        cpu = time.process_time()
        start = time.perf_counter()
        run = build()
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu - run.setup_s.get("train", 0.0)
        after = block_ms(probe)
        totals.append(cpu * scale(before, after))
        raw.append(elapsed - run.setup_s.get("train", 0.0))
        before = after
    return run, median(totals), median(raw)


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------
def _train_e2e(spec, seed: int, seconds: float) -> Result:
    probe = SpeedProbe()
    run, setup_s, raw_setup_s = _repeated_setup(
        lambda: training.setup(spec, seed), lambda _run: None, probe)
    log = training.run_steps(run, warmup=spec.warmup, seconds=seconds,
                             min_steps=spec.min_steps,
                             eval_after=spec.min_steps, probe=probe)
    quality = log.quality or {"eval_loss": math.nan}
    steps = normalise(log.cpu_ms, log.probe_ms)
    ok = np.isfinite(log.losses[spec.warmup:])
    ok_steps = steps[ok]
    tail_name = f"p{spec.tail_q * 100:g}"
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms_p50": median(ok_steps) if ok_steps.size else math.nan,
        "latency_ms_tail": (percentile(ok_steps, spec.tail_q)
                            if ok_steps.size >= spec.min_steps else math.nan),
        "throughput_per_s": steps.size * spec.items_per_step / steps.sum() * 1e3,
        "eval_loss": quality["eval_loss"],
    }
    raw = np.asarray(log.step_ms)
    notes = [("raw setup_s", raw_setup_s, "s"),
             ("raw step_ms_p50", median(raw), "ms"),
             (f"raw step_ms_{tail_name}", percentile(raw, spec.tail_q), "ms"),
             ("raw train_items_per_s", raw.size * spec.items_per_step / log.timed_s, "1/s"),
             ("probe_ms_p50", median(log.probe_ms), "ms"),
             ("cpu step_ms_p50", median(log.cpu_ms), "ms"),
             ("timed steps", len(steps), "count"),
             ("step_ms_p50", metrics["latency_ms_p50"], "ms"),
             (f"step_ms_{tail_name}", metrics["latency_ms_tail"], "ms"),
             ("train_items_per_s", metrics["throughput_per_s"],
              "samples/s" if spec.kind == "mlp" else "tokens/s")]
    notes += [(key, value, "nats" if key == "eval_loss" else "")
              for key, value in quality.items()]
    correct = log.failed == 0 and math.isfinite(quality["eval_loss"])
    return Result(correct, log.attempted, log.failed, metrics, notes)


def _train_traced(spec, seed: int, trace_dir: Path | None) -> Result:
    # Traced first, so its set-up and caches start as cold as an untraced
    # run's; the untraced replay then gives the reference step time and the
    # loss sequence the traced one must match bit for bit.
    steps = spec.trace_steps
    probe = SpeedProbe()
    tracer = Tracer()
    run = training.setup(spec, seed, tracer=tracer)
    keep_fractions: list[float] = []
    _attach_training(tracer, run, keep_fractions)
    try:
        warm = training.run_steps(run, warmup=spec.warmup, max_steps=0,
                                  tracer=tracer)
        keep_fractions.clear()
        before = run.runtime.stats(model=run.model)
        traced = training.run_steps(run, warmup=0, min_steps=steps,
                                    max_steps=steps, tracer=tracer,
                                    index0=spec.warmup, probe=probe)
        after = run.runtime.stats(model=run.model)
    finally:
        tracer.detach()
    alloc_mb = _alloc_peak_mb(lambda: training.run_steps(run, warmup=1))
    setup_s = run.setup_s
    del run
    gc.collect()

    plain = training.setup(spec, seed)
    plain_log = training.run_steps(plain, warmup=spec.warmup,
                                   min_steps=steps, max_steps=steps,
                                   probe=probe)
    del plain
    gc.collect()

    groups = list(range(spec.warmup, spec.warmup + steps))

    def per_step(*names):
        return median(tracer.per_group_ms(names, groups))

    step_index = {span.group: index for index, span in enumerate(tracer.spans)
                  if span.name == "step"}
    child = tracer.child_ms()
    unaccounted = [tracer.spans[step_index[g]].ms - child.get(step_index[g], 0.0)
                   for g in groups]
    shares = [u / tracer.spans[step_index[g]].ms
              for u, g in zip(unaccounted, groups)]
    traced_step = median([tracer.spans[step_index[g]].ms for g in groups])
    # The overhead compares the two phases' CPU time at the same machine
    # speed, as the untraced run's figures do.
    overhead = (median(normalise(traced.cpu_ms, traced.probe_ms))
                / median(normalise(plain_log.cpu_ms, plain_log.probe_ms)))

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(_counter_metrics(before, after, steps, spec))
    metrics.update({
        "data.fetch_ms": per_step("data.fetch"),
        "dropout.schedule_ms": per_step("dropout.schedule"),
        "dropout.keep_fraction": (float(np.mean(keep_fractions))
                                  if keep_fractions else 1.0),
        "models.forward_ms": per_step("models.forward", "heads.loss"),
        "nn.embedding_ms": per_step("nn.embedding"),
        "nn.lstm_ms": per_step("nn.lstm"),
        "heads.loss_ms": per_step("heads.loss"),
        "tensor.backward_ms": per_step("tensor.backward"),
        "tensor.step_alloc_peak_mb": alloc_mb,
        "optim.zero_grad_ms": per_step("optim.zero_grad"),
        "optim.step_ms": per_step("optim.step"),
        "setup.data_s": setup_s["data"],
        "setup.model_s": setup_s["model"],
        "setup.bind_s": setup_s["bind"],
        "trace.overhead_pct": (overhead - 1) * 100,
        "trace.unaccounted_ms": median(unaccounted),
        "trace.unaccounted_pct": median(shares) * 100,
    })
    identical = _same_losses(plain_log.losses, warm.losses + traced.losses)
    failed = plain_log.failed + warm.failed + traced.failed
    notes = [("traced steps", steps, "count"),
             ("traced step_ms_p50", traced_step, "ms"),
             ("untraced step_ms_p50", median(plain_log.step_ms), "ms"),
             ("loss sequences bit-identical", identical, "")]
    _write_trace(tracer, trace_dir, spec.name, seed, notes)
    return Result(identical and failed == 0,
                  plain_log.attempted + warm.attempted + traced.attempted,
                  failed, metrics, notes)


def _attach_training(tracer: Tracer, run, keep_fractions: list) -> None:
    trainer, model = run.trainer, run.model

    def record_keep(patterns) -> None:
        fractions = [getattr(p, "keep_fraction", None)
                     for p in patterns.values()]
        fractions = [f for f in fractions if f is not None]
        if fractions:
            keep_fractions.append(float(np.mean(fractions)))

    tracer.wrap(trainer.optimizer, "zero_grad", "optim.zero_grad")
    tracer.wrap(trainer.optimizer, "step", "optim.step")
    tracer.wrap(trainer.pattern_schedule, "step", "dropout.schedule",
                on_result=record_keep)
    tracer.wrap(trainer.pattern_schedule, "plan", "dropout.schedule")
    tracer.wrap(Tensor, "backward", "tensor.backward")
    if run.spec.kind == "mlp":
        tracer.wrap(model, "forward", "models.forward")
        tracer.wrap(trainer.loss_fn, "forward", "heads.loss")
    else:
        tracer.wrap(model, "loss", "models.forward")
        tracer.wrap(model.embedding, "forward", "nn.embedding")
        tracer.wrap(model.lstm, "forward", "nn.lstm")
        tracer.wrap(model.loss_head, "loss", "heads.loss")


def _counter_metrics(before: dict, after: dict, steps: int, spec) -> dict:
    """Per-layer ratios and per-step counts from two ``runtime.stats()``.

    Cache hit ratios and pool refills cover the whole run from the bind
    (``runtime.stats()`` counts them from the runtime's creation), since
    the caches are filled at pool draws, not at every step; the per-step
    counts cover the steps between ``before`` and ``after``.
    """
    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    pattern = (sum(info["hits"] for info in after["pattern_cache"].values()),
               sum(info["misses"] for info in after["pattern_cache"].values()))
    plan = (after["tile_plan_cache"]["hits"], after["tile_plan_cache"]["misses"])
    workspace = (after["workspace"]["hits"], after["workspace"]["misses"])
    calls = _calls_delta(before["backend_calls"], after["backend_calls"])
    head_after, head_before = after["loss_head"], before["loss_head"]
    draws = head_after["draws"] - head_before["draws"]
    kept = head_after["kept_classes"] - head_before["kept_classes"]
    clusters = (head_after["cluster_activations"]
                - head_before["cluster_activations"])
    fallbacks = (after["optimizer"]["dense_fallbacks"]
                 - before["optimizer"]["dense_fallbacks"])
    vocab = spec.vocab if spec.kind == "lm" else 0
    return {
        "dropout.pattern_cache_hit_ratio": ratio(*pattern),
        "dropout.pool_refills": after["pools"]["refills"],
        "execution.workspace_hit_ratio": ratio(*workspace),
        "execution.plan_cache_hit_ratio": ratio(*plan),
        **_backend_metrics(calls, steps),
        "heads.kept_class_fraction": (kept / (draws * vocab)
                                      if draws and vocab else 1.0),
        "heads.clusters_per_step": clusters / steps,
        "optim.dirty_fraction": after["optimizer"]["dirty_fraction"],
        "optim.dense_fallbacks_per_step": fallbacks / steps,
    }


def _calls_delta(before: dict, after: dict) -> dict:
    return {op: count - before.get(op, 0) for op, count in after.items()}


def _backend_metrics(calls: dict, steps: int) -> dict:
    """Backend op counts per step; the serving engine's GEMMs count as GEMMs."""
    return {
        "backends.calls_per_step": sum(calls.values()) / steps,
        "backends.gemm_per_step": (calls.get("gemm", 0)
                                   + calls.get("serve_gemm", 0)) / steps,
        "backends.scatter_per_step": calls.get("scatter", 0) / steps,
        "backends.alloc_per_step": calls.get("alloc", 0) / steps,
        "backends.context_gemm_per_step": calls.get("context_gemm", 0) / steps,
    }


def _alloc_peak_mb(call) -> float:
    """Median tracemalloc peak (MiB) above the starting level of ``call()``."""
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(ALLOC_SAMPLES):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
    finally:
        tracemalloc.stop()
    return median(peaks)


def _same_losses(first: list, second: list) -> bool:
    """Bit equality of two loss sequences (NaN never matches)."""
    return (len(first) == len(second)
            and all(a == b for a, b in zip(first, second)))


def _write_trace(tracer: Tracer, trace_dir: Path | None, name: str,
                 seed: int, notes: list) -> None:
    if trace_dir is None:
        return
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"trace-{name}-seed{seed}.json"
    tracer.write_chrome(path, {"workload": name, "seed": seed})
    notes.append(("chrome trace", str(path), ""))


# ----------------------------------------------------------------------
# serving workload
# ----------------------------------------------------------------------
def _serve_e2e(spec, seed: int, seconds: float) -> Result:
    probe = SpeedProbe()
    run, setup_s, raw_setup_s = _repeated_setup(
        lambda: serving.setup(spec, seed), serving.ServeRun.close, probe)
    try:
        unloaded = serving.run_unloaded(run)
        capacity = serving.run_capacity(run)
        ladder = serving.run_ladder(run, seconds)
    finally:
        run.close()
    phases = [unloaded, capacity, *ladder]
    checked, mismatches, eval_loss = serving.verify_and_score(run, phases)
    latency = unloaded.cpu_ms()
    enough = latency.size >= spec.unloaded_requests
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms_p50": median(latency) if latency.size else math.nan,
        "latency_ms_tail": (percentile(latency, spec.tail_q) if enough
                            else math.nan),
        "throughput_per_s": capacity.served_per_cpu_s(),
        "eval_loss": eval_loss,
    }
    tail_name = f"p{spec.tail_q * 100:g}"
    raw = unloaded.latency_ms()
    notes = [("raw setup_s", raw_setup_s, "s"),
             ("served model train_s", run.setup_s["train"], "s"),
             ("served model last train loss", run.train_loss, "nats"),
             ("raw unloaded p50_ms", median(raw) if raw.size else math.nan, "ms"),
             (f"raw unloaded {tail_name}_ms",
              percentile(raw, spec.tail_q) if enough else math.nan, "ms"),
             ("raw capacity_rps", capacity.served_per_s(), "1/s"),
             ("cpu share of capacity phase",
              capacity.cpu_s / capacity.active_s, "")]
    summaries = [serving.rung_summary(spec, log) for log in ladder]
    for (rung, _), summary in zip(spec.rungs, summaries):
        notes += [(f"offered_rps.{rung}", summary["rate"], "1/s"),
                  (f"requests.{rung}", summary["requests"], "count"),
                  (f"p50_ms.{rung}", summary["p50_ms"], "ms"),
                  (f"{tail_name}_ms.{rung}", summary["tail_ms"], "ms"),
                  (f"achieved_rps.{rung}", summary["achieved_rps"], "1/s"),
                  (f"backlog_end.{rung}", summary["backlog_end"], "count"),
                  (f"backlog_max.{rung}", summary["backlog_max"], "count"),
                  (f"meets_{tail_name}_limit.{rung}", summary["passed"], "")]
    passed = [summary["rate"] for summary in summaries if summary["passed"]]
    notes += [("max_rate_rps", max(passed, default=0.0), "1/s"),
              ("latency limit", spec.limit_ms, f"ms at {tail_name}"),
              ("checked against the model", checked, "count"),
              ("model mismatches", mismatches, "count")]
    attempted = sum(log.attempted for log in phases)
    failed = sum(log.failures for log in phases) + mismatches
    correct = (failed == 0 and math.isfinite(eval_loss)
               and math.isfinite(run.train_loss))
    return Result(correct, attempted, failed, metrics, notes)


def _serve_traced(spec, seed: int, seconds: float,
                  trace_dir: Path | None) -> Result:
    tracer = Tracer()
    run = serving.setup(spec, seed, tracer=tracer)
    engine = run.engine
    batches: list[tuple] = []   # (span index, request ids, max len, total len)
    original = engine.infer_requests

    def traced_infer_requests(requests):
        with tracer.span("serving.service", group=f"batch-{len(batches)}") as index:
            outputs = original(requests)
        lengths = [len(request) for request in requests]
        batches.append((index, [id(r) for r in requests], max(lengths),
                        sum(lengths)))
        return outputs

    before = run.runtime.stats()
    ws_before = (engine.workspace.hits, engine.workspace.misses)
    engine.infer_requests = traced_infer_requests
    tracer.wrap(engine, "infer", "serving.infer")
    try:
        unloaded = serving.run_unloaded(run)
        ladder = serving.run_ladder(run, seconds)
    finally:
        run.close()
        del engine.infer_requests
        tracer.detach()
    after = run.runtime.stats()
    ws = (engine.workspace.hits - ws_before[0],
          engine.workspace.misses - ws_before[1])
    checked, mismatches, _ = serving.verify_and_score(run, [unloaded, *ladder])
    full = [run.stream[:spec.max_len]] * spec.max_batch
    alloc_mb = _alloc_peak_mb(lambda: engine.infer_requests(full))

    # Untraced reference for the overhead: the unloaded phase, fresh set-up.
    plain = serving.setup(spec, seed)
    try:
        plain_log = serving.run_unloaded(plain)
    finally:
        plain.close()
    del plain
    gc.collect()

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    batch_of = {}
    for number, (_, ids, _, _) in enumerate(batches):
        for rid in ids:
            batch_of[rid] = number
    ladder_batches = set()
    for log in ladder:
        rung_metrics, used = _rung_layers(spec, tracer, log, batches, batch_of)
        metrics.update({f"{k}.{log.name}": v for k, v in rung_metrics.items()})
        ladder_batches.update(used)
    ladder_batches = sorted(ladder_batches)
    services = [tracer.spans[batches[b][0]] for b in ladder_batches]
    child = tracer.child_ms()
    unaccounted = [s.ms - child.get(batches[b][0], 0.0)
                   for s, b in zip(services, ladder_batches)]
    traced_p50 = _median_or_nan(unloaded.cpu_ms())
    plain_p50 = _median_or_nan(plain_log.cpu_ms())
    calls = _calls_delta(before["backend_calls"], after["backend_calls"])
    metrics.update({
        "execution.workspace_hit_ratio": ws[0] / sum(ws) if sum(ws) else 0.0,
        **_backend_metrics(calls, max(len(batches), 1)),
        "models.forward_ms": _median_or_nan(tracer.per_group_ms(
            "serving.infer", [s.group for s in services])),
        "heads.kept_class_fraction": 1.0,
        "tensor.step_alloc_peak_mb": alloc_mb,
        "setup.data_s": run.setup_s["data"],
        "setup.model_s": run.setup_s["model"],
        "setup.bind_s": run.setup_s["bind"],
        "setup.engine_s": run.setup_s["engine"],
        "trace.overhead_pct": (traced_p50 / plain_p50 - 1) * 100,
        "trace.unaccounted_ms": _median_or_nan(unaccounted),
        "trace.unaccounted_pct": _median_or_nan(
            [u / s.ms for u, s in zip(unaccounted, services)]) * 100,
    })
    phases = [unloaded, *ladder, plain_log]
    attempted = sum(log.attempted for log in phases)
    failed = sum(log.failures for log in phases) + mismatches
    notes = [("batches traced", len(batches), "count"),
             ("served model train_s", run.setup_s["train"], "s"),
             ("traced unloaded cpu p50_ms", traced_p50, "ms"),
             ("untraced unloaded cpu p50_ms", plain_p50, "ms"),
             ("checked against the model", checked, "count"),
             ("model mismatches", mismatches, "count")]
    _write_trace(tracer, trace_dir, spec.name, seed, notes)
    correct = failed == 0 and math.isfinite(run.train_loss)
    return Result(correct, attempted, failed, metrics, notes)


def _median_or_nan(values) -> float:
    return median(values) if len(values) else math.nan


def _rung_layers(spec, tracer: Tracer, log, batches: list, batch_of: dict):
    """Serving-layer metrics of one traced rung; adds per-request spans.

    Each served request gets a ``request`` span (due time to resolution)
    with ``loadgen.lag``, ``serving.queue``, ``serving.batch`` and
    ``serving.fanout`` children, all sharing the request's id, drawn on
    tracks where requests never overlap.  Returns the metrics and the
    numbers of the batches that served the rung.  A figure with too few
    samples behind it reads NaN (one failed request can leave a tail
    quantile short of ten samples beyond it); the caller counts the
    failure.
    """
    def ns(seconds: float) -> int:
        return int(seconds * 1e9)

    served = np.flatnonzero(~log.failed)
    queue, service, fanout, bounds, used = [], [], [], [], set()
    for i in served:
        number = batch_of[id(log.requests[i])]
        used.add(number)
        batch = tracer.spans[batches[number][0]]
        due, sent, done = ns(log.due[i]), ns(log.sent[i]), ns(log.done[i])
        queue.append((batch.start_ns - sent) / 1e6)
        service.append(batch.ms)
        fanout.append((done - batch.end_ns) / 1e6)
        bounds.append((due, sent, batch.start_ns, batch.end_ns, done))
    for lane, i, (due, sent, begin, end, done) in zip(
            serving.lanes([(b[0], b[4]) for b in bounds]), served, bounds):
        track = 1_000_000 + lane
        group = f"req-{log.name}-{i}"
        parent = tracer.add("request", due, done, group=group, thread=track)
        for name, lo, hi in (("loadgen.lag", due, sent),
                             ("serving.queue", sent, begin),
                             ("serving.batch", begin, end),
                             ("serving.fanout", end, done)):
            tracer.add(name, lo, hi, group=group, parent=parent, thread=track)
    used = sorted(used)
    computed = sum(batches[b][2] * len(batches[b][1]) for b in used)
    useful = sum(batches[b][3] for b in used)
    q = spec.tail_q

    def tail(values) -> float:
        if len(values) < min_samples(q):
            return math.nan
        return percentile(values, q)

    return {
        "serving.queue_wait_ms_p50": _median_or_nan(queue),
        "serving.queue_wait_ms_p95": tail(queue),
        "serving.service_ms_p50": _median_or_nan(service),
        "serving.service_ms_p95": tail(service),
        "serving.batch_size_mean": (float(np.mean([len(batches[b][1])
                                                   for b in used]))
                                    if used else math.nan),
        "serving.pad_fraction": ((computed - useful) / computed
                                 if computed else math.nan),
        "serving.fanout_ms_p95": tail(fanout),
        "serving.backlog_end": float(log.backlog_end),
        "loadgen.dispatch_lag_ms_p95": tail(log.lag_ms()),
    }, used
