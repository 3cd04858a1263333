"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from repro.serving import InferenceEngine, MicroBatcher

from perfbench import serving, training
from perfbench.stats import METRIC_NAME, min_samples, percentile
from perfbench.tracing import Tracer
from perfbench.workloads import E2E, PER_LAYER, WORKLOADS, run_workload

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_smoke(workload, trace, tmp_path):
    result = run_workload(workload, seed=3, seconds=0.2, trace=trace,
                          trace_dir=tmp_path, tiny=True)
    assert result.correct, result.notes
    assert result.attempted >= 1 and result.failed == 0
    assert set(result.metrics) == set(PER_LAYER if trace else E2E)
    assert all(math.isfinite(v) for v in result.metrics.values())
    payload = result.payload()
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    json.dumps(payload, allow_nan=False)
    if trace:
        assert list(tmp_path.glob(f"trace-{workload}-seed3.json"))
    else:
        assert all(v > 0 for v in result.metrics.values())


def test_metric_names_match_pattern_and_benchmark_json():
    for name in [*E2E, *PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(E2E)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["better"]) == E2E[metric["name"]]
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == PER_LAYER[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_percentile_needs_ten_samples_beyond():
    assert min_samples(0.9) == 100
    assert min_samples(0.95) == 200
    assert min_samples(0.75) == 40
    assert percentile(np.arange(100.0), 0.9) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="beyond"):
        percentile(np.arange(99.0), 0.9)
    with pytest.raises(ValueError):
        percentile([], 0.5)
    assert percentile([4.0], 0.5) == 4.0


class _FlakyRun:
    """Stands in for a TrainRun: one step raises, one returns NaN."""

    def __init__(self):
        self.calls = 0

    def fetch(self):
        return None

    def step(self, _batch):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("injected")
        if self.calls == 5:
            return float("nan")
        return 1.0 / self.calls


def test_failed_steps_are_counted():
    log = training.run_steps(_FlakyRun(), warmup=1, min_steps=6, max_steps=6)
    assert log.attempted == 7
    assert log.failed == 2
    assert math.isnan(log.losses[2]) and math.isnan(log.losses[4])
    assert len(log.step_ms) == 6


def test_open_loop_counts_every_kind_of_failure():
    never = Future()                      # stays pending: unresolved

    def submit(request):
        future = Future()
        if request == 1:
            raise RuntimeError("refused")
        if request == 2:
            future.set_exception(ValueError("engine error"))
        elif request == 3:
            return never
        elif request == 4:
            future.set_result(np.array([np.nan]))   # malformed output
        else:
            future.set_result(np.array([float(request)]))
        return future

    def check(_index, response):
        return bool(np.isfinite(response).all())

    log = serving.PhaseLog("unit", requests=list(range(8)), targets=[None] * 8)
    serving.open_loop(submit, log, np.linspace(0.0, 0.01, 8),
                      check=check, keep_every=5, drain_s=0.05)
    assert log.attempted == 8 and log.failures == 4
    assert log.failed.tolist() == [False, True, True, True, True,
                                   False, False, False]
    assert sorted(log.kept) == [0, 5]
    assert len(log.latency_ms()) == 4


def test_traced_serve_counts_an_injected_refusal(monkeypatch, tmp_path):
    # Call 300 falls in the ladder's first rung (the tiny unloaded phase
    # sends 200), leaving it one request short of a reportable p95.
    calls = []
    submit = MicroBatcher.submit

    def flaky(self, request):
        calls.append(None)
        if len(calls) == 300:
            raise RuntimeError("injected")
        return submit(self, request)

    monkeypatch.setattr(MicroBatcher, "submit", flaky)
    result = run_workload("lm_serve", seed=3, seconds=0.2, trace=True,
                          trace_dir=tmp_path, tiny=True)
    assert not result.correct and result.failed == 1
    assert math.isnan(result.metrics["serving.queue_wait_ms_p95.low"])
    assert math.isfinite(result.metrics["serving.queue_wait_ms_p95.mid"])
    json.dumps(result.payload(), allow_nan=False)


def test_serve_check_catches_an_engine_that_is_wrong_alone_too(monkeypatch):
    # Solo and co-batched answers are equally wrong, so only the comparison
    # with the model's own forward pass can catch it.
    infer_requests = InferenceEngine.infer_requests

    def skewed(self, requests):
        return [out * 1.001 for out in infer_requests(self, requests)]

    monkeypatch.setattr(InferenceEngine, "infer_requests", skewed)
    result = run_workload("lm_serve", seed=3, seconds=0.2, trace=False,
                          tiny=True)
    notes = {name: value for name, value, _ in result.notes}
    assert not result.correct
    assert notes["model mismatches"] == notes["checked against the model"] > 0


def test_closed_loop_keeps_the_concurrency_bound():
    in_flight = []
    peak = []
    lock = threading.Lock()

    def submit(request):
        future = Future()
        with lock:
            in_flight.append(future)
            peak.append(len([f for f in in_flight if not f.done()]))

        def finish():
            time.sleep(0.002)
            future.set_result(np.array([float(request)]))
        threading.Thread(target=finish).start()
        return future

    log = serving.PhaseLog("unit", requests=list(range(20)), targets=[None] * 20)
    serving.closed_loop(submit, log, 0, 20, concurrency=3,
                        check=lambda i, r: r[0] == i, drain_s=5)
    assert log.failures == 0 and max(peak) <= 3
    assert np.all(log.done >= log.sent)


def test_trace_json_loads_back(tmp_path):
    tracer = Tracer()
    with tracer.span("step", group=7):
        with tracer.span("inner"):
            pass

    class Box:
        def work(self, x):
            return x + 1

    box = Box()
    tracer.wrap(box, "work", "box.work")
    with tracer.span("step", group=8):
        assert box.work(1) == 2
    tracer.detach()
    assert "work" not in vars(box)
    path = tmp_path / "trace.json"
    tracer.write_chrome(path, {"workload": "unit"})
    loaded = json.loads(path.read_text())
    events = loaded["traceEvents"]
    assert [e["name"] for e in events] == ["step", "inner", "step", "box.work"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"] == {"span": 1, "parent": 0, "id": 7}
    assert events[3]["args"]["parent"] == 2
    assert loaded["otherData"] == {"workload": "unit"}
    assert tracer.per_group_ms(["step"], [7, 8]) == [s.ms for s in
                                                     tracer.spans[::2]]


def test_wrap_is_thread_local_per_span_stack():
    tracer = Tracer()
    done = threading.Event()

    def worker():
        with tracer.span("worker", group="w"):
            done.set()

    with tracer.span("main", group="m"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
    assert not thread.is_alive() and done.is_set()
    worker_span = next(s for s in tracer.spans if s.name == "worker")
    assert worker_span.parent is None and worker_span.group == "w"


def test_lanes_never_overlap():
    intervals = [(0, 5), (1, 3), (3, 6), (5, 9), (2, 4)]
    assigned = serving.lanes(intervals)
    for lane in set(assigned):
        spans = sorted(iv for iv, a in zip(intervals, assigned) if a == lane)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


def test_run_fails_without_the_repository(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp_train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert "correct" not in child.stdout
