"""The ``lm_serve`` workload: the micro-batched LM engine under load.

Every request goes through :meth:`repro.serving.MicroBatcher.submit` into a
frozen :class:`~repro.serving.InferenceEngine` of an LSTM language model
trained for a few seeded steps.  A run has three phases:

* **unloaded** — one request in flight at a time: the latency a lone user
  sees (the workload's ``latency_ms_*``);
* **capacity** — ``2 * max_batch`` requests kept in flight: the most
  requests per second the server completes (``throughput_per_s``);
* **ladder** — open-loop Poisson arrivals at three fixed offered rates (the
  rungs), each offered as one uninterrupted schedule, latency charged from
  each request's due time, so a stalled server pays for the wait it imposes
  on later arrivals.  Reported per rung.

The load generators here are the benchmark's own rather than
``repro.serving.loadgen``, whose open loop records a latency for a future
that raised and never looks at the result: here every request is checked
and counted as failed if it raised, stayed unresolved or returned a
malformed result, and a sample of responses is compared with the model's
own eval-mode forward pass.  One dispatcher thread (the caller's) submits;
the batcher's worker serves.
"""

from __future__ import annotations

import functools
import heapq
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic_text import make_synthetic_corpus
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models.lstm_lm import LSTMConfig, LSTMLanguageModel
from repro.serving import InferenceEngine, MicroBatcher
from repro.tensor import no_grad
from repro.training.lm_trainer import (LanguageModelTrainer,
                                       LanguageModelTrainingConfig)

from perfbench.probe import REFERENCE_MS, SpeedProbe, rolling_median
from perfbench.stats import min_samples, percentile
from perfbench.tracing import timed_phase


@dataclass(frozen=True)
class ServeSpec:
    """Model shape, load and pass rule of the serving workload."""

    name: str = "lm_serve"
    vocab: int = 2048
    width: int = 256
    rate: float = 0.5
    max_batch: int = 32
    min_len: int = 4
    max_len: int = 32
    #: The served model is first trained for ``train_steps`` BPTT windows
    #: of ``batch`` x ``seq_len`` tokens, so its logits (and ``eval_loss``)
    #: depend on the weights the engine freezes.
    batch: int = 20
    seq_len: int = 35
    train_steps: int = 4
    #: Requests of the unloaded and the capacity phase.
    unloaded_requests: int = 290
    capacity_requests: int = 768
    #: Offered rates in requests per second, fixed so that every commit is
    #: offered the same load.
    rungs: tuple = (("low", 30.0), ("mid", 60.0), ("high", 90.0))
    tail_q: float = 0.95
    #: Requests per rung at least (the tail quantile needs 200).
    min_requests: int = 200
    #: A rung passes when its tail latency is at most this.
    limit_ms: float = 500.0
    check_every: int = 25      # every n-th request is checked against the model
    drain_s: float = 30.0      # how long stragglers may take after the last send
    test_tokens: int = 20000

    def __post_init__(self):
        if min(self.min_requests, self.unloaded_requests) < min_samples(self.tail_q):
            raise ValueError("too few requests for tail_q")


SPEC = ServeSpec()
TINY_SPEC = ServeSpec(vocab=64, width=16, max_batch=4, max_len=8,
                      batch=4, seq_len=5, train_steps=2,
                      unloaded_requests=200, capacity_requests=64,
                      rungs=(("low", 400.0), ("mid", 800.0), ("high", 1200.0)),
                      check_every=50, test_tokens=500, limit_ms=5000.0)


# ----------------------------------------------------------------------
# per-request log and load generators
# ----------------------------------------------------------------------
@dataclass
class PhaseLog:
    """Per-request record of one phase (perf_counter seconds).

    For a closed loop a request is due when it is sent.
    """

    name: str
    requests: list
    targets: list
    rate: float = 0.0                  # offered rate of an open-loop rung
    due: np.ndarray = None
    sent: np.ndarray = None
    done: np.ndarray = None
    failed: np.ndarray = None          # bool per request
    #: Per request, the process's CPU seconds while it was in flight and
    #: the machine-speed factor (see :mod:`perfbench.probe`); measured in
    #: the unloaded phase only, where one request is in flight at a time.
    cpu: np.ndarray = None
    speed: np.ndarray = None
    active_s: float = 0.0              # wall time under load
    cpu_s: float = 0.0                 # process CPU time under load
    #: Batcher queue depth right after each open-loop send (NaN if unread).
    depth: np.ndarray = None
    kept: dict = field(default_factory=dict)   # index -> checked response

    def __post_init__(self):
        count = len(self.requests)
        for name in ("due", "sent", "done", "depth", "cpu"):
            setattr(self, name, np.full(count, np.nan))
        self.failed = np.zeros(count, dtype=bool)
        self.speed = np.ones(count)

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def failures(self) -> int:
        return int(self.failed.sum())

    def latency_ms(self) -> np.ndarray:
        """Wall latency of each served request, from due time to resolution."""
        ok = ~self.failed
        return (self.done[ok] - self.due[ok]) * 1e3

    def cpu_ms(self) -> np.ndarray:
        """CPU time of each served request, scaled by the machine speed."""
        ok = ~self.failed
        return self.cpu[ok] * self.speed[ok] * 1e3

    @property
    def backlog_end(self) -> int:
        """Queue depth right after the last send: a backlog still growing
        when the schedule ends shows here."""
        seen = self.depth[np.isfinite(self.depth)]
        return int(seen[-1]) if seen.size else 0

    @property
    def backlog_max(self) -> int:
        seen = self.depth[np.isfinite(self.depth)]
        return int(seen.max()) if seen.size else 0

    def lag_ms(self) -> np.ndarray:
        ok = np.isfinite(self.sent)
        return (self.sent[ok] - self.due[ok]) * 1e3

    def served_per_s(self) -> float:
        served = self.attempted - self.failures
        return served / self.active_s if self.active_s > 0 else 0.0

    def served_per_cpu_s(self) -> float:
        served = self.attempted - self.failures
        return served / self.cpu_s if self.cpu_s > 0 else 0.0


class _Settler:
    """Checks finished futures; keeps every ``keep_every``-th response."""

    def __init__(self, log: PhaseLog, check, keep_every: int):
        self.log, self.check, self.keep_every = log, check, keep_every

    def __call__(self, index: int, future) -> None:
        log = self.log
        if future.exception() is not None:
            log.failed[index] = True
            return
        response = future.result()
        if not self.check(index, response):
            log.failed[index] = True
        elif index % self.keep_every == 0:
            log.kept[index] = response

    def drain(self, pending, drain_s: float) -> None:
        deadline = time.perf_counter() + drain_s
        for index, future in pending:
            try:
                future.exception(timeout=max(deadline - time.perf_counter(), 0.0))
            except TimeoutError:
                self.log.failed[index] = True
                continue
            self(index, future)


def _submit(submit, log: PhaseLog, index: int):
    """Send request ``index``; record its completion time.  None if refused."""
    log.sent[index] = time.perf_counter()
    try:
        future = submit(log.requests[index])
    except Exception:  # noqa: BLE001 - a refused request is a failure
        log.failed[index] = True
        return None
    done = log.done
    future.add_done_callback(
        lambda _f, i=index: done.__setitem__(i, time.perf_counter()))
    return future


def open_loop(submit, log: PhaseLog, due_s, *, check, keep_every: int = 1,
              queue_depth=None, drain_s: float = 30.0) -> float:
    """Send every ``log.requests[i]`` ``due_s[i]`` seconds from now; return
    the seconds until the last one finished.

    ``check(index, response)`` validates every response; a request fails
    when ``submit`` raises, its future raises or is still pending
    ``drain_s`` after the last send, or ``check`` returns False.  Checked
    responses are dropped at once (memory stays flat) except every
    ``keep_every``-th, kept in ``log.kept``.  ``queue_depth()`` is read
    right after every send into ``log.depth``.
    """
    settle = _Settler(log, check, keep_every)
    start = time.perf_counter() + 0.005
    log.due[:] = start + np.asarray(due_s, np.float64)
    pending: deque = deque()
    for index in range(log.attempted):
        delay = log.due[index] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        future = _submit(submit, log, index)
        if queue_depth is not None:
            log.depth[index] = queue_depth()
        if future is not None:
            pending.append((index, future))
        while pending and pending[0][1].done():
            settle(*pending.popleft())
    settle.drain(pending, drain_s)
    return _active(log, 0, log.attempted, start)


def closed_loop(submit, log: PhaseLog, lo: int, hi: int, *, concurrency: int,
                check, keep_every: int = 1, drain_s: float = 30.0) -> float:
    """Keep ``concurrency`` of ``log.requests[lo:hi]`` in flight, each sent
    as soon as an earlier one finishes; return the seconds from the first
    send to the last completion.  Failures as in :func:`open_loop`.
    """
    settle = _Settler(log, check, keep_every)
    slots = threading.Semaphore(concurrency)
    pending: deque = deque()
    start = time.perf_counter()
    for index in range(lo, hi):
        slots.acquire()
        future = _submit(submit, log, index)
        log.due[index] = log.sent[index]
        if future is None:
            slots.release()
            continue
        future.add_done_callback(lambda _f: slots.release())
        pending.append((index, future))
        while pending and pending[0][1].done():
            settle(*pending.popleft())
    settle.drain(pending, drain_s)
    return _active(log, lo, hi, start)


def _active(log: PhaseLog, lo: int, hi: int, start: float) -> float:
    finished = log.done[lo:hi][np.isfinite(log.done[lo:hi])]
    return (finished.max() if finished.size else time.perf_counter()) - start


def poisson_due(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process at ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
class ServeRun:
    """A frozen engine behind a live batcher, plus the seeded load."""

    def __init__(self, spec: ServeSpec, seed: int, setup_s: dict):
        self.spec = spec
        self.seed = seed
        self.setup_s = setup_s
        self.model = self.runtime = self.engine = self.batcher = None
        self.stream = None
        self.train_loss = math.nan     # last training window's loss

    def load(self, name: str, count: int, stream: int) -> PhaseLog:
        """``count`` requests with their next-token targets.

        Lengths cover ``min_len..max_len`` evenly (in a seeded order), so
        every run offers the same mix of short and long requests; the
        tokens are seeded windows of the held-out stream.
        """
        spec = self.spec
        rng = np.random.default_rng([self.seed, stream])
        lengths = rng.permutation(
            np.resize(np.arange(spec.min_len, spec.max_len + 1), count))
        starts = rng.integers(0, len(self.stream) - spec.max_len - 1,
                              size=count)
        return PhaseLog(
            name=name,
            requests=[self.stream[s:s + n] for s, n in zip(starts, lengths)],
            targets=[self.stream[s + 1:s + n + 1]
                     for s, n in zip(starts, lengths)])

    def check(self, log: PhaseLog):
        vocab = self.spec.vocab

        def valid(index, response) -> bool:
            response = np.asarray(response)
            return (response.shape == (len(log.requests[index]), vocab)
                    and bool(np.isfinite(response).all()))
        return valid

    def close(self) -> None:
        if self.batcher is not None:
            self.batcher.close()


def setup(spec: ServeSpec, seed: int, tracer=None) -> ServeRun:
    """Build corpus, model and trainer from ``seed``, train the model for
    ``spec.train_steps`` windows, then freeze the engine and start the
    batcher.  ``run.setup_s`` holds each phase's seconds."""
    phases = {}
    run = ServeRun(spec, seed, phases)
    timed = functools.partial(timed_phase, phases, tracer)

    window = spec.batch * spec.seq_len
    corpus = timed("data", lambda: make_synthetic_corpus(
        vocab_size=spec.vocab,
        num_train_tokens=window * spec.train_steps + spec.batch,
        num_valid_tokens=window + spec.batch,
        num_test_tokens=spec.test_tokens, seed=seed))
    run.stream = np.asarray(corpus.test)
    run.model = timed("model", lambda: LSTMLanguageModel(LSTMConfig(
        vocab_size=spec.vocab, embed_size=spec.width, hidden_size=spec.width,
        num_layers=2, drop_rates=(spec.rate, spec.rate), strategy="row",
        seed=seed)))
    run.runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", recurrent="tiled", loss_head="sampled",
        loss_head_rate=spec.rate, optimizer="sparse", seed=seed,
        serve_max_batch=spec.max_batch))
    trainer = timed("bind", lambda: LanguageModelTrainer(
        run.model, corpus,
        LanguageModelTrainingConfig(
            batch_size=spec.batch, seq_len=spec.seq_len, epochs=1,
            max_iterations=spec.train_steps, seed=seed),
        runtime=run.runtime))
    result = timed("train", trainer.train)
    run.train_loss = result.history.train_loss[-1]

    def freeze():
        engine = InferenceEngine(run.model, runtime=run.runtime)
        # Intern the scratch ring at full batch and longest request.
        warm = [run.stream[:spec.max_len]] * spec.max_batch
        engine.infer_requests(warm)
        return engine, MicroBatcher(engine, max_batch=spec.max_batch)
    run.engine, run.batcher = timed("engine", freeze)
    return run


def run_unloaded(run: ServeRun) -> PhaseLog:
    """One request at a time, a probe after each (outside its latency)."""
    spec = run.spec
    log = run.load("unloaded", spec.unloaded_requests, stream=100)
    check = run.check(log)
    probe = SpeedProbe()
    probes = []
    for index in range(log.attempted):
        cpu = time.process_time()
        closed_loop(run.batcher.submit, log, index, index + 1, concurrency=1,
                    check=check, keep_every=spec.check_every,
                    drain_s=spec.drain_s)
        log.cpu[index] = time.process_time() - cpu
        probes.append(probe.measure())
    log.speed = REFERENCE_MS / rolling_median(probes)
    return log


def run_capacity(run: ServeRun) -> PhaseLog:
    """``2 * max_batch`` requests in flight: the rate the server completes,
    per wall second (``active_s``) and per CPU second of the process
    (``cpu_s``).

    With only ``max_batch`` in flight, whether a full batch is queued when
    the batcher collects depends on how fast the dispatcher refills the
    queue within the batcher's wait window, and the mean batch varied from
    27 to 32 between phases; with twice as many it is always 32.  No
    machine-speed factor is applied: over ten runs the probe-scaled rate
    spread more than the measured one (README).
    """
    spec = run.spec
    log = run.load("capacity", spec.capacity_requests, stream=101)
    cpu = time.process_time()
    log.active_s = closed_loop(run.batcher.submit, log, 0, log.attempted,
                               concurrency=2 * spec.max_batch,
                               check=run.check(log),
                               keep_every=spec.check_every,
                               drain_s=spec.drain_s)
    log.cpu_s = time.process_time() - cpu
    return log


def run_ladder(run: ServeRun, seconds: float) -> list[PhaseLog]:
    """Offer every rung in turn, each as one uninterrupted Poisson schedule.

    Each rung sends ``max(min_requests, rate * seconds / 6)`` requests and
    reads the batcher's queue depth after every send, so a backlog that
    grows over the whole rung shows in ``backlog_end``.  Rung figures are
    reported as measured: they are not gated, so no machine-speed factor
    is applied.
    """
    spec = run.spec
    logs = []
    for rung, (name, rate) in enumerate(spec.rungs):
        count = max(spec.min_requests, int(round(rate * seconds / 6)))
        log = run.load(name, count, stream=rung)
        log.rate = rate
        due = poisson_due(rate, count,
                          np.random.default_rng([run.seed, 200 + rung]))
        log.active_s = open_loop(
            run.batcher.submit, log, due, check=run.check(log),
            keep_every=spec.check_every,
            queue_depth=lambda: run.batcher.queue_depth,
            drain_s=spec.drain_s)
        logs.append(log)
    return logs


def rung_summary(spec: ServeSpec, log: PhaseLog) -> dict:
    """p50, tail, pass/fail and achieved rate of one rung."""
    served = log.attempted - log.failures
    latency = log.latency_ms()
    enough = served >= min_samples(spec.tail_q)
    summary = {
        "rate": log.rate, "requests": log.attempted, "failed": log.failures,
        "backlog_end": log.backlog_end, "backlog_max": log.backlog_max,
        "achieved_rps": log.served_per_s(),
        "p50_ms": percentile(latency, 0.5) if served else math.inf,
        "tail_ms": percentile(latency, spec.tail_q) if enough else math.inf,
    }
    summary["passed"] = (summary["tail_ms"] <= spec.limit_ms
                         and log.failures == 0
                         and log.backlog_end <= spec.max_batch)
    return summary


def verify_and_score(run: ServeRun, logs: list,
                     rtol: float = 1e-9, atol: float = 1e-12):
    """Check kept responses against the model itself; score them.

    The reference for a request is the model's own eval-mode forward pass
    of that request alone, under ``no_grad``.  The engine promises bit
    identity with it, so the request served alone by the engine must match
    it bit for bit.  The co-batched response may differ in the last bits
    (BLAS blocking depends on the batch), so it must match within a tight
    ``allclose``.  Returns ``(checked, mismatches, eval_loss)``, the last
    the mean next-token cross-entropy (nats) of the kept responses.  Call
    after the batcher is closed: the engine is not re-entrant.
    """
    checked = mismatches = tokens = 0
    nll = 0.0
    run.model.eval()
    for log in logs:
        for index, response in sorted(log.kept.items()):
            request, target = log.requests[index], log.targets[index]
            with no_grad():
                logits, _ = run.model(np.asarray(request)[:, None])
            reference = logits.data
            alone = run.engine.infer_requests([request])[0]
            checked += 1
            if not (np.array_equal(alone, reference)
                    and np.allclose(response, reference, rtol=rtol, atol=atol)):
                mismatches += 1
            shifted = response - response.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            nll -= float(logp[np.arange(len(target)), target].sum())
            tokens += len(target)
    return checked, mismatches, (nll / tokens if tokens else math.nan)


def lanes(intervals) -> list[int]:
    """Assign each ``(start, end)`` interval the lowest free track index."""
    order = sorted(range(len(intervals)), key=lambda i: intervals[i][0])
    free: list[int] = []
    busy: list[tuple] = []           # (end, lane)
    assigned = [0] * len(intervals)
    next_lane = 0
    for index in order:
        start, end = intervals[index]
        while busy and busy[0][0] <= start:
            heapq.heappush(free, heapq.heappop(busy)[1])
        if free:
            lane = heapq.heappop(free)
        else:
            lane, next_lane = next_lane, next_lane + 1
        assigned[index] = lane
        heapq.heappush(busy, (end, lane))
    return assigned
