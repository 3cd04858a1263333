"""Benchmark-regression gate: compare a fresh run against a committed report.

``python -m repro.bench.delta`` runs a quick benchmark at the acceptance case
(width 2048, rate 0.7; the row, tile, e2e, head, serve, e2e_dist and
e2e_elastic families — the e2e LSTM trainer-step case derives hidden size 256
from that sweep, and the head family sprouts the 50k-vocabulary
``head_vocab`` adaptive-head case), loads
the committed ``BENCH_compact_engine.json`` and **fails (exit code 1) when
the freshly measured ``speedup_pooled`` regresses by more than 30%** relative
to the committed value.  This is the CI hook that keeps the pooled engine's headline
speedup honest across PRs without re-running the full sweep.

The ``e2e_dist`` data-parallel scaling case is gated on an *absolute* bar
instead (:func:`scaling_failures`): the sharded trainer must beat the
single-process step by at least ``DEFAULT_MIN_SCALING`` (1.5x at 2 shards).
Scaling beyond 1x is physically impossible when the workers plus the
coordinator outnumber the CPU cores, so the bar is enforced only when the
entry's recorded ``cpu_count >= shards + 1`` — the case is still *measured*
everywhere (catching determinism or crash regressions), but the absolute
bar reports a skip, not a failure, on machines too small to scale.

The ``e2e_elastic`` case is gated the same way (:func:`elastic_failures`):
one full worker-recovery cycle (teardown, respawn, fast-forward, replay)
must finish within ``DEFAULT_MAX_RECOVERY_S``, a missing case always fails,
and a CPU-starved box (``cpu_count < shards + 1``) skips the budget with a
printed note — there the respawn runs oversubscribed, so the wall-clock
bound would measure the machine, not the recovery path.

The ``head_vocab`` large-vocabulary case is gated on an absolute bar too
(:func:`adaptive_failures`): at 50k classes the adaptive loss head must beat
the exact dense head's wall-clock by at least ``DEFAULT_MIN_ADAPTIVE``.  The
case runs in a single process, so no CPU-count skip applies — a missing
entry always fails.

The ``serve`` family is gated on an absolute *dominance* bar
(:func:`serving_failures`): the micro-batched frozen engine must beat the
per-request dense baseline on **both** p99 latency and throughput under the
same closed-loop load.  Entries stamped ``cpu_gated`` (a single-core box,
where the baseline's concurrent request threads serialise and the comparison
measures the machine) skip the bar with a printed note, exactly like the
distributed bars; a gated case missing from the fresh run always fails.

All three absolute gates prefer the entry's recorded ``cpu_gated`` stamp
(written by the harness at measurement time) and fall back to recomputing
``cpu_count < shards + 1`` for reports that predate the stamp.

Usage::

    PYTHONPATH=src python -m repro.bench.delta                      # run + compare
    PYTHONPATH=src python -m repro.bench.delta --fresh new.json     # compare two reports
    PYTHONPATH=src python -m repro.bench.delta --threshold 0.2      # stricter gate

The comparison logic (:func:`compare_reports`) is pure and unit-tested; the
measurement side reuses :func:`repro.bench.harness.run_benchmark` with a
reduced quick configuration.
"""

from __future__ import annotations

import argparse
import json

from repro.bench.harness import BenchmarkConfig, run_benchmark, write_report

#: The acceptance cases gated by the delta check: (family, width, rate).
#: ``head`` gates the sampled loss head (vocab projection + cross-entropy);
#: ``e2e_lstm`` gates whole LSTM trainer steps (tiled recurrent site, sampled
#: head, sparse optimizer) — the width is the e2e case's derived hidden size,
#: ``min(max(widths) // 2, 256)``.
ACCEPTANCE_CASES: tuple[tuple[str, int, float], ...] = (
    ("row", 2048, 0.7),
    ("tile", 2048, 0.7),
    ("head", 2048, 0.7),
    ("head_vocab", 50000, 0.7),
    ("e2e_lstm", 256, 0.7),
)

#: Maximum tolerated relative drop in ``speedup_pooled`` (0.3 = 30%).
DEFAULT_THRESHOLD = 0.3

#: Data-parallel scaling cases gated on an absolute bar: (family, width,
#: rate).  The width is the e2e_dist case's derived hidden size,
#: ``min(max(widths), 512)``.
SCALING_CASES: tuple[tuple[str, int, float], ...] = (
    ("e2e_dist", 512, 0.7),
)

#: Minimum single-process / sharded step-time ratio the e2e_dist case must
#: reach at 2 shards (enforced only on machines with enough cores).
DEFAULT_MIN_SCALING = 1.5

#: Elastic-recovery cases gated on an absolute wall-clock budget: (family,
#: width, rate).  The width is the e2e_elastic case's derived hidden size,
#: ``min(max(widths), 512)``.
ELASTIC_CASES: tuple[tuple[str, int, float], ...] = (
    ("e2e_elastic", 512, 0.7),
)

#: Maximum tolerated wall-clock of one full worker-recovery cycle (teardown,
#: respawn, fast-forward, replay).  Respawning a couple of workers costs
#: single-digit seconds; a cycle this long means the recovery path regressed
#: into a hang (e.g. a barrier that waits out its full timeout).
DEFAULT_MAX_RECOVERY_S = 30.0

#: Large-vocabulary adaptive-head cases gated on an absolute bar: (family,
#: width, rate).  The width is the swept vocabulary size.
ADAPTIVE_CASES: tuple[tuple[str, int, float], ...] = (
    ("head_vocab", 50000, 0.7),
)

#: Minimum dense / adaptive wall-clock ratio (``speedup_pooled`` of the
#: ``head_vocab`` entry) the adaptive loss head must reach at 50k classes.
#: Measured headroom: the interleaved best-of protocol lands ~1.7x on a
#: loaded 4-core box; the bar sits below that so machine noise cannot trip
#: it while a factorization regression (e.g. the head silently falling back
#: to the dense path) still fails clearly.
DEFAULT_MIN_ADAPTIVE = 1.3

#: Serving cases gated on the dominance bar: (family, width, rate).  The
#: widths are the serve cases' derived hidden sizes — ``min(max(widths),
#: 2048)`` for the MLP, ``min(max(widths) // 2, 256)`` for the LSTM.
SERVE_CASES: tuple[tuple[str, int, float], ...] = (
    ("serve_mlp", 2048, 0.7),
    ("serve_lstm", 256, 0.7),
)


def load_report(path: str) -> dict:
    """Load a ``BENCH_compact_engine.json`` report (clear error on bad shape)."""
    with open(path) as handle:
        report = json.load(handle)
    if not isinstance(report, dict) or "results" not in report:
        raise ValueError(
            f"{path} is not a benchmark report: expected a JSON object with a "
            f"'results' list (was it written by `python -m repro.bench`?)")
    return report


def _case_entries(entries: list[dict],
                  source: str) -> dict[tuple[str, int, float], dict]:
    """Index result entries by (family, width, rate), failing clearly on
    malformed entries instead of surfacing a raw ``KeyError``."""
    indexed: dict[tuple[str, int, float], dict] = {}
    for position, entry in enumerate(entries):
        missing = [key for key in ("family", "width", "rate", "speedup_pooled")
                   if key not in entry]
        if missing:
            raise ValueError(
                f"{source} report entry #{position} is missing required "
                f"fields {missing}; each result needs family/width/rate/"
                f"speedup_pooled (regenerate the report with "
                f"`python -m repro.bench`)")
        indexed[(entry["family"], int(entry["width"]),
                 float(entry["rate"]))] = entry
    return indexed


def compare_reports(fresh: list[dict], baseline: list[dict],
                    threshold: float = DEFAULT_THRESHOLD,
                    cases: tuple[tuple[str, int, float], ...] = ACCEPTANCE_CASES,
                    ) -> list[str]:
    """Failure messages for every gated case that regressed (empty = pass).

    ``fresh`` and ``baseline`` are lists of result dicts (the ``results``
    entries of a report).  A case fails when its fresh ``speedup_pooled``
    drops below ``(1 - threshold)`` times the committed value; a gated case
    missing from either side also fails, so the gate cannot rot silently.
    Malformed entries raise a :class:`ValueError` naming the offending report
    and fields instead of a raw ``KeyError``.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    fresh_by_case = _case_entries(fresh, "fresh")
    baseline_by_case = _case_entries(baseline, "baseline")
    failures: list[str] = []
    for case in cases:
        family, width, rate = case
        label = f"{family} width={width} rate={rate}"
        fresh_entry = fresh_by_case.get(case)
        baseline_entry = baseline_by_case.get(case)
        if baseline_entry is None:
            failures.append(f"{label}: missing from the committed baseline report")
            continue
        if fresh_entry is None:
            failures.append(f"{label}: missing from the fresh run")
            continue
        committed = float(baseline_entry["speedup_pooled"])
        measured = float(fresh_entry["speedup_pooled"])
        floor = (1.0 - threshold) * committed
        if measured < floor:
            drop = 1.0 - measured / committed
            failures.append(
                f"{label}: speedup_pooled regressed {drop:.0%} "
                f"({committed:.2f}x committed -> {measured:.2f}x fresh, "
                f"floor {floor:.2f}x at threshold {threshold:.0%})")
    return failures


def _entry_cpu_gated(entry: dict) -> bool:
    """Whether the entry was measured on a machine too small for its bar.

    Prefers the ``cpu_gated`` stamp the harness writes at measurement time;
    reports that predate the stamp fall back to the original
    ``cpu_count < shards + 1`` recomputation.
    """
    stamp = entry.get("cpu_gated")
    if stamp is not None:
        return bool(stamp)
    shards = entry.get("shards")
    cpu_count = entry.get("cpu_count")
    if shards and cpu_count:
        return int(cpu_count) < int(shards) + 1
    return False


def scaling_failures(entries: list[dict],
                     min_scaling: float = DEFAULT_MIN_SCALING,
                     cases: tuple[tuple[str, int, float], ...] = SCALING_CASES,
                     ) -> tuple[list[str], list[str]]:
    """Absolute data-parallel scaling gate; returns ``(failures, skips)``.

    For each gated ``(family, width, rate)`` case, the fresh entry's
    ``speedup_pooled`` (single-process / sharded step time for ``e2e_dist``)
    must reach ``min_scaling``.  A machine whose recorded ``cpu_count`` is
    below ``shards + 1`` (workers plus coordinator) cannot scale past 1x no
    matter how good the all-reduce is, so such entries produce a *skip*
    message instead of a failure — honest on a 1-core dev box, enforced on
    multi-core CI.  A gated case missing from ``entries``, or one that never
    recorded its ``shards``/``cpu_count``, fails: the gate must not rot
    silently.
    """
    if min_scaling <= 0:
        raise ValueError(f"min_scaling must be positive, got {min_scaling}")
    indexed = _case_entries(entries, "fresh")
    failures: list[str] = []
    skips: list[str] = []
    for case in cases:
        family, width, rate = case
        label = f"{family} width={width} rate={rate}"
        entry = indexed.get(case)
        if entry is None:
            failures.append(f"{label}: missing from the fresh run "
                            f"(data-parallel scaling case not measured)")
            continue
        shards = entry.get("shards")
        cpu_count = entry.get("cpu_count")
        if not shards or not cpu_count:
            failures.append(
                f"{label}: entry does not record shards/cpu_count, so the "
                f"scaling gate cannot tell a regression from a too-small "
                f"machine (regenerate the report with `python -m repro.bench`)")
            continue
        measured = float(entry["speedup_pooled"])
        if _entry_cpu_gated(entry):
            skips.append(
                f"{label}: measured {measured:.2f}x at {shards} shards, but "
                f"only {cpu_count} CPU core(s) — the {min_scaling:.1f}x bar "
                f"needs at least {int(shards) + 1} cores (workers + "
                f"coordinator) to be physically reachable; not enforced")
            continue
        if measured < min_scaling:
            failures.append(
                f"{label}: data-parallel scaling {measured:.2f}x at {shards} "
                f"shards is below the {min_scaling:.1f}x bar "
                f"(cpu_count={cpu_count})")
    return failures, skips


def elastic_failures(entries: list[dict],
                     max_recovery_s: float = DEFAULT_MAX_RECOVERY_S,
                     cases: tuple[tuple[str, int, float], ...] = ELASTIC_CASES,
                     ) -> tuple[list[str], list[str]]:
    """Elastic-recovery gate; returns ``(failures, skips)``.

    For each gated ``(family, width, rate)`` case, the fresh entry's
    ``recover`` mode (one full teardown -> respawn -> replay cycle of the
    distributed trainer) must complete within ``max_recovery_s``.  On a
    machine whose recorded ``cpu_count`` is below ``shards + 1`` the respawn
    runs oversubscribed and can legitimately blow the budget, so such
    entries produce a *skip* message instead of a failure — the case is
    still measured there, which is what exercises the recovery machinery.
    A gated case missing from ``entries``, or one without recorded
    ``recover``/``step`` timings or ``shards``/``cpu_count``, fails: the
    gate must not rot silently.
    """
    if max_recovery_s <= 0:
        raise ValueError(
            f"max_recovery_s must be positive, got {max_recovery_s}")
    indexed = _case_entries(entries, "fresh")
    failures: list[str] = []
    skips: list[str] = []
    for case in cases:
        family, width, rate = case
        label = f"{family} width={width} rate={rate}"
        entry = indexed.get(case)
        if entry is None:
            failures.append(f"{label}: missing from the fresh run "
                            f"(elastic recovery case not measured)")
            continue
        mode_ms = entry.get("mode_ms") or {}
        if "recover" not in mode_ms or "step" not in mode_ms:
            failures.append(
                f"{label}: entry does not record recover/step timings "
                f"(regenerate the report with `python -m repro.bench`)")
            continue
        shards = entry.get("shards")
        cpu_count = entry.get("cpu_count")
        if not shards or not cpu_count:
            failures.append(
                f"{label}: entry does not record shards/cpu_count, so the "
                f"recovery gate cannot tell a regression from a too-small "
                f"machine (regenerate the report with `python -m repro.bench`)")
            continue
        recover_s = float(mode_ms["recover"]) / 1000.0
        if _entry_cpu_gated(entry):
            skips.append(
                f"{label}: recovery cycle measured {recover_s:.1f}s at "
                f"{shards} shards, but only {cpu_count} CPU core(s) — the "
                f"respawn runs oversubscribed, so the "
                f"{max_recovery_s:.0f}s budget is not enforced")
            continue
        if recover_s > max_recovery_s:
            failures.append(
                f"{label}: one worker-recovery cycle took {recover_s:.1f}s "
                f"at {shards} shards, over the {max_recovery_s:.0f}s budget "
                f"(cpu_count={cpu_count}) — the elastic respawn path "
                f"regressed")
    return failures, skips


def serving_failures(entries: list[dict],
                     cases: tuple[tuple[str, int, float], ...] = SERVE_CASES,
                     ) -> tuple[list[str], list[str]]:
    """Serving dominance gate; returns ``(failures, skips)``.

    For each gated ``(family, width, rate)`` case, the fresh entry's pooled
    (micro-batched engine) load report must beat the masked (per-request
    dense) report on **both** p99 latency and throughput — batching that
    wins throughput by giving up tail latency, or vice versa, fails.
    Entries stamped ``cpu_gated`` (single-core box: the baseline's
    concurrent request threads serialise, so the comparison measures the
    machine) produce a *skip* instead.  A gated case missing from
    ``entries``, or one without recorded ``serving`` load reports, fails:
    the gate must not rot silently.
    """
    indexed = _case_entries(entries, "fresh")
    failures: list[str] = []
    skips: list[str] = []
    for case in cases:
        family, width, rate = case
        label = f"{family} width={width} rate={rate}"
        entry = indexed.get(case)
        if entry is None:
            failures.append(f"{label}: missing from the fresh run "
                            f"(serving case not measured)")
            continue
        serving = entry.get("serving") or {}
        masked = serving.get("masked") or {}
        pooled = serving.get("pooled") or {}
        required = ("p99_ms", "throughput_rps")
        if any(key not in masked or key not in pooled for key in required):
            failures.append(
                f"{label}: entry does not record masked/pooled serving load "
                f"reports (regenerate the report with `python -m repro.bench "
                f"--families serve`)")
            continue
        summary = (
            f"p99 {float(masked['p99_ms']):.2f}ms -> "
            f"{float(pooled['p99_ms']):.2f}ms, throughput "
            f"{float(masked['throughput_rps']):.0f} -> "
            f"{float(pooled['throughput_rps']):.0f} req/s")
        if _entry_cpu_gated(entry):
            skips.append(
                f"{label}: {summary}, but measured on "
                f"{entry.get('cpu_count')} CPU core(s) — the per-request "
                f"baseline's concurrent request threads serialise there, so "
                f"the dominance bar would measure the machine; not enforced")
            continue
        problems = []
        if float(pooled["p99_ms"]) >= float(masked["p99_ms"]):
            problems.append("p99 latency")
        if float(pooled["throughput_rps"]) <= float(masked["throughput_rps"]):
            problems.append("throughput")
        if problems:
            failures.append(
                f"{label}: the micro-batched engine does not beat the "
                f"per-request dense baseline on {' or '.join(problems)} "
                f"({summary})")
    return failures, skips


def adaptive_failures(entries: list[dict],
                      min_speedup: float = DEFAULT_MIN_ADAPTIVE,
                      cases: tuple[tuple[str, int, float], ...] = ADAPTIVE_CASES,
                      ) -> list[str]:
    """Absolute large-vocabulary adaptive-head gate; returns failures.

    For each gated ``(family, width, rate)`` case, the fresh entry's
    ``speedup_pooled`` (dense / adaptive loss-head step time for
    ``head_vocab``) must reach ``min_speedup``.  The case runs in a single
    process, so unlike the distributed/serving bars there is no CPU-count
    skip — a gated case missing from ``entries`` always fails, keeping the
    gate from rotting silently.
    """
    if min_speedup <= 0:
        raise ValueError(f"min_speedup must be positive, got {min_speedup}")
    indexed = _case_entries(entries, "fresh")
    failures: list[str] = []
    for case in cases:
        family, width, rate = case
        label = f"{family} width={width} rate={rate}"
        entry = indexed.get(case)
        if entry is None:
            failures.append(f"{label}: missing from the fresh run "
                            f"(large-vocabulary adaptive head case not "
                            f"measured)")
            continue
        measured = float(entry["speedup_pooled"])
        if measured < min_speedup:
            failures.append(
                f"{label}: the adaptive loss head beats the dense head by "
                f"only {measured:.2f}x at vocab={width}, below the "
                f"{min_speedup:.1f}x bar — the two-level factorization "
                f"stopped paying for itself")
    return failures


def quick_acceptance_config() -> BenchmarkConfig:
    """A reduced configuration that still measures the acceptance case.

    Only the sweep is reduced (one width, one rate); the per-case protocol
    (steps/warmup/repeats) matches the committed full run, because a lighter
    protocol measures systematically lower speedups (cold BLAS threads, page
    faults in the masked baseline's fresh allocations) and would trip the gate
    without any real regression.
    """
    full = BenchmarkConfig()
    return BenchmarkConfig(widths=(2048,), rates=(0.7,), batch=full.batch,
                           steps=full.steps, repeats=full.repeats,
                           warmup=full.warmup,
                           families=("row", "tile", "e2e", "head", "serve",
                                     "e2e_dist", "e2e_elastic"),
                           # Only the gated 50k vocabulary: the head family
                           # sprouts one head_vocab case per entry, and the
                           # default 8192 point would double the dense
                           # baseline's cost without being gated.
                           head_vocab=(50_000,))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.delta",
        description="Fail on >threshold regression of speedup_pooled vs the "
                    "committed benchmark report.")
    parser.add_argument("--baseline", default="BENCH_compact_engine.json",
                        help="committed report to compare against")
    parser.add_argument("--fresh", default=None,
                        help="optional pre-computed fresh report; when omitted "
                             "a quick benchmark of the acceptance case is run")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="maximum tolerated relative regression (default 0.3)")
    parser.add_argument("--min-scaling", type=float, default=DEFAULT_MIN_SCALING,
                        help="absolute data-parallel scaling bar of the "
                             "e2e_dist case (default 1.5; only enforced when "
                             "the entry's recorded cpu_count >= shards + 1)")
    parser.add_argument("--min-adaptive-speedup", type=float,
                        default=DEFAULT_MIN_ADAPTIVE,
                        help="absolute dense/adaptive wall-clock bar of the "
                             "head_vocab case at 50k classes (default 1.3)")
    parser.add_argument("--max-recovery-s", type=float,
                        default=DEFAULT_MAX_RECOVERY_S,
                        help="wall-clock budget of one e2e_elastic worker-"
                             "recovery cycle (default 30s; only enforced "
                             "when the entry's recorded cpu_count >= "
                             "shards + 1)")
    parser.add_argument("--write-fresh", default=None, metavar="PATH",
                        help="also write the freshly measured acceptance "
                             "report to PATH (for CI artifacts); requires a "
                             "measured run, i.e. incompatible with --fresh")
    args = parser.parse_args(argv)
    if args.write_fresh is not None and args.fresh is not None:
        parser.error("--write-fresh requires a measured run; it cannot be "
                     "combined with a pre-computed --fresh report")

    baseline = load_report(args.baseline)
    if args.fresh is not None:
        fresh_entries = load_report(args.fresh)["results"]
    else:
        print("repro.bench.delta — quick re-measurement of the acceptance case")
        config = quick_acceptance_config()
        results = run_benchmark(config, verbose=True)
        fresh_entries = [result.to_dict() for result in results]
        if args.write_fresh is not None:
            path = write_report(results, config, path=args.write_fresh)
            print(f"fresh acceptance report written to {path}")

    failures = compare_reports(fresh_entries, baseline["results"],
                               threshold=args.threshold)
    scaling, skips = scaling_failures(fresh_entries,
                                      min_scaling=args.min_scaling)
    for skip in skips:
        print(f"\nscaling gate skipped — {skip}")
    failures += scaling
    elastic, elastic_skips = elastic_failures(
        fresh_entries, max_recovery_s=args.max_recovery_s)
    for skip in elastic_skips:
        print(f"\nelastic gate skipped — {skip}")
    failures += elastic
    serving, serving_skips = serving_failures(fresh_entries)
    for skip in serving_skips:
        print(f"\nserving gate skipped — {skip}")
    failures += serving
    failures += adaptive_failures(fresh_entries,
                                  min_speedup=args.min_adaptive_speedup)
    if failures:
        print("\nBENCHMARK REGRESSION:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark delta check passed "
          f"(threshold {args.threshold:.0%}, baseline {args.baseline})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
