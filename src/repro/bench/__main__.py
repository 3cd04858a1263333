"""CLI entry point: ``python -m repro.bench``.

Times mask-based dropout against the compact pattern-execution engine across
layer widths and dropout rates, prints a comparison table and writes
``BENCH_compact_engine.json`` (see :mod:`repro.bench.harness`).
"""

from __future__ import annotations

import argparse

from repro.bench.harness import BenchmarkConfig, run_benchmark, write_report
from repro.execution import LOSS_HEAD_MODES, OPTIMIZER_MODES, RECURRENT_MODES


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Wall-clock benchmark of the compact pattern-execution engine.")
    parser.add_argument("--widths", type=int, nargs="+", default=[512, 1024, 2048],
                        help="layer widths (out_features) to benchmark")
    parser.add_argument("--rates", type=float, nargs="+", default=[0.5, 0.7],
                        help="target dropout rates")
    parser.add_argument("--batch", type=int, default=128, help="mini-batch size")
    parser.add_argument("--steps", type=int, default=12,
                        help="timed hot-path steps per repeat")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per case (best repeat is reported)")
    parser.add_argument("--warmup", type=int, default=2,
                        help="untimed warm-up steps per repeat")
    parser.add_argument("--tile", type=int, default=32, help="TDP tile edge")
    parser.add_argument("--families", nargs="+",
                        default=["row", "tile", "e2e", "head", "serve",
                                 "e2e_dist", "e2e_elastic"],
                        help="benchmark families to time (lstm_rec = one "
                             "recurrent projection, head = one loss-head "
                             "step, e2e = whole trainer steps, serve = "
                             "per-request dense inference vs the "
                             "micro-batched frozen engine, e2e_dist = "
                             "data-parallel scaling of one MLP trainer step, "
                             "e2e_elastic = distributed step + full "
                             "worker-recovery cycle, head_vocab = dense vs "
                             "sampled vs adaptive loss head across the "
                             "--head-vocab vocabulary sweep; the head family "
                             "sprouts it automatically)")
    parser.add_argument("--head-vocab", type=int, nargs="+",
                        default=[8192, 50000],
                        help="vocabulary sizes of the head_vocab large-vocab "
                             "loss-head cases (each runs dense, sampled and "
                             "adaptive heads at a fixed hidden width)")
    parser.add_argument("--e2e-dtype", default="float64",
                        choices=["float64", "float32"],
                        help="floating dtype of the e2e trainer-step cases")
    parser.add_argument("--recurrent", default="tiled",
                        choices=list(RECURRENT_MODES),
                        help="recurrent-projection execution of the e2e LSTM "
                             "case (tiled = gate-aligned DropConnect site)")
    parser.add_argument("--loss-head", default="sampled",
                        choices=list(LOSS_HEAD_MODES),
                        help="loss head of the e2e LSTM case's compact/pooled "
                             "modes (sampled = class-pruned softmax; the "
                             "masked baseline always pays the dense head)")
    parser.add_argument("--optimizer", default="sparse",
                        choices=list(OPTIMIZER_MODES),
                        help="optimizer of the e2e cases' compact/pooled "
                             "modes (sparse = the dirty-region SparseSGD, "
                             "bit-identical to dense; the masked baseline "
                             "always runs the dense update)")
    parser.add_argument("--shards", type=int, default=1,
                        help="worker processes to shard the cases across "
                             "(one BLAS thread domain each)")
    parser.add_argument("--dist-shards", type=int, default=2,
                        help="data-parallel worker count of the e2e_dist "
                             "scaling case")
    parser.add_argument("--serve-requests", type=int, default=10000,
                        help="requests the serve family's MLP case drives "
                             "through each mode (the LSTM case runs a tenth)")
    parser.add_argument("--serve-concurrency", type=int, default=8,
                        help="in-flight requests of the serve family's "
                             "closed-loop driver (and its micro-batch bound)")
    parser.add_argument("--output", default="BENCH_compact_engine.json",
                        help="path of the JSON report")
    parser.add_argument("--quick", action="store_true",
                        help="small fast configuration (smoke testing)")
    args = parser.parse_args(argv)
    # Unknown families fail fast with every valid family named, instead of
    # argparse's terse choices dump.
    unknown = [family for family in args.families
               if family not in BenchmarkConfig.FAMILIES]
    if unknown:
        parser.error(
            f"unknown benchmark families: {', '.join(unknown)}; "
            f"valid families: {', '.join(BenchmarkConfig.FAMILIES)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.quick:
        config = BenchmarkConfig(widths=(256,), rates=(0.5,), batch=32, steps=3,
                                 repeats=1, warmup=1, families=tuple(args.families),
                                 head_vocab=tuple(args.head_vocab),
                                 e2e_dtype=args.e2e_dtype,
                                 recurrent=args.recurrent,
                                 loss_head=args.loss_head,
                                 optimizer=args.optimizer,
                                 shards=args.shards,
                                 dist_shards=args.dist_shards,
                                 serve_requests=min(args.serve_requests, 300),
                                 serve_concurrency=min(args.serve_concurrency, 4),
                                 output=args.output)
    else:
        config = BenchmarkConfig(widths=tuple(args.widths), rates=tuple(args.rates),
                                 batch=args.batch, steps=args.steps,
                                 repeats=args.repeats, warmup=args.warmup,
                                 tile=args.tile, families=tuple(args.families),
                                 head_vocab=tuple(args.head_vocab),
                                 e2e_dtype=args.e2e_dtype,
                                 recurrent=args.recurrent,
                                 loss_head=args.loss_head,
                                 optimizer=args.optimizer,
                                 shards=args.shards,
                                 dist_shards=args.dist_shards,
                                 serve_requests=args.serve_requests,
                                 serve_concurrency=args.serve_concurrency,
                                 output=args.output)
    print("repro.bench — compact pattern-execution engine vs mask-based dropout")
    print(f"batch={config.batch} steps={config.steps} repeats={config.repeats} "
          f"shards={config.shards} "
          f"(best repeat reported; per-step ms)\n")
    results = run_benchmark(config, verbose=True)
    path = write_report(results, config)
    # The e2e_elastic "headline" is a recovery cost (recover/step time), not
    # a speedup over a baseline — summarised on its own line below.
    headline = [result for result in results
                if result.family != "e2e_elastic"]
    if headline:
        worst = min(headline, key=lambda result: result.speedup_pooled)
        best = max(headline, key=lambda result: result.speedup_pooled)
        print(f"\npooled-engine speedup over masked baseline: "
              f"min {worst.speedup_pooled:.2f}x "
              f"(width={worst.width}, rate={worst.rate}, family={worst.family}), "
              f"max {best.speedup_pooled:.2f}x "
              f"(width={best.width}, rate={best.rate}, family={best.family})")
    for result in results:
        if result.family == "e2e_elastic":
            print(f"elastic recovery cycle at {result.shards} shards: "
                  f"{result.mode_ms['recover']:.0f}ms "
                  f"(~{result.speedup_pooled:.0f} ordinary steps)")
        if result.family.startswith("serve_") and result.serving:
            masked = result.serving["masked"]
            pooled = result.serving["pooled"]
            print(f"{result.family}: p99 {masked['p99_ms']:.2f}ms -> "
                  f"{pooled['p99_ms']:.2f}ms, throughput "
                  f"{masked['throughput_rps']:.0f} -> "
                  f"{pooled['throughput_rps']:.0f} req/s "
                  f"(occupancy {result.serving['mean_occupancy']:.1f})")
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
