"""Sharded data-parallel training with the shared-memory all-reduce.

Trains one row-pattern MLP on the synthetic digit task through
``repro.distributed.DistributedTrainer``: each global batch is strided
across ``--shards`` spawn-context worker processes, per-shard gradients meet
in a preallocated shared-memory arena (fixed tree reduce, one coordinator
optimizer step), and every shard draws its dropout patterns from a
deterministic ``SeedSequence`` spawn of the pool seed.  The script runs the
sharded training twice with the same seed and verifies the two histories are
**bit-identical**, then trains the same model single-process for an
accuracy/wall-clock comparison (on a box with fewer than ``shards + 1``
cores the sharded run is expected to be slower — the win needs cores).

Run with:  python examples/distributed_training.py [--shards 2] [--epochs 4]
           [--optimizer sparse]
"""

from __future__ import annotations

import argparse

from repro.data import make_synthetic_mnist
from repro.distributed import DistributedTrainer
from repro.execution import EngineRuntime, ExecutionConfig
from repro.models import MLPClassifier, MLPConfig
from repro.training import ClassifierTrainer, ClassifierTrainingConfig


def build_trainer(args, data, shards: int):
    model = MLPClassifier(MLPConfig(hidden_sizes=(args.hidden, args.hidden),
                                    drop_rates=(args.rate, args.rate),
                                    strategy="row", seed=0))
    runtime = EngineRuntime(ExecutionConfig(
        mode="pooled", optimizer=args.optimizer,
        seed=args.seed, shards=shards))
    config = ClassifierTrainingConfig(batch_size=args.batch, epochs=args.epochs,
                                      learning_rate=0.01, momentum=0.9, seed=3)
    if shards > 1:
        return DistributedTrainer(model, data, config, runtime=runtime)
    return ClassifierTrainer(model, data, config, runtime=runtime)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=2,
                        help="data-parallel worker processes (>= 2)")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--hidden", type=int, default=128)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--rate", type=float, default=0.5)
    parser.add_argument("--train-samples", type=int, default=1024)
    parser.add_argument("--test-samples", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0,
                        help="pool-wide pattern seed (spawned per shard)")
    parser.add_argument("--optimizer", default="dense",
                        choices=["dense", "sparse"])
    args = parser.parse_args(argv)
    if args.shards < 2:
        parser.error("--shards must be >= 2 (use mlp_mnist_training.py for "
                     "single-process runs)")

    data = make_synthetic_mnist(num_train=args.train_samples,
                                num_test=args.test_samples, seed=1)
    print(f"Training 784-{args.hidden}-{args.hidden}-10 MLP across "
          f"{args.shards} shards, {args.epochs} epochs "
          f"(optimizer={args.optimizer})\n")

    first = build_trainer(args, data, args.shards).train()
    second = build_trainer(args, data, args.shards).train()
    identical = (first.history.train_loss == second.history.train_loss
                 and first.history.eval_metric == second.history.eval_metric)
    dist = first.engine_stats["distributed"]
    print(f"[determinism] two sharded runs, same seed + shard count: "
          f"{'bit-identical' if identical else 'DIVERGED'}")
    print(f"[distributed] shards={dist['shards']} steps={dist['steps']} "
          f"reduce_ms={dist['reduce_ms']:.1f}")

    single = build_trainer(args, data, shards=1).train()
    print(f"\n{'run':12s} {'accuracy':>9s} {'wall s':>7s}")
    print(f"{'sharded':12s} {first.final_metric:9.3f} {first.wall_time_s:7.1f}")
    print(f"{'single':12s} {single.final_metric:9.3f} "
          f"{single.wall_time_s:7.1f}")
    if not identical:
        raise SystemExit("sharded training histories diverged")


if __name__ == "__main__":
    main()
