#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

With ``--workload`` it runs that one workload in this process and prints,
last, one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes a Chrome trace under ``.perfbench/``).
Without ``--workload`` it runs every workload, each in its own process,
and exits non-zero if any of them failed a check.

BLAS is pinned to one thread before numpy is imported, so an inherited
environment cannot change the numbers.
"""

from __future__ import annotations

import os

#: BLAS threads per process.  One: the serving workload runs a dispatcher
#: and a batcher thread on a 2-core machine, and the training workloads are
#: measured the same way so one setting covers every figure.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"
WORKLOADS = ("mlp_train", "lm_train", "lm_train_50k", "lm_serve")
#: Longest a single workload process may take (its first run may build).
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the stamp must not fail the run
        blas = "unknown"
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {var: os.environ.get(var)
                             for var in BLAS_THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_one(args) -> int:
    from perfbench.workloads import E2E, PER_LAYER, run_workload

    print("# env " + json.dumps(environment(args)), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), trace_dir=TRACE_DIR)
    units = PER_LAYER if args.trace else E2E
    for name, value in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name][0]}")
    for name, value, unit in result.notes:
        print(f"{args.workload} # {name} = {value} {unit}".rstrip())
    print(f"{args.workload} attempted = {result.attempted}, "
          f"failed = {result.failed}, correct = {result.correct}")
    print(json.dumps(result.payload()), flush=True)
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so ``peak_rss_mb`` is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {child.returncode})",
                  file=sys.stderr)
            status = 1
            combined["correct"] = False
            continue
        status = status or child.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)   # import the benchmark as the `perfbench` package
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = BLAS_THREADS
    sys.exit(main())
