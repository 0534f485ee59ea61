#!/usr/bin/env python3
"""Throughput sweep: base vs recoverable vs recoverable+flush list across
thread counts, for the update- and read-intensive mixes.

Runs every list pair of ``bench.BUILDERS``.  Full-protocol runs (the
``BenchConfig`` defaults) take a while in pure Python; use --ops/--runs to
scale down for a quick look.

    python3 scripts/run_bench.py --threads 1 2 4 8 --ops 100000 --runs 3 \
        --out results.csv
"""

import argparse
import sys

from nvtrack.bench import BUILDERS, BenchConfig, emit_results, run_benchmark

LIST_PAIRS = [(s, v) for s, v in BUILDERS if s in ("list", "list-flush")]


def main() -> int:
    defaults = BenchConfig()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4, 8])
    ap.add_argument("--ops", type=int, default=defaults.total_ops)
    ap.add_argument("--runs", type=int, default=defaults.runs)
    ap.add_argument("--seed", type=int, default=defaults.seed)
    ap.add_argument("--read-pcts", type=int, nargs="+", default=[30, 70])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    results = []
    for read_pct in args.read_pcts:
        for threads in args.threads:
            for structure, variant in LIST_PAIRS:
                cfg = BenchConfig(structure=structure, variant=variant,
                                  threads=threads, total_ops=args.ops,
                                  read_pct=read_pct, runs=args.runs,
                                  seed=args.seed)
                print(f"running {structure}/{variant} threads={threads} "
                      f"read={read_pct}% ...", file=sys.stderr)
                results.append(run_benchmark(cfg))
    text = emit_results(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
