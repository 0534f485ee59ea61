#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, alternating, summarised as JSON.

Runs ``nvbench/run.py`` in a base and a new checkout (for example the parent
commit and the change, each made with ``git clone`` or ``git archive``) for
``--pairs`` pairs per workload.  Within a pair both sides get the same seed;
the side that runs first alternates from pair to pair, so slow drift of the
machine hits both sides alike.  For each side and metric it writes the run
values, median, quartiles and IQR, and for each metric the ratio of medians
(new / base), the number of pairs the new side won, in the direction
``BENCHMARK.json`` gives, the metric's ``bound`` there, and ``worse_by``: how
far the new median is worse than the base's, as a fraction of the base's (0
if it is not worse), to be read against ``bound``.  With ``--trace-seconds``
it adds one ``--trace 1`` run per side and workload and records every
per-layer metric it prints.

    python3 scripts/bench_pairs.py ../base . --pairs 10 --seconds 50 \\
        --seed 11 --trace-seconds 10 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``nvbench/run.py`` run in ``checkout``; its final JSON line."""
    cmd = [sys.executable, "nvbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} printed nothing:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def summarise(runs: list) -> dict:
    names = sorted(set().union(*(r["metrics"] for r in runs)))
    return {"runs": len(runs),
            "correct": sum(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {n: quartiles([r["metrics"][n] for r in runs
                                      if n in r["metrics"]]) for n in names}}


def compare(base: list, new: list, spec: list) -> dict:
    """Per end-to-end metric of ``spec`` (``BENCHMARK.json``'s list): how the
    new side's runs compare with the base side's, pair by pair."""
    out = {}
    for metric in spec:
        name, way = metric["name"], metric["better"]
        pairs = [(b["metrics"][name], n["metrics"][name]) for b, n in zip(base, new)
                 if name in b["metrics"] and name in n["metrics"]]
        if not pairs:
            continue
        wins = sum((n > b) if way == "higher" else (n < b) for b, n in pairs)
        b_med = statistics.median(b for b, _ in pairs)
        n_med = statistics.median(n for _, n in pairs)
        worse = (b_med - n_med) if way == "higher" else (n_med - b_med)
        out[name] = {"better": way, "ratio": n_med / b_med if b_med else None,
                     "new_wins": wins, "pairs": len(pairs),
                     "bound": metric.get("bound"),
                     "worse_by": max(0.0, worse / abs(b_med)) if b_med else None}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="checkout directory of the base side")
    ap.add_argument("new", help="checkout directory of the new side")
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="default: every workload in the new side's BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--seed", type=int, default=11,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--trace-seconds", type=float, default=0,
                    help="also make one --trace 1 run per side and workload")
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(args.new, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = {"base": args.base, "new": args.new}
    report = {"command": spec["command"], "pairs": args.pairs,
              "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = {"base": [], "new": []}
        seeds = [args.seed + i for i in range(args.pairs)]
        for i, seed in enumerate(seeds):
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for side in order:
                result = run(sides[side], workload, seed, args.seconds, 0)
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                      f"histories_per_s={result['metrics'].get('histories_per_s')}",
                      file=sys.stderr, flush=True)
        entry = {"seeds": seeds,
                 "base": summarise(runs["base"]), "new": summarise(runs["new"]),
                 "compare": compare(runs["base"], runs["new"], spec["end_to_end"])}
        if args.trace_seconds:
            entry["trace"] = {side: run(path, workload, args.trace_seed,
                                        args.trace_seconds, 1)
                              for side, path in sides.items()}
            entry["trace"]["seed"] = args.trace_seed
            entry["trace"]["seconds"] = args.trace_seconds
        report["workloads"][workload] = entry
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
