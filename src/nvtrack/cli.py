"""Command-line entry points: ``bench`` (native throughput runs) and
``verify`` (crash-injection sweeps on the simulated backend)."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import harness
from .bench import BenchConfig, ConfigError, emit_results, run_benchmark
from .runtime import StepBudgetExceeded


def _bench_parser(sub) -> None:
    p = sub.add_parser("bench", help="run a native-backend throughput benchmark")
    p.add_argument("--structure", default="list",
                   choices=("list", "list-flush", "stack", "bst"))
    p.add_argument("--variant", default="recoverable",
                   choices=("base", "recoverable"))
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--ops", type=int, default=1_000_000)
    p.add_argument("--key-lo", type=int, default=1)
    p.add_argument("--key-hi", type=int, default=500)
    p.add_argument("--read-pct", type=int, default=30)
    p.add_argument("--prefill", type=int, default=250)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", default="csv", choices=("csv",))
    p.add_argument("--timing", default="wall", choices=("wall", "steps"))
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"             # argparse names the type on a bad int
    return parse


def _verify_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser("verify", help="enumerate crash points and check histories")
    p.add_argument("--structure", default="list",
                   choices=sorted(harness.STRUCTURES))
    p.add_argument("--pids", type=_int_at_least(1), default=2)
    p.add_argument("--ops-per-pid", type=_int_at_least(1), default=2)
    p.add_argument("--max-crashes", type=int, default=1, choices=(1, 2),
                   help="crashes per run")
    p.add_argument("--samples", type=_int_at_least(0), default=None,
                   help="sample this many crash points per pattern "
                        "(default: every crash point)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--budget", type=_int_at_least(1), default=600,
                   help="per-operation step budget")
    p.add_argument("--verbose", action="store_true")
    return p


def default_workload(structure: str, pids: int, ops_per_pid: int,
                     seed: int) -> tuple:
    """Deterministic per-pid op lists biased towards same-key contention."""
    import random
    rng = random.Random(f"{seed}:{structure}")
    keys = [5, 7, 5, 9]
    workload = {}
    for pid in range(pids):
        ops = []
        for i in range(ops_per_pid):
            if structure in ("list", "list-flush", "bst"):
                k = keys[(pid + i) % len(keys)]
                ops.append(rng.choice([("insert", (k,)), ("delete", (k,)),
                                       ("insert", (k,))]))
            elif structure == "stack":
                ops.append(("push", (10 * pid + i,)) if (pid + i) % 2 == 0
                           else ("pop", ()))
            else:
                ops.append(("exchange", (100 * pid + i,)))
        workload[pid] = ops
    setup = ()
    if structure in ("list", "list-flush", "bst"):
        setup = (("insert", (5,)),)
        initial = {5}
    elif structure == "stack":
        setup = (("push", (77,)),)
        initial = (77,)
    else:
        initial = None
    return workload, setup, initial


def cmd_bench(args) -> int:
    cfg = BenchConfig(
        structure=args.structure, variant=args.variant, threads=args.threads,
        total_ops=args.ops, key_lo=args.key_lo, key_hi=args.key_hi,
        read_pct=args.read_pct, prefill=args.prefill, runs=args.runs,
        seed=args.seed, timing=args.timing,
    )
    try:
        cfg.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_benchmark(cfg)
    text = emit_results([result])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    adapter = harness.STRUCTURES[args.structure]
    workload, setup, initial = default_workload(
        args.structure, args.pids, args.ops_per_pid, args.seed)
    # the flush-annotated list exists to survive volatile caches; verify it there
    cache = "volatile" if args.structure == "list-flush" else "durable"
    try:           # a set-up that cannot finish would fail every run alike
        harness.prepared_runtime(adapter, args.pids, setup, cache=cache,
                                 step_budget=args.budget)
    except StepBudgetExceeded as exc:
        print(f"error: {exc} needs more than --budget {args.budget} steps",
              file=sys.stderr)
        return 2
    report = harness.detectability_sweep(
        adapter, workload, setup=setup, model_initial=initial,
        max_crashes=args.max_crashes, seed=args.seed,
        step_budget=args.budget, samples=args.samples, cache=cache,
    )
    name = f"{args.structure}.detectability"
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {name}: {report.summary()}")
    if args.verbose or not report.passed:
        for label, detail in report.violations:
            print(f"--- violation [{label}] ---")
            print(detail)
        for label, detail in report.strict_violations:
            print(f"--- strict-recoverability violation [{label}] ---")
            print(detail)
    return 0 if report.passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nvtrack",
        description="recoverable lock-free structures: benchmarks and "
                    "crash-injection verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _bench_parser(sub)
    verify = _verify_parser(sub)
    args = parser.parse_args(argv)
    if args.command == "bench":
        return cmd_bench(args)
    if args.structure == "exchanger" and (args.pids < 2 or args.pids * args.ops_per_pid % 2):
        verify.error("exchanger needs 2 or more --pids and an even --pids times "
                     "--ops-per-pid: an exchange with no partner never completes")
    return cmd_verify(args)


if __name__ == "__main__":
    raise SystemExit(main())
