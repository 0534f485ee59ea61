"""Command-line entry points: ``bench`` (native throughput runs) and
``verify`` (crash-injection sweeps on the simulated backend)."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from . import bench, harness
from .bench import BenchConfig, ConfigError, emit_results, run_benchmark
from .runtime import StepBudgetExceeded


# the ``BenchConfig`` fields whose flags take a list of values to sweep
_SWEPT = ("structure", "variant", "threads", "read_pct")


def _bench_parser(sub) -> None:
    """One flag per ``BenchConfig`` field, with the field's default; the
    flags of ``_SWEPT`` take one or more values."""
    p = sub.add_parser("bench", help="run native-backend throughput benchmarks")
    choices = {"structure": bench.STRUCTURES, "variant": bench.VARIANTS,
               "timing": bench.TIMINGS}
    for f in dataclasses.fields(BenchConfig):
        flag = "--ops" if f.name == "total_ops" else "--" + f.name.replace("_", "-")
        swept = f.name in _SWEPT
        p.add_argument(flag, dest=f.name, type=type(f.default),
                       default=[f.default] if swept else f.default,
                       nargs="+" if swept else None, choices=choices.get(f.name))
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
    p.add_argument("--structure", nargs="+", default=list(harness.STRUCTURES),
                   choices=sorted(harness.STRUCTURES),
                   help="structures to sweep, in this order (default: all)")
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
    """Run each ``bench.BUILDERS`` pair whose structure and variant are both
    named, for each thread count within each read pct, into one CSV."""
    fixed = {f.name: getattr(args, f.name) for f in dataclasses.fields(BenchConfig)
             if f.name not in _SWEPT}
    # with no named pair in the table, validating the named ones says which are
    pairs = ([(s, v) for s, v in bench.BUILDERS
              if s in args.structure and v in args.variant]
             or [(s, v) for s in args.structure for v in args.variant])
    configs = [BenchConfig(structure=s, variant=v, threads=threads,
                           read_pct=read_pct, **fixed)
               for read_pct in args.read_pct for threads in args.threads
               for s, v in pairs]
    try:           # a bad config or --output fails before any run, not after
        for cfg in configs:
            cfg.validate()
        out = open(args.output, "w") if args.output else sys.stdout
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        out.write(emit_results([run_benchmark(cfg) for cfg in configs]))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_verify(args) -> int:
    sweeps = []
    for structure in args.structure:
        adapter = harness.STRUCTURES[structure]
        workload, setup, initial = default_workload(
            structure, args.pids, args.ops_per_pid, args.seed)
        # the flush-annotated list exists to survive volatile caches; verify it there
        cache = "volatile" if structure == "list-flush" else "durable"
        try:       # a set-up that cannot finish would fail every run alike
            harness.prepared_runtime(adapter, args.pids, setup, cache=cache,
                                     step_budget=args.budget)
        except StepBudgetExceeded as exc:
            print(f"error: {exc} needs more than --budget {args.budget} steps",
                  file=sys.stderr)
            return 2
        sweeps.append((structure, adapter, workload, setup, initial, cache))
    failed = 0
    for structure, adapter, workload, setup, initial, cache in sweeps:
        report = harness.detectability_sweep(
            adapter, workload, setup=setup, model_initial=initial,
            max_crashes=args.max_crashes, seed=args.seed,
            step_budget=args.budget, samples=args.samples, cache=cache,
        )
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {structure}.detectability: {report.summary()}")
        for label, detail in report.violations:      # none if it passed
            print(f"--- violation [{label}] ---\n{detail}")
        for label, detail in report.strict_violations:
            print(f"--- strict-recoverability violation [{label}] ---\n{detail}")
        failed += not report.passed
    return 1 if failed else 0


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
    if "exchanger" in args.structure and (args.pids < 2 or args.pids * args.ops_per_pid % 2):
        verify.error("exchanger needs 2 or more --pids and an even --pids times "
                     "--ops-per-pid: an exchange with no partner never completes")
    return cmd_verify(args)


if __name__ == "__main__":
    raise SystemExit(main())
