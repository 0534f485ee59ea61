"""Throughput benchmarks on the native backend.

One protocol, the paper's: prefill the structure with ``PREFILL`` inserts,
then spawn ``threads`` workers that each execute their share of
``total_ops`` operations drawn from a seeded stream (``read_pct`` lookups,
the remainder split evenly between inserts and deletes, keys uniform in
``[KEY_LO, KEY_HI]``).  Throughput is total completed operations over wall
time; runs are repeated and averaged.  ``seed`` picks a sample of the
protocol, and is how a run is repeated.

``timing="steps"`` replaces wall time with the simulated backend's
shared-access count (single-threaded only), which makes the emitted CSV
bit-stable for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from .rbst import BaselineBst, RecoverableBst
from .rlist import BaselineList, RecoverableList
from .rstack import BaselineStack, EliminationStack
from .runtime import NativeRuntime, SimRuntime

# (structure, variant) -> factory(rt, seed); list-flush has no base variant,
# because the flush protocol only exists for the recoverable list
BUILDERS = {
    ("list", "base"): lambda rt, seed: BaselineList(rt),
    ("list", "recoverable"): lambda rt, seed: RecoverableList(rt),
    ("list-flush", "recoverable"):
        lambda rt, seed: RecoverableList(rt, flush_protocol=True),
    ("stack", "base"): lambda rt, seed: BaselineStack(rt, seed=seed),
    ("stack", "recoverable"): lambda rt, seed: EliminationStack(rt, seed=seed),
    ("bst", "base"): lambda rt, seed: BaselineBst(rt),
    ("bst", "recoverable"): lambda rt, seed: RecoverableBst(rt),
}
STRUCTURES = tuple(dict.fromkeys(s for s, _ in BUILDERS))
VARIANTS = tuple(dict.fromkeys(v for _, v in BUILDERS))
TIMINGS = ("wall", "steps")

FIND, INSERT, DELETE = 0, 1, 2
KEY_LO, KEY_HI, PREFILL = 1, 500, 250      # the paper's protocol
_SIM_STEP_SECONDS = 1e-7     # steps-timing mode: one shared access = 100ns


class ConfigError(ValueError):
    pass


@dataclass
class BenchConfig:
    structure: str = "list"
    variant: str = "recoverable"
    threads: int = 8
    total_ops: int = 1_000_000
    read_pct: int = 30
    runs: int = 10
    seed: int = 42
    timing: str = "wall"            # one of TIMINGS

    def validate(self) -> None:
        if (self.structure, self.variant) not in BUILDERS:
            pairs = ", ".join(f"{s}/{v}" for s, v in BUILDERS)
            raise ConfigError(f"no {self.structure}/{self.variant} benchmark; "
                              f"structure/variant must be one of: {pairs}")
        if self.threads < 1 or self.total_ops < 1 or self.runs < 1:
            raise ConfigError("threads, total_ops and runs must be positive")
        if not 0 <= self.read_pct <= 100:
            raise ConfigError("read_pct must be in [0, 100]")
        if self.structure == "stack" and self.read_pct != 0:
            raise ConfigError("the stack has no read operation; use "
                              "--read-pct 0 for stack benchmarks")
        if self.timing not in TIMINGS:
            raise ConfigError(f"timing must be one of {TIMINGS}")
        if self.timing == "steps" and self.threads != 1:
            raise ConfigError("steps timing is single-threaded")


@dataclass
class BenchResult:
    config: BenchConfig
    throughputs: list                   # Mops/s per run

    @property
    def mean_mops(self) -> float:
        return statistics.fmean(self.throughputs)

    @property
    def stddev(self) -> float:
        if len(self.throughputs) < 2:
            return 0.0
        return statistics.stdev(self.throughputs)


def build_structure(cfg: BenchConfig, rt) -> Any:
    return BUILDERS[cfg.structure, cfg.variant](rt, cfg.seed)


def op_stream(cfg: BenchConfig, run: int, tid: int, count: int) -> list:
    """Deterministic (op, key) stream; independent of structure/variant."""
    rng = random.Random(f"{cfg.seed}:{run}:{tid}")
    ops = []
    for _ in range(count):
        r = rng.random() * 100.0
        key = rng.randint(KEY_LO, KEY_HI)
        if r < cfg.read_pct:
            ops.append((FIND, key))
        elif r < cfg.read_pct + (100.0 - cfg.read_pct) / 2.0:
            ops.append((INSERT, key))
        else:
            ops.append((DELETE, key))
    return ops


def _op_table(cfg: BenchConfig, structure) -> dict:
    if cfg.structure in ("list", "list-flush"):
        return {FIND: structure.find, INSERT: structure.insert,
                DELETE: structure.delete}
    if cfg.structure == "bst":
        return {FIND: structure.contains, INSERT: structure.insert,
                DELETE: structure.delete}
    return {INSERT: structure.push, DELETE: structure.pop}


def _prefill(cfg: BenchConfig, structure) -> None:
    insert = _op_table(cfg, structure)[INSERT]       # push, for the stack
    rng = random.Random(f"{cfg.seed}:prefill")
    for _ in range(PREFILL):
        insert(0, rng.randint(KEY_LO, KEY_HI))


def _worker(cfg, rt, table, ops, pid) -> None:
    reset = rt.invoke_reset
    recoverable = cfg.variant == "recoverable"
    if cfg.structure == "stack":
        push, pop = table[INSERT], table[DELETE]
        for code, key in ops:
            if recoverable:
                reset(pid)
            push(pid, key) if code == INSERT else pop(pid)
    else:
        for code, key in ops:
            if recoverable:
                reset(pid)
            table[code](pid, key)


def _run_threads(cfg, rt, table, streams) -> None:
    """Run one thread per stream; once all are joined, re-raise the first
    exception a worker raised."""
    errors = []

    def body(pid):
        try:
            _worker(cfg, rt, table, streams[pid], pid)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(t,))
               for t in range(cfg.threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]


def _one_run(cfg: BenchConfig, run: int) -> float:
    """Mops/s of one run."""
    steps = cfg.timing == "steps"
    rt = (SimRuntime(1, step_budget=2 ** 62) if steps
          else NativeRuntime(cfg.threads, seed=cfg.seed))
    structure = build_structure(cfg, rt)
    _prefill(cfg, structure)
    table = _op_table(cfg, structure)
    share, extra = divmod(cfg.total_ops, cfg.threads)
    streams = [op_stream(cfg, run, t, share + (1 if t < extra else 0))
               for t in range(cfg.threads)]

    # steps timing is single-threaded, so it shares the one-thread path
    start = rt.steps if steps else time.perf_counter()
    if cfg.threads == 1:           # on the calling thread: a spawned one is slower
        _worker(cfg, rt, table, streams[0], 0)
    else:
        _run_threads(cfg, rt, table, streams)
    elapsed = ((rt.steps - start) * _SIM_STEP_SECONDS if steps
               else time.perf_counter() - start)
    return cfg.total_ops / elapsed / 1e6


def run_benchmark(cfg: BenchConfig) -> BenchResult:
    cfg.validate()
    return BenchResult(cfg, [_one_run(cfg, run) for run in range(cfg.runs)])


CSV_HEADER = ("structure", "variant", "threads", "read_pct",
              "mean_mops", "stddev")


def emit_results(results: Sequence[BenchResult]) -> str:
    """The results as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in results:
        writer.writerow([
            r.config.structure, r.config.variant, r.config.threads,
            r.config.read_pct, f"{r.mean_mops:.6f}", f"{r.stddev:.6f}",
        ])
    return buf.getvalue()
