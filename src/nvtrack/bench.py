"""Throughput benchmarks on the native backend.

The default protocol: prefill the structure, then spawn ``threads`` workers
that each execute their share of ``total_ops`` operations drawn from a seeded
stream (``read_pct`` lookups, the remainder split evenly between inserts and
deletes, keys uniform in ``[key_lo, key_hi]``).  Throughput is total
completed operations over wall time; runs are repeated and averaged.

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
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .rbst import BaselineBst, INF1, RecoverableBst
from .rlist import BaselineList, KEY_MAX, KEY_MIN, RecoverableList
from .rstack import BaselineStack, EliminationStack
from .runtime import NativeRuntime, SimRuntime

STRUCTURES = ("list", "list-flush", "stack", "bst")
VARIANTS = ("base", "recoverable")

FIND, INSERT, DELETE = 0, 1, 2
_SIM_STEP_SECONDS = 1e-7     # steps-timing mode: one shared access = 100ns


class ConfigError(ValueError):
    pass


@dataclass
class BenchConfig:
    structure: str = "list"
    variant: str = "recoverable"
    threads: int = 8
    total_ops: int = 1_000_000
    key_lo: int = 1
    key_hi: int = 500
    read_pct: int = 30
    prefill: int = 250
    runs: int = 10
    seed: int = 42
    timing: str = "wall"            # wall | steps
    record_responses: bool = False  # debug mode: keep per-op responses

    def validate(self) -> None:
        if self.structure not in STRUCTURES:
            raise ConfigError(f"structure must be one of {STRUCTURES}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if self.structure == "list-flush" and self.variant == "base":
            raise ConfigError("list-flush has no base variant: the flush "
                              "protocol only exists for the recoverable list")
        if self.threads < 1 or self.total_ops < 1 or self.runs < 1:
            raise ConfigError("threads, total_ops and runs must be positive")
        if self.prefill < 0:
            raise ConfigError("prefill must not be negative")
        if not 0 <= self.read_pct <= 100:
            raise ConfigError("read_pct must be in [0, 100]")
        if self.structure == "stack" and self.read_pct != 0:
            raise ConfigError("the stack has no read operation; use "
                              "--read-pct 0 for stack benchmarks")
        if not KEY_MIN < self.key_lo <= self.key_hi < min(KEY_MAX, INF1):
            raise ConfigError("key range must fit in the user key domain")
        if self.timing not in ("wall", "steps"):
            raise ConfigError("timing must be 'wall' or 'steps'")
        if self.timing == "steps" and self.threads != 1:
            raise ConfigError("steps timing is single-threaded")


@dataclass
class BenchResult:
    config: BenchConfig
    throughputs: list = field(default_factory=list)   # Mops/s per run
    responses: Optional[list] = None

    @property
    def mean_mops(self) -> float:
        return statistics.fmean(self.throughputs)

    @property
    def stddev(self) -> float:
        if len(self.throughputs) < 2:
            return 0.0
        return statistics.stdev(self.throughputs)


def build_structure(cfg: BenchConfig, rt) -> Any:
    if cfg.structure == "list":
        return (RecoverableList(rt) if cfg.variant == "recoverable"
                else BaselineList(rt))
    if cfg.structure == "list-flush":
        return RecoverableList(rt, flush_protocol=True)
    if cfg.structure == "stack":
        return (EliminationStack(rt, seed=cfg.seed)
                if cfg.variant == "recoverable"
                else BaselineStack(rt, seed=cfg.seed))
    if cfg.structure == "bst":
        return (RecoverableBst(rt) if cfg.variant == "recoverable"
                else BaselineBst(rt))
    raise ConfigError(cfg.structure)


def op_stream(cfg: BenchConfig, run: int, tid: int, count: int) -> list:
    """Deterministic (op, key) stream; independent of structure/variant."""
    rng = random.Random(f"{cfg.seed}:{run}:{tid}")
    ops = []
    for _ in range(count):
        r = rng.random() * 100.0
        key = rng.randint(cfg.key_lo, cfg.key_hi)
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


def _prefill(cfg: BenchConfig, structure, rt) -> None:
    rng = random.Random(f"{cfg.seed}:prefill")
    for _ in range(cfg.prefill):
        key = rng.randint(cfg.key_lo, cfg.key_hi)
        if cfg.structure == "stack":
            structure.push(0, key)
        else:
            structure.insert(0, key)


def _worker(cfg, rt, table, ops, pid, sink):
    reset = rt.invoke_reset
    recoverable = cfg.variant == "recoverable"
    out = [] if sink is not None else None
    if cfg.structure == "stack":
        push, pop = table[INSERT], table[DELETE]
        for code, key in ops:
            if recoverable:
                reset(pid)
            r = push(pid, key) if code == INSERT else pop(pid)
            if out is not None:
                out.append(r)
    else:
        for code, key in ops:
            if recoverable:
                reset(pid)
            r = table[code](pid, key)
            if out is not None:
                out.append(r)
    if sink is not None:
        sink[pid] = out


def _one_run(cfg: BenchConfig, run: int) -> tuple:
    if cfg.timing == "steps":
        rt = SimRuntime(1, step_budget=2 ** 62)
    else:
        rt = NativeRuntime(cfg.threads, seed=cfg.seed)
    structure = build_structure(cfg, rt)
    _prefill(cfg, structure, rt)
    table = _op_table(cfg, structure)
    share = cfg.total_ops // cfg.threads
    counts = [share + (1 if t < cfg.total_ops % cfg.threads else 0)
              for t in range(cfg.threads)]
    streams = [op_stream(cfg, run, t, counts[t]) for t in range(cfg.threads)]
    sink = [None] * cfg.threads if cfg.record_responses else None

    if cfg.timing == "steps":
        start_steps = rt.steps
        _worker(cfg, rt, table, streams[0], 0, sink)
        elapsed = (rt.steps - start_steps) * _SIM_STEP_SECONDS
    elif cfg.threads == 1:
        t0 = time.perf_counter()
        _worker(cfg, rt, table, streams[0], 0, sink)
        elapsed = time.perf_counter() - t0
    else:
        threads = [
            threading.Thread(target=_worker,
                             args=(cfg, rt, table, streams[t], t, sink))
            for t in range(cfg.threads)
        ]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        elapsed = time.perf_counter() - t0
    mops = cfg.total_ops / elapsed / 1e6
    responses = None
    if sink is not None:
        responses = [r for chunk in sink for r in chunk]
    return mops, responses


def run_benchmark(cfg: BenchConfig) -> BenchResult:
    cfg.validate()
    result = BenchResult(cfg)
    for run in range(cfg.runs):
        mops, responses = _one_run(cfg, run)
        result.throughputs.append(mops)
        if cfg.record_responses and responses is not None:
            result.responses = responses
    return result


CSV_HEADER = ("structure", "variant", "threads", "read_pct",
              "mean_mops", "stddev")


def emit_results(results: Sequence[BenchResult], out=None) -> str:
    """Write results as CSV; returns the text (also written to ``out``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in results:
        writer.writerow([
            r.config.structure, r.config.variant, r.config.threads,
            r.config.read_pct, f"{r.mean_mops:.6f}", f"{r.stddev:.6f}",
        ])
    text = buf.getvalue()
    if out is not None:
        out.write(text)
    return text
