"""Traced run (``--trace 1``): per-layer metrics and a span trace.

Every layer is measured from outside, through subclasses and wrappers defined
here; nothing under ``src/`` is edited.  The probes are fixed-size and seeded,
so the counts among them repeat exactly for a given seed and workload:

* runtime  -- ``native.*_ns`` and ``sim.*_ns``/``sim.crash_us``: the memory API
  timed in a loop; ``sched.*``: a timing ``SimRuntime`` subclass installed in
  ``harness`` while the first sweep units run.
* per-op access counts -- a counting single-process ``SimRuntime`` replays each
  variant's native op streams (``<v>.reads_per_op`` ...).
* structures -- per-op latency percentiles, CAS failure share (counting
  ``NativeRuntime`` subclass) and elimination visits (``EliminationStack``
  subclass), from a latency pass on 2 threads.
* harness / checker -- wrappers around ``run_schedule``, ``run_direct``,
  ``check_nrl`` and ``check_strict_recoverability`` over fixed verify units.
* setup -- the median set-up split into imports, streams and prefill.

Last, a slice of the workload (one native round per variant and the first
verify units) runs untraced and then traced: one span per call into a
layer's public function (name, start, end, parent), kept in memory and
written to ``.nvbench_out/`` at the end.  ``self.<layer>_share`` is each
layer's self time over the summed self time of all layers, taken over the
driving threads: sim worker threads are left out, because in threaded mode
their work already sits inside the ``grant_step`` span that resumed them
(so the threaded sweep's structure time counts as runtime).
``trace.overhead_share`` compares the two runs of the slice.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import json
import os
import statistics
import threading
import time
from array import array
from collections import defaultdict

import native
import verify
import run as bench

OUT_DIR = os.path.join(os.path.dirname(bench.HERE), ".nvbench_out")
LOOP_CALLS = 50_000            # per timing repetition of one memory-API call
LOOP_REPS = 5
CRASH_CELLS = 256              # dirty volatile cells per timed crash()
CRASH_REPS = 200
COUNT_OPS = 1_500              # per thread, replayed on the counting SimRuntime
LATENCY_OPS = 8_000            # per variant, split over the worker threads
SWEEP_PROBE_UNITS = 5          # one per sweep structure
DIRECT_PROBE_UNITS = 9         # three per direct structure
SLICE_OPS = 600                # per variant in the traced slice
SLICE_SWEEP_UNITS = 2
SLICE_DIRECT_UNITS = 3
REFERENCE_S = 3.0              # untraced rounds behind the ratio.* metrics

VARIANT_LAYER = {"list": "rlist", "bst": "rbst", "stack": "rstack"}
LAYER_OF_STRUCTURE = {"list": "rlist", "list-flush": "rlist", "bst": "rbst",
                      "stack": "rstack", "exchanger": "rexchanger"}
RUNTIME_API = ("read", "write", "cas", "cas_fetch", "flush", "new_cell",
               "invoke_reset")
SIM_API = RUNTIME_API + ("grant_step", "start_workers", "close",
                         "dispatch_recovery", "crash", "invoke", "run_ops_direct")
# rexchanger runs only inside sim worker threads, so it has no self time here
LAYERS = ("runtime", "rlist", "rbst", "rstack", "harness", "checker")


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def pct(xs, q: float) -> float:
    s = sorted(xs)
    return s[min(len(s) - 1, int(len(s) * q))] if s else 0.0


@contextlib.contextmanager
def patched(*triples):
    """Temporarily set ``(obj, attr, value)`` triples; restore on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in triples]
    try:
        for obj, attr, value in triples:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def timed(fn, samples: list):
    """Wrapper appending each call's duration in ns to ``samples``."""
    now = time.perf_counter_ns

    def call(*args, **kwargs):
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(now() - t0)
    return call


# ---------------------------------------------------------------------------
# Runtime: memory API loops
# ---------------------------------------------------------------------------

def per_call_ns(fn, *args) -> float:
    reps = []
    for _ in range(LOOP_REPS):
        t0 = time.perf_counter_ns()
        for _ in range(LOOP_CALLS):
            fn(*args)
        reps.append((time.perf_counter_ns() - t0) / LOOP_CALLS)
    return median(reps)


def runtime_loops(nv, seed: int) -> dict:
    out = {}
    rt = nv.NativeRuntime(2, seed=seed)
    cell = rt.new_cell(0)
    out["native.read_ns"] = per_call_ns(rt.read, 0, cell)
    out["native.write_ns"] = per_call_ns(rt.write, 0, cell, 0)
    out["native.cas_ns"] = per_call_ns(rt.cas, 0, cell, 0, 0)
    out["native.cas_fetch_ns"] = per_call_ns(rt.cas_fetch, 0, cell, 0, 0)
    out["native.flush_ns"] = per_call_ns(rt.flush, 0, cell)
    out["native.new_cell_ns"] = per_call_ns(rt.new_cell, 0)
    out["native.invoke_reset_ns"] = per_call_ns(rt.invoke_reset, 0)

    sim = nv.SimRuntime(1, step_budget=2 ** 62, seed=seed)
    cell = sim.new_cell(0)
    out["sim.read_ns"] = per_call_ns(sim.read, 0, cell)
    out["sim.cas_ns"] = per_call_ns(sim.cas, 0, cell, 0, 0)
    out["sim.flush_ns"] = per_call_ns(sim.flush, 0, cell)

    sim = nv.SimRuntime(1, cache="volatile", step_budget=2 ** 62, seed=seed)
    sim.record(False)
    cells = [sim.new_cell(0) for _ in range(CRASH_CELLS)]
    samples = []
    for i in range(CRASH_REPS):
        for c in cells:
            c.v = i + 1                     # cached, not persisted: dirty
        t0 = time.perf_counter_ns()
        sim.crash()
        samples.append(time.perf_counter_ns() - t0)
    out["sim.crash_us"] = median(samples) / 1e3
    return out


# ---------------------------------------------------------------------------
# Per-op access counts on a counting single-process SimRuntime
# ---------------------------------------------------------------------------

def counting_sim(nv):
    base = nv.SimRuntime

    class CountingSim(base):
        """Counts reads, writes, CAS (incl. cas_fetch), flushes and cells."""

        def __init__(self, nprocs, **kwargs):
            kwargs["step_budget"] = 2 ** 62       # ops run outside invoke()
            super().__init__(nprocs, **kwargs)
            self.n = [0, 0, 0, 0, 0]

        def read(self, pid, cell):
            self.n[0] += 1
            return base.read(self, pid, cell)

        def write(self, pid, cell, value):
            self.n[1] += 1
            return base.write(self, pid, cell, value)

        def cas(self, pid, cell, expected, new, note=None):
            self.n[2] += 1
            return base.cas(self, pid, cell, expected, new, note)

        def cas_fetch(self, pid, cell, expected, new):
            self.n[2] += 1
            return base.cas_fetch(self, pid, cell, expected, new)

        def flush(self, pid, cell):
            self.n[3] += 1
            return base.flush(self, pid, cell)

        def new_cell(self, value, *, durable=None, owner=None):
            self.n[4] += 1
            return base.new_cell(self, value, durable=durable, owner=owner)

    return CountingSim


def access_counts(nv, seed: int, read_pct: int, streams: dict) -> tuple:
    """Replay each thread's stream prefix sequentially on one SimRuntime."""
    out = {}
    problems = []
    attempted = failed = 0
    for v in native.build_variants(nv, native.VARIANTS, seed, read_pct,
                                   runtime_cls=counting_sim(nv), streams=streams):
        v.rt.n = [0] * 5                     # drop the prefill's accesses
        ops = 0
        for pid in range(native.THREADS):
            chunk = v.streams[pid][:COUNT_OPS]
            res = {}
            v.worker(v.table, v.reset, chunk, pid, res)
            v._account(chunk, res[pid][0])
            failed += res[pid][1]
            ops += len(chunk)
        attempted += ops
        for i, what in enumerate(("reads", "writes", "cas", "flushes", "cells")):
            out[f"{v.name}.{what}_per_op"] = v.rt.n[i] / ops
        why = v.check()
        if why:
            problems.append(f"{v.name} (SimRuntime replay): {why}")
    return out, problems, attempted, failed


# ---------------------------------------------------------------------------
# Structures: latency, CAS failures and elimination visits on NativeRuntime
# ---------------------------------------------------------------------------

def counting_native(nv):
    base = nv.NativeRuntime

    class CountingNative(base):
        """Counts CAS attempts and failures per process."""

        def __init__(self, nprocs, **kwargs):
            super().__init__(nprocs, **kwargs)
            self.cas_n = [0] * nprocs
            self.cas_failed = [0] * nprocs

        def cas(self, pid, cell, expected, new, note=None):
            ok = base.cas(self, pid, cell, expected, new, note)
            if pid is not None:
                self.cas_n[pid] += 1
                self.cas_failed[pid] += not ok
            return ok

        def cas_fetch(self, pid, cell, expected, new):
            old = base.cas_fetch(self, pid, cell, expected, new)
            if pid is not None:
                self.cas_n[pid] += 1
                self.cas_failed[pid] += old != expected
            return old

    return CountingNative


def visiting_stack(nv):
    base = nv.EliminationStack

    class VisitingStack(base):
        """Counts elimination-layer visits and their timeouts per process."""

        def __init__(self, m, **kwargs):
            super().__init__(m, **kwargs)
            self.visits = [0] * m.nprocs
            self.timeouts = [0] * m.nprocs

        def visit(self, p, value, cells, duration):
            r = base.visit(self, p, value, cells, duration)
            self.visits[p] += 1
            self.timeouts[p] += r is nv.TIMEOUT
            return r

    return VisitingStack


def latency_worker(lat: dict, is_stack: bool):
    """A native worker that also records each op's latency in ns by op code."""
    now = time.perf_counter_ns

    def work(table, reset, ops, pid, out):
        res = []
        failed = 0
        samples = {code: [] for code in (native.FIND, native.INSERT, native.DELETE)}
        for code, key in ops:
            if reset is not None:
                reset(pid)
            t0 = now()
            try:
                if is_stack:
                    r = table[1](pid, key) if code == native.INSERT else table[2](pid)
                else:
                    r = table[code](pid, key)
            except Exception:
                failed += 1
                r = None
            samples[code].append(now() - t0)
            res.append(r)
        for code, xs in samples.items():
            lat[code].extend(xs)                 # list.extend is atomic
        out[pid] = (res, failed)
    return work


def structure_pass(nv, seed: int, read_pct: int, streams: dict) -> tuple:
    visiting = visiting_stack(nv)

    def make(nv_, name, rt, seed_):
        if name == "stack_rec":
            return visiting(rt, seed=seed_)
        return native.make_structure(nv_, name, rt, seed_)

    out = {}
    problems = []
    attempted = failed = 0
    for v in native.build_variants(nv, native.VARIANTS, seed, read_pct,
                                   runtime_cls=counting_native(nv),
                                   streams=streams, make=make):
        lat = defaultdict(list)
        v.worker = latency_worker(lat, v.is_stack)
        v.run(LATENCY_OPS)
        attempted += v.attempted
        failed += v.failed
        if v.is_stack:
            names = {native.INSERT: "push", native.DELETE: "pop"}
        else:
            names = {native.FIND: "contains" if v.name.startswith("bst") else "find",
                     native.INSERT: "insert", native.DELETE: "delete"}
        for code, op in names.items():
            out[f"{v.name}.{op}_p50_us"] = pct(lat[code], 0.50) / 1e3
            out[f"{v.name}.{op}_p99_us"] = pct(lat[code], 0.99) / 1e3
        out[f"{v.name}.cas_fail_share"] = (sum(v.rt.cas_failed)
                                           / max(1, sum(v.rt.cas_n)))
        if v.name == "stack_rec":
            visits = sum(v.obj.visits)
            out["stack_rec.visits_per_op"] = visits / LATENCY_OPS
            out["stack_rec.visit_timeout_share"] = sum(v.obj.timeouts) / max(1, visits)
        why = v.check()
        if why:
            problems.append(f"{v.name} (latency pass): {why}")
    return out, problems, attempted, failed


# ---------------------------------------------------------------------------
# Scheduler, harness and checker over fixed verify units
# ---------------------------------------------------------------------------

def timing_sim(nv, acc: dict):
    """``SimRuntime`` subclass adding each scheduler call's ns to ``acc``."""
    base = nv.SimRuntime

    def add(name, t0):
        a = acc[name]
        a[0] += 1
        a[1] += time.perf_counter_ns() - t0

    class TimingSim(base):
        def grant_step(self, pid):
            t0 = time.perf_counter_ns()
            ok = base.grant_step(self, pid)
            add("grant_step", t0)
            acc["granted"][0] += ok
            return ok

        def start_workers(self, workload):
            t0 = time.perf_counter_ns()
            base.start_workers(self, workload)
            add("start_workers", t0)

        def close(self):
            t0 = time.perf_counter_ns()
            base.close(self)
            add("close", t0)

        def dispatch_recovery(self, pid):
            t0 = time.perf_counter_ns()
            base.dispatch_recovery(self, pid)
            add("dispatch_recovery", t0)

        def crash(self, policy=None):
            t0 = time.perf_counter_ns()
            base.crash(self, policy)
            add("crash", t0)

    return TimingSim


def mean_us(a) -> float:
    return a[1] / a[0] / 1e3 if a[0] else 0.0


def sweep_probe(nv, seed: int) -> tuple:
    harness = nv.harness
    plan = verify.Plan(nv, "sweep", seed)
    acc = defaultdict(lambda: [0, 0])
    runs: list = []
    with patched((harness, "SimRuntime", timing_sim(nv, acc)),
                 (harness, "run_schedule", timed(harness.run_schedule, runs))):
        stats = verify.run_phase(plan, 0.0, min_units=SWEEP_PROBE_UNITS)
    sched_ns = sum(acc[k][1] for k in ("grant_step", "start_workers", "close",
                                       "dispatch_recovery", "crash"))
    out = {
        "sched.grant_calls_per_step": acc["grant_step"][0] / max(1, acc["granted"][0]),
        "sched.grant_us": mean_us(acc["grant_step"]),
        "sched.start_workers_ms": mean_us(acc["start_workers"]) / 1e3,
        "sched.close_ms": mean_us(acc["close"]) / 1e3,
        "sched.recover_dispatch_us": mean_us(acc["dispatch_recovery"]),
        "sched.busy_share": sched_ns / max(1, sum(runs)),
        "harness.run_schedule_ms_p50": pct(runs, 0.50) / 1e6,
        "harness.run_schedule_ms_p99": pct(runs, 0.99) / 1e6,
        "harness.steps_per_history": stats.steps / max(1, stats.histories),
        "harness.inconclusive_share": stats.inconclusive / max(1, stats.histories),
        "harness.sweep_histories": stats.histories,
    }
    return out, stats


def direct_probe(nv, seed: int) -> tuple:
    harness, checker = nv.harness, nv.checker
    plan = verify.Plan(nv, "direct", seed)
    runs, nrl, strict = [], [], []
    ops_seen = [0]
    check_nrl = timed(checker.check_nrl, nrl)
    invoke = nv.runtime.Invoke

    def counting_nrl(history, model, **kwargs):
        verdict = check_nrl(history, model, **kwargs)
        ops_seen[0] += sum(isinstance(e, invoke) for e in history)
        return verdict

    with patched((harness, "run_direct", timed(harness.run_direct, runs)),
                 (checker, "check_nrl", counting_nrl),
                 (checker, "check_strict_recoverability",
                  timed(checker.check_strict_recoverability, strict))):
        stats = verify.run_phase(plan, 0.0, min_units=DIRECT_PROBE_UNITS)
    out = {
        "harness.run_direct_us_p50": pct(runs, 0.50) / 1e3,
        "harness.run_direct_us_p99": pct(runs, 0.99) / 1e3,
        "harness.direct_histories": stats.histories,
        "checker.nrl_us_p50": pct(nrl, 0.50) / 1e3,
        "checker.nrl_us_p99": pct(nrl, 0.99) / 1e3,
        "checker.strict_us_p50": pct(strict, 0.50) / 1e3,
        "checker.ops_per_history": ops_seen[0] / max(1, len(nrl)),
        "checker.share": (sum(nrl) + sum(strict)) / 1e9 / max(stats.seconds, 1e-9),
    }
    return out, stats


# ---------------------------------------------------------------------------
# Span tracing
# ---------------------------------------------------------------------------

class _Buffer:
    __slots__ = ("thread", "name", "parent", "t0", "t1", "stack")

    def __init__(self, thread: str):
        self.thread = thread
        self.name = array("H")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack = [-1]


class Tracer:
    """Spans in per-thread buffers: (name, start, end, parent index)."""

    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self.buffers: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        b = getattr(self._local, "b", None)
        if b is None:
            b = self._local.b = _Buffer(threading.current_thread().name)
            with self._lock:
                self.buffers.append(b)
        return b

    def wrap(self, layer: str, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        buffer, now = self._buffer, time.perf_counter_ns

        def traced(*args, **kwargs):
            b = buffer()
            i = len(b.name)
            b.name.append(nid)
            b.parent.append(b.stack[-1])
            b.t1.append(0)
            b.stack.append(i)
            b.t0.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                b.t1[i] = now()
                b.stack.pop()
        return traced

    def subclass(self, base, layer: str, methods):
        ns = {m: self.wrap(layer, f"{base.__name__}.{m}", getattr(base, m))
              for m in methods}
        return type(f"Traced{base.__name__}", (base,), ns)

    def span_count(self) -> int:
        return sum(len(b.name) for b in self.buffers)

    def self_time(self) -> dict:
        """Self ns per layer over the driving threads (not sim workers)."""
        per_layer = defaultdict(int)
        layers = self.layers
        for b in self.buffers:
            if b.thread.startswith("simproc-"):
                continue
            n = len(b.name)
            child = [0] * n
            for i in range(n):
                p = b.parent[i]
                if p >= 0:
                    child[p] += b.t1[i] - b.t0[i]
            for i in range(n):
                per_layer[layers[b.name[i]]] += b.t1[i] - b.t0[i] - child[i]
        return per_layer

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("thread,span,name,start_ns,end_ns,parent\n")
            for t, b in enumerate(self.buffers):
                names = self.names
                fh.writelines(
                    f"{t}:{b.thread},{i},{names[b.name[i]]},{b.t0[i]},{b.t1[i]},{b.parent[i]}\n"
                    for i in range(len(b.name)))


def traced_adapter(tracer: Tracer, structure: str, adapter):
    layer = LAYER_OF_STRUCTURE[structure]
    ops = {n: dataclasses.replace(
        op, call=tracer.wrap(layer, f"{layer}.{n}", op.call),
        recover=tracer.wrap(layer, f"{layer}.{n}_recover", op.recover))
        for n, op in adapter.ops.items()}
    return dataclasses.replace(adapter, ops=ops)


def run_slice(variants: list, plan, units: int) -> tuple:
    """One round of ``SLICE_OPS`` per variant, then the first ``units``
    verify units; returns (seconds, verify stats)."""
    t0 = time.perf_counter()
    for v in variants:
        v.run(SLICE_OPS)
    stats = verify.run_phase(plan, 0.0, min_units=units)
    return time.perf_counter() - t0, stats


def traced_slice(nv, variants: list, plan, mode: str, path: str) -> tuple:
    units = SLICE_SWEEP_UNITS if mode == "sweep" else SLICE_DIRECT_UNITS
    plain_s, plain = run_slice(variants, plan, units)

    tracer = Tracer()
    harness, checker = nv.harness, nv.checker
    traced_native = tracer.subclass(nv.NativeRuntime, "runtime", RUNTIME_API)
    traced_sim = tracer.subclass(nv.SimRuntime, "runtime", SIM_API)
    saved = [(v, v.rt.__class__, v.table, v.reset) for v in variants]
    adapters = dict(plan.adapters)
    for v in variants:
        layer = VARIANT_LAYER[v.name.split("_")[0]]
        v.rt.__class__ = traced_native
        v.table = tuple(None if f is None else tracer.wrap(layer, f"{layer}.{f.__name__}", f)
                        for f in v.table)
        if v.reset is not None:
            v.reset = v.rt.invoke_reset
    plan.adapters = {s: traced_adapter(tracer, s, a) for s, a in adapters.items()}
    hw = lambda name: tracer.wrap("harness", f"harness.{name}", getattr(harness, name))
    cw = lambda mod, name: tracer.wrap("checker", f"checker.{name}", getattr(mod, name))
    try:
        with patched((harness, "SimRuntime", traced_sim),
                     (harness, "run_schedule", hw("run_schedule")),
                     (harness, "run_direct", hw("run_direct")),
                     (harness, "detectability_sweep", hw("detectability_sweep")),
                     (harness, "check_nrl", cw(harness, "check_nrl")),
                     (harness, "check_strict_recoverability",
                      cw(harness, "check_strict_recoverability")),
                     (checker, "check_nrl", cw(checker, "check_nrl")),
                     (checker, "check_strict_recoverability",
                      cw(checker, "check_strict_recoverability"))):
            traced_s, traced = run_slice(variants, plan, units)
    finally:
        plan.adapters = adapters
        for v, cls, table, reset in saved:
            v.rt.__class__, v.table, v.reset = cls, table, reset

    selfs = tracer.self_time()
    total = sum(selfs[l] for l in LAYERS) or 1
    out = {f"self.{l}_share": selfs[l] / total for l in LAYERS}
    out["trace.overhead_share"] = (traced_s - plain_s) / traced_s
    problems = []
    if (plain.histories, plain.steps) != (traced.histories, traced.steps):
        problems.append(f"traced slice ran {traced.histories} histories / "
                        f"{traced.steps} steps, untraced {plain.histories} / "
                        f"{plain.steps}")
    spans = tracer.span_count()
    tracer.write(path)
    return out, problems, [plain, traced], spans


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_traced(args) -> int:
    cfg = bench.WORKLOADS[args.workload]
    nv, variants, plan, parts, _ = bench.set_up_repeated(args.workload, args.seed)
    metrics = {f"setup.{k}_ms": v * 1e3 for k, v in parts.items()}
    problems, attempted, failed = [], 0, 0
    streams = native.make_streams(args.seed, cfg["read_pct"])

    metrics.update(runtime_loops(nv, args.seed))
    for probe in (access_counts, structure_pass):
        out, probs, att, fail = probe(nv, args.seed, cfg["read_pct"], streams)
        metrics.update(out)
        problems += probs
        attempted += att
        failed += fail
    for probe in (sweep_probe, direct_probe):
        out, stats = probe(nv, args.seed)
        metrics.update(out)
        problems += stats.details
        attempted += stats.histories
        failed += stats.failed

    native.warm_up(variants)
    native.run_rounds(variants, REFERENCE_S)
    kops = {v.name: median(v.rates) for v in variants}
    metrics["ratio.list_rec_over_base"] = kops["list_rec"] / kops["list_base"]
    metrics["ratio.list_flush_over_rec"] = kops["list_flush"] / kops["list_rec"]
    metrics["ratio.bst_rec_over_base"] = kops["bst_rec"] / kops["bst_base"]
    metrics["ratio.stack_rec_over_base"] = kops["stack_rec"] / kops["stack_base"]

    path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv.gz")
    out, probs, slices, spans = traced_slice(nv, variants, plan, cfg["verify"], path)
    metrics.update(out)
    problems += probs
    for s in slices:
        problems += s.details
        attempted += s.histories
        failed += s.failed
    for v in variants:
        why = v.check()
        if why:
            problems.append(f"{v.name}: {why}")
            v.failed = v.attempted
        attempted += v.attempted
        failed += v.failed

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"trace: {spans} spans written to {os.path.relpath(path)}")
    print(f"env = {json.dumps(bench.environment())}")
    for p in problems:
        print(f"FAILED {p}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1].split("_")
    for unit in ("ns", "us", "ms"):
        if unit in last:
            return unit
    if name.startswith("ratio.") or last[-1] == "share":
        return "ratio"
    return "1/op" if name.endswith("_per_op") else "count"
