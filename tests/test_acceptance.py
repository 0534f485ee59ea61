"""Acceptance criteria.

Each test exercises one gate at its stated bound and prints a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Benchmarks
run at desk scale: the workload mix matches the reference protocol (keys
[1,500], 250-insert prefill, 30%/70% read mixes) while total operation counts
are reduced to keep the suite minutes-long; only ratios are gated.
"""

import contextlib
import os
import random
import statistics
import time

import pytest

from nvtrack.bench import BenchConfig, run_benchmark
from nvtrack.checker import (
    ExchangeModel,
    SetModel,
    StackModel,
    check_nrl,
    check_strict_recoverability,
)
from nvtrack import harness
from nvtrack.harness import (
    STRUCTURES,
    Schedule,
    detectability_sweep,
    run_direct,
    run_schedule,
)
from nvtrack.rlist import KEY_MAX, RecoverableList
from nvtrack.runtime import EMPTY, OpDef, SimRuntime, TIMEOUT, UNSET


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Oracle equivalence: 1e5 random single-process ops per structure
# ---------------------------------------------------------------------------

N_ORACLE = 100_000


def _set_oracle_run(structure: str) -> tuple:
    rt = SimRuntime(1, step_budget=2 ** 62)
    obj = rt.bind(STRUCTURES[structure].make(rt))
    rng = random.Random(f"oracle:{structure}")
    model = set()
    mismatches = 0
    is_bst = structure == "bst"
    t0 = time.perf_counter()
    for _ in range(N_ORACLE):
        k = rng.randrange(64)
        r = rng.random()
        if r < 0.4:
            got, want = obj.insert(0, k), k not in model
            model.add(k)
        elif r < 0.8:
            got, want = obj.delete(0, k), k in model
            model.discard(k)
        elif is_bst:
            got, want = obj.contains(0, k), k in model
        else:
            got, want = obj.find(0, k), k in model
        if got != want:
            mismatches += 1
    return mismatches, time.perf_counter() - t0


def _stack_oracle_run() -> tuple:
    rt = SimRuntime(1, step_budget=2 ** 62)
    obj = rt.bind(STRUCTURES["stack"].make(rt))
    rng = random.Random("oracle:stack")
    model = []
    mismatches = 0
    t0 = time.perf_counter()
    for i in range(N_ORACLE):
        if rng.random() < 0.5:
            got = obj.push(0, i)
            model.append(i)
            want = True
        else:
            got = obj.pop(0)
            want = model.pop() if model else EMPTY
        if got != want:
            mismatches += 1
    return mismatches, time.perf_counter() - t0


def _exchanger_oracle_run() -> tuple:
    # a single process can never collide: every timed exchange must report
    # TIMEOUT and leave the slot free
    rt = SimRuntime(1, step_budget=2 ** 62)
    obj = rt.bind(STRUCTURES["exchanger-timed"].make(rt))
    mismatches = 0
    t0 = time.perf_counter()
    for i in range(N_ORACLE):
        if obj.exchange(0, i, 8) is not TIMEOUT or obj.slot.v is not obj.default:
            mismatches += 1
    return mismatches, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence():
    details = []
    ok = True
    for structure in ("list", "list-flush", "bst"):
        mism, secs = _set_oracle_run(structure)
        details.append(f"{structure}: {mism} mismatches in {secs:.1f}s")
        ok &= mism == 0 and secs < 60
    mism, secs = _stack_oracle_run()
    details.append(f"stack: {mism} mismatches in {secs:.1f}s")
    ok &= mism == 0 and secs < 60
    mism, secs = _exchanger_oracle_run()
    details.append(f"exchanger: {mism} mismatches in {secs:.1f}s")
    ok &= mism == 0 and secs < 60
    _report("criterion-1 oracle-equivalence (1e5 ops/structure)", ok,
            "; ".join(details))


# ---------------------------------------------------------------------------
# 2. Crash-point detectability: 2 pids x 2 ops/pid x 1 crash, exhaustive
# ---------------------------------------------------------------------------

SWEEPS = {
    "list": [
        ({0: [("insert", (5,)), ("delete", (5,))],
          1: [("delete", (5,)), ("insert", (5,))]}, (("insert", (3,)),), {3}),
        ({0: [("insert", (5,)), ("insert", (7,))],
          1: [("delete", (7,)), ("find", (5,))]}, (), set()),
    ],
    "stack": [
        ({0: [("push", (1,)), ("pop", ())],
          1: [("pop", ()), ("push", (2,))]}, (("push", (9,)),), (9,)),
        ({0: [("pop", ()), ("pop", ())],
          1: [("push", (1,)), ("push", (2,))]}, (), ()),
    ],
    "bst": [
        ({0: [("insert", (5,)), ("delete", (5,))],
          1: [("delete", (5,)), ("insert", (7,))]}, (("insert", (3,)),), {3}),
        ({0: [("insert", (4,)), ("insert", (6,))],
          1: [("delete", (4,)), ("contains", (6,))]}, (), set()),
    ],
    "exchanger": [
        ({0: [("exchange", (10,)), ("exchange", (11,))],
          1: [("exchange", (20,)), ("exchange", (21,))]}, (), None),
    ],
}

_sweep_reports = {}


def _run_sweeps(structure):
    if structure not in _sweep_reports:
        reports = []
        for i, (wl, setup, initial) in enumerate(SWEEPS[structure]):
            reports.append(detectability_sweep(
                STRUCTURES[structure], wl, setup=setup, model_initial=initial,
                seed=40 + i, step_budget=400))
        _sweep_reports[structure] = reports
    return _sweep_reports[structure]


def test_criterion_2_crash_point_detectability():
    ok = True
    details = []
    for structure in ("list", "stack", "bst", "exchanger"):
        t0 = time.perf_counter()
        reports = _run_sweeps(structure)
        secs = time.perf_counter() - t0
        total = sum(r.total for r in reports)
        viol = sum(len(r.violations) for r in reports)
        inc = sum(r.inconclusive for r in reports)
        details.append(f"{structure}: {total} histories, {viol} violations, "
                       f"{inc} inconclusive, {secs:.0f}s")
        ok &= viol == 0 and secs < 600
        for r in reports:
            for label, d in r.violations[:2]:
                details.append(f"  [{label}] {d}")
    _report("criterion-2 detectability (2x2x1 exhaustive)", ok,
            "; ".join(details))


# ---------------------------------------------------------------------------
# 3. Arbitration uniqueness under contention and crashes
# ---------------------------------------------------------------------------

def test_criterion_3_arbitration_uniqueness():
    def one_true(out):
        if out.inconclusive:
            return None
        vals = [e.value for e in out.history if hasattr(e, "value")]
        if sum(1 for v in vals if v is True) != 1:
            return f"expected exactly one successful delete: {vals}"
        return None

    list_rep = detectability_sweep(
        STRUCTURES["list"], {0: [("delete", (5,))], 1: [("delete", (5,))]},
        setup=(("insert", (5,)),), model_initial={5}, seed=30,
        step_budget=400, check_responses=one_true)

    def one_winner(out):
        if out.inconclusive:
            return None
        vals = [e.value for e in out.history if hasattr(e, "value")]
        if sum(1 for v in vals if v == 77) != 1:
            return f"expected exactly one pop to win the node: {vals}"
        return None

    stack_rep = detectability_sweep(
        STRUCTURES["stack"], {0: [("pop", ())], 1: [("pop", ())]},
        setup=(("push", (77,)),), model_initial=(77,), seed=31,
        step_budget=400, check_responses=one_winner)

    ok = list_rep.passed and stack_rep.passed
    _report("criterion-3 arbitration-uniqueness", ok,
            f"list: {list_rep.summary()}; stack: {stack_rep.summary()}; "
            + "; ".join(str(v) for r in (list_rep, stack_rep)
                        for v in r.violations[:2]))


# ---------------------------------------------------------------------------
# 4. Idempotent recovery under a second crash during recovery
# ---------------------------------------------------------------------------

def _double_crash_scan(structure, op, args, setup, initial, final_state):
    adapter = STRUCTURES[structure]
    probe = run_direct(adapter, [(op, args)], setup=setup)
    cases = failures = 0
    for c1 in range(probe.granted):
        one = run_direct(adapter, [(op, args)], setup=setup, crash_steps=[c1])
        for c2 in range(c1 + 1, one.granted):
            out = run_direct(adapter, [(op, args)], setup=setup,
                             crash_steps=[c1, c2])
            cases += 1
            state = out.obj.snapshot()
            good = (not out.inconclusive
                    and out.history[-1].value is True
                    and state == final_state
                    and check_nrl(out.history, SetModel(initial)).ok)
            if not good:
                failures += 1
    return cases, failures


def test_criterion_4_idempotent_recovery_two_crashes():
    scans = [
        ("list", "insert", (5,), (), set(), {5}),
        ("list", "delete", (5,), (("insert", (5,)),), {5}, set()),
        ("bst", "insert", (5,), (), set(), {5}),
        ("bst", "delete", (5,), (("insert", (5,)), ("insert", (8,))),
         {5, 8}, {8}),
    ]
    ok = True
    details = []
    for structure, op, args, setup, initial, final in scans:
        cases, failures = _double_crash_scan(structure, op, args, setup,
                                             initial, final)
        details.append(f"{structure}.{op}: {failures}/{cases} failures")
        ok &= failures == 0 and cases > 0
    _report("criterion-4 idempotent-recovery (2 crashes)", ok,
            "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Flush-variant durability under a volatile cache
# ---------------------------------------------------------------------------

def _flush_durability_scan(monkeypatch, ops, initial, final_state):
    adapter = STRUCTURES["list-flush"]
    structural_failures = []

    class ChainCheckingRuntime(SimRuntime):
        # the persisted chain right after a crash, before recovery runs
        def crash(self, survival=None):
            super().crash(survival)
            chain = self.obj.persisted_chain()
            keys = [n.key for n in chain]
            if not all(a < b for a, b in zip(keys, keys[1:])):
                structural_failures.append(("unsorted", keys))
            if chain[-1].key != KEY_MAX:
                structural_failures.append(("unreachable-tail", keys))

    monkeypatch.setattr(harness, "SimRuntime", ChainCheckingRuntime)
    probe = run_direct(adapter, ops, cache="volatile")
    cases = failures = 0
    for c in range(probe.granted):
        out = run_direct(adapter, ops, cache="volatile", crash_steps=[c])
        cases += 1
        if not (check_nrl(out.history, SetModel(initial)).ok
                and check_strict_recoverability(out.history).ok
                and out.obj.snapshot() == final_state):
            failures += 1
    return cases, failures, structural_failures


def test_criterion_5_flush_variant_durability(monkeypatch):
    scans = [
        ([("insert", (5,)), ("insert", (9,))], set(), {5, 9}),
        ([("insert", (5,)), ("delete", (5,))], set(), set()),
    ]
    ok = True
    details = []
    for ops, initial, final in scans:
        cases, failures, structural = _flush_durability_scan(monkeypatch, ops,
                                                             initial, final)
        label = "+".join(f"{o}{a}" for o, a in ops)
        details.append(f"{label}: {failures}/{cases} check failures, "
                       f"{len(structural)} structural")
        ok &= failures == 0 and not structural and cases > 0
    _report("criterion-5 flush-durability (volatile cache)", ok,
            "; ".join(details))


# ---------------------------------------------------------------------------
# 6. Strict recoverability, plus mutation-build detection
# ---------------------------------------------------------------------------

class _LossyList(RecoverableList):
    # mutation build: insert's success response is never persisted
    def insert(self, p, key):
        from nvtrack.rlist import ListInfo, ListNode
        from nvtrack.runtime import MarkedRef
        m = self.m
        newnd = ListNode(m, key, None)
        info = ListInfo(m, newnd)
        m.write(p, m.rd[p], info)
        m.write(p, m.cp[p], 1)
        while True:
            pred, curr = self.search(p, key)
            if curr.key == key:
                m.write(p, info.result, False)
                return False
            m.write(p, newnd.next, MarkedRef(curr, False))
            if m.cas(p, pred.next, MarkedRef(curr, False),
                     MarkedRef(newnd, False)):
                return True


def test_criterion_6_strict_recoverability():
    strict_violations = 0
    for structure in ("list", "stack", "bst", "exchanger"):
        for report in _run_sweeps(structure):
            strict_violations += len(report.strict_violations)

    rt = SimRuntime(1)
    rt.bind(_LossyList(rt))
    rt.invoke(0, OpDef("insert", _LossyList.insert, _LossyList.insert_recover),
              (5,))
    mutation = check_strict_recoverability(rt.history)

    ok = strict_violations == 0 and mutation.status == "VIOLATION"
    _report("criterion-6 strict-recoverability", ok,
            f"{strict_violations} violations across criterion-2 runs; "
            f"mutation build detected: {mutation.status == 'VIOLATION'}")


# ---------------------------------------------------------------------------
# 7. Benchmark ratios (desk scale)
# ---------------------------------------------------------------------------

BENCH_ROUNDS = 5
LIST_VARIANTS = (("base", "list"), ("recoverable", "list"),
                 ("recoverable", "list-flush"))


def _bench_medians(read_pct) -> list:
    """Median Mops of the base list, the recoverable list and list-flush,
    over rounds that each run all three, in an order rotated every round,
    so that drift of the machine hits the three alike."""
    mops = {v: [] for v in LIST_VARIANTS}
    for r in range(BENCH_ROUNDS):
        k = r % len(LIST_VARIANTS)
        for variant, structure in LIST_VARIANTS[k:] + LIST_VARIANTS[:k]:
            cfg = BenchConfig(structure=structure, variant=variant, threads=8,
                              total_ops=24_000, read_pct=read_pct, runs=1,
                              seed=42)
            mops[variant, structure].append(run_benchmark(cfg).mean_mops)
    return [statistics.median(mops[v]) for v in LIST_VARIANTS]


@contextlib.contextmanager
def _one_cpu():
    """Keep this process, and the threads it starts, on one CPU (as
    nvbench/run.py does): under the GIL one thread runs at a time, and
    same-core thread switches swing less with other load than cross-core
    wake-ups.  Where affinity cannot be set, nothing is pinned."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def test_criterion_7_benchmark_ratios():
    details = []
    ok = True
    for read_pct, mix in ((30, "update-intensive"), (70, "read-intensive")):
        with _one_cpu():
            base, rec, flush = _bench_medians(read_pct)
        ratio = rec / base
        flush_ratio = flush / rec
        details.append(
            f"{mix}: base={base:.3f} rec={rec:.3f} flush={flush:.3f} Mops; "
            f"rec/base={ratio:.2f} (reference: >0.95, gate 0.70), "
            f"flush/rec={flush_ratio:.2f} (reference: ~0.6-0.9)")
        if read_pct == 30:
            ok &= ratio >= 0.70
        ok &= flush < rec
    _report(f"criterion-7 benchmark-ratios (8 threads, desk scale, medians of "
            f"{BENCH_ROUNDS} rotated rounds)", ok, "; ".join(details))


def _steps_bench(variant, structure, read_pct):
    cfg = BenchConfig(structure=structure, variant=variant, threads=1,
                      total_ops=6_000, read_pct=read_pct, runs=1, timing="steps")
    return run_benchmark(cfg).mean_mops


def test_criterion_7_step_ratios():
    """Criterion 7's ratios in simulated shared accesses (one thread, steps
    timing): deterministic, so the gate is tight where wall time is not."""
    details = []
    ok = True
    for read_pct in (30, 70):
        base = _steps_bench("base", "list", read_pct)
        rec = _steps_bench("recoverable", "list", read_pct)
        flush = _steps_bench("recoverable", "list-flush", read_pct)
        details.append(f"{read_pct}% reads: rec/base={rec / base:.3f} (gate 0.95), "
                       f"flush/rec={flush / rec:.3f} (gate < 1)")
        ok &= rec / base >= 0.95 and flush < rec
    _report("criterion-7 step ratios (1 thread, steps timing)", ok,
            "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Exchanger pairing over sampled schedules
# ---------------------------------------------------------------------------

def _random_schedule(rng, crash: bool):
    quanta = tuple((rng.randrange(2), rng.randint(1, 3)) for _ in range(40))
    quanta += ((0, 200), (1, 200))
    if crash:
        c = rng.randrange(24)
        rng.random()    # a spare draw that keeps the seeded sample fixed
        return Schedule(quanta, (c,))
    return Schedule(quanta)


def _pairing_failures(out, values):
    if out.inconclusive:
        return None
    r = {e.pid: e.value for e in out.history if hasattr(e, "value")}
    if len(r) != 2:
        return f"incomplete responses {r}"
    if r[0] != values[1] or r[1] != values[0]:
        return f"pair mismatch {r} for values {values}"
    if out.obj.slot.v is not out.obj.default:
        return "slot not back to default at quiescence"
    return None


def test_criterion_8_exchanger_pairing():
    rng = random.Random(2024)
    samples = {"exchanger": 8000, "exchanger-timed": 3000}
    ok = True
    details = []
    for structure, n in samples.items():
        adapter = STRUCTURES[structure]
        wl = {0: [("exchange", (10,))], 1: [("exchange", (20,))]}
        completed = inconclusive = 0
        exceptions = []
        for i in range(n):
            sched = _random_schedule(rng, crash=(i % 2 == 0))
            out = run_schedule(adapter, wl, sched, step_budget=250,
                               seed=i)
            if out.inconclusive:
                inconclusive += 1
                continue
            r = {e.pid: e.value for e in out.history if hasattr(e, "value")}
            if structure == "exchanger-timed" and TIMEOUT in r.values():
                if not all(v is TIMEOUT for v in r.values()):
                    exceptions.append(
                        f"sample {i}: timed-out exchange was half of a "
                        f"completed collision: {r}")
                if out.obj.slot.v is not out.obj.default:
                    exceptions.append(f"sample {i}: slot leaked after timeout")
                continue
            completed += 1
            err = _pairing_failures(out, (10, 20))
            if err:
                exceptions.append(f"sample {i}: {err}")
        details.append(f"{structure}: {n} samples, {completed} completed "
                       f"pairs, {inconclusive} inconclusive, "
                       f"{len(exceptions)} exceptions")
        details.extend(exceptions[:3])
        ok &= not exceptions and completed > 0
    _report("criterion-8 exchanger-pairing (>=1e4 samples)", ok,
            "; ".join(details))
