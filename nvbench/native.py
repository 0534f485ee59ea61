"""Native phase: the paper's throughput protocol on ``NativeRuntime``.

Every variant gets its own runtime and structure, prefilled with the same
seeded 250 inserts (pushes for the stacks).  Two worker threads per variant
run closed-loop op streams generated from the seed; keys are uniform in
[1, 500].  Variants are interleaved within each round, the order rotates
every round, each variant gets untimed warm-up passes, and ``gc.collect()``
runs (with GC left enabled) before every timed round, so that drift on a
shared machine hits all variants alike.  A variant's throughput is the median
of its per-round rates, each rescaled to the reference machine speed (see
``calib.py``).

After the last round each variant's final state is checked against the
responses it returned (see ``Variant.check``).
"""

from __future__ import annotations

import gc
import random
import threading
import time
from collections import Counter

import calib

FIND, INSERT, DELETE = 0, 1, 2        # stacks: INSERT is push, DELETE is pop
KEY_LO, KEY_HI = 1, 500
PREFILL = 250
THREADS = 2
STREAM_OPS = 40_000                   # per thread, replayed cyclically
WARMUP_OPS = 2_000                    # untimed pass, also sizes the rounds
ROUND_S = 0.06                        # target length of one variant's round
MIN_ROUND_OPS = 1_000
MIN_ROUNDS = 3
JOIN_DEADLINE_S = 20.0                # a round still running then has hung

SET_VARIANTS = ("list_base", "list_rec", "list_flush", "bst_base", "bst_rec")
STACK_VARIANTS = ("stack_base", "stack_rec")
VARIANTS = SET_VARIANTS + STACK_VARIANTS


def make_structure(nv, name: str, rt, seed: int):
    """Build variant ``name`` of the nvtrack package ``nv`` on runtime ``rt``."""
    if name == "list_base":
        return nv.BaselineList(rt)
    if name == "list_rec":
        return nv.RecoverableList(rt)
    if name == "list_flush":
        return nv.RecoverableList(rt, flush_protocol=True)
    if name == "bst_base":
        return nv.BaselineBst(rt)
    if name == "bst_rec":
        return nv.RecoverableBst(rt)
    if name == "stack_base":
        return nv.BaselineStack(rt, seed=seed)
    if name == "stack_rec":
        return nv.EliminationStack(rt, seed=seed)
    raise ValueError(name)


def op_stream(rng: random.Random, count: int, read_pct: int) -> list:
    """(op, key) pairs: ``read_pct`` lookups, the rest split evenly between
    inserts and deletes (pushes and pops when ``read_pct`` is 0)."""
    ops = []
    upd = (100 - read_pct) / 2.0
    for _ in range(count):
        r = rng.random() * 100.0
        key = rng.randint(KEY_LO, KEY_HI)
        ops.append((FIND if r < read_pct else
                    INSERT if r < read_pct + upd else DELETE, key))
    return ops


def make_streams(seed: int, read_pct: int) -> dict:
    """Per-thread op streams for the set and stack variants."""
    out = {}
    for kind, pct in (("set", read_pct), ("stack", 0)):
        out[kind] = [op_stream(random.Random(f"{seed}:{kind}:{read_pct}:{t}"),
                               STREAM_OPS, pct) for t in range(THREADS)]
    return out


def prefill_keys(seed: int) -> list:
    rng = random.Random(f"{seed}:prefill")
    return [rng.randint(KEY_LO, KEY_HI) for _ in range(PREFILL)]


def _set_worker(table, reset, ops, pid, out):
    res = []
    append = res.append
    failed = 0
    for code, key in ops:
        if reset is not None:
            reset(pid)
        try:
            append(table[code](pid, key))
        except Exception:
            failed += 1
            append(None)
    out[pid] = (res, failed)


def _stack_worker(table, reset, ops, pid, out):
    push, pop = table[INSERT], table[DELETE]
    res = []
    append = res.append
    failed = 0
    for code, key in ops:
        if reset is not None:
            reset(pid)
        try:
            append(push(pid, key) if code == INSERT else pop(pid))
        except Exception:
            failed += 1
            append(None)
    out[pid] = (res, failed)


class Variant:
    """One structure variant on its own runtime, with the bookkeeping its
    correctness check needs."""

    def __init__(self, nv, name: str, streams: dict, keys: list, seed: int,
                 runtime_cls=None, make=make_structure):
        self.nv = nv
        self.name = name
        self.is_stack = name in STACK_VARIANTS
        self.rt = (runtime_cls or nv.NativeRuntime)(THREADS, seed=seed)
        self.obj = make(nv, name, self.rt, seed)
        self.streams = streams["stack" if self.is_stack else "set"]
        self.cursor = [0] * THREADS
        self.reset = None if name.endswith("_base") else self.rt.invoke_reset
        obj = self.obj
        if self.is_stack:
            self.table = (None, obj.push, obj.pop)
            self.worker = _stack_worker
            for k in keys:
                obj.push(0, k)
            self.pushed = Counter(keys)
            self.popped = Counter()
        else:
            find = obj.contains if name.startswith("bst") else obj.find
            self.table = (find, obj.insert, obj.delete)
            self.worker = _set_worker
            for k in keys:
                obj.insert(0, k)
            self.expected_size = len(set(keys))
        self.round_ops = MIN_ROUND_OPS
        self.rates: list = []             # ops/s, one per timed round
        self.scaled: list = []            # the same at reference machine speed
        self.attempted = 0
        self.failed = 0
        self.hung = False

    def _chunks(self, total: int) -> list:
        chunks = []
        for t in range(THREADS):
            n = total // THREADS + (1 if t < total % THREADS else 0)
            stream, c = self.streams[t], self.cursor[t]
            chunk = stream[c:c + n]
            while len(chunk) < n:
                chunk += stream[:n - len(chunk)]
            self.cursor[t] = (c + n) % len(stream)
            chunks.append(chunk)
        return chunks

    def run(self, total: int) -> float:
        """Run ``total`` ops on ``THREADS`` threads; return the wall seconds."""
        chunks = self._chunks(total)
        out = [None] * THREADS
        threads = [threading.Thread(target=self.worker, daemon=True,
                                    args=(self.table, self.reset, chunks[t], t, out))
                   for t in range(THREADS)]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join(JOIN_DEADLINE_S)
        elapsed = time.perf_counter() - t0
        self.attempted += total
        if any(th.is_alive() for th in threads) or None in out:
            self.hung = True                 # watchdog: count the round as failed
            self.failed += total
            return elapsed
        for ops, (res, failed) in zip(chunks, out):
            self.failed += failed
            self._account(ops, res)
        return elapsed

    def _account(self, ops: list, res: list) -> None:
        if self.is_stack:
            empty = self.nv.EMPTY
            for (code, key), r in zip(ops, res):
                if code == INSERT and r is True:
                    self.pushed[key] += 1
                elif code == DELETE and r is not None and r is not empty:
                    self.popped[r] += 1
        else:
            net = 0
            for (code, _key), r in zip(ops, res):
                if r is True:
                    net += code == INSERT
                    net -= code == DELETE
            self.expected_size += net

    def check(self) -> str:
        """Empty string if the final state matches the responses, else why not.

        Sets: snapshot size = prefill set + successful inserts - successful
        deletes, every key in range, and ``well_formed()`` for the BSTs.
        Stacks: pushes minus non-EMPTY pops equals the snapshot, as multisets.
        """
        if self.hung:
            return "a round did not finish before the watchdog deadline"
        nv = self.nv
        if self.is_stack:
            snap = Counter(nv.EliminationStack.snapshot(self.obj))
            if self.pushed - self.popped != snap or self.popped - self.pushed:
                return f"stack contents {len(snap)} differ from pushes minus pops"
            return ""
        if self.name.startswith("bst"):
            snap = nv.RecoverableBst.snapshot(self.obj)
            if not nv.RecoverableBst.well_formed(self.obj):
                return "bst is not well formed"
        else:
            snap = nv.RecoverableList.snapshot(self.obj)
        if len(snap) != self.expected_size:
            return f"set size {len(snap)} != expected {self.expected_size}"
        if any(not KEY_LO <= k <= KEY_HI for k in snap):
            return "set holds a key outside the generated range"
        return ""


def build_variants(nv, names, seed: int, read_pct: int, runtime_cls=None,
                   streams=None, make=make_structure) -> list:
    streams = streams or make_streams(seed, read_pct)
    keys = prefill_keys(seed)
    return [Variant(nv, n, streams, keys, seed, runtime_cls, make) for n in names]


def warm_up(variants: list) -> None:
    """Untimed passes per variant, doubling until one lasts ``ROUND_S / 2``;
    the last sizes the variant's rounds to about ``ROUND_S``."""
    for v in variants:
        n = WARMUP_OPS
        while True:
            secs = v.run(n)
            if secs >= ROUND_S / 2 or v.hung:
                break
            n *= 2
        v.round_ops = max(MIN_ROUND_OPS, int(n / max(secs, 1e-6) * ROUND_S))


def run_rounds(variants: list, budget_s: float) -> int:
    """Timed rounds until ``budget_s`` has passed (at least ``MIN_ROUNDS``);
    returns the round count."""
    deadline = time.perf_counter() + budget_s
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < deadline:
        gc.collect()
        k = r % len(variants)
        for v in variants[k:] + variants[:k]:
            if v.hung:
                continue
            speed = calib.factor()
            rate = v.round_ops / v.run(v.round_ops)
            v.rates.append(rate)
            v.scaled.append(rate * speed)
        r += 1
    return r
