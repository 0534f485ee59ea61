"""Verify phases: crash-injected histories on ``SimRuntime``, fully checked.

* sweep  -- threaded ``SimRuntime`` through ``harness.detectability_sweep``:
  2 pids x 2 seeded ops over a small contended key set, a crash at every
  single-crash placement along one default pattern per unit (the patterns
  cycle across units), under every recovery order.
* direct -- ``harness.run_direct`` on seeded 8-op single-process set
  workloads; every history crashes at step c1 (every c1 of the crash-free
  run) and again at a seeded later step.

A history counts as failed if its linearizability or strict-recoverability
check fails, if an operation raised, or if it did not finish before the
watchdog deadline.  An inconclusive history (step budget exhausted) is not a
failure.

Units run on a helper thread while the calling thread watches a per-history
heartbeat: an operation that raises inside a ``SimRuntime`` worker leaves
``run_schedule`` blocked for ever, and the watchdog turns that into a failed
history instead of a hung benchmark.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import threading
import time

import calib

SWEEP_STRUCTURES = ("list", "list-flush", "stack", "bst", "exchanger")
DIRECT_STRUCTURES = ("list", "bst", "list-flush")
SWEEP_STEP_BUDGET = 600
SWEEP_KEYS = (5, 7)
DIRECT_OPS = 8
DIRECT_KEYS = (1, 6)
PLAN_WORKLOADS = 64               # seeded workloads per structure, cycled
HISTORY_DEADLINE_S = 20.0


class _Errored:
    def __repr__(self) -> str:
        return "ERRORED"


#: Response recorded for an operation that raised.
ERRORED = _Errored()


def cache_of(structure: str) -> str:
    # the flush-annotated list exists to survive a volatile cache
    return "volatile" if structure == "list-flush" else "durable"


def guarded_adapter(nv_runtime, adapter, errors: list):
    """Copy of ``adapter`` whose op and recovery functions turn an exception
    into an ``ERRORED`` response and append it to ``errors``.  The runtime's
    own control-flow exceptions (crash unwinding, step budget) pass through."""
    control = tuple(v for v in vars(nv_runtime).values()
                    if isinstance(v, type) and issubclass(v, Exception)
                    and v.__module__ == nv_runtime.__name__)

    def guard(fn):
        def call(obj, pid, *args):
            try:
                return fn(obj, pid, *args)
            except control:
                raise
            except Exception as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                return ERRORED
        return call

    ops = {name: dataclasses.replace(op, call=guard(op.call),
                                     recover=guard(op.recover))
           for name, op in adapter.ops.items()}
    return dataclasses.replace(adapter, ops=ops)


def sweep_workload(structure: str, seed: int, i: int) -> tuple:
    """(workload, setup, model_initial) with 2 pids x 2 seeded ops."""
    rng = random.Random(f"{seed}:sweep:{structure}:{i}")
    wl = {}
    for pid in range(2):
        ops = []
        for j in range(2):
            if structure == "stack":
                ops.append(("push", (100 * pid + 10 * j + rng.randrange(10),))
                           if rng.random() < 0.5 else ("pop", ()))
            elif structure == "exchanger":
                ops.append(("exchange", (100 * pid + 10 * j + rng.randrange(10),)))
            else:
                lookup = "contains" if structure == "bst" else "find"
                name = rng.choice(("insert", "insert", "delete", lookup))
                ops.append((name, (rng.choice(SWEEP_KEYS),)))
        wl[pid] = ops
    if structure == "stack":
        return wl, (("push", (77,)),), (77,)
    if structure == "exchanger":
        return wl, (), None
    return wl, (("insert", (SWEEP_KEYS[0],)),), {SWEEP_KEYS[0]}


def direct_workload(structure: str, seed: int, i: int) -> tuple:
    """(ops, setup, model_initial): 8 seeded ops after 2 seeded inserts."""
    rng = random.Random(f"{seed}:direct:{structure}:{i}")
    lookup = "contains" if structure == "bst" else "find"
    lo, hi = DIRECT_KEYS
    initial = {rng.randint(lo, hi) for _ in range(2)}
    setup = tuple(("insert", (k,)) for k in sorted(initial))
    ops = [(rng.choice(("insert", "insert", "delete", "delete", lookup)),
            (rng.randint(lo, hi),)) for _ in range(DIRECT_OPS)]
    return ops, setup, initial


@dataclasses.dataclass
class VerifyStats:
    histories: int = 0
    failed: int = 0
    inconclusive: int = 0
    hung: int = 0
    steps: int = 0                 # granted steps summed over the histories
    seconds: float = 0.0           # wall time of the completed units
    scaled_seconds: float = 0.0    # the same at reference machine speed
    units: int = 0
    details: list = dataclasses.field(default_factory=list)

    def merge(self, other: "VerifyStats") -> None:
        for f in ("histories", "failed", "inconclusive", "hung", "steps",
                  "seconds", "scaled_seconds", "units"):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        self.details.extend(other.details[:max(0, 5 - len(self.details))])


class Plan:
    """The seeded units of one verify mode.  ``run_unit`` runs one unit's
    histories, beats the heartbeat once per history, and returns
    ``VerifyStats``."""

    def __init__(self, nv, mode: str, seed: int):
        self.nv = nv
        self.mode = mode
        self.seed = seed
        self.errors: list = []
        harness = nv.harness
        structures = SWEEP_STRUCTURES if mode == "sweep" else DIRECT_STRUCTURES
        self.adapters = {s: guarded_adapter(nv.runtime, harness.STRUCTURES[s],
                                            self.errors) for s in structures}
        make = sweep_workload if mode == "sweep" else direct_workload
        # unit i of structure s uses workload i
        self.units = [(s, i) + make(s, seed, i)
                      for i in range(PLAN_WORKLOADS) for s in structures]

    def run_unit(self, unit, beat) -> VerifyStats:
        if self.mode == "sweep":
            return self._sweep_unit(unit, beat)
        return self._direct_unit(unit, beat)

    def _sweep_unit(self, unit, beat) -> VerifyStats:
        structure, i, wl, setup, initial = unit
        harness = self.nv.harness
        patterns = harness.DEFAULT_PATTERNS
        # each run of len(structures) units covers every pattern once
        pattern = (i + SWEEP_STRUCTURES.index(structure)) % len(patterns)
        errors = self.errors
        seen = [len(errors)]
        steps = [0]

        def per_history(outcome):
            beat()
            steps[0] += outcome.granted
            if len(errors) != seen[0]:
                new = errors[seen[0]:]
                seen[0] = len(errors)
                return "operation raised: " + "; ".join(new)
            return None

        report = harness.detectability_sweep(
            self.adapters[structure], wl, setup=setup, model_initial=initial,
            check_responses=per_history, patterns=(patterns[pattern],),
            seed=self.seed, step_budget=SWEEP_STEP_BUDGET,
            cache=cache_of(structure))
        bad = {label for label, _ in report.violations + report.strict_violations}
        stats = VerifyStats(histories=report.total, failed=len(bad),
                            inconclusive=report.inconclusive, steps=steps[0],
                            units=1)
        stats.details = [f"{structure}#{i} {label}: {detail}" for label, detail
                         in (report.violations + report.strict_violations)[:5]]
        return stats

    def _direct_unit(self, unit, beat) -> VerifyStats:
        structure, i, ops, setup, initial = unit
        nv = self.nv
        harness, checker = nv.harness, nv.checker
        adapter = self.adapters[structure]
        cache = cache_of(structure)
        rng = random.Random(f"{self.seed}:direct-crashes:{structure}:{i}")
        stats = VerifyStats(units=1)

        def one(crash_steps):
            before = len(self.errors)
            try:
                out = harness.run_direct(adapter, ops, setup=setup, cache=cache,
                                         seed=self.seed, crash_steps=crash_steps)
            except Exception as exc:          # a history that cannot run fails
                stats.histories += 1
                stats.failed += 1
                stats.details.append(f"{structure}#{i} {crash_steps}: {exc!r}")
                return None
            stats.histories += 1
            stats.steps += out.granted
            verdict = checker.check_nrl(out.history, adapter.model(initial))
            strict = checker.check_strict_recoverability(
                out.history, read_only=adapter.strict_exempt)
            if (verdict.status == "VIOLATION" or not strict.ok
                    or len(self.errors) != before):
                stats.failed += 1
                stats.details.append(f"{structure}#{i} crashes {crash_steps}: "
                                     f"{verdict.detail or strict.detail}")
            elif out.inconclusive or verdict.inconclusive:
                stats.inconclusive += 1
            beat()
            return out

        probe = one(())
        if probe is not None and not probe.inconclusive:
            total = probe.granted
            for c1 in range(total):
                one((c1, c1 + 1 + rng.randrange(max(1, total - c1))))
        return stats

    def cycle(self):
        return itertools.cycle(self.units)


def run_phase(plan: Plan, budget_s: float, *, min_units: int = 1,
              deadline_s: float = HISTORY_DEADLINE_S) -> VerifyStats:
    """Run ``plan``'s units for ``budget_s`` seconds (whole units, at least
    ``min_units``) on helper threads, under a per-history watchdog."""
    total = VerifyStats()
    units = plan.cycle()
    stop_at = time.perf_counter() + budget_s
    lock = threading.Lock()
    generation = [0]
    while True:
        gen = generation[0]
        heartbeat = [time.perf_counter()]
        finished = threading.Event()

        def beat(heartbeat=heartbeat):
            heartbeat[0] = time.perf_counter()

        def body(gen=gen, beat=beat, finished=finished):
            while total.units < min_units or time.perf_counter() < stop_at:
                unit = next(units)
                speed = calib.factor()
                t0 = time.perf_counter()
                try:
                    stats = plan.run_unit(unit, beat)
                except Exception as exc:     # a unit that cannot run fails
                    stats = VerifyStats(histories=1, failed=1, units=1,
                                        details=[f"{type(exc).__name__}: {exc}"])
                stats.seconds = time.perf_counter() - t0
                stats.scaled_seconds = stats.seconds / speed
                with lock:
                    if gen != generation[0]:
                        return             # abandoned by the watchdog
                    total.merge(stats)
                beat()
            finished.set()

        runner = threading.Thread(target=body, name="verify-runner", daemon=True)
        runner.start()
        while not finished.wait(0.2):
            if time.perf_counter() - heartbeat[0] > deadline_s:
                with lock:
                    generation[0] += 1
                    total.histories += 1
                    total.failed += 1
                    total.hung += 1
                    total.units += 1
                    total.details.append(
                        f"a history ran past the {deadline_s:.0f}s watchdog deadline")
                break
        else:
            runner.join()
            return total
