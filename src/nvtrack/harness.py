"""Deterministic crash-injection harness over the simulated backend.

Each adapter in :data:`STRUCTURES` names a structure class, its operations
and its sequential model; :func:`structure_ops` builds the operations from
the class's methods, so every operation's tracking and recovery live in its
structure's module (the standalone timed exchange's in
``TimedExchanger.tracked_exchange``).

A :class:`Schedule` fixes an interleaving as (pid, step-count) quanta and the
global step indices at which whole-system crashes fire.  A crash restarts
every unfinished process on a fresh generator, in recovery if it was inside
an operation (see ``SimRuntime.crash``), and the recoveries' steps are
granted like any others.  :func:`run_schedule` executes exactly that plan
on the calling thread, where each process is a generator that
``SimRuntime`` resumes one step at a time.  A grant goes only to a process
that has not finished (one still in ``SimRuntime.live``): the rest of a
finished process's quantum is skipped, which changes no history, since such
a grant would do nothing.  Once the planned quanta are exhausted, a
round-robin drain runs every live process to completion.  The drain needs
no step limit of its own: each operation attempt is bounded by the
runtime's ``step_budget`` and a schedule has finitely many crashes, so
every process finishes, with all its operations completed or at one that
exhausted its budget and recorded ``Abandoned``.  A run is inconclusive
exactly when its history holds an ``Abandoned`` event; a sweep also counts
as inconclusive a history whose check outgrew the checker's search budget
(``checker.BUDGET``).  That driver loop is a generator that stops wherever a
crash falls due, so it can be resumed from any crash point.

:func:`enumerate_crash_points` systematizes crash placement: for each base
interleaving pattern it probes the crash-free run length, then runs the
pattern with a crash at every step index (or a seeded sample of them).
Those crash runs share their crash-free prefix: one more crash-free run
stops at each crash point and saves the runtime, and each crash run is an
ordinary run resumed there, whose first crash fires like any later one;
once it has been yielded, the runtime is restored.  Each crash run's
outcome equals that of a fresh :func:`run_schedule` on its schedule, but
its ``rt`` and ``obj`` are valid only until the next outcome is requested.
Starting a recovery takes no step, so the order in which recoveries start
is unobservable and is not enumerated.  :func:`detectability_sweep`
bundles that with the crash-extended linearizability and
strict-recoverability checks; a run whose operation or recovery raises is
reported as an errored violation instead of aborting the sweep.  To see
every access of a run, install a ``SimRuntime`` subclass as
``harness.SimRuntime``, as the tests' step log (``tests/traces.py``) does.
"""

from __future__ import annotations

import functools
import random
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from . import rbst, rexchanger, rlist, rstack
from .checker import (
    READ_ONLY_OPS,
    ExchangeModel,
    SetModel,
    StackModel,
    check_nrl,
    check_strict_recoverability,
    op_shape,
)
from .runtime import Abandoned, OpDef, SimRuntime, StepBudgetExceeded, reinvoke


# ---------------------------------------------------------------------------
# Structure adapters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureAdapter:
    make: Callable[[SimRuntime], Any]
    ops: dict
    model: Callable[..., Any]
    strict_exempt: tuple = READ_ONLY_OPS


def structure_ops(cls, *names: str) -> dict:
    """Operation ``n`` of structure class ``cls`` for each name: it calls
    ``cls.n``, recovers with ``cls.n_recover`` (``reinvoke`` if ``cls`` has
    none), and records its persisted result unless it is read-only."""
    return {n: OpDef(n, getattr(cls, n), getattr(cls, f"{n}_recover", reinvoke),
                     is_update=n not in READ_ONLY_OPS)
            for n in names}


_list_ops = structure_ops(rlist.RecoverableList, "insert", "delete", "find")

STRUCTURES = {
    "list": StructureAdapter(rlist.RecoverableList, _list_ops, SetModel),
    "list-flush": StructureAdapter(
        functools.partial(rlist.RecoverableList, flush_protocol=True),
        _list_ops, SetModel),
    "stack": StructureAdapter(
        functools.partial(rstack.EliminationStack, slots=4, exchange_wait=24),
        structure_ops(rstack.EliminationStack, "push", "pop"), StackModel),
    "bst": StructureAdapter(
        rbst.RecoverableBst,
        structure_ops(rbst.RecoverableBst, "insert", "delete", "contains"),
        SetModel),
    "exchanger": StructureAdapter(
        rexchanger.Exchanger,
        structure_ops(rexchanger.Exchanger, "exchange"), ExchangeModel),
    "exchanger-timed": StructureAdapter(
        rexchanger.TimedExchanger,
        {"exchange": OpDef("exchange",
                           rexchanger.TimedExchanger.tracked_exchange,
                           rexchanger.TimedExchanger.tracked_exchange_recover)},
        ExchangeModel, strict_exempt=("exchange",)),
}


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """An interleaving plan plus crash placement.

    ``quanta``: consecutive (pid, steps) grants.  ``crashes``: global step
    indices, strictly increasing; a crash at index c fires once c steps have
    been granted.
    """

    quanta: tuple = ()
    crashes: tuple = ()


@functools.lru_cache(maxsize=32)
def pattern_quanta(pattern: str, pids: int, length: int, seed: int = 0) -> tuple:
    """Named base interleavings: rr<k> (round robin, quantum k), block
    (each pid runs to completion in order), rand (seeded shuffle).  Cached:
    the result is immutable, and a seeded ``rand`` pattern takes a few
    milliseconds to draw."""
    if pattern.startswith("rr"):
        q = int(pattern[2:] or 1)
        reps = length // (q * pids) + 2
        return tuple((pid, q) for _ in range(reps) for pid in range(pids))
    if pattern == "block":
        return tuple((pid, length + 1) for pid in range(pids))
    if pattern.startswith("rand"):
        rng = random.Random(f"{seed}:{pattern}")
        return tuple((rng.randrange(pids), rng.randint(1, 3))
                     for _ in range(length + 16))
    raise ValueError(f"unknown pattern {pattern}")


DEFAULT_PATTERNS = ("rr1", "rr2", "block", "rand0", "rand1")


# ---------------------------------------------------------------------------
# Running schedules
# ---------------------------------------------------------------------------

@dataclass
class RunOutcome:
    """One run, in which every process ran to its end."""

    history: list
    rt: SimRuntime
    obj: Any
    schedule: Schedule
    granted: int
    label: str = ""
    error: str = ""          # traceback of an exception the run raised

    @property
    def inconclusive(self) -> bool:
        """Some operation exhausted its step budget.  A process ends
        abandoned exactly when its operation records ``Abandoned``, and a
        crash keeps the history, so the history alone decides this."""
        return Abandoned in map(type, self.history)


def prepared_runtime(adapter: StructureAdapter, nprocs: int, setup: Sequence,
                     **rt_kwargs) -> tuple:
    """A fresh runtime with the structure built and ``setup`` run unrecorded.
    A set-up operation that exhausts its step budget raises
    ``StepBudgetExceeded`` naming it."""
    rt = SimRuntime(nprocs, **rt_kwargs)
    obj = rt.bind(adapter.make(rt))
    if setup:
        rt.record(False)
        for name, args in setup:
            try:
                rt.invoke(0, adapter.ops[name], args)
            except StepBudgetExceeded:
                raise StepBudgetExceeded(f"set-up operation {name}{args}") from None
        rt.record(True)
    return rt, obj


def _started_runtime(adapter: StructureAdapter, workload: dict, setup: Sequence,
                     **rt_kwargs) -> tuple:
    """A prepared runtime with one process per pid of ``workload`` started."""
    nprocs = max(workload) + 1 if workload else 1
    rt, obj = prepared_runtime(adapter, nprocs, setup, **rt_kwargs)
    rt.start_workers({pid: [(adapter.ops[name], args) for name, args in ops]
                      for pid, ops in workload.items()})
    return rt, obj


def _drive(rt: SimRuntime, quanta: tuple, crashes: list, at: tuple = (0, 0, 0)):
    """The driver loop, a generator resumable at any crash point.

    From position ``at`` = (quantum index, entry index, steps granted) it
    grants the rest of ``quanta`` and then drains round-robin until every
    process has finished.  Each drain round moves every live process on:
    one paused at a gate takes its step, and one paused before an operation
    starts it or finishes.  Before each quantum entry and each drain round
    at which the first of ``crashes`` is due, it yields its position; the
    caller pops and fires the due crashes (or branches there) before
    resuming it.  Returns the steps granted."""
    qi, j, granted = at
    live = rt.live
    for qi in range(qi, len(quanta)):
        pid, count = quanta[qi]
        for j in range(j, count):
            if crashes and crashes[0] <= granted:
                yield qi, j, granted
                live = rt.live            # a crash replaces it
            if pid not in live:
                break
            if rt.grant_step(pid):
                granted += 1
        j = 0
        if not live and not crashes:
            break
    # drain: stop at leftover crashes and finish round-robin
    while live:
        if crashes and crashes[0] <= granted:
            yield len(quanta), 0, granted
            live = rt.live
        for pid in sorted(live):
            granted += rt.grant_step(pid)
    return granted


def _run(rt: SimRuntime, obj: Any, schedule: Schedule, label: str,
         at: tuple = (0, 0, 0)) -> RunOutcome:
    """Run ``schedule`` on ``rt``'s started processes from ``_drive``
    position ``at`` to its end, firing each crash once it is due, then close
    every process.  An exception the run raises propagates after that."""
    crashes = list(schedule.crashes)
    drive = _drive(rt, schedule.quanta, crashes, at)
    try:
        while True:
            try:
                granted = next(drive)[2]
            except StopIteration as stop:
                return RunOutcome(rt.history, rt, obj, schedule, stop.value,
                                  label)
            while crashes and crashes[0] <= granted:
                crashes.pop(0)
                rt.crash()
    finally:
        rt.close()


def run_schedule(adapter: StructureAdapter, workload: dict, schedule: Schedule,
                 *, setup: Sequence = (), cache: str = "durable",
                 survival: float = 0.0, seed: int = 0, step_budget: int = 10_000,
                 label: str = "") -> RunOutcome:
    """Execute exactly the given interleaving, then drain to completion.

    Each quantum grants up to ``count`` steps to its pid and ends early once
    that process has finished; the quanta stop once every process has
    finished and no crash is pending.  Crashes due by the steps granted so
    far fire before each quantum entry's grant and, in the drain, before
    each round, so with T the crash-free run's step count, a crash at index
    T fires after every process has finished (and ends the history) if any
    quantum entry remains, while one at T+1 never fires.

    An exception raised inside an operation or recovery propagates out of
    this call once every process has been closed."""
    rt, obj = _started_runtime(adapter, workload, setup, cache=cache, survival=survival,
                               seed=seed, step_budget=step_budget)
    return _run(rt, obj, schedule, label)


def run_direct(adapter: StructureAdapter, ops: Sequence, *, setup: Sequence = (),
               cache: str = "durable", seed: int = 0,
               crash_steps: Sequence[int] = ()) -> RunOutcome:
    """Single-process run on the calling thread, with planned crash steps
    (recorded sorted, in firing order).  A crash loses every unflushed write.

    An exception raised inside an operation or recovery propagates."""
    # seed has no effect (only a nonzero survival draws from the rng), but
    # nvbench/verify.py passes it
    rt, obj = prepared_runtime(adapter, 1, setup, cache=cache, seed=seed,
                               step_budget=100_000)
    crashes = tuple(sorted(crash_steps))
    base = rt.steps               # crash indices are relative to the workload
    bound = [(adapter.ops[name], args) for name, args in ops]
    rt.run_ops_direct(0, bound, [base + c for c in crashes])
    return RunOutcome(rt.history, rt, obj, Schedule(crashes=crashes),
                      rt.steps - base)


# ---------------------------------------------------------------------------
# Crash-point enumeration
# ---------------------------------------------------------------------------

def _errored(schedule: Schedule, label: str) -> RunOutcome:
    """The outcome of a run that raised the exception being handled."""
    return RunOutcome([], None, None, schedule, 0, label,
                      error=traceback.format_exc())


def _crash_runs(adapter: StructureAdapter, workload: dict, quanta: tuple,
                crash_sets: dict, pattern: str, *, setup: Sequence,
                **rt_kwargs) -> Iterator[RunOutcome]:
    """One run per crash set in ``crash_sets`` (first crash -> its crash sets,
    in order of first crash), each a branch off one crash-free run of
    ``quanta`` where that run would fire its first crash: the crash-free
    run is saved there, the branch resumes its driver loop at that position,
    and the run is restored after each branch has been yielded.  So each
    outcome equals that of ``run_schedule`` on its schedule."""
    if not crash_sets:
        return
    points = list(crash_sets)
    rt, obj = _started_runtime(adapter, workload, setup, **rt_kwargs)
    try:
        for at in _drive(rt, quanta, points):
            saved = rt.save()
            while points and points[0] <= at[2]:
                for crashes in crash_sets[points.pop(0)]:
                    schedule = Schedule(quanta, crashes)
                    label = f"{pattern}/crash@{','.join(map(str, crashes))}"
                    try:
                        outcome = _run(rt, obj, schedule, label, at)
                    except Exception:
                        outcome = _errored(schedule, label)
                    try:
                        yield outcome
                    finally:
                        rt.restore(saved)
            if not points:
                break
    finally:
        rt.close()


def enumerate_crash_points(adapter: StructureAdapter, workload: dict, *,
                           setup: Sequence = (), patterns: Sequence[str] = DEFAULT_PATTERNS,
                           max_crashes: int = 1, seed: int = 0,
                           step_budget: int = 600, samples: Optional[int] = None,
                           cache: str = "durable", survival: float = 0.0,
                           ) -> Iterator[RunOutcome]:
    """Yield runs for every crash placement along each base pattern.

    The zero-crash run of each pattern is yielded first (plain interleaving
    exploration); it is a ``run_schedule`` call.  ``max_crashes`` is 1 or 2:
    each crash index gets a run crashing there, and with 2 also a run adding
    a second crash at a seeded later index.  With ``samples`` set, crash
    indices are a seeded random subset instead of the full range.  The crash
    runs of a pattern branch off one more crash-free run of it (see
    ``_crash_runs``), so each crash run's ``rt`` and ``obj`` are valid only
    until the next outcome is requested; its history stays valid.  A run
    that raises is yielded with an empty history and the traceback in
    ``error``; when the zero-crash run raises, that pattern's crash points
    are skipped.
    """
    nprocs = max(workload) + 1 if workload else 1
    rng = random.Random(seed)
    common = dict(setup=setup, seed=seed, step_budget=step_budget,
                  cache=cache, survival=survival)

    for pattern in patterns:
        quanta = pattern_quanta(pattern, nprocs, step_budget * nprocs, seed)
        label = f"{pattern}/no-crash"
        try:
            probe = run_schedule(adapter, workload, Schedule(quanta), label=label,
                                 **common)
        except Exception:
            probe = _errored(Schedule(quanta), label)
        yield probe
        if probe.inconclusive or probe.error:
            continue
        total = probe.granted
        points = range(total)
        if samples is not None and samples < total:
            points = sorted(rng.sample(range(total), samples))
        crash_sets = {}
        for c in points:
            crash_sets[c] = [(c,)]
            if max_crashes >= 2:
                crash_sets[c].append((c, c + 1 + rng.randrange(max(1, total - c))))
        yield from _crash_runs(adapter, workload, quanta, crash_sets, pattern,
                               **common)


# ---------------------------------------------------------------------------
# Checked sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepReport:
    total: int = 0
    #: distinct op-level histories (``checker.op_shape``) among the checked runs
    distinct: int = 0
    ok: int = 0
    inconclusive: int = 0
    violations: list = field(default_factory=list)
    strict_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No violation, and at least one history checked: a sweep whose
        every run was inconclusive shows nothing."""
        return self.ok > 0 and not self.violations and not self.strict_violations

    def summary(self) -> str:
        return (f"{self.total} runs ({self.distinct} distinct op-level "
                f"histories): {self.ok} ok, "
                f"{self.inconclusive} inconclusive, "
                f"{len(self.violations)} linearizability violations, "
                f"{len(self.strict_violations)} strict-recoverability violations")


def detectability_sweep(adapter: StructureAdapter, workload: dict, *,
                        setup: Sequence = (), model_initial=None,
                        check_responses: Optional[Callable] = None,
                        **enum_kwargs) -> SweepReport:
    """Enumerate crash placements and check every history; a run that
    raised is counted as a violation labelled ``[errored]``, and one whose
    verdict is inconclusive (an abandoned operation, or a history the
    checker could not check) is never counted ok."""
    report = SweepReport()
    shapes, unhashable = set(), []
    for outcome in enumerate_crash_points(adapter, workload, setup=setup,
                                          **enum_kwargs):
        report.total += 1
        if outcome.error:
            report.violations.append((outcome.label + " [errored]", outcome.error))
            continue
        shape = op_shape(outcome.history)
        try:
            shapes.add(shape)
        except TypeError:                  # a response that cannot be hashed
            if shape not in unhashable:
                unhashable.append(shape)
        model = adapter.model(model_initial) if model_initial is not None \
            else adapter.model()
        verdict = check_nrl(outcome.history, model)
        if verdict.status == "VIOLATION":
            report.violations.append((outcome.label, verdict.detail))
        elif verdict.inconclusive:
            report.inconclusive += 1
        else:
            report.ok += 1
        strict = check_strict_recoverability(outcome.history,
                                             read_only=adapter.strict_exempt)
        if not strict.ok:
            report.strict_violations.append((outcome.label, strict.detail))
        if check_responses is not None:
            extra = check_responses(outcome)
            if extra:
                report.violations.append((outcome.label, extra))
    report.distinct = len(shapes) + len(unhashable)
    return report
