"""Elimination stack: LIFO behavior, arbitration, elimination, recovery."""

import dataclasses
import random

import pytest

from nvtrack.cli import default_workload
from nvtrack.harness import (
    STRUCTURES,
    Schedule,
    StructureAdapter,
    detectability_sweep,
    pattern_quanta,
    run_direct,
    run_schedule,
    structure_ops,
)
from nvtrack.checker import StackModel, check_nrl, check_strict_recoverability
from nvtrack.rstack import BaselineStack, CentralInfo, EliminationStack
from nvtrack.rexchanger import ExchangeInfo
from nvtrack.runtime import (
    CrashEvent, EMPTY, NULL, NativeRuntime, OpDef, REINVOKE, SimRuntime, TIMEOUT, UNSET)
from traces import pushed_before_pop

STACK = STRUCTURES["stack"]


def fresh(nprocs=1, **kw):
    rt = SimRuntime(nprocs)
    return rt, rt.bind(EliminationStack(rt, **kw))


def test_lifo_order():
    rt, stk = fresh()
    stk.push(0, 1)
    stk.push(0, 2)
    assert stk.pop(0) == 2
    assert stk.pop(0) == 1
    assert stk.pop(0) is EMPTY


def test_push_sets_pushed_and_top():
    rt, stk = fresh()
    assert stk.push(0, 7) is True
    top = stk.top.v
    assert top.value == 7 and top.pushed.v is True


def test_pop_records_popper():
    rt, stk = fresh(nprocs=2)
    stk.push(0, 7)
    node = stk.top.v
    assert stk.pop(1) == 7
    assert node.popper.v == 1


def test_stack_search_finds_only_linked_nodes():
    rt, stk = fresh()
    stk.push(0, 1)
    top = stk.top.v
    assert stk.stack_search(0, top) is True
    stk.pop(0)
    assert stk.stack_search(0, top) is False


class _LossRuntime(SimRuntime):
    """Notes the pid and the bound stack's contents right after each failed
    CAS on its ``top``."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.lost = []

    def cas(self, pid, cell, expected, new, note=None):
        ok = super().cas(pid, cell, expected, new, note)
        if not ok and cell is self.obj.top:
            self.lost.append((pid, self.obj.snapshot()))
        return ok


def test_push_that_loses_its_central_cas_links_nothing(monkeypatch):
    # pid 0 reads top and stops short of its CAS for some heads; pid 1's
    # push then wins, and right after pid 0's lost CAS the stack holds only
    # the winner's node.  Pid 0 then times out in the elimination layer and
    # retries centrally.
    from nvtrack import harness
    monkeypatch.setattr(harness, "SimRuntime", _LossRuntime)
    wl = {0: [("push", (10,))], 1: [("push", (20,))]}
    outcomes = set()
    for head in range(1, 8):
        quanta = ((0, head), (1, 100), (0, 100))
        out = run_schedule(STACK, wl, Schedule(quanta))
        assert all(loss == (0, [20]) for loss in out.rt.lost), out.rt.lost
        outcomes.add(bool(out.rt.lost))
        assert sorted(out.obj.snapshot()) == [10, 20]
    assert outcomes == {True, False}


def test_elimination_collision_pairs_push_with_pop():
    # both processes sit in the collision layer: a push and a pop visiting
    # slot 0 must pair, leaving the central stack untouched
    def visit_op(obj, pid, value):
        m = obj.m
        m.write(pid, m.rd[pid], CentralInfo(m, None))
        m.write(pid, m.cp[pid], 1)
        return obj.visit(pid, value, 1, 64)

    ops = {"visit": OpDef("visit", visit_op, visit_op)}
    adapter = StructureAdapter(STACK.make, ops, StackModel,
                               strict_exempt=("visit",))
    wl = {0: [("visit", (10,))], 1: [("visit", (NULL,))]}
    out = run_schedule(adapter, wl, Schedule(pattern_quanta("rr1", 2, 400)))
    r = {(e.pid, e.op): e.value for e in out.history if hasattr(e, "value")}
    assert r[(0, "visit")] is NULL      # push side learns it met a pop
    assert r[(1, "visit")] == 10        # pop side gets the pushed value
    assert out.obj.top.v is None
    assert out.obj.quiescent_slots()


def test_full_stack_elimination_under_contention():
    # run heavily contended schedules; whenever responses complete, LIFO
    # linearizability must hold and slots must drain
    wl = {0: [("push", (1,)), ("pop", ())], 1: [("pop", ()), ("push", (2,))]}
    for pattern in ("rr1", "rr2", "rand0", "rand1"):
        out = run_schedule(STACK, wl,
                           Schedule(pattern_quanta(pattern, 2, 800, seed=3)),
                           step_budget=500)
        assert not out.inconclusive
        assert check_nrl(out.history, StackModel()).ok
        assert out.obj.quiescent_slots()


def test_pop_on_empty_returns_empty_even_across_crash():
    probe = run_direct(STACK, [("pop", ())])
    for c in range(probe.granted):
        out = run_direct(STACK, [("pop", ())], crash_steps=[c])
        assert out.history[-1].value is EMPTY
        assert check_nrl(out.history, StackModel()).ok


def test_push_crash_at_every_point_keeps_exactly_one_copy():
    probe = run_direct(STACK, [("push", (9,))])
    for c in range(probe.granted):
        out = run_direct(STACK, [("push", (9,))], crash_steps=[c])
        assert out.history[-1].value is True
        assert out.obj.snapshot() == [9]


def test_pop_crash_at_every_point_pops_exactly_once():
    setup = (("push", (9,)),)
    probe = run_direct(STACK, [("pop", ())], setup=setup)
    for c in range(probe.granted):
        out = run_direct(STACK, [("pop", ())], setup=setup, crash_steps=[c])
        assert out.history[-1].value == 9
        assert out.obj.snapshot() == []
        assert check_nrl(out.history, StackModel((9,))).ok


def test_two_poppers_exactly_one_gets_the_value():
    wl = {0: [("pop", ())], 1: [("pop", ())]}

    def exactly_one(out):
        if out.inconclusive:
            return None
        vals = [e.value for e in out.history if hasattr(e, "value")]
        winners = [v for v in vals if v == 77]
        if len(winners) != 1 or sorted(map(str, vals)) != sorted(["77", "EMPTY"]):
            return f"expected one winner and one EMPTY, got {vals}"
        return None

    rep = detectability_sweep(STACK, wl, setup=(("push", (77,)),),
                              model_initial=(77,), seed=9, step_budget=400,
                              check_responses=exactly_one)
    assert rep.passed, (rep.summary(), rep.violations[:3])


def test_pushed_is_set_before_any_pop_cas(tracing):
    wl = {0: [("push", (1,)), ("pop", ())], 1: [("push", (2,)), ("pop", ())]}
    for pattern in ("rr1", "rand0"):
        out = run_schedule(STACK, wl,
                           Schedule(pattern_quanta(pattern, 2, 800, seed=4)),
                           step_budget=500)
        assert pushed_before_pop(out.rt.trace)


# -- accesses per operation -------------------------------------------------

def _counts(runtime_cls, op, *args, setup=()):
    rt = runtime_cls(1)
    stk = rt.bind(EliminationStack(rt))
    for value in setup:
        stk.push(0, value)
    rt.counts.clear()
    op(stk, 0, *args)
    return dict(rt.counts)


def test_uncontended_ops_make_the_predicted_accesses(counting_runtime):
    # the top read at invocation is the first attempt's, a push's node is
    # allocated with its next set, and a record's node is a plain field, so
    # no access repeats
    assert _counts(counting_runtime, EliminationStack.push, 1) == {
        "read": 1, "write": 4, "cas": 1, "cells": 4}
    assert _counts(counting_runtime, EliminationStack.pop, setup=(1,)) == {
        "read": 2, "write": 4, "cas": 2, "cells": 1}
    assert _counts(counting_runtime, EliminationStack.pop) == {
        "read": 1, "write": 3, "cells": 1}


# -- the central retry after an elimination timeout ---------------------------

def _workload_trace(probe):
    """The probe's trace entries after its set-up, each with its step
    renumbered as the crash index that fires right after it."""
    base = probe.rt.steps - probe.granted
    return [entry[:-1] + (entry[-1] - base,) for entry in probe.rt.trace
            if entry[-1] > base]


def _retry_window(probe, pid, steps):
    """Crash indices that fall after ``pid`` re-read ``top`` for its central
    retry and before the retried CAS: the retry takes ``steps`` steps, the
    last of which rewrites ``rd`` from the timed-out exchange record to a
    central record."""
    rd = probe.rt.rd[pid]
    restamp = [step for kind, p, cell, old, new, _, _, step in _workload_trace(probe)
               if kind == "write" and p == pid and cell is rd
               and isinstance(old, ExchangeInfo) and old.result.v is UNSET
               and isinstance(new, CentralInfo)]
    assert len(restamp) == 1, restamp
    return range(restamp[0] - steps + 1, restamp[0] + 1)


def _sweep_retry(wl, setup, initial, head, steps, check_final):
    # pid 0 reads top and stops short of its CAS; pid 1 then changes top and
    # finishes, so pid 0 loses its CAS, waits alone in the elimination layer
    # until it times out, and retries centrally
    quanta = ((0, head), (1, 200), (0, 400))
    probe = run_schedule(STACK, wl, Schedule(quanta), setup=setup)
    cas = [(note, ok) for kind, p, _, _, _, ok, note, _ in _workload_trace(probe)
           if kind == "cas" and p == 0 and note in ("push", "pop")]
    assert cas == [(wl[0][0][0], False), (wl[0][0][0], True)]
    window = _retry_window(probe, 0, steps)
    assert window[-1] < probe.granted    # the sweep below crashes there too
    for c in range(probe.granted):
        out = run_schedule(STACK, wl, Schedule(quanta, (c,)), setup=setup)
        assert not out.inconclusive
        assert check_nrl(out.history, StackModel(initial)).ok, c
        assert check_strict_recoverability(out.history).ok, c
        check_final(out)


def test_push_retry_after_elimination_timeout_survives_every_crash(tracing):
    def check_final(out):
        assert sorted(out.obj.snapshot()) == [10, 20]
    # pid 0 stops after reading top and writing rd and cp; its retry reads
    # top and writes its node's next and rd
    _sweep_retry({0: [("push", (10,))], 1: [("push", (20,))]}, (), (),
                 3, 3, check_final)


def test_pop_retry_after_elimination_timeout_survives_every_crash(tracing):
    def check_final(out):
        values = [e.value for e in out.history if hasattr(e, "value")]
        assert sorted(values) == [77, 78] and out.obj.snapshot() == []
    # pid 0 stops after reading top, writing rd and cp, reading next and
    # writing pushed; its retry reads top and writes a new record to rd
    _sweep_retry({0: [("pop", ())], 1: [("pop", ())]},
                 (("push", (77,)), ("push", (78,))), (77, 78),
                 5, 2, check_final)


# -- the elimination range, a local of each operation --------------------------

class _LosingRuntime(SimRuntime):
    """Loses the next ``losses`` CAS on the bound stack's ``top``."""

    losses = 0

    def cas(self, pid, cell, expected, new, note=None):
        if cell is self.obj.top and self.losses:
            self.losses -= 1
            expected = object()          # equal to no value: the CAS fails
        return super().cas(pid, cell, expected, new, note)


def _recording(cls):
    class Recording(cls):
        """Notes the range of every visit, and the step it starts at."""

        def __init__(self, m, **kw):
            super().__init__(m, **kw)
            self.cells, self.starts = [], []

        def visit(self, p, value, cells, duration):
            self.cells.append(cells)
            self.starts.append(self.m.now())
            return super().visit(p, value, cells, duration)
    return Recording


STACK_OPS = {EliminationStack: STACK.ops,
             BaselineStack: structure_ops(BaselineStack, "push", "pop")}


def _losing_push(cls, losses, crash_steps=()):
    """A push that loses ``losses`` CAS on ``top``, on a stack of 3 slots."""
    rt = _LosingRuntime(1)
    stk = rt.bind(_recording(cls)(rt, slots=3))
    rt.losses = losses
    assert rt.run_ops_direct(0, [(STACK_OPS[cls]["push"], (1,))], crash_steps)
    assert rt.history[-1].value is True and rt.losses == 0
    return rt, stk


@pytest.mark.parametrize("cls", [EliminationStack, BaselineStack])
def test_elimination_range_grows_per_timeout_and_starts_at_one_per_operation(cls):
    # alone in the collision layer, every visit times out: the range grows
    # by one slot per timeout up to slots, and the next operation starts
    # again at one slot
    rt, stk = _losing_push(cls, 5)
    assert stk.cells == [1, 2, 3, 3, 3]
    rt.losses = 2
    assert rt.invoke(0, STACK_OPS[cls]["pop"]) == 1
    assert stk.cells == [1, 2, 3, 3, 3] + [1, 2]


@pytest.mark.parametrize("cls", [EliminationStack, BaselineStack])
def test_elimination_range_starts_at_one_in_a_rerun_after_a_crash(cls):
    # the crash fires at the first access of the push's third visit; the
    # push is run again, from one slot, and loses its last two CAS
    third = _losing_push(cls, 5)[1].starts[2]
    rt, stk = _losing_push(cls, 5, (third,))
    assert any(isinstance(e, CrashEvent) for e in rt.history)
    assert stk.cells == [1, 2, 3] + [1, 2]


# -- recovery dispatch branches, constructed deterministically ---------------

def _mid_visit_state(value):
    """A stack whose pid 0 crashed while its record was in the collision
    layer: rd holds an exchange record installed under checkpoint 1."""
    from nvtrack.rexchanger import EX_BUSY, EX_WAITING, ExchangeInfo
    rt = SimRuntime(2)
    stk = rt.bind(EliminationStack(rt, slots=2, exchange_wait=16))
    myop = ExchangeInfo(rt, EX_WAITING, value, slot=stk.exchangers[0])
    rt.write(0, rt.cp[0], 1)
    rt.write(0, rt.rd[0], myop)
    return rt, stk, myop


def test_push_recover_returns_true_after_completed_pop_collision():
    rt, stk, myop = _mid_visit_state(10)
    rt.write(1, myop.result, NULL)     # a pop's value was exchanged in
    assert stk.push_recover(0, 10) is True
    assert stk.snapshot() == []        # elimination left the stack untouched
    info = rt.rd[0].v
    assert isinstance(info, CentralInfo) and info.result.p is True


def test_push_recover_reinvokes_after_failed_collision():
    rt, stk, myop = _mid_visit_state(10)
    rt.write(0, stk.exchangers[0].slot, myop)   # crashed while waiting alone
    assert stk.push_recover(0, 10) is REINVOKE  # withdrawn, with no effect
    assert stk.quiescent_slots()
    assert stk.snapshot() == []
    assert rt.invoke(0, STACK.ops["push"], (10,)) is True
    assert stk.snapshot() == [10]               # re-invoked onto the stack


def test_push_recover_reinvokes_after_push_push_collision():
    # two pushes paired up: the exchanged value is the other push's, here
    # True, which is not a response; recovery must run the push again
    rt, stk, myop = _mid_visit_state(True)
    rt.write(1, myop.result, True)
    assert stk.push_recover(0, True) is REINVOKE
    assert stk.quiescent_slots()
    assert stk.snapshot() == []


def test_pushes_of_true_that_collide_are_not_lost():
    # the crash lands while pids 0 and 1, each pushing True, are colliding
    # in the elimination layer; recovery finishes the collision, so each
    # exchange record's result is the other push's True.  Both pushes must
    # run again, or two pushes respond True while only one True is popped
    wl = {pid: [("push", (True,)), ("pop", ())] for pid in range(3)}
    out = run_schedule(STACK, wl,
                       Schedule(pattern_quanta("rand2", 3, 1500, 2), (42,)),
                       setup=(("push", (77,)),), step_budget=500)
    assert any(isinstance(e, CrashEvent) for e in out.history)
    assert check_nrl(out.history, StackModel((77,))).ok


def test_pop_recover_returns_value_after_completed_push_collision():
    rt, stk, myop = _mid_visit_state(NULL)
    rt.write(1, myop.result, 42)       # a push's value was exchanged in
    assert stk.pop_recover(0) == 42
    info = rt.rd[0].v
    assert isinstance(info, CentralInfo) and info.result.p == 42


def test_pop_recover_reinvokes_after_pop_pop_collision():
    # two pops paired up: the exchanged value is the pop marker, which is
    # not a response; recovery must run the pop again, not return it
    rt, stk, myop = _mid_visit_state(NULL)
    rt.write(1, myop.result, NULL)
    assert stk.pop_recover(0) is REINVOKE
    assert stk.quiescent_slots()
    assert stk.snapshot() == []
    assert rt.invoke(0, STACK.ops["pop"]) is EMPTY
    assert rt.invoke(0, STACK.ops["push"], (10,)) is True
    assert stk.snapshot() == [10]


def test_push_recover_detects_success_via_pushed_flag_after_rival_pop():
    # crash right after the top CAS; a rival pops the node (setting pushed
    # on the way) before recovery runs; recovery must still report success
    wl = {0: [("push", (5,))], 1: [("pop", ())]}
    quanta = pattern_quanta("block", 2, 600)
    probe = run_schedule(STACK, wl, Schedule(quanta))
    hit = False
    for c in range(probe.granted):
        out = run_schedule(STACK, wl, Schedule(quanta, (c,)))
        r = {(e.pid, e.op): e.value for e in out.history
             if hasattr(e, "value")}
        assert check_nrl(out.history, StackModel()).ok
        if r.get((0, "push")) is True and r.get((1, "pop")) == 5 \
                and out.obj.snapshot() == []:
            hit = True
    assert hit


def test_three_process_sweep_recovers_from_paired_exchange_records():
    # with two processes no elimination exchange ever pairs, so only a third
    # process brings crashes into the collision path of push/pop recovery
    paired = []

    def watching(recover):
        def wrapped(obj, pid, *args):
            rec = obj.m.rd[pid].v
            if isinstance(rec, ExchangeInfo) and (
                    rec.partner.v is not None or rec.result.v is not UNSET):
                paired.append(pid)
            return recover(obj, pid, *args)
        return wrapped

    ops = {name: dataclasses.replace(op, recover=watching(op.recover))
           for name, op in STACK.ops.items()}
    adapter = dataclasses.replace(STACK, ops=ops)
    for seed in (0, 1):
        wl, setup, initial = default_workload("stack", 3, 2, seed)
        rep = detectability_sweep(adapter, wl, setup=setup, model_initial=initial,
                                  seed=seed, samples=40)
        assert rep.passed, rep.summary()
    assert paired


def test_native_threads_leave_pushes_minus_pops_on_the_stack(run_threads):
    rt = NativeRuntime(4)
    stk = EliminationStack(rt, slots=2, seed=3)
    for v in range(-10, 0):
        stk.push(0, v)
    pushed, popped = [[] for _ in range(4)], [[] for _ in range(4)]

    def work(pid):
        rng = random.Random(pid)
        for i in range(1_000):
            rt.invoke_reset(pid)
            if rng.random() < 0.5:
                assert stk.push(pid, 10_000 * pid + i) is True
                pushed[pid].append(10_000 * pid + i)
            else:
                popped[pid].append(stk.pop(pid))

    run_threads(4, work)
    got = [v for vs in popped for v in vs if v is not EMPTY]
    assert len(got) == len(set(got))             # nothing popped twice
    left = set(range(-10, 0)).union(*pushed)
    assert left >= set(got)                      # nothing popped unpushed
    assert sorted(stk.snapshot()) == sorted(left - set(got))
    assert stk.quiescent_slots()
