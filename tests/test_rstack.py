"""Elimination stack: LIFO behavior, arbitration, elimination, recovery."""

import dataclasses
import random

from nvtrack.cli import default_workload
from nvtrack.harness import (
    STRUCTURES,
    Schedule,
    StructureAdapter,
    detectability_sweep,
    pattern_quanta,
    pushed_before_pop,
    run_direct,
    run_schedule,
)
from nvtrack.checker import StackModel, check_nrl
from nvtrack.rstack import CentralInfo, EliminationStack, StackNode
from nvtrack.rexchanger import ExchangeInfo
from nvtrack.runtime import (
    EMPTY, NULL, NativeRuntime, OpDef, SimRuntime, TIMEOUT, UNSET)

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


def test_try_push_contended_loss_leaves_no_trace_of_loser():
    # a single central-stack attempt per op, interleaved with a full push
    def one_try_push(obj, pid, value):
        m = obj.m
        nd = StackNode(m, value)
        data = CentralInfo(m, nd)
        m.write(pid, m.rd[pid], data)
        m.write(pid, m.cp[pid], 1)
        return obj.try_push(pid, data)

    ops = {
        "try_push": OpDef("try_push", one_try_push, one_try_push),
        "push": STACK.ops["push"],
    }
    adapter = StructureAdapter("stack-once", STACK.make, ops, StackModel,
                               strict_exempt=("try_push",))
    wl = {0: [("try_push", (10,))], 1: [("push", (20,))]}
    outcomes = set()
    for head in range(1, 8):
        quanta = ((0, head), (1, 100), (0, 100))
        out = run_schedule(adapter, wl, Schedule(quanta))
        r = {(e.pid, e.op): e.value for e in out.history if hasattr(e, "value")}
        outcomes.add(r[(0, "try_push")])
        contents = out.obj.snapshot()
        if r[(0, "try_push")]:
            assert sorted(contents) == [10, 20]
        else:
            assert contents == [20]   # loser left nothing behind
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
    adapter = StructureAdapter("stack-visit", STACK.make, ops, StackModel,
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


def test_pushed_is_set_before_any_pop_cas():
    wl = {0: [("push", (1,)), ("pop", ())], 1: [("push", (2,)), ("pop", ())]}
    for pattern in ("rr1", "rand0"):
        out = run_schedule(STACK, wl,
                           Schedule(pattern_quanta(pattern, 2, 800, seed=4)),
                           trace=True, step_budget=500)
        assert pushed_before_pop(out.rt.trace)


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
    assert stk.push_recover(0, 10) is True
    assert stk.snapshot() == [10]               # re-invoked onto the stack
    assert stk.quiescent_slots()


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
    assert stk.pop_recover(0) is EMPTY


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
