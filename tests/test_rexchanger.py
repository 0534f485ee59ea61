"""Exchanger pairing, timeout behavior, and recovery."""

from nvtrack.harness import (
    STRUCTURES,
    Schedule,
    pattern_quanta,
    run_schedule,
)
from nvtrack.checker import ExchangeModel, check_nrl
from nvtrack.rexchanger import (
    EX_EMPTY,
    ExchangeInfo,
    Exchanger,
    TimedExchanger,
)
from nvtrack.runtime import SimRuntime, TIMEOUT, UNSET

EXCHANGER = STRUCTURES["exchanger"]
TIMED = STRUCTURES["exchanger-timed"]


def test_switch_pair_swaps_values():
    rt = SimRuntime(1)
    ex = Exchanger(rt)
    a = ExchangeInfo(rt, EX_EMPTY, 1)
    b = ExchangeInfo(rt, EX_EMPTY, 2)
    ex.switch_pair(0, a, b)
    assert a.result.v == 2 and b.result.v == 1
    ex.switch_pair(0, a, b)   # replay writes the same values
    assert a.result.v == 2 and b.result.v == 1


def _responses(history):
    return {(e.pid, e.op): e.value for e in history if hasattr(e, "value")}


def test_two_processes_swap_and_slot_resets():
    wl = {0: [("exchange", (10,))], 1: [("exchange", (20,))]}
    out = run_schedule(EXCHANGER, wl, Schedule(pattern_quanta("rr1", 2, 400)))
    r = _responses(out.history)
    assert r[(0, "exchange")] == 20 and r[(1, "exchange")] == 10
    assert out.obj.slot.v is out.obj.default


def test_pairing_holds_for_every_crash_placement():
    wl = {0: [("exchange", (10,))], 1: [("exchange", (20,))]}
    quanta = pattern_quanta("rr1", 2, 400)
    probe = run_schedule(EXCHANGER, wl, Schedule(quanta), step_budget=300)
    for c in range(probe.granted):
        out = run_schedule(EXCHANGER, wl, Schedule(quanta, (c,)),
                           step_budget=300)
        assert check_nrl(out.history, ExchangeModel()).ok
        if not out.inconclusive:
            r = _responses(out.history)
            assert r[(0, "exchange")] == 20 and r[(1, "exchange")] == 10
            assert out.obj.slot.v is out.obj.default


def test_third_process_helps_or_keeps_waiting():
    wl = {0: [("exchange", (10,))], 1: [("exchange", (20,))],
          2: [("exchange", (30,))]}
    out = run_schedule(EXCHANGER, wl, Schedule(pattern_quanta("rr1", 3, 900)),
                       step_budget=200)
    # with three parties exactly one exchange is left waiting forever
    assert out.inconclusive
    assert check_nrl(out.history, ExchangeModel()).ok
    done = _responses(out.history)
    values = {0: 10, 1: 20, 2: 30}
    assert len(done) == 2
    (p1, _), (p2, _) = done.keys()
    assert done[(p1, "exchange")] == values[p2]
    assert done[(p2, "exchange")] == values[p1]


def test_timed_lone_caller_times_out_and_releases_slot():
    rt = SimRuntime(1)
    ex = rt.bind(STRUCTURES["exchanger-timed"].make(rt))
    resp = rt.invoke(0, TIMED.ops["exchange"], (5,))
    assert resp is TIMEOUT
    assert ex.slot.v is ex.default


def test_timed_collision_beats_timeout_release():
    # scan interleavings around the deadline: whenever the waiter's release
    # CAS fails, a collision arrived and a value must be returned
    wl = {0: [("exchange", (10,))], 1: [("exchange", (20,))]}
    saw_late_collision = False
    for head_steps in range(1, 60):
        quanta = ((0, head_steps), (1, 200), (0, 400), (1, 400))
        out = run_schedule(TIMED, wl, Schedule(quanta), step_budget=300)
        r = _responses(out.history)
        a, b = r[(0, "exchange")], r[(1, "exchange")]
        assert out.obj.slot.v is out.obj.default
        # a timed-out exchange is never half of a completed collision
        assert (a, b) == (20, 10) or (a is TIMEOUT and b is TIMEOUT)
        if (a, b) == (20, 10):
            saw_late_collision = True
    assert saw_late_collision


def test_timed_recovery_completes_or_abandons():
    wl = {0: [("exchange", (10,))], 1: [("exchange", (20,))]}
    quanta = pattern_quanta("rr1", 2, 500)
    probe = run_schedule(TIMED, wl, Schedule(quanta), step_budget=300)
    for c in range(probe.granted):
        out = run_schedule(TIMED, wl, Schedule(quanta, (c,)), step_budget=300)
        assert check_nrl(out.history, ExchangeModel()).ok
        assert out.obj.slot.v is out.obj.default or out.inconclusive


def test_crashed_sole_waiter_resumes_waiting_then_pairs():
    # crash pid 0 right after it captured the slot; recovery resumes the wait
    # and the late-arriving pid 1 still collides with the same record.
    wl = {0: [("exchange", (10,))], 1: [("exchange", (20,))]}
    quanta = ((0, 6), (1, 400), (0, 400))
    for c in range(1, 7):
        out = run_schedule(EXCHANGER, wl, Schedule(quanta, (c,)),
                           step_budget=300)
        assert check_nrl(out.history, ExchangeModel()).ok
        if not out.inconclusive:
            r = _responses(out.history)
            assert r[(0, "exchange")] == 20 and r[(1, "exchange")] == 10
