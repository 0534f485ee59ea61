"""Recoverable linked-list set: sequential behavior, recovery, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from nvtrack.harness import (
    STRUCTURES,
    Schedule,
    detectability_sweep,
    link_once_per_node,
    pattern_quanta,
    run_direct,
    run_schedule,
    unlink_once,
    write_once,
)
from nvtrack.checker import SetModel, check_nrl
from nvtrack.rlist import KEY_MAX, KEY_MIN, RecoverableList
from nvtrack.runtime import MarkedRef, SimRuntime, UNSET

LIST = STRUCTURES["list"]
FLUSH_LIST = STRUCTURES["list-flush"]


def fresh(nprocs=1, **kw):
    rt = SimRuntime(nprocs, **kw)
    return rt, rt.bind(RecoverableList(rt))


def test_init_is_empty():
    rt, lst = fresh()
    for k in (0, 1, 17, -4):
        assert lst.find(0, k) is False


def test_init_twice_gives_independent_lists():
    rt = SimRuntime(1)
    a, b = RecoverableList(rt), RecoverableList(rt)
    a.insert(0, 5)
    assert a.find(0, 5) and not b.find(0, 5)


def test_insert_find_delete_roundtrip():
    rt, lst = fresh()
    assert lst.insert(0, 5) is True
    assert lst.find(0, 5) is True
    assert lst.delete(0, 5) is True
    assert lst.find(0, 5) is False
    assert lst.delete(0, 5) is False


def test_duplicate_insert_persists_false_response():
    rt, lst = fresh()
    lst.insert(0, 5)
    assert lst.insert(0, 5) is False
    info = rt.rd[0].v
    assert info.result.p is False


def test_search_on_empty_returns_sentinels():
    rt, lst = fresh()
    pred, curr = lst.search(0, 5)
    assert pred is lst.head and curr.key == KEY_MAX


def test_search_lands_between_neighbors():
    rt, lst = fresh()
    lst.insert(0, 3)
    lst.insert(0, 7)
    pred, curr = lst.search(0, 5)
    assert pred.key == 3 and curr.key == 7


def test_search_unlinks_pre_marked_node():
    rt, lst = fresh()
    for k in (3, 4, 7):
        lst.insert(0, k)
    node4 = lst.search(0, 4)[1]
    succ = node4.next.v
    assert rt.cas(0, node4.next, MarkedRef(succ.ref, False),
                  MarkedRef(succ.ref, True))
    pred, curr = lst.search(0, 5)
    assert (pred.key, curr.key) == (3, 7)
    assert 4 not in lst.snapshot()
    chain_keys = [n.key for n in lst.persisted_chain()]
    assert 4 not in chain_keys or rt.cache == "volatile"


def test_deleter_recorded_for_winner():
    rt, lst = fresh(nprocs=3)
    lst.insert(0, 5)
    assert lst.delete(2, 5) is True
    # the deleted node is unreachable now; grab it from pid 2's record
    info = rt.rd[2].v
    assert info.nd.v.deleter.v == 2


def test_insert_crash_at_every_point_yields_true_and_single_copy():
    probe = run_direct(LIST, [("insert", (5,))])
    for c in range(probe.granted):
        out = run_direct(LIST, [("insert", (5,))], crash_steps=[c], trace=True)
        assert out.obj.snapshot() == {5}
        assert check_nrl(out.history, SetModel()).ok
        resp = out.history[-1]
        assert resp.value is True
        # the realization CAS linking any one node happened at most once
        assert link_once_per_node(out.rt.trace)


def test_delete_crash_at_every_point_matches_oracle():
    setup = (("insert", (5,)),)
    probe = run_direct(LIST, [("delete", (5,))], setup=setup)
    for c in range(probe.granted):
        out = run_direct(LIST, [("delete", (5,))], setup=setup, crash_steps=[c])
        assert out.obj.snapshot() == set()
        assert out.history[-1].value is True
        assert check_nrl(out.history, SetModel({5})).ok


def test_recover_after_persisted_result_issues_no_new_link_cas():
    probe = run_direct(LIST, [("insert", (5,))], trace=True)
    total = probe.granted
    # crash at the very last step (the response was already persisted)
    out = run_direct(LIST, [("insert", (5,))], crash_steps=[total - 1],
                     trace=True)
    links = [e for e in out.rt.trace if e[0] == "cas" and e[6] == "link" and e[5]]
    assert len(links) == 1
    assert out.history[-1].value is True


def test_rival_delete_between_crash_and_recovery_still_returns_true():
    # pid 0 crashes right after its realization CAS; pid 1 then deletes the
    # key; pid 0's recovery must still report success via the mark.
    wl = {0: [("insert", (5,))], 1: [("delete", (5,))]}
    quanta = pattern_quanta("block", 2, 600)
    probe = run_schedule(LIST, wl, Schedule(quanta))
    hit = False
    for c in range(probe.granted):
        out = run_schedule(LIST, wl, Schedule(quanta, crashes=(c,)))
        ops = {(e.pid, e.op): e.value for e in out.history
               if hasattr(e, "value")}
        assert check_nrl(out.history, SetModel()).ok
        if ops.get((0, "insert")) is True and ops.get((1, "delete")) is True \
                and out.obj.snapshot() == set():
            hit = True
    assert hit


def test_two_deleters_exactly_one_wins():
    wl = {0: [("delete", (5,))], 1: [("delete", (5,))]}
    rep = detectability_sweep(
        LIST, wl, setup=(("insert", (5,)),), model_initial={5},
        step_budget=400, seed=11,
        check_responses=lambda out: _exactly_one_true(out))
    assert rep.passed, rep.violations[:3]
    assert rep.total > 50


def _exactly_one_true(out):
    vals = [e.value for e in out.history if hasattr(e, "value")]
    if out.inconclusive:
        return None
    if sum(1 for v in vals if v is True) != 1:
        return f"expected exactly one successful delete, responses={vals}"
    return None


def test_trace_invariants_over_contended_schedules():
    wl = {0: [("insert", (5,)), ("delete", (5,))],
          1: [("delete", (5,)), ("insert", (5,))]}
    for pattern in ("rr1", "rr2", "rand0"):
        quanta = pattern_quanta(pattern, 2, 800, seed=5)
        out = run_schedule(LIST, wl, Schedule(quanta), trace=True,
                           setup=(("insert", (3,)),))
        trace = out.rt.trace
        assert write_once(trace, "mark")
        assert write_once(trace, "deleter")
        assert unlink_once(trace)
        assert link_once_per_node(trace)


def test_sortedness_at_quiescence():
    rt, lst = fresh()
    for k in (9, 1, 5, 3, 7):
        lst.insert(0, k)
    lst.delete(0, 5)
    keys = [n.key for n in lst.persisted_chain()]
    assert keys == sorted(keys)
    assert keys[0] == KEY_MIN and keys[-1] == KEY_MAX


@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "find"]),
                          st.integers(0, 11)), max_size=60))
@settings(max_examples=100, deadline=None)
def test_matches_set_oracle_sequentially(ops):
    rt, lst = fresh()
    model = set()
    for op, k in ops:
        if op == "insert":
            assert lst.insert(0, k) == (k not in model)
            model.add(k)
        elif op == "delete":
            assert lst.delete(0, k) == (k in model)
            model.discard(k)
        else:
            assert lst.find(0, k) == (k in model)
    assert lst.snapshot() == model


@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "find"]),
                          st.integers(0, 11)), max_size=40))
@settings(max_examples=50, deadline=None)
def test_flush_variant_equals_plain_variant_in_durable_mode(ops):
    rt1 = SimRuntime(1)
    plain = RecoverableList(rt1)
    rt2 = SimRuntime(1)
    flush = RecoverableList(rt2, flush_protocol=True)
    for op, k in ops:
        r1 = getattr(plain, op)(0, k)
        r2 = getattr(flush, op)(0, k)
        assert r1 == r2
    assert plain.snapshot() == flush.snapshot()


def test_flush_init_persists_sentinels():
    rt = SimRuntime(1, cache="volatile")
    lst = RecoverableList(rt, flush_protocol=True)
    rt.crash()
    chain = lst.persisted_chain()
    assert [n.key for n in chain] == [KEY_MIN, KEY_MAX]
    assert lst.find(0, 5) is False


def test_traversal_persists_unflushed_nodes_it_passes():
    # pause the inserter right after its link CAS: a concurrent reader walking
    # past the new node must flush the inbound link and the flushed flag
    wl = {0: [("insert", (5,))], 1: [("find", (7,))]}
    saw_reader_flush = False
    for head in range(1, 14):
        quanta = ((0, head), (1, 200), (0, 200))
        out = run_schedule(FLUSH_LIST, wl, Schedule(quanta),
                           setup=(("insert", (7,)),), cache="volatile",
                           trace=True)
        r = {(e.pid, e.op): e.value for e in out.history if hasattr(e, "value")}
        assert r[(0, "insert")] is True and r[(1, "find")] is True
        reader_flushes = [e for e in out.rt.trace
                          if e[0] == "flush" and e[1] == 1]
        writes_true = [e for e in out.rt.trace
                       if e[0] == "write" and e[1] == 1 and e[4] is True]
        if reader_flushes and writes_true:
            saw_reader_flush = True
    assert saw_reader_flush


def test_flush_variant_persists_mark_before_unlink():
    # A helper's unlink must not persist ahead of the mark it depends on:
    # otherwise a crash keeps the unlink, drops the mark, and the deleter's
    # recovery reports False for a key that vanished.
    report = detectability_sweep(
        FLUSH_LIST, {0: [("delete", (5,)), ("insert", (5,))],
                     1: [("insert", (5,)), ("insert", (7,))]},
        setup=(("insert", (5,)),), model_initial={5}, patterns=("rand0",),
        seed=305, step_budget=600, cache="volatile")
    assert report.passed, report.violations[:1]
