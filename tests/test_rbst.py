"""Leaf-oriented non-blocking BST: shape, helping, recovery."""

import random

from hypothesis import given, settings, strategies as st

from nvtrack.harness import (
    STRUCTURES,
    Schedule,
    detectability_sweep,
    pattern_quanta,
    result_set_before_unflag,
    run_direct,
    run_schedule,
    structural_change_once_per_record,
)
from nvtrack.checker import SetModel, check_nrl
from nvtrack.rbst import INF1, INF2, Internal, InsertInfo, Leaf, RecoverableBst
from nvtrack.runtime import (
    CLEAN, DFLAG, IFLAG, MARK, NativeRuntime, SimRuntime, UNSET, UpdateWord)

BST = STRUCTURES["bst"]


def fresh(nprocs=1):
    rt = SimRuntime(nprocs)
    return rt, rt.bind(RecoverableBst(rt))


def test_initial_shape():
    rt, t = fresh()
    assert t.root.key == INF2
    assert t.root.update.v.state == CLEAN
    assert t.node_count() == 3
    assert t.contains(0, 5) is False


def test_fresh_search_lands_on_inf1_leaf_under_root():
    rt, t = fresh()
    gp, par, leaf, pu, gpu = t.search(0, 5)
    assert par is t.root and leaf.key == INF1
    assert gp is None and gpu is None
    assert pu == t.root.update.v


def test_insert_find_delete_roundtrip():
    rt, t = fresh()
    assert t.insert(0, 5) is True
    assert t.find(0, 5).key == 5
    assert t.search(0, 5)[2].key == 5
    assert t.delete(0, 5) is True
    assert t.find(0, 5) is None
    assert t.node_count() >= 3


def test_duplicate_insert_persists_false_record():
    rt, t = fresh()
    t.insert(0, 5)
    assert t.insert(0, 5) is False
    rec = rt.rd[0].v
    assert rec.result.p is False and rec.p is None


def test_delete_absent_returns_false():
    rt, t = fresh()
    assert t.delete(0, 5) is False


def test_tree_never_shrinks_below_three_nodes():
    rt, t = fresh()
    t.insert(0, 5)
    t.delete(0, 5)
    assert t.node_count() == 3
    assert t.well_formed()


def test_cas_child_equal_key_goes_right():
    rt = SimRuntime(1)
    t = RecoverableBst(rt)
    left, right = Leaf(1), Leaf(7)
    parent = Internal(rt, 7, left, right)
    new = Leaf(7)
    t.cas_child(0, parent, right, new)
    assert parent.right.v is new and parent.left.v is left


def test_help_insert_is_idempotent_under_replay():
    rt, t = fresh()
    _, par, leaf, pu, _ = t.search(0, 5)
    new_leaf, sibling = Leaf(5), Leaf(leaf.key)
    ni = Internal(rt, max(5, leaf.key), new_leaf, sibling)
    op = InsertInfo(rt, par, leaf, ni)
    assert rt.cas(0, par.update, pu, UpdateWord(IFLAG, op))
    t.help_insert(0, op)
    t.help_insert(0, op)    # replay by a helper
    assert op.result.v is True
    assert par.update.v == UpdateWord(CLEAN, op)
    assert t.snapshot() == {5}
    assert t.well_formed()


def test_two_inserts_race_both_succeed_on_distinct_keys():
    wl = {0: [("insert", (3,))], 1: [("insert", (4,))]}

    def both_true(out):
        if out.inconclusive:
            return None
        vals = [e.value for e in out.history if hasattr(e, "value")]
        if vals != [True, True] and sorted(map(bool, vals)) != [True, True]:
            return f"expected both inserts to succeed, got {vals}"
        if out.obj.snapshot() != {3, 4} or not out.obj.well_formed():
            return f"bad final tree {out.obj.snapshot()}"
        return None

    rep = detectability_sweep(BST, wl, seed=2, step_budget=400,
                              check_responses=both_true)
    assert rep.passed, (rep.summary(), rep.violations[:3])


def test_insert_crash_at_every_point_applies_once():
    probe = run_direct(BST, [("insert", (5,))])
    for c in range(probe.granted):
        out = run_direct(BST, [("insert", (5,))], crash_steps=[c], trace=True)
        assert out.history[-1].value is True
        assert out.obj.snapshot() == {5}
        assert out.obj.well_formed()
        assert check_nrl(out.history, SetModel()).ok
        assert structural_change_once_per_record(out.rt.trace)


def test_delete_crash_at_every_point_applies_once():
    setup = (("insert", (5,)), ("insert", (8,)))
    probe = run_direct(BST, [("delete", (5,))], setup=setup)
    for c in range(probe.granted):
        out = run_direct(BST, [("delete", (5,))], setup=setup, crash_steps=[c])
        assert out.history[-1].value is True
        assert out.obj.snapshot() == {8}
        assert out.obj.well_formed()
        assert check_nrl(out.history, SetModel({5, 8})).ok


def test_find_recovery_reissues_and_agrees_with_oracle():
    setup = (("insert", (5,)),)
    probe = run_direct(BST, [("contains", (5,))], setup=setup)
    for c in range(probe.granted):
        out = run_direct(BST, [("contains", (5,))], setup=setup, crash_steps=[c])
        assert out.history[-1].value is True


def test_result_written_before_unflag_in_all_schedules():
    wl = {0: [("insert", (3,)), ("delete", (3,))],
          1: [("insert", (4,)), ("delete", (3,))]}
    for pattern in ("rr1", "rr2", "rand0"):
        out = run_schedule(BST, wl,
                           Schedule(pattern_quanta(pattern, 2, 900, seed=6)),
                           trace=True, step_budget=500)
        assert result_set_before_unflag(out.rt.trace)
        assert check_nrl(out.history, SetModel()).ok


def _legal_word_transitions(trace):
    # per update cell: Clean->IFlag->Clean, Clean->DFlag->(Clean | stays
    # DFlag while p gets marked); Mark is terminal
    last = {}
    for kind, _pid, cell, old, new, ok, note, _t in trace:
        if kind != "cas" or not ok or not isinstance(new, UpdateWord):
            continue
        prev = last.get(id(cell), CLEAN)
        cur = new.state
        allowed = {
            CLEAN: (IFLAG, DFLAG, MARK),
            IFLAG: (CLEAN,),
            DFLAG: (CLEAN,),
            MARK: (),
        }[prev]
        if cur not in allowed:
            return False
        last[id(cell)] = cur
    return True


def test_update_word_state_machine_is_legal():
    wl = {0: [("insert", (3,)), ("delete", (3,))],
          1: [("delete", (3,)), ("insert", (4,))]}
    for pattern in ("rr1", "rand1"):
        out = run_schedule(BST, wl,
                           Schedule(pattern_quanta(pattern, 2, 900, seed=8)),
                           trace=True, step_budget=500)
        assert _legal_word_transitions(out.rt.trace)
        assert structural_change_once_per_record(out.rt.trace)


@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "contains"]),
                          st.integers(0, 11)), max_size=60))
@settings(max_examples=100, deadline=None)
def test_matches_set_oracle_sequentially(ops):
    rt, t = fresh()
    model = set()
    for op, k in ops:
        if op == "insert":
            assert t.insert(0, k) == (k not in model)
            model.add(k)
        elif op == "delete":
            assert t.delete(0, k) == (k in model)
            model.discard(k)
        else:
            assert t.contains(0, k) == (k in model)
    assert t.snapshot() == model
    assert t.well_formed()


def test_native_threads_leave_the_keys_the_responses_imply(run_threads):
    rt = NativeRuntime(4)
    t = RecoverableBst(rt)
    keys = range(1, 17)
    for k in keys[::2]:
        t.insert(0, k)
    # per key: successful inserts minus successful deletes, per thread
    net = [dict.fromkeys(keys, 0) for _ in range(4)]

    def work(pid):
        rng = random.Random(pid)
        for _ in range(1_000):
            rt.invoke_reset(pid)
            k, r = rng.choice(keys), rng.random()
            if r < 0.2:
                t.contains(pid, k)
            elif r < 0.6:
                net[pid][k] += t.insert(pid, k)
            else:
                net[pid][k] -= t.delete(pid, k)

    run_threads(4, work)
    final = {k: (k in keys[::2]) + sum(n[k] for n in net) for k in keys}
    assert set(final.values()) <= {0, 1}
    assert t.snapshot() == {k for k, n in final.items() if n}
    assert t.well_formed()
    assert t.node_count() == 2 * len(t.snapshot()) + 3
