"""Recoverable linked-list set: sequential behavior, recovery, invariants."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from nvtrack import harness
from nvtrack.harness import (
    STRUCTURES,
    Schedule,
    detectability_sweep,
    pattern_quanta,
    run_direct,
    run_schedule,
)
from nvtrack.checker import SetModel, check_nrl
from nvtrack.rlist import (
    KEY_MAX,
    KEY_MIN,
    ListInfo,
    ListNode,
    PersistedRef,
    RecoverableList,
)
from nvtrack.runtime import (
    UNSET,
    CrashEvent,
    Invoke,
    MarkedRef,
    NativeRuntime,
    Response,
    SimRuntime,
)
from traces import TracingRuntime, link_once_per_node, unlink_once, write_once

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
    assert 4 not in chain_keys          # fresh() is durable: the unlink persisted


def test_deleter_recorded_for_winner():
    rt, lst = fresh(nprocs=3)
    lst.insert(0, 5)
    assert lst.delete(2, 5) is True
    # the deleted node is unreachable now; grab it from pid 2's record
    info = rt.rd[2].v
    assert info.nd.v.deleter.v == 2


def test_insert_crash_at_every_point_yields_true_and_single_copy(tracing):
    probe = run_direct(LIST, [("insert", (5,))])
    for c in range(probe.granted):
        out = run_direct(LIST, [("insert", (5,))], crash_steps=[c])
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


def test_recover_after_persisted_result_issues_no_new_link_cas(tracing):
    probe = run_direct(LIST, [("insert", (5,))])
    total = probe.granted
    # crash at the very last step (the response was already persisted)
    out = run_direct(LIST, [("insert", (5,))], crash_steps=[total - 1])
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


def test_trace_invariants_over_contended_schedules(tracing):
    wl = {0: [("insert", (5,)), ("delete", (5,))],
          1: [("delete", (5,)), ("insert", (5,))]}
    for pattern in ("rr1", "rr2", "rand0"):
        quanta = pattern_quanta(pattern, 2, 800, seed=5)
        out = run_schedule(LIST, wl, Schedule(quanta), setup=(("insert", (3,)),))
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


def test_traversal_persists_unflushed_nodes_it_passes(tracing):
    # pause the inserter right after its link CAS: a concurrent reader walking
    # past the new node must flush the inbound link, then flag it with a CAS
    wl = {0: [("insert", (5,))], 1: [("find", (7,))]}
    saw_reader_flag = False
    for head in range(1, 14):
        quanta = ((0, head), (1, 200), (0, 200))
        out = run_schedule(FLUSH_LIST, wl, Schedule(quanta),
                           setup=(("insert", (7,)),), cache="volatile")
        r = {(e.pid, e.op): e.value for e in out.history if hasattr(e, "value")}
        assert r[(0, "insert")] is True and r[(1, "find")] is True
        reader = [e for e in out.rt.trace if e[1] == 1]
        for flush, flag in zip(reader, reader[1:]):
            if (flush[0] == "flush" and flag[0] == "cas" and flag[6] == "flag"
                    and flag[2] is flush[2] and flag[5]
                    and type(flag[4]) is PersistedRef and flag[4].ref.key == 5):
                saw_reader_flag = True
    assert saw_reader_flag


def test_only_an_unmarked_flagged_word_is_settled():
    node = object()
    words = (MarkedRef(node, False), MarkedRef(node, True),
             PersistedRef(node, False), PersistedRef(node, True))
    assert [w.settled for w in words] == [False, False, True, False]
    assert [(w.ref, w.marked) for w in words] == [(node, False), (node, True)] * 2
    assert MarkedRef.__slots__ == ("ref", "marked")   # a plain word holds no flag


def test_flush_walks_over_flagged_links_read_what_list_rec_reads(counting_runtime):
    class CellReads(counting_runtime):
        def read(self, pid, cell):
            self.cells.append(cell)
            return super().read(pid, cell)

    keys, reads = (0, 3, 5, 7, 9, 11), {}
    for fp in (False, True):
        rt = CellReads(1, cache="volatile" if fp else "durable")
        rt.cells = []
        lst = rt.bind(RecoverableList(rt, flush_protocol=fp))
        for k in (3, 5, 9):
            lst.insert(0, k)
        lst.find(0, KEY_MAX)                      # flags every link, the tail's too
        owner, node = {}, lst.head
        while node is not None:
            owner[id(node.next)] = node.key
            assert node.next.v.settled is fp
            node = node.next.v.ref
        rt.counts.clear()
        rt.cells = []
        assert [lst.find(0, k) for k in keys] == [False, True, True, False, True, False]
        assert [tuple(n.key for n in lst.search(0, k)) for k in keys] == [
            (KEY_MIN, 3), (KEY_MIN, 3), (3, 5), (5, 9), (5, 9), (9, KEY_MAX)]
        assert dict(rt.counts) == {"read": len(rt.cells)}    # no flush, no CAS
        reads[fp] = [owner[id(cell)] for cell in rt.cells]
    assert reads[True] == reads[False]


@pytest.mark.parametrize("flush_protocol", [False, True], ids=["list", "list-flush"])
def test_sequential_delete_reads_the_victims_next_once_after_search(counting_runtime,
                                                                    flush_protocol):
    rt = counting_runtime(1, cache="volatile" if flush_protocol else "durable")
    lst = rt.bind(RecoverableList(rt, flush_protocol=flush_protocol))
    for k in (3, 5, 7):
        lst.insert(0, k)
    rt.counts.clear()
    assert lst.delete(0, 5) is True
    # search reads the links of head, 3 and 5, and the mark loop reads 5's
    # link once more: a mark CAS that succeeds needs no read after it
    expected = {"read": 4, "write": 4, "cas": 3, "cells": 2}
    if flush_protocol:
        expected["flush"] = 6
    assert dict(rt.counts) == expected


def test_cas_expecting_plain_word_matches_flagged_word_and_stores_new_word():
    node, other = object(), object()
    for rt in (NativeRuntime(1), SimRuntime(1)):
        cell = rt.new_cell(PersistedRef(node, False))
        new = MarkedRef(other, False)
        assert rt.cas(0, cell, MarkedRef(node, False), new)
        assert cell.v is new and type(cell.v) is MarkedRef


@pytest.mark.parametrize("flush_protocol", [False, True], ids=["list", "list-flush"])
def test_native_threads_leave_the_keys_the_responses_imply(run_threads,
                                                          flush_protocol):
    rt = NativeRuntime(4)
    lst = RecoverableList(rt, flush_protocol=flush_protocol)
    keys = range(1, 17)
    for k in keys[::2]:
        lst.insert(0, k)
    # per key: successful inserts minus successful deletes, per thread
    net = [dict.fromkeys(keys, 0) for _ in range(4)]

    def work(pid):
        rng = random.Random(pid)
        for _ in range(1_000):
            rt.invoke_reset(pid)
            k, r = rng.choice(keys), rng.random()
            if r < 0.2:
                lst.find(pid, k)
            elif r < 0.6:
                net[pid][k] += lst.insert(pid, k)
            else:
                net[pid][k] -= lst.delete(pid, k)

    run_threads(4, work)
    final = {k: (k in keys[::2]) + sum(n[k] for n in net) for k in keys}
    assert set(final.values()) <= {0, 1}
    expected = {k for k, n in final.items() if n}
    assert lst.snapshot() == expected
    if flush_protocol:    # what a crash now would keep
        chain = lst.persisted_chain()[1:-1]
        assert {n.key for n in chain if not n.next.p.marked} == expected


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


def test_flush_list_lookups_are_checked_under_double_crashes():
    # the CLI's default workloads hold no lookup, so this sweep is the one
    # whose checked histories include find responses, both present and
    # absent; a find that answered True at a marked word fails it
    found = set()

    def lookups(out):
        found.update(e.value for e in out.history
                     if type(e) is Response and e.op == "find")

    report = detectability_sweep(
        FLUSH_LIST, {0: [("insert", (7,)), ("delete", (5,))],
                     1: [("delete", (7,)), ("find", (7,))]},
        setup=(("insert", (5,)),), model_initial={5}, max_crashes=2,
        step_budget=500, cache="volatile", check_responses=lookups)
    assert report.passed, report.violations[:1]
    assert found == {True, False}


# -- pinned lookup traces of the flush list ---------------------------------

PINNED_LOOKUP_SHA256 = "09f3027b42918720d2508c8e8706fef0519dd0ec6a1c4e3abe50571c59f0f8ef"
LOOKUP_SEEDS = range(10)


class ReadTracing(TracingRuntime):
    """A ``TracingRuntime`` that traces reads too, as ``("read", pid, cell,
    value, value, True, None, step)``."""

    def read(self, pid, cell):
        value = super().read(pid, cell)
        self.trace.append(("read", pid, cell, value, value, True, None, self.steps))
        return value


def _lookup_runs(monkeypatch):
    """Per seed, a crashed 3-process run of a seeded find/insert/delete
    stream on the flush list under a volatile cache.  Updates take keys 1-4
    and lookups 0-5, so a lookup may pass below every key, land on a present
    or absent key, or run past every key to the tail."""
    monkeypatch.setattr(harness, "SimRuntime", ReadTracing)
    setup = (("insert", (2,)), ("insert", (4,)))
    for seed in LOOKUP_SEEDS:
        rng = random.Random(f"lookup-pin:{seed}")
        workload = {pid: [("find", (rng.randrange(0, 6),)) if rng.random() < 0.5
                          else (rng.choice(("insert", "delete")), (rng.randrange(1, 5),))
                          for _ in range(16)]
                    for pid in range(3)}
        quanta = pattern_quanta("rand0", 3, 4000, seed)
        probe = run_schedule(FLUSH_LIST, workload, Schedule(quanta), setup=setup,
                             cache="volatile")
        crashes = tuple(sorted(rng.sample(range(probe.granted), 10)))
        yield run_schedule(FLUSH_LIST, workload, Schedule(quanta, crashes),
                           setup=setup, cache="volatile")


def _word(value):
    """An accessed value with no identity in it: a link word as (successor's
    key, marked, flagged)."""
    if isinstance(value, MarkedRef):
        return (getattr(value.ref, "key", None), value.marked,
                type(value) is PersistedRef)
    if isinstance(value, ListNode):
        return "node", value.key
    return "info" if isinstance(value, ListInfo) else repr(value)


def _lookup_accesses(out):
    """Per ``find`` that a crash did not cut short: its key, response and
    the accesses it made, in order."""
    trace, running, done, i = out.rt.trace, {}, [], 0
    for event in out.history:
        while i < len(trace) and trace[i][7] <= event.t:   # before the event
            if trace[i][1] in running:
                running[trace[i][1]][1].append(trace[i])
            i += 1
        if isinstance(event, CrashEvent):
            running.clear()
        elif isinstance(event, Invoke) and event.op == "find":
            running[event.pid] = event.args[0], []
        elif isinstance(event, Response) and event.pid in running:
            key, accesses = running.pop(event.pid)
            done.append((key, event.value, accesses))
    return done


def test_pinned_list_flush_lookup_traces_are_unchanged(monkeypatch):
    """Every access of the runs, reads included, hashes to a constant: its
    kind, pid, cell (numbered by first access), the values it saw and
    stored with their keys, marks and flags, its note and step.  The runs
    must hold lookups below, above, on and between keys, one that lands on
    a marked node and one that flags a link.  A change meant to alter an
    access must recompute ``PINNED_LOOKUP_SHA256`` and say why."""
    h = hashlib.sha256()
    cells = {}
    seen = {"below": 0, "above": 0, "present": 0, "absent": 0, "marked": 0,
            "flagged": 0}
    for out in _lookup_runs(monkeypatch):
        assert not out.inconclusive
        for kind, pid, cell, old, new, ok, note, step in out.rt.trace:
            index = cells.setdefault(id(cell), len(cells))
            h.update(repr((kind, pid, index, _word(old), _word(new), ok, note,
                           step)).encode())
        cells.clear()
        for key, found, accesses in _lookup_accesses(out):
            reads = [a[4] for a in accesses if a[0] == "read"]
            seen["below"] += key == 0
            seen["above"] += key == 5
            seen["present" if found else "absent"] += 1
            seen["marked"] += (len(reads) > 1 and reads[-2].ref.key == key
                               and reads[-1].marked)
            seen["flagged"] += any(a[6] == "flag" for a in accesses)
    assert all(seen.values()), seen
    assert h.hexdigest() == PINNED_LOOKUP_SHA256
