"""Cell semantics, crash policies, and the invocation contract."""

import pytest
from hypothesis import given, settings, strategies as st

from nvtrack.rlist import ListInfo
from nvtrack.runtime import (
    CrashPolicy,
    DispatchError,
    MarkedRef,
    NativeRuntime,
    OpDef,
    RecoverBegin,
    Invoke,
    SimRuntime,
    UNSET,
)


def test_read_initial_and_after_write():
    rt = SimRuntime(1)
    c = rt.new_cell(0)
    assert rt.read(0, c) == 0
    rt.write(0, c, 7)
    assert rt.read(0, c) == 7


def test_cas_success_and_failure():
    rt = SimRuntime(1)
    c = rt.new_cell(5)
    assert rt.cas(0, c, 5, 9) is True
    assert rt.read(0, c) == 9
    assert rt.cas(0, c, 4, 1) is False
    assert rt.read(0, c) == 9


def test_markable_ref_cas_compares_both_components():
    rt = SimRuntime(1)
    node = object()
    c = rt.new_cell(MarkedRef(node, False))
    assert rt.cas(0, c, MarkedRef(node, True), MarkedRef(node, False)) is False
    assert rt.cas(0, c, MarkedRef(node, False), MarkedRef(node, True)) is True
    assert rt.read(0, c) == MarkedRef(node, True)


def test_durable_mode_survives_crash():
    rt = SimRuntime(1, cache="durable")
    c = rt.new_cell(0)
    rt.write(0, c, 3)
    rt.crash()
    assert rt.read(0, c) == 3


def test_volatile_unflushed_write_lost_on_crash():
    rt = SimRuntime(1, cache="volatile")
    c = rt.new_cell(0)
    rt.write(0, c, 7)
    rt.crash()
    assert rt.read(0, c) == 0


def test_volatile_flushed_write_survives_crash():
    rt = SimRuntime(1, cache="volatile")
    c = rt.new_cell(0)
    rt.write(0, c, 3)
    rt.flush(0, c)
    rt.crash()
    assert rt.read(0, c) == 3


def test_flush_is_idempotent_and_noop_when_durable():
    rt = SimRuntime(1, cache="durable")
    c = rt.new_cell(1)
    rt.write(0, c, 2)
    before = (c.v, c.p)
    rt.flush(0, c)
    rt.flush(0, c)
    assert (c.v, c.p) == before


def test_after_crash_volatile_equals_persisted_everywhere():
    rt = SimRuntime(2, cache="volatile")
    cells = [rt.new_cell(i) for i in range(8)]
    for i, c in enumerate(cells):
        rt.write(0, c, 100 + i)
        if i % 3 == 0:
            rt.flush(0, c)
    rt.crash()
    for c in cells:
        assert c.v == c.p


def test_private_writes_persist_only_once_flushed():
    # a fresh record no other process has touched gets no persistence for free
    rt = SimRuntime(2, cache="volatile")
    c = ListInfo(rt, None).result     # allocation persists UNSET
    rt.write(0, c, True)
    rt.crash()
    assert rt.read(0, c) is UNSET
    rt.write(0, c, True)
    rt.flush(0, c)
    rt.crash()
    assert rt.read(0, c) is True


def test_drop_random_policy_is_deterministic():
    def survivors(seed):
        rt = SimRuntime(1, cache="volatile",
                        policy=CrashPolicy("drop-random", survival_prob=0.5),
                        seed=seed)
        cells = [rt.new_cell(0) for _ in range(32)]
        for c in cells:
            rt.write(0, c, 1)
        rt.crash()
        return [c.v for c in cells]

    assert survivors(7) == survivors(7)
    assert survivors(7) != survivors(8)


def test_adversarial_callback_policy():
    keep = []
    policy = CrashPolicy("callback", callback=lambda cell: cell in keep)
    rt = SimRuntime(1, cache="volatile", policy=policy)
    a, b = rt.new_cell(0), rt.new_cell(0)
    keep.append(a)
    rt.write(0, a, 1)
    rt.write(0, b, 1)
    rt.crash()
    assert a.v == 1 and b.v == 0


def test_cp_and_rd_survive_crash():
    rt = SimRuntime(1, cache="volatile")
    rt.write(0, rt.cp[0], 1)
    rt.write(0, rt.rd[0], "marker")
    rt.crash()
    assert rt.read(0, rt.cp[0]) == 1
    assert rt.read(0, rt.rd[0]) == "marker"


def _noop_op():
    def call(obj, pid):
        return True

    return OpDef("noop", call, call)


def test_invoke_resets_checkpoint_even_if_left_set():
    rt = SimRuntime(1)
    rt.bind(None)
    rt.write(0, rt.cp[0], 1)
    rt.invoke(0, _noop_op())
    assert rt.cp[0].v == 0


def test_invoke_records_invocation_event():
    rt = SimRuntime(1)
    rt.bind(None)
    rt.invoke(0, _noop_op(), ())
    assert isinstance(rt.history[0], Invoke)
    assert rt.history[0].op == "noop"


def test_crash_with_no_ops_in_flight_keeps_persisted_heap():
    rt = SimRuntime(1, cache="volatile")
    c = rt.new_cell(0)
    rt.write(0, c, 4)
    rt.flush(0, c)
    rt.crash()
    assert c.p == 4


def test_recovery_invoked_twice_when_second_crash_lands_in_recovery():
    rt = SimRuntime(1)
    rt.bind(None)
    cell = rt.new_cell(0)
    calls = {"recover_args": []}

    def call(obj, pid, x):
        rt.read(pid, cell)
        rt.read(pid, cell)
        rt.read(pid, cell)
        return x

    def recover(obj, pid, x):
        calls["recover_args"].append(x)
        rt.read(pid, cell)
        rt.read(pid, cell)
        return x

    op = OpDef("op", call, recover)
    ok = rt.run_ops_direct(0, [(op, (42,))], crash_steps=[1, 2])
    assert ok
    assert calls["recover_args"] == [42, 42]
    assert sum(isinstance(e, RecoverBegin) for e in rt.history) == 2


def test_dispatch_on_never_crashed_pid_errors():
    rt = SimRuntime(2)
    rt.bind(None)
    rt.start_workers({0: [], 1: []})
    try:
        with pytest.raises(DispatchError):
            rt.dispatch_recovery(0)
    finally:
        rt.close()


def test_a_nested_access_takes_its_step_before_the_outer_one():
    rt = SimRuntime(2)
    rt.bind(None)
    a, b = rt.new_cell(0), rt.new_cell(0)

    def copy(obj, pid):
        rt.write(pid, a, rt.read(pid, b) + 1)

    def bump(obj, pid):
        rt.write(pid, b, 5)

    rt.start_workers({0: [(OpDef("copy", copy, copy), ())],
                      1: [(OpDef("bump", bump, bump), ())]})
    try:
        assert [rt.grant_step(pid) for pid in (0, 1, 0)] == [True] * 3
    finally:
        rt.close()
    assert a.v == 1            # read b before the other process wrote it


def test_nested_reinvocation_resets_checkpoint_again():
    rt = SimRuntime(1)
    rt.bind(None)
    cell = rt.new_cell(0)
    seen = []

    def call(obj, pid):
        seen.append(rt.cp[pid].v)
        rt.write(pid, rt.cp[pid], 1)
        rt.read(pid, cell)
        rt.read(pid, cell)
        return True

    def recover(obj, pid):
        rt.invoke_reset(pid)
        return call(obj, pid)

    rt.run_ops_direct(0, [(OpDef("op", call, recover), ())], crash_steps=[2])
    assert seen == [0, 0]


# -- property: the dual-value cell tracks an independent reference model ----

_cmds = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 9)),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(st.just("crash"), st.none()),
    ),
    max_size=40,
)


@given(_cmds)
@settings(max_examples=200, deadline=None)
def test_volatile_cell_matches_reference_model(cmds):
    rt = SimRuntime(1, cache="volatile")
    cell = rt.new_cell(0)
    cached = persisted = 0
    for kind, arg in cmds:
        if kind == "write":
            rt.write(0, cell, arg)
            cached = arg
        elif kind == "flush":
            rt.flush(0, cell)
            persisted = cached
        else:
            rt.crash()
            cached = persisted
        assert cell.v == cached and cell.p == persisted


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_composite_cas_is_failure_atomic(attempts):
    # the cell value is always exactly one previously-written pair
    rt = SimRuntime(1)
    node_a, node_b = object(), object()
    cell = rt.new_cell(MarkedRef(node_a, False))
    written = {MarkedRef(node_a, False)}
    for to_b, mark in attempts:
        new = MarkedRef(node_b if to_b else node_a, mark)
        if rt.cas(0, cell, cell.v, new):
            written.add(new)
        assert cell.v in written


def test_native_cas_fetch_returns_old_value_and_swaps_only_on_match():
    rt = NativeRuntime(1)
    cell = rt.new_cell(MarkedRef("a", False))
    assert rt.cas_fetch(0, cell, MarkedRef("b", False), "x") == MarkedRef("a", False)
    assert cell.v == MarkedRef("a", False)
    assert rt.cas_fetch(0, cell, MarkedRef("a", False), "x") == MarkedRef("a", False)
    assert cell.v == "x"


class _Count:
    """A counter value compared by Python code, which lets the interpreter
    switch threads between a CAS's compare and its store."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return self.n == other.n


def test_native_cas_under_threads_loses_no_increment(run_threads):
    rt = NativeRuntime(8)
    cell = rt.new_cell(_Count(0))
    wins = 2_000

    def work(pid):
        won = 0
        while won < wins:
            old = rt.read(pid, cell)
            new = _Count(old.n + 1)
            if pid % 2:
                won += rt.cas_fetch(pid, cell, old, new) is old
            else:
                won += rt.cas(pid, cell, old, new)

    run_threads(8, work)
    assert cell.v.n == 8 * wins
