"""Cell and link-word semantics, crash survival, and the invocation contract."""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import nvtrack
from nvtrack.harness import Schedule, StructureAdapter, run_schedule
from nvtrack.rlist import ListInfo, PersistedRef
from nvtrack.runtime import (
    Abandoned,
    CLEAN,
    CrashEvent,
    MarkedRef,
    NativeRuntime,
    OpDef,
    REINVOKE,
    RecoverBegin,
    RecoverResponse,
    Invoke,
    Response,
    SimRuntime,
    UNSET,
    UpdateWord,
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
    # every expected word is freshly built: a CAS compares words by content
    node = object()
    for rt in (NativeRuntime(1), SimRuntime(1)):
        c = rt.new_cell(MarkedRef(node, False))
        assert rt.cas(0, c, MarkedRef(node, True), MarkedRef(node, False)) is False
        new = MarkedRef(node, True)
        assert rt.cas(0, c, MarkedRef(node, False), new) is True
        assert rt.read(0, c) is new


def test_link_word_is_a_value_not_a_tuple():
    node, other = object(), object()
    word, flagged = MarkedRef(node, False), PersistedRef(node, False)
    assert word == flagged and flagged == word
    assert not word != flagged and hash(word) == hash(flagged)
    assert MarkedRef([1], False) == MarkedRef([1], False)    # equal, not identical
    assert word != MarkedRef(other, False)
    assert word != MarkedRef(node, True)
    assert not isinstance(word, tuple)
    assert word != (node, False) and (node, False) != word
    assert repr(MarkedRef(1, True)) == "MarkedRef(ref=1, marked=True)"
    assert repr(PersistedRef(1, False)) == "PersistedRef(ref=1, marked=False)"


def _word_field_stores(tree):
    """Lines that store to, or delete, an attribute named ``ref`` or
    ``marked`` outside ``MarkedRef.__init__``."""
    init = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "MarkedRef":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    init.update(map(id, ast.walk(fn)))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("ref", "marked")
            and isinstance(node.ctx, (ast.Store, ast.Del)) and id(node) not in init]


def test_no_code_mutates_a_link_word():
    # every cell holding a word shares the one object, so a write to a
    # word's field would change every cell that holds it
    assert _word_field_stores(ast.parse("w.marked = True\ndel w.ref")) == [1, 2]
    found = [f"{path.name}:{line}"
             for path in sorted(pathlib.Path(nvtrack.__file__).parent.glob("*.py"))
             for line in _word_field_stores(ast.parse(path.read_text()))]
    assert found == []


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


def _survivors(survival, seed):
    rt = SimRuntime(1, cache="volatile", survival=survival, seed=seed)
    cells = [rt.new_cell(0) for _ in range(32)]
    for c in cells:
        rt.write(0, c, 1)
    rt.crash()
    return [c.v for c in cells]


@pytest.mark.parametrize("survival,kept", [(0.5, None), (1.0, [1] * 32),
                                           (0.0, [0] * 32)],
                         ids=["half", "all", "none"])
def test_survival_is_deterministic(survival, kept):
    assert _survivors(survival, 7) == _survivors(survival, 7)
    if kept is None:          # seeded draws: another seed keeps other cells
        assert _survivors(survival, 7) != _survivors(survival, 8)
    else:                     # no draw: the seed makes no difference
        assert _survivors(survival, 7) == _survivors(survival, 8) == kept


def test_crash_survival_argument_holds_for_that_crash_only():
    rt = SimRuntime(1, cache="volatile")
    c = rt.new_cell(0)
    rt.write(0, c, 1)
    rt.crash(1.0)
    assert rt.read(0, c) == 1         # the unflushed write survived
    rt.write(0, c, 2)
    rt.crash()
    assert rt.read(0, c) == 1         # the runtime's survival 0 again
    assert rt.survival == 0.0


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


# -- a recovery that returns REINVOKE: the runtime runs the call again -------

class _Rerun:
    """Its ``op`` notes the checkpoint it starts from, sets it, then reads
    its cell twice; its recovery always asks for a re-run."""

    def __init__(self, m):
        self.m = m
        self.cell = m.new_cell(0)
        self.starts = []

    def op(self, p, x):
        m = self.m
        self.starts.append(m.read(p, m.cp[p]))
        m.write(p, m.cp[p], 1)
        m.read(p, self.cell)
        m.read(p, self.cell)
        return x

    def op_recover(self, p, x):
        assert self.m.read(p, self.m.cp[p]) == 1
        return REINVOKE


_RERUN_OP = OpDef("op", _Rerun.op, _Rerun.op_recover)


def test_nested_reinvocation_resets_checkpoint_again():
    rt = SimRuntime(1)
    obj = rt.bind(_Rerun(rt))
    assert rt.run_ops_direct(0, [(_RERUN_OP, (7,))], crash_steps=[3])
    assert obj.starts == [0, 0]
    assert rt.cp[0].v == 1
    kinds = [type(e) for e in rt.history]
    assert kinds == [Invoke, CrashEvent, RecoverBegin, RecoverResponse]
    assert rt.history[-1].value == 7


def test_a_crash_inside_a_reinvoked_call_recovers_again():
    adapter = StructureAdapter(_Rerun, {"op": _RERUN_OP}, model=None)
    # crashes after the first run's cp write, then after the re-run's (the
    # recovery's read of cp is step 2)
    out = run_schedule(adapter, {0: [("op", (7,))]},
                       Schedule(((0, 20),), crashes=(2, 5)))
    assert out.obj.starts == [0, 0, 0]
    kinds = [type(e) for e in out.history]
    assert kinds == [Invoke, CrashEvent, RecoverBegin, CrashEvent, RecoverBegin,
                     RecoverResponse]
    assert out.history[-1].value == 7
    assert not any(isinstance(e, Response) for e in out.history)


def test_a_reinvoked_call_shares_the_recovery_step_budget():
    # the recovery takes 1 step and the re-run 4, one over the budget
    rt = SimRuntime(1, step_budget=4)
    obj = rt.bind(_Rerun(rt))
    assert not rt.run_ops_direct(0, [(_RERUN_OP, (7,))], crash_steps=[2])
    assert obj.starts == [0, 0]
    kinds = [type(e) for e in rt.history]
    assert kinds == [Invoke, CrashEvent, RecoverBegin, Abandoned]


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
    for rt in (NativeRuntime(1), SimRuntime(1)):
        cell = rt.new_cell(MarkedRef("a", False))
        assert rt.cas_fetch(0, cell, MarkedRef("b", False), "x") == MarkedRef("a", False)
        assert cell.v == MarkedRef("a", False)
        assert rt.cas_fetch(0, cell, MarkedRef("a", False), "x") == MarkedRef("a", False)
        assert cell.v == "x"
        # a CLEAN word is no wildcard: a stale flag CAS must fail
        word = UpdateWord(CLEAN, "a")
        cell = rt.new_cell(word)
        assert rt.cas_fetch(0, cell, UpdateWord(CLEAN, "b"), "x") is word
        assert cell.v is word


@pytest.mark.parametrize("method", ["cas", "cas_fetch"])
def test_native_cas_rereads_a_cell_written_during_its_comparison(method):
    # NativeRuntime's CAS compares before it takes the lock; a write landing
    # inside the comparison, as another thread's would after a switch there,
    # must make the CAS compare again and fail, not overwrite it
    rt = NativeRuntime(1)
    intruder = MarkedRef("b", False)

    class Meddling(MarkedRef):
        __slots__ = ()
        __hash__ = MarkedRef.__hash__

        def __eq__(self, other):
            cell.v = intruder
            return super().__eq__(other)

    cell = rt.new_cell(Meddling("a", False))
    res = getattr(rt, method)(0, cell, MarkedRef("a", False), MarkedRef("c", False))
    assert res is (False if method == "cas" else intruder)
    assert cell.v is intruder


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
