"""Derived variants of structure code.  Generator twins: which calls reach
``derive.twin``, and where gates go.  Native variants: which accesses become
attribute reads and stores, and that every structure's native variant
behaves as the same structure on a runtime that observes its reads."""

import random
import types

import pytest

from nvtrack import derive, rlist
from nvtrack.cli import default_workload
from nvtrack.harness import STRUCTURES, Schedule, pattern_quanta, run_schedule
from nvtrack.rbst import BaselineBst, RecoverableBst
from nvtrack.rexchanger import Exchanger, TimedExchanger
from nvtrack.rlist import BaselineList, RecoverableList
from nvtrack.rstack import BaselineStack, EliminationStack
from nvtrack.runtime import Cell, NativeRuntime, SimRuntime, Structure


def _plain(fn) -> bool:
    """A class or a builtin function that is not a bound method."""
    return isinstance(fn, type) or (isinstance(fn, types.BuiltinFunctionType)
                                    and isinstance(fn.__self__, types.ModuleType))


@pytest.mark.parametrize("name", ["list", "list-flush", "bst", "stack"])
def test_no_class_or_builtin_reaches_twin(name):
    workload, setup, _ = default_workload(name, 2, 2, 42)
    schedule = Schedule(pattern_quanta("rand0", 2, 200), (7, 19))
    seen = []
    twin = derive._TWIN_CELL.cell_contents

    def counting(fn):
        seen.append(fn)
        return twin(fn)

    derive._TWIN_CELL.cell_contents = counting
    try:
        out = run_schedule(STRUCTURES[name], workload, schedule, setup=setup,
                           cache="volatile" if name == "list-flush" else "durable")
    finally:
        derive._TWIN_CELL.cell_contents = twin
    assert out.granted > 0 and seen
    assert [fn for fn in seen if _plain(fn)] == []


def test_function_with_only_plain_calls_gets_no_twin():
    assert derive.twin(SimRuntime._persisted_result) is None


class Memory:
    """Records every argument evaluated and every access performed."""

    def __init__(self):
        self.log = []

    def arg(self, value):
        self.log.append(value)
        return value

    def read(self, p, cell):
        self.log.append(("read", cell))
        return cell

    def write(self, p, cell, value):
        self.log.append(("write", cell, value))

    def cas(self, p, cell, expected, new, note=None):
        self.log.append(("cas", cell, expected, new, note))
        return True


def _run(gen, m: Memory) -> tuple:
    """Drive a twin to its end: the log at each gate, and the result."""
    gates = []
    try:
        while True:
            assert next(gen) is None
            gates.append(list(m.log))
    except StopIteration as stop:
        return gates, stop.value


def _read_twice(m, p, cell):
    return m.read(p, m.read(p, cell))


def _param_shadows_builtin(m, p, cell, len):
    return len(m, p, cell)


def _local_shadows_class(m, p, cell):
    Memory = _read_twice
    return Memory(m, p, cell)


@pytest.mark.parametrize("fn", [_param_shadows_builtin, _local_shadows_class])
def test_shadowed_builtin_or_class_is_resolved_at_run_time(fn):
    m = Memory()
    args = (m, 0, "c", _read_twice)[:fn.__code__.co_argcount]
    gates, result = _run(derive.twin(fn)(*args), m)
    assert result == "c"
    assert gates == [[], [("read", "c")]]


def _split_signature(
    m, p, cell,
):
    return m.read(p, cell)


def test_definition_whose_closing_bracket_ends_its_indentation_is_read():
    m = Memory()
    assert _run(derive.twin(_split_signature)(m, 0, "c"), m) == ([[]], "c")


def _cas_with_note(m, p):
    return m.cas(p, m.arg("c"), m.arg("e"), m.arg("n"), note=m.arg("note"))


def _nested(m, p):
    m.write(p, m.arg("c"), m.read(p, m.arg("d")))


def _starred(m, p):
    m.write(p, *m.arg(["c", "v"]))


def _double_starred(m, p):
    m.write(p, **m.arg({"cell": "c", "value": "v"}))


@pytest.mark.parametrize("fn, gates", [
    (_cas_with_note, [["c", "e", "n", "note"]]),
    (_nested, [["c", "d"], ["c", "d", ("read", "d")]]),
    (_starred, [[["c", "v"]]]),
    (_double_starred, [[{"cell": "c", "value": "v"}]]),
], ids=["keyword", "nested", "starred", "double-starred"])
def test_access_yields_after_every_argument(fn, gates):
    m = Memory()
    assert _run(derive.twin(fn)(m, 0), m)[0] == gates
    assert len(m.log) == len(gates[-1]) + 1     # the last access came after


# ---------------------------------------------------------------------------
# Native variants
# ---------------------------------------------------------------------------

class _Probe(Structure):
    """One method per rewrite rule."""

    def __init__(self, m):
        self.m = m

    def get(self, p, cell):
        return self.m.read(p, cell)

    def copy(self, p, cell, source):
        m = self.m
        m.write(p, cell, m.read(p, source))
        m.flush(p, cell)

    def swap(self, p, cell, new):
        m = self.m
        return m.cas(p, cell, m.read(p, cell), new)

    def put(self, p, cell, value):
        return self.m.write(p, cell, value)     # its value is used

    def name(self):
        return "probe"


class ObservedReads(NativeRuntime):
    """A runtime that counts its reads: structures on it keep every call."""

    def __init__(self, nprocs, **kwargs):
        super().__init__(nprocs, **kwargs)
        self.reads = 0

    def read(self, pid, cell):
        self.reads += 1
        return cell.v


class ObservedCas(NativeRuntime):
    """Overrides only ``cas``: structures on it keep their native variant."""

    def cas(self, pid, cell, expected, new, note=None):
        return super().cas(pid, cell, expected, new, note)


def test_native_variant_inlines_read_and_statement_write_and_flush():
    probe = _Probe(NativeRuntime(1))
    native = type(probe)
    assert native is derive.inlined(_Probe) is derive.inlined(native)
    assert native.__bases__ == (_Probe,)
    assert {"get", "copy", "swap"} <= set(vars(native))
    assert "put" not in vars(native) and "name" not in vars(native)
    assert (native.copy.__code__.co_firstlineno
            == _Probe.copy.__code__.co_firstlineno)
    probe.m = m = Memory()
    cell, source = Cell(1, True), Cell(2, True)
    assert probe.get(0, cell) == 1
    probe.copy(0, cell, source)
    assert (cell.v, cell.p) == (2, 2) and m.log == []
    assert probe.swap(0, cell, 3) and m.log == [("cas", cell, 2, 3, None)]
    probe.put(0, cell, 4)
    assert m.log[-1] == ("write", cell, 4)


@pytest.mark.parametrize("rt, native", [
    (NativeRuntime(1), True), (ObservedCas(1), True),
    (ObservedReads(1), False), (SimRuntime(1), False)],
    ids=["native", "observed-cas", "observed-reads", "sim"])
def test_native_variant_only_on_native_read_write_and_flush(rt, native):
    for cls in (BaselineList, RecoverableList, BaselineBst, RecoverableBst,
                BaselineStack, EliminationStack, Exchanger):
        obj = cls(rt)
        assert (type(obj) is not cls) is native
        assert isinstance(obj, cls)


class _Checked(RecoverableList):
    """A structure subclass in another module than its base."""

    def find(self, p, key) -> bool:
        found = super().find(p, key)
        assert self.m.read(p, self.head.next).ref.key <= key or not found
        return found


def _no_memory_calls(monkeypatch) -> None:
    """Make every call of ``NativeRuntime.read``, ``write`` or ``flush``
    raise; structures built before keep their native variant."""
    def calls(*args):
        raise AssertionError("a native variant called the runtime")
    for name in ("read", "write", "flush"):
        monkeypatch.setattr(NativeRuntime, name, calls)


def test_native_subclass_reaches_native_base_through_super(monkeypatch):
    lst = _Checked(NativeRuntime(1))
    assert type(lst).__mro__[1:5] == (_Checked, derive.inlined(RecoverableList),
                                      RecoverableList, derive.inlined(BaselineList))
    assert lst.insert(0, 5) and lst.insert(0, 9)
    assert RecoverableList.find(lst, 0, 5) and not RecoverableList.find(lst, 0, 6)
    _no_memory_calls(monkeypatch)
    assert lst.find(0, 5) and lst.find(0, 9) and not lst.find(0, 6)
    assert lst.delete(0, 5) and not lst.find(0, 5)


def test_each_method_is_derived_once():
    native = derive.inlined(RecoverableList)
    assert native.__mro__[:4] == (native, RecoverableList,
                                  derive.inlined(BaselineList), BaselineList)
    assert "find" in vars(native) and "insert" in vars(native)
    assert "search" not in vars(derive.inlined(RecoverableBst))
    assert (derive.inlined(RecoverableBst).search
            is derive.inlined(BaselineBst).search)
    assert "_collide" not in vars(derive.inlined(Exchanger))
    assert (derive.inlined(Exchanger)._collide
            is derive.inlined(TimedExchanger)._collide)


def test_native_code_reads_its_module_globals_when_it_runs(monkeypatch):
    lst = RecoverableList(NativeRuntime(1))
    built = []

    class Recording(rlist.ListInfo):
        __slots__ = ()

        def __init__(self, m, nd):
            super().__init__(m, nd)
            built.append(self)

    monkeypatch.setattr(rlist, "ListInfo", Recording)
    assert lst.insert(0, 5) and lst.delete(0, 5)
    assert len(built) == 2


def _set_ops(obj, rt, reset: bool) -> tuple:
    """Responses to a seeded op stream, and the contents left."""
    find = obj.contains if isinstance(obj, BaselineBst) else obj.find
    rng = random.Random(7)
    out = []
    for _ in range(3_000):
        if reset:
            rt.invoke_reset(0)
        op, key = rng.choice((find, obj.insert, obj.delete)), rng.randint(1, 64)
        out.append(op(0, key))
    return out, obj.snapshot()


def _stack_ops(obj, rt, reset: bool) -> tuple:
    """Responses to a seeded op stream, and the contents left, top first
    (the baseline stack has no ``snapshot`` of its own)."""
    rng = random.Random(7)
    out = []
    for i in range(3_000):
        if reset:
            rt.invoke_reset(0)
        out.append(obj.push(0, i) if rng.random() < 0.5 else obj.pop(0))
    return out, EliminationStack.snapshot(obj)


VARIANTS = {
    "list-base": (BaselineList, _set_ops, False),
    "list-rec": (RecoverableList, _set_ops, True),
    "list-flush": (lambda m: RecoverableList(m, flush_protocol=True), _set_ops, True),
    "bst-base": (BaselineBst, _set_ops, False),
    "bst-rec": (RecoverableBst, _set_ops, True),
    "stack-base": (lambda m: BaselineStack(m, seed=3), _stack_ops, False),
    "stack-rec": (lambda m: EliminationStack(m, seed=3), _stack_ops, True),
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_native_variant_matches_observed_reads(monkeypatch, name):
    """The native variant makes no ``read``, ``write`` or ``flush`` call."""
    make, ops, reset = VARIANTS[name]
    runs = []
    for rt in (NativeRuntime(1), ObservedReads(1)):
        obj = make(rt)
        with monkeypatch.context() as patch:
            if type(rt) is NativeRuntime:
                _no_memory_calls(patch)
            responses, contents = ops(obj, rt, reset)
        chain = ([n.key for n in obj.persisted_chain()] if name == "list-flush"
                 else None)
        runs.append((responses, contents, chain))
    assert rt.reads > 0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("make", [
    Exchanger, TimedExchanger],
    ids=["exchanger", "exchanger-timed"])
def test_native_exchangers_pair_like_observed_ones(run_threads, monkeypatch, make):
    """Two threads, each exchanging its own values in turn: the i-th
    exchange of one can only pair with the i-th of the other.  The native
    exchanger makes no ``read``, ``write`` or ``flush`` call."""
    for rt in (NativeRuntime(2), ObservedReads(2)):
        ex = make(rt)
        got = [None, None]

        def work(pid):
            send = [100 * pid + i for i in range(20)]
            if isinstance(ex, Exchanger):
                got[pid] = [ex.exchange(pid, v) for v in send]
            else:
                got[pid] = [ex.exchange(pid, v, 10 ** 10) for v in send]

        with monkeypatch.context() as patch:
            if type(rt) is NativeRuntime:
                _no_memory_calls(patch)
            run_threads(2, work)
        assert got == [[100 + i for i in range(20)], list(range(20))]
        assert ex.slot.v is ex.default
    assert rt.reads > 0


def test_observed_read_is_called_on_every_hop():
    rt = ObservedReads(1)
    lst = BaselineList(rt)
    keys = random.Random(5).sample(range(1, 200), 50)
    for k in keys:
        lst.insert(0, k)
    for key in (0, keys[0], 250):
        before = rt.reads
        lst.find(0, key)
        # a read per node below key, head included, then the found key's mark
        assert rt.reads - before == 1 + sum(k < key for k in keys) + (key in keys)
