"""Generator twins: which calls reach ``derive.twin``, and where gates go."""

import types

import pytest

from nvtrack import derive
from nvtrack.cli import default_workload
from nvtrack.harness import STRUCTURES, Schedule, pattern_quanta, run_schedule
from nvtrack.runtime import SimRuntime


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
