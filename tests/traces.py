"""Step traces for tests: a recording runtime and predicates over its trace.

:class:`TracingRuntime` is a ``SimRuntime`` that appends one entry per
write, CAS and flush to ``trace``: ``(kind, pid, cell, old, new, ok, note,
step)``, with ``kind`` one of ``"write"``, ``"cas"`` (``cas_fetch``
included) and ``"flush"``, and ``step`` the step count after the access.
Set-up steps are traced too.  Reads are not traced.  The ``tracing``
fixture (``conftest.py``) installs it as ``harness.SimRuntime``, so the
runs a test makes through the harness leave their trace in
``out.rt.trace``.  The predicates below check the arbitration the
structures rely on over such a trace.
"""

from nvtrack.runtime import SimRuntime


class TracingRuntime(SimRuntime):
    """A ``SimRuntime`` that records its writes, CAS and flushes in ``trace``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = []

    def write(self, pid, cell, value):
        old = cell.v
        super().write(pid, cell, value)
        self.trace.append(("write", pid, cell, old, value, True, None, self.steps))

    def cas(self, pid, cell, expected, new, note=None):
        ok = super().cas(pid, cell, expected, new, note)
        self.trace.append(("cas", pid, cell, expected, new, ok, note, self.steps))
        return ok

    def cas_fetch(self, pid, cell, expected, new):
        old = super().cas_fetch(pid, cell, expected, new)
        self.trace.append(("cas", pid, cell, expected, new, old == expected, None,
                           self.steps))
        return old

    def flush(self, pid, cell):
        super().flush(pid, cell)
        self.trace.append(("flush", pid, cell, cell.v, cell.v, True, None, self.steps))

    def save(self):
        return super().save(), len(self.trace)

    def restore(self, saved):
        saved, ntrace = saved
        super().restore(saved)
        del self.trace[ntrace:]


# ---------------------------------------------------------------------------
# Trace invariants
# ---------------------------------------------------------------------------

def write_once(trace, note: str) -> bool:
    """Each cell wins at most one successful CAS tagged ``note``."""
    won = set()
    for kind, _pid, cell, _old, _new, ok, n, _t in trace:
        if kind == "cas" and n == note and ok:
            if id(cell) in won:
                return False
            won.add(id(cell))
    return True


def unlink_once(trace) -> bool:
    """Each node is physically unlinked from a live predecessor at most once."""
    unlinked = set()
    for kind, _pid, _cell, old, _new, ok, note, _t in trace:
        if kind == "cas" and note == "unlink" and ok:
            target = id(old.ref)
            if target in unlinked:
                return False
            unlinked.add(target)
    return True


def link_once_per_node(trace) -> bool:
    """Each insert's node is linked by at most one successful CAS."""
    linked = set()
    for kind, _pid, _cell, _old, new, ok, note, _t in trace:
        if kind == "cas" and note == "link" and ok:
            target = id(new.ref)
            if target in linked:
                return False
            linked.add(target)
    return True


def pushed_before_pop(trace) -> bool:
    """Any node removed by a top CAS had its pushed flag set beforehand."""
    pushed_at = {}
    for i, (kind, _pid, cell, old, new, ok, note, _t) in enumerate(trace):
        if kind == "write" and new is True:
            pushed_at.setdefault(id(cell), i)
    for i, (kind, _pid, _cell, old, _new, ok, note, _t) in enumerate(trace):
        if kind == "cas" and note == "pop" and ok and old is not None:
            flag = id(old.pushed)
            if flag not in pushed_at or pushed_at[flag] > i:
                return False
    return True


def structural_change_once_per_record(trace) -> bool:
    """Tree records win at most one child-swap CAS despite helpers/crashes:
    an insert's new internal node is swapped in once (``ichild``), and a
    delete's parent is swapped out once (``dchild``).  The note is part of
    the key, since an internal node an insert installs may later be the
    parent a delete removes."""
    wins = set()
    for kind, _pid, _cell, old, new, ok, note, _t in trace:
        if kind == "cas" and ok and note in ("ichild", "dchild"):
            key = (note, id(new if note == "ichild" else old))
            if key in wins:
                return False
            wins.add(key)
    return True


def result_set_before_unflag(trace) -> bool:
    """Tree completions write the record's result before unflagging."""
    result_at = {}
    for i, (kind, _pid, cell, _old, new, ok, note, _t) in enumerate(trace):
        if kind == "write" and new is True:
            result_at.setdefault(id(cell), i)
    for i, (kind, _pid, _cell, old, new, ok, note, _t) in enumerate(trace):
        if kind == "cas" and note in ("iunflag", "dunflag") and ok:
            rec = new.info
            j = result_at.get(id(rec.result))
            if j is None or j > i:
                return False
    return True
