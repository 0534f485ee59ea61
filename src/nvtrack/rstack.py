"""Recoverable elimination stack: Treiber-style central stack plus a
collision array of timed exchangers.

Central-stack recovery uses direct tracking: the record installed in ``rd``
holds the node a push is adding (or the last top a pop tried to remove) and a
persisted ``result``.  Nodes carry two arbitration fields:

* ``pushed`` -- set right after a node enters the stack, and by any pop just
  before removing it, so a crashed push can always tell whether it took
  effect even if its node was popped in the meantime;
* ``popper`` -- write-once process id attributing a removal to exactly one
  contender.

Each operation makes its central attempts inline, in its own loop.  A
push/pop that loses its central CAS visits the elimination layer; a
push/pop pair that collides there completes without touching the stack.  The
record in ``rd`` is retyped per attempt (central record vs exchange record),
which is how recovery knows which sub-protocol to resume.  Both recoveries
end in one response rule: answer the ``result`` of the record in ``rd`` if
it is a central record that has one, else ``REINVOKE``.  A completed
collision leaves a central record with the response in ``rd``; an exchange
record's ``result`` is the partner's value, never a response, so a push
paired with a push, or a pop with a pop, runs again.

Fields fixed at a record's creation are plain attributes, not cells: a
:class:`CentralInfo` holds the node its operation works on, and a node's
``value`` never changes.  A push's record holds its node for the whole
operation; a pop installs a fresh record for each central attempt, holding
the top that attempt tries to remove.

An operation reads ``top`` once at invocation, and that read serves as its
first attempt's ``oldtop``: a push allocates its node with ``next`` already
set to it (allocation is persistent), a pop fills its record with it, and
each writes ``rd`` and then ``cp`` before its first CAS.  After a visit to
the elimination layer that does not finish the operation, the retry
re-reads ``top``, then a push re-stamps ``nd.next`` and writes its record
to ``rd`` again, because the visit retyped it, and a pop writes a new
record for the new ``oldtop`` to ``rd``.  So at every central CAS, ``rd``
holds the operation's central record, and that record's node is the
attempt's node (push) or ``oldtop`` (pop).

The elimination range is a local of each operation, in both stacks: it
starts at one slot, grows by one slot on each timeout up to ``slots``, and
a collision ends the operation.  A crash wipes it with the rest of the
process's local state, so a re-run starts at one slot again.  The slot a
visit picks is a hash of the seed, the pid and the clock, so neither stack
keeps state outside cells.
"""

from __future__ import annotations

from typing import Any, Optional

from .rexchanger import EX_BUSY, EX_EMPTY, EX_WAITING, ExchangeInfo, TimedExchanger
from .runtime import EMPTY, REINVOKE, InfoRecord, NULL, Structure, TIMEOUT, UNSET


class StackNode:
    __slots__ = ("value", "next", "pushed", "popper")

    def __init__(self, m, value, nxt):
        self.value = value
        self.next = m.new_cell(nxt)
        self.pushed = m.new_cell(False)
        self.popper = m.new_cell(m.nprocs)   # nprocs encodes "nobody"


class CentralInfo(InfoRecord):
    """An operation's central record: a push's node, or the top a pop's
    attempt tries to remove; ``nd`` is None if the stack was empty, and in
    a record that completes an operation by elimination."""

    __slots__ = ("nd", "result")

    def __init__(self, m, nd, result=UNSET):
        self.nd = nd
        self.result = m.new_cell(result)


class EliminationStack(Structure):
    """LIFO stack of word-sized payloads (NULL/EMPTY/UNSET are reserved)."""

    def __init__(self, m, *, slots: int = 16, exchange_wait: Optional[int] = None,
                 seed: int = 0):
        self.m = m
        self.slots = slots
        self.seed = seed
        self.exchange_wait = exchange_wait or m.default_exchange_wait
        self.top = m.new_cell(None)
        self.default = ExchangeInfo(m, EX_EMPTY, UNSET)
        self.exchangers = [TimedExchanger(m, self.default) for _ in range(slots)]

    # -- central stack -------------------------------------------------------

    def stack_search(self, p, nd) -> bool:
        m = self.m
        it = m.read(p, self.top)
        while it is not None:
            if it is nd:
                return True
            it = m.read(p, it.next)
        return False

    def visit(self, p, value, cells: int, duration: int) -> Any:
        """Exchange ``value`` in one of the first ``cells`` slots, picked by
        a hash of the seed, the pid and the clock: a tuple of ints, whose
        hash PYTHONHASHSEED does not change."""
        slot = hash((self.seed, p, self.m.now())) % cells
        return self.exchangers[slot].exchange(p, value, duration)

    # -- operations ----------------------------------------------------------

    def push(self, p, value) -> bool:
        m = self.m
        oldtop = m.read(p, self.top)
        nd = StackNode(m, value, oldtop)
        data = CentralInfo(m, nd)
        m.write(p, m.rd[p], data)
        m.write(p, m.cp[p], 1)
        cells = 1
        while not m.cas(p, self.top, oldtop, nd, note="push"):
            other = self.visit(p, value, cells, self.exchange_wait)
            if other is NULL:          # collided with a pop
                m.write(p, m.rd[p], CentralInfo(m, None, True))
                return True
            if other is TIMEOUT:
                cells = min(self.slots, cells + 1)
            # a timeout or a push/push collision retries centrally
            oldtop = m.read(p, self.top)
            m.write(p, nd.next, oldtop)
            m.write(p, m.rd[p], data)
        m.write(p, nd.pushed, True)
        m.write(p, data.result, True)
        return True

    def push_recover(self, p, value) -> bool:
        m = self.m
        data = m.read(p, m.rd[p])
        if m.read(p, m.cp[p]) == 0:
            return REINVOKE
        if isinstance(data, ExchangeInfo):
            if data.slot.recover(p, data) is NULL:
                m.write(p, m.rd[p], CentralInfo(m, None, True))
        else:
            nd = data.nd
            if m.read(p, data.result) is UNSET:
                if self.stack_search(p, nd) or m.read(p, nd.pushed):
                    m.write(p, nd.pushed, True)
                    m.write(p, data.result, True)
        return self._response(p)

    def pop(self, p) -> Any:
        m = self.m
        oldtop = m.read(p, self.top)
        data = CentralInfo(m, oldtop)
        m.write(p, m.rd[p], data)
        m.write(p, m.cp[p], 1)
        cells = 1
        while True:
            if oldtop is None:
                m.write(p, data.result, EMPTY)
                return EMPTY
            newtop = m.read(p, oldtop.next)
            m.write(p, oldtop.pushed, True)
            if m.cas(p, self.top, oldtop, newtop, note="pop") and \
                    m.cas(p, oldtop.popper, m.nprocs, p, note="popper"):
                m.write(p, data.result, oldtop.value)
                return oldtop.value
            other = self.visit(p, NULL, cells, self.exchange_wait)
            if other is TIMEOUT:
                cells = min(self.slots, cells + 1)
            elif other is not NULL:    # collided with a push
                m.write(p, m.rd[p], CentralInfo(m, None, other))
                return other
            # a timeout or a pop/pop collision retries centrally
            oldtop = m.read(p, self.top)
            data = CentralInfo(m, oldtop)
            m.write(p, m.rd[p], data)

    def pop_recover(self, p) -> Any:
        m = self.m
        data = m.read(p, m.rd[p])
        if m.read(p, m.cp[p]) == 0:
            return REINVOKE
        if isinstance(data, ExchangeInfo):
            temp = data.slot.recover(p, data)
            if temp is not NULL and temp is not UNSET:
                m.write(p, m.rd[p], CentralInfo(m, None, temp))
        else:
            nd = data.nd
            if m.read(p, data.result) is UNSET:
                if nd is None:
                    m.write(p, data.result, EMPTY)
                elif not self.stack_search(p, nd):
                    m.cas(p, nd.popper, m.nprocs, p, note="popper")
                    if m.read(p, nd.popper) == p:
                        m.write(p, data.result, nd.value)
        return self._response(p)

    def _response(self, p) -> Any:
        """Both recoveries' response rule (see the module docstring)."""
        m = self.m
        data = m.read(p, m.rd[p])
        res = m.read(p, data.result)
        if res is UNSET or not isinstance(data, CentralInfo):
            return REINVOKE
        return res

    # -- introspection (tests and harness only) ------------------------------

    def snapshot(self) -> list:
        """Stack contents, top first, from the cached view."""
        out = []
        node = self.top.v
        while node is not None:
            out.append(node.value)
            node = node.next.v
        return out

    def quiescent_slots(self) -> bool:
        return all(ex.slot.v is self.default for ex in self.exchangers)


class _BaseNode:
    __slots__ = ("value", "next")

    def __init__(self, m, value):
        self.value = value
        self.next = m.new_cell(None)


class BaselineStack(Structure):
    """Non-recoverable elimination stack (benchmark baseline).

    Same central-stack/elimination split, but exchanges plain values: a slot
    holds a (state, value) pair manipulated with one CAS.
    """

    def __init__(self, m, *, slots: int = 16, exchange_wait: Optional[int] = None,
                 seed: int = 0):
        self.m = m
        self.slots = slots
        self.seed = seed
        self.exchange_wait = exchange_wait or m.default_exchange_wait
        self.top = m.new_cell(None)
        self.exchangers = [m.new_cell((EX_EMPTY, None)) for _ in range(slots)]

    def visit(self, p, value, cells: int, duration: int) -> Any:
        """Exchange ``value`` in one of the first ``cells`` slots, picked as
        :meth:`EliminationStack.visit` picks it."""
        m = self.m
        slot = self.exchangers[hash((self.seed, p, m.now())) % cells]
        deadline = m.now() + duration
        while True:
            if m.now() > deadline:
                return TIMEOUT
            state, other = m.read(p, slot)
            if state == EX_EMPTY:
                if m.cas(p, slot, (state, other), (EX_WAITING, value)):
                    while m.now() < deadline:
                        state, other = m.read(p, slot)
                        if state == EX_BUSY:
                            m.write(p, slot, (EX_EMPTY, None))
                            return other
                    if m.cas(p, slot, (EX_WAITING, value), (EX_EMPTY, None)):
                        return TIMEOUT
                    state, other = m.read(p, slot)
                    m.write(p, slot, (EX_EMPTY, None))
                    return other
            elif state == EX_WAITING:
                if m.cas(p, slot, (state, other), (EX_BUSY, value)):
                    return other

    def push(self, p, value) -> bool:
        m = self.m
        nd = _BaseNode(m, value)
        cells = 1
        while True:
            oldtop = m.read(p, self.top)
            m.write(p, nd.next, oldtop)
            if m.cas(p, self.top, oldtop, nd):
                return True
            other = self.visit(p, value, cells, self.exchange_wait)
            if other is NULL:
                return True
            if other is TIMEOUT:
                cells = min(self.slots, cells + 1)

    def pop(self, p) -> Any:
        m = self.m
        cells = 1
        while True:
            oldtop = m.read(p, self.top)
            if oldtop is None:
                return EMPTY
            newtop = m.read(p, oldtop.next)
            if m.cas(p, self.top, oldtop, newtop):
                return oldtop.value
            other = self.visit(p, NULL, cells, self.exchange_wait)
            if other is TIMEOUT:
                cells = min(self.slots, cells + 1)
            elif other is not NULL:
                return other
