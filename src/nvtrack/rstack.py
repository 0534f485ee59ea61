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

A push/pop that loses its central CAS visits the elimination layer; a
push/pop pair that collides there completes without touching the stack.  The
record in ``rd`` is retyped per attempt (central record vs exchange record),
which is how recovery knows which sub-protocol to resume.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from .rexchanger import EX_BUSY, EX_EMPTY, EX_WAITING, ExchangeInfo, TimedExchanger
from .runtime import EMPTY, InfoRecord, NULL, RETRY, TIMEOUT, UNSET


class StackNode:
    __slots__ = ("value", "next", "pushed", "popper")

    def __init__(self, m, value):
        self.value = value
        self.next = m.new_cell(None)
        self.pushed = m.new_cell(False)
        self.popper = m.new_cell(m.nprocs)   # nprocs encodes "nobody"


class CentralInfo(InfoRecord):
    __slots__ = ("nd", "result")

    def __init__(self, m, nd, result=UNSET):
        self.nd = m.new_cell(nd)
        self.result = m.new_cell(result)


class _DrawLog(list):
    """Each process's elimination rng, noting every pid whose rng is fetched
    (the stack fetches one only to draw from it) in ``drawn``, so a saved
    copy of an rng's state is refreshed only once that rng has moved on."""

    def __init__(self, rngs):
        super().__init__(rngs)
        self.drawn = set(range(len(rngs)))     # no state copied yet

    def __getitem__(self, p):
        self.drawn.add(p)
        return super().__getitem__(p)


class EliminationStack:
    """LIFO stack of word-sized payloads (NULL/EMPTY/UNSET are reserved)."""

    def __init__(self, m, *, slots: int = 16, exchange_wait: Optional[int] = None,
                 seed: int = 0):
        self.m = m
        self.slots = slots
        self.exchange_wait = exchange_wait or m.default_exchange_wait
        self.top = m.new_cell(None)
        self.default = ExchangeInfo(m, EX_EMPTY, UNSET)
        self.exchangers = [TimedExchanger(m, self.default) for _ in range(slots)]
        self._rng = _DrawLog([random.Random(f"{seed}:{pid}") for pid in range(m.nprocs)])
        self._held = [None] * m.nprocs     # each rng's state as last saved
        # elimination range: shrinks on a collision, grows on a timeout (any
        # rule keeping 1 <= range <= slots conforms)
        self._range = [1] * m.nprocs

    def _reinvoke(self, p, fn, *args):
        self.m.invoke_reset(p)
        return fn(p, *args)

    # -- central stack -------------------------------------------------------

    def try_push(self, p, data: CentralInfo) -> bool:
        m = self.m
        oldtop = m.read(p, self.top)
        nd = m.read(p, data.nd)
        m.write(p, nd.next, oldtop)
        m.write(p, m.rd[p], data)
        if m.cas(p, self.top, oldtop, nd, note="push"):
            m.write(p, nd.pushed, True)
            m.write(p, data.result, True)
            return True
        return False

    def try_pop(self, p, data: CentralInfo) -> Any:
        """Pop once: value, EMPTY, or RETRY when a CAS was lost."""
        m = self.m
        oldtop = m.read(p, self.top)
        m.write(p, data.nd, oldtop)
        m.write(p, m.rd[p], data)
        if oldtop is None:
            m.write(p, data.result, EMPTY)
            return EMPTY
        newtop = m.read(p, oldtop.next)
        m.write(p, oldtop.pushed, True)
        if m.cas(p, self.top, oldtop, newtop, note="pop"):
            if m.cas(p, oldtop.popper, m.nprocs, p, note="popper"):
                m.write(p, data.result, oldtop.value)
                return oldtop.value
        return RETRY

    def stack_search(self, p, nd) -> bool:
        m = self.m
        it = m.read(p, self.top)
        while it is not None:
            if it is nd:
                return True
            it = m.read(p, it.next)
        return False

    def visit(self, p, value, cells: int, duration: int) -> Any:
        slot = self._rng[p].randrange(cells)
        return self.exchangers[slot].exchange(p, value, duration)

    # -- operations ----------------------------------------------------------

    def push(self, p, value) -> bool:
        m = self.m
        nd = StackNode(m, value)
        data = CentralInfo(m, nd)
        m.write(p, m.rd[p], data)
        m.write(p, m.cp[p], 1)
        while True:
            if self.try_push(p, data):
                return True
            other = self.visit(p, value, self._range[p], self.exchange_wait)
            if other is NULL:          # collided with a pop
                m.write(p, m.rd[p], CentralInfo(m, None, True))
                self._range[p] = max(1, self._range[p] - 1)
                return True
            if other is TIMEOUT:
                self._range[p] = min(self.slots, self._range[p] + 1)
            # a push/push collision falls through and retries centrally

    def push_recover(self, p, value) -> bool:
        m = self.m
        data = m.read(p, m.rd[p])
        if m.read(p, m.cp[p]) == 0:
            return self._reinvoke(p, self.push, value)
        if isinstance(data, ExchangeInfo):
            if data.slot.recover(p, data) is NULL:
                m.write(p, m.rd[p], CentralInfo(m, None, True))
        else:
            nd = m.read(p, data.nd)
            if m.read(p, data.result) is UNSET:
                if self.stack_search(p, nd) or m.read(p, nd.pushed):
                    m.write(p, nd.pushed, True)
                    m.write(p, data.result, True)
        data = m.read(p, m.rd[p])
        if m.read(p, data.result) is True:
            return True
        return self._reinvoke(p, self.push, value)

    def pop(self, p) -> Any:
        m = self.m
        data = CentralInfo(m, m.read(p, self.top))
        m.write(p, m.rd[p], data)
        m.write(p, m.cp[p], 1)
        while True:
            response = self.try_pop(p, data)
            if response is not RETRY:
                return response
            other = self.visit(p, NULL, self._range[p], self.exchange_wait)
            if other is TIMEOUT:
                self._range[p] = min(self.slots, self._range[p] + 1)
            elif other is not NULL:    # collided with a push
                m.write(p, m.rd[p], CentralInfo(m, None, other))
                self._range[p] = max(1, self._range[p] - 1)
                return other

    def pop_recover(self, p) -> Any:
        m = self.m
        data = m.read(p, m.rd[p])
        if m.read(p, m.cp[p]) == 0:
            return self._reinvoke(p, self.pop)
        if isinstance(data, ExchangeInfo):
            temp = data.slot.recover(p, data)
            if temp is not NULL and temp is not UNSET:
                m.write(p, m.rd[p], CentralInfo(m, None, temp))
        else:
            nd = m.read(p, data.nd)
            if m.read(p, data.result) is UNSET:
                if nd is None:
                    m.write(p, data.result, EMPTY)
                elif not self.stack_search(p, nd):
                    m.cas(p, nd.popper, m.nprocs, p, note="popper")
                    if m.read(p, nd.popper) == p:
                        m.write(p, data.result, nd.value)
        data = m.read(p, m.rd[p])
        res = m.read(p, data.result)
        # NULL means the exchange paired two pops: no effect, run again.
        if res is not UNSET and res is not NULL:
            return res
        return self._reinvoke(p, self.pop)

    # -- introspection (tests and harness only) ------------------------------

    def save_private(self) -> tuple:
        """The simulated state kept outside cells: each process's elimination
        rng and range, for ``SimRuntime.save``, which branches crash runs off
        a saved run.  Any structure with state outside cells must provide
        this pair, ``save_private``/``restore_private``, under these names.
        An rng's state is copied only if it was drawn since the copy already
        held."""
        rngs, held = self._rng, self._held
        for p, rng in enumerate(rngs):
            if p in rngs.drawn:
                held[p] = rng.getstate()
        rngs.drawn.clear()
        return tuple(held), self._range[:]

    def restore_private(self, saved: tuple) -> None:
        """Undo every change since ``saved``; an rng's state is set only if
        it was drawn since, or differs from ``saved``'s."""
        states, ranges = saved
        self._range[:] = ranges
        rngs, held = self._rng, self._held
        for p, rng in enumerate(rngs):
            if p in rngs.drawn or held[p] is not states[p]:
                rng.setstate(states[p])
                held[p] = states[p]
        rngs.drawn.clear()

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


class BaselineStack:
    """Non-recoverable elimination stack (benchmark baseline).

    Same central-stack/elimination split, but exchanges plain values: a slot
    holds a (state, value) pair manipulated with one CAS.
    """

    def __init__(self, m, *, slots: int = 16, exchange_wait: Optional[int] = None,
                 seed: int = 0):
        self.m = m
        self.slots = slots
        self.exchange_wait = exchange_wait or m.default_exchange_wait
        self.top = m.new_cell(None)
        self.exchangers = [m.new_cell((EX_EMPTY, None)) for _ in range(slots)]
        self._rng = [random.Random(f"{seed}:{pid}") for pid in range(m.nprocs)]
        self._range = [1] * m.nprocs

    def _exchange(self, p, slot, value, timeout) -> Any:
        m = self.m
        deadline = m.now() + timeout
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
        while True:
            oldtop = m.read(p, self.top)
            m.write(p, nd.next, oldtop)
            if m.cas(p, self.top, oldtop, nd):
                return True
            slot = self.exchangers[self._rng[p].randrange(self._range[p])]
            other = self._exchange(p, slot, value, self.exchange_wait)
            if other is NULL:
                self._range[p] = max(1, self._range[p] - 1)
                return True
            if other is TIMEOUT:
                self._range[p] = min(self.slots, self._range[p] + 1)

    def pop(self, p) -> Any:
        m = self.m
        while True:
            oldtop = m.read(p, self.top)
            if oldtop is None:
                return EMPTY
            newtop = m.read(p, oldtop.next)
            if m.cas(p, self.top, oldtop, newtop):
                return oldtop.value
            slot = self.exchangers[self._rng[p].randrange(self._range[p])]
            other = self._exchange(p, slot, NULL, self.exchange_wait)
            if other is TIMEOUT:
                self._range[p] = min(self.slots, self._range[p] + 1)
            elif other is not NULL:
                self._range[p] = max(1, self._range[p] - 1)
                return other
