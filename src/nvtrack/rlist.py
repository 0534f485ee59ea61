"""Recoverable sorted linked-list set with direct tracking and arbitration.

``BaselineList`` is Harris's lock-free list, the non-recoverable original:
nodes sorted by key between two sentinel nodes, logical deletion via a mark
bit packed with the ``next`` reference, physical unlinking done lazily by
traversals.  ``RecoverableList`` extends it and runs its traversals
unchanged; it adds per-process tracking to the updates:

* each update installs an :class:`ListInfo` record in ``rd`` and sets the
  checkpoint, so recovery can tell whether the operation got past
  installation;
* a write-once ``deleter`` field on every node attributes a contended
  removal to exactly one process;
* responses are written to the record's ``result`` field before returning.

``flush_protocol=True`` adds the write-back ordering needed under a volatile
cache, as in link-and-persist (David et al., USENIX ATC 2018): a link word
carries a third bit, set by storing it as a :class:`PersistedRef`, meaning
its ``(ref, marked)`` value was flushed before the bit was set.  A traversal
that reads a word without the bit flushes the word's cell and then sets the
bit with a CAS; every CAS that changes a link stores a plain ``MarkedRef``,
which clears it.  So a traversal reads one cell per hop and flushes only the
links nobody has persisted yet.  Losing the bit (a failed flag CAS) costs
one redundant flush later, never durability.  Every checkpoint/result/
deleter write is flushed immediately.
"""

from __future__ import annotations

from .runtime import REINVOKE, InfoRecord, MarkedRef, Structure, UNSET

KEY_MIN = -(2 ** 63)
KEY_MAX = 2 ** 63 - 1


class BaselineNode:
    __slots__ = ("key", "next")

    def __init__(self, m, key, succ):
        self.key = key
        self.next = m.new_cell(MarkedRef(succ, False))


class BaselineList(Structure):
    """Non-recoverable sorted list set (benchmark baseline)."""

    def __init__(self, m):
        self.m = m
        self.tail = BaselineNode(m, KEY_MAX, None)
        self.head = BaselineNode(m, KEY_MIN, self.tail)

    def find(self, p, key) -> bool:
        m = self.m
        curr = self.head
        while curr.key < key:
            curr = m.read(p, curr.next).ref
        return curr.key == key and not m.read(p, curr.next).marked

    def search(self, p, key):
        """Adjacent (pred, curr) with pred.key < key <= curr.key, helping
        unlink any marked node encountered on the way."""
        m = self.m
        while True:
            pred = self.head
            curr = m.read(p, pred.next).ref
            while True:
                succ = m.read(p, curr.next)
                if succ.marked:
                    if not m.cas(p, pred.next, MarkedRef(curr, False),
                                 MarkedRef(succ.ref, False), "unlink"):
                        break                    # pred changed: restart
                    curr = succ.ref
                else:
                    if curr.key >= key:
                        return pred, curr
                    pred = curr
                    curr = succ.ref

    def insert(self, p, key) -> bool:
        m = self.m
        newnd = BaselineNode(m, key, None)
        while True:
            pred, curr = self.search(p, key)
            if curr.key == key:
                return False
            m.write(p, newnd.next, MarkedRef(curr, False))
            if m.cas(p, pred.next, MarkedRef(curr, False), MarkedRef(newnd, False)):
                return True

    def delete(self, p, key) -> bool:
        m = self.m
        while True:
            pred, curr = self.search(p, key)
            if curr.key != key:
                return False
            succ = m.read(p, curr.next)
            if succ.marked:
                return False
            if m.cas(p, curr.next, MarkedRef(succ.ref, False),
                     MarkedRef(succ.ref, True)):
                m.cas(p, pred.next, MarkedRef(curr, False),
                      MarkedRef(succ.ref, False))
                return True

    # -- introspection (tests and harness only) ------------------------------

    def snapshot(self) -> set:
        """Abstract set contents from the cached (volatile) view."""
        out = set()
        node = self.head.next.v.ref
        while node.key < KEY_MAX:
            if not node.next.v.marked:
                out.add(node.key)
            node = node.next.v.ref
        return out


class PersistedRef(MarkedRef):
    """A link word whose ``(ref, marked)`` value was flushed before it was
    stored in this flagged form.  It compares equal to the ``MarkedRef`` of
    the same value, so a CAS expecting the plain word matches it."""

    __slots__ = ()


class ListNode:
    __slots__ = ("key", "next", "deleter")

    def __init__(self, m, key, succ, word=MarkedRef):
        self.key = key
        self.next = m.new_cell(word(succ, False))
        self.deleter = m.new_cell(m.nprocs)   # nprocs encodes "nobody"


class ListInfo(InfoRecord):
    __slots__ = ("nd", "result")

    def __init__(self, m, nd):
        self.nd = m.new_cell(nd)
        self.result = m.new_cell(UNSET)


class RecoverableList(BaselineList):
    """Sorted set of signed 64-bit keys; KEY_MIN/KEY_MAX are reserved."""

    def __init__(self, m, *, flush_protocol: bool = False):
        self.m = m
        self._fp = flush_protocol
        self.tail = ListNode(m, KEY_MAX, None)
        # allocation is persistent, so the flush protocol's head link is
        # allocated flagged
        self.head = ListNode(m, KEY_MIN, self.tail,
                             PersistedRef if flush_protocol else MarkedRef)

    def _flag(self, p, cell, word) -> None:
        """Flush ``cell``, read as holding ``word``, then flag that word in
        it.  A failed flag CAS leaves the word unflagged: a later reader
        flushes it again.  If the cell went from ``word`` to a new node's
        link and back between the read and the CAS, the flush may have
        persisted that link instead; the new node's persisted ``next``
        still leads to ``word``'s node, so the flag's promise holds."""
        m = self.m
        m.flush(p, cell)
        m.cas(p, cell, word, PersistedRef(*word), "flag")

    def _persist(self, p, cell) -> None:
        """Flush ``cell`` under the flush protocol; a no-op otherwise."""
        if self._fp:
            self.m.flush(p, cell)

    # -- queries ------------------------------------------------------------

    def find(self, p, key) -> bool:
        if not self._fp:
            return BaselineList.find(self, p, key)
        m = self.m
        curr = self.head
        while curr.key <= key:     # the baseline's reads, no more
            word = m.read(p, curr.next)
            if type(word) is not PersistedRef:
                self._flag(p, curr.next, word)
            if curr.key == key:
                return not word.marked
            curr = word.ref
        return False

    def search(self, p, key):
        """The baseline's search, or under the flush protocol the same walk
        persisting and flagging each unflagged link word it reads, so a mark
        persists before its unlink."""
        if not self._fp:
            return BaselineList.search(self, p, key)
        m = self.m
        while True:
            pred = self.head
            word = m.read(p, pred.next)
            if type(word) is not PersistedRef:
                self._flag(p, pred.next, word)
            curr = word.ref
            while True:
                succ = m.read(p, curr.next)
                if type(succ) is not PersistedRef:
                    self._flag(p, curr.next, succ)
                if succ.marked:
                    if not m.cas(p, pred.next, MarkedRef(curr, False),
                                 MarkedRef(succ.ref, False), "unlink"):
                        break                    # pred changed: restart
                    curr = succ.ref
                else:
                    if curr.key >= key:
                        return pred, curr
                    pred = curr
                    curr = succ.ref

    # -- updates ------------------------------------------------------------

    def insert(self, p, key) -> bool:
        m = self.m
        newnd = ListNode(m, key, None)
        info = ListInfo(m, newnd)
        m.write(p, m.rd[p], info)
        self._persist(p, m.rd[p])
        m.write(p, m.cp[p], 1)
        self._persist(p, m.cp[p])
        while True:
            pred, curr = self.search(p, key)
            if curr.key == key:
                m.write(p, info.result, False)
                self._persist(p, info.result)
                return False
            m.write(p, newnd.next, MarkedRef(curr, False))
            if self._fp:
                m.flush(p, newnd.next)   # persisted before the node is reachable
            if m.cas(p, pred.next, MarkedRef(curr, False),
                     MarkedRef(newnd, False), note="link"):
                if self._fp:
                    self._flag(p, pred.next, MarkedRef(newnd, False))
                # spelled out, not via _persist: the benchmark's seeded
                # lossy-insert mutant finds this site by its text
                m.write(p, info.result, True)
                if self._fp:
                    m.flush(p, info.result)
                return True

    def insert_recover(self, p, key) -> bool:
        m = self.m
        if m.read(p, m.cp[p]) == 0:
            return REINVOKE
        info = m.read(p, m.rd[p])
        res = m.read(p, info.result)
        if res is not UNSET:
            return res
        nd = m.read(p, info.nd)
        _, curr = self.search(p, key)
        if curr is nd or m.read(p, nd.next).marked:
            m.write(p, info.result, True)
            self._persist(p, info.result)
            return True
        return REINVOKE

    def delete(self, p, key) -> bool:
        m = self.m
        info = ListInfo(m, None)
        m.write(p, m.rd[p], info)
        self._persist(p, m.rd[p])
        m.write(p, m.cp[p], 1)
        self._persist(p, m.cp[p])
        pred, curr = self.search(p, key)
        if curr.key != key:
            m.write(p, info.result, False)
            self._persist(p, info.result)
            return False
        m.write(p, info.nd, curr)
        self._persist(p, info.nd)
        # mark curr unless another deleter has; a marked word's value never
        # changes, so the word last read (or marked) names curr's successor
        succ = m.read(p, curr.next)
        while not succ.marked and not m.cas(p, curr.next, MarkedRef(succ.ref, False),
                                            MarkedRef(succ.ref, True), note="mark"):
            succ = m.read(p, curr.next)
        self._persist(p, curr.next)      # whoever marked it, persist the mark first
        m.cas(p, pred.next, MarkedRef(curr, False),
              MarkedRef(succ.ref, False), note="unlink")
        res = m.cas(p, curr.deleter, m.nprocs, p, note="deleter")
        self._persist(p, curr.deleter)
        m.write(p, info.result, res)
        self._persist(p, info.result)
        return res

    def delete_recover(self, p, key) -> bool:
        m = self.m
        if m.read(p, m.cp[p]) == 0:
            return REINVOKE
        info = m.read(p, m.rd[p])
        res = m.read(p, info.result)
        if res is not UNSET:
            return res
        nd = m.read(p, info.nd)
        if nd is not None and m.read(p, nd.next).marked:
            m.cas(p, nd.deleter, m.nprocs, p, note="deleter")
            self._persist(p, nd.deleter)
            res = m.read(p, nd.deleter) == p
            m.write(p, info.result, res)
            self._persist(p, info.result)
            return res
        return REINVOKE

    # -- introspection (tests and harness only) ------------------------------

    def persisted_chain(self) -> list:
        """Nodes reachable through persisted ``next`` values, head included."""
        chain = [self.head]
        node = self.head.next.p.ref
        while node is not None:
            chain.append(node)
            if node.key >= KEY_MAX:
                break
            node = node.next.p.ref
        return chain
