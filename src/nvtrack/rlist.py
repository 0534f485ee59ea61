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
cache: its own traversals persist the inbound link and a per-node
``flushed`` flag before moving past a node, and every checkpoint/result/
deleter write is flushed immediately.
"""

from __future__ import annotations

from .runtime import InfoRecord, MarkedRef, UNSET

KEY_MIN = -(2 ** 63)
KEY_MAX = 2 ** 63 - 1


class BaselineNode:
    __slots__ = ("key", "next")

    def __init__(self, m, key, succ):
        self.key = key
        self.next = m.new_cell(MarkedRef(succ, False))


class BaselineList:
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


class ListNode:
    __slots__ = ("key", "next", "deleter", "flushed")

    def __init__(self, m, key, succ, *, flushable: bool, flushed: bool = False):
        self.key = key
        self.next = m.new_cell(MarkedRef(succ, False))
        self.deleter = m.new_cell(m.nprocs)   # nprocs encodes "nobody"
        self.flushed = m.new_cell(flushed) if flushable else None


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
        if flush_protocol:
            head = ListNode(m, KEY_MIN, None, flushable=True, flushed=True)
            self._flush_node(None, head)
            tail = ListNode(m, KEY_MAX, None, flushable=True, flushed=True)
            m.write(None, head.next, MarkedRef(tail, False))
            self._flush_node(None, tail)
            m.flush(None, head.next)
            self.head, self.tail = head, tail
        else:
            tail = ListNode(m, KEY_MAX, None, flushable=False)
            head = ListNode(m, KEY_MIN, tail, flushable=False)
            self.head, self.tail = head, tail

    def _flush_node(self, p, nd: ListNode) -> None:
        m = self.m
        m.flush(p, nd.next)
        m.flush(p, nd.deleter)
        if nd.flushed is not None:
            m.flush(p, nd.flushed)

    def _persist(self, p, cell) -> None:
        """Flush ``cell`` under the flush protocol; a no-op otherwise."""
        if self._fp:
            self.m.flush(p, cell)

    def _reinvoke(self, p, fn, *args):
        self.m.invoke_reset(p)
        return fn(p, *args)

    # -- queries ------------------------------------------------------------

    def find(self, p, key) -> bool:
        if not self._fp:
            return BaselineList.find(self, p, key)
        m = self.m
        curr = self.head
        while curr.key < key:
            succ = m.read(p, curr.next).ref
            if not m.read(p, succ.flushed):
                m.flush(p, curr.next)
                m.write(p, succ.flushed, True)
                m.flush(p, succ.flushed)
            curr = succ
        return curr.key == key and not m.read(p, curr.next).marked

    def find_recover(self, p, key) -> bool:
        return self._reinvoke(p, self.find, key)

    def search(self, p, key):
        """The baseline's search, or under the flush protocol the same walk
        persisting each link it crosses and each mark before its unlink."""
        if not self._fp:
            return BaselineList.search(self, p, key)
        m = self.m
        while True:
            pred = self.head
            curr = m.read(p, pred.next).ref
            while True:
                succ = m.read(p, curr.next)
                if succ.marked:
                    m.flush(p, curr.next)        # the mark persists before the unlink
                    if not m.cas(p, pred.next, MarkedRef(curr, False),
                                 MarkedRef(succ.ref, False), "unlink"):
                        break                    # pred changed: restart
                    curr = succ.ref
                else:
                    if not m.read(p, curr.flushed):
                        m.flush(p, pred.next)
                        m.write(p, curr.flushed, True)
                        m.flush(p, curr.flushed)
                    if curr.key >= key:
                        return pred, curr
                    pred = curr
                    curr = succ.ref

    # -- updates ------------------------------------------------------------

    def insert(self, p, key) -> bool:
        m = self.m
        newnd = ListNode(m, key, None, flushable=self._fp)
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
                    m.flush(p, pred.next)
                    m.write(p, newnd.flushed, True)
                    m.flush(p, newnd.flushed)
                # spelled out, not via _persist: the benchmark's seeded
                # lossy-insert mutant finds this site by its text
                m.write(p, info.result, True)
                if self._fp:
                    m.flush(p, info.result)
                return True

    def insert_recover(self, p, key) -> bool:
        m = self.m
        if m.read(p, m.cp[p]) == 0:
            return self._reinvoke(p, self.insert, key)
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
        return self._reinvoke(p, self.insert, key)

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
        while not m.read(p, curr.next).marked:
            succ = m.read(p, curr.next)
            m.cas(p, curr.next, MarkedRef(succ.ref, False),
                  MarkedRef(succ.ref, True), note="mark")
        self._persist(p, curr.next)      # whoever marked it, persist the mark first
        succ = m.read(p, curr.next)
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
            return self._reinvoke(p, self.delete, key)
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
        return self._reinvoke(p, self.delete, key)

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
