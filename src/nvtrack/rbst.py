"""Recoverable leaf-oriented non-blocking BST with flag/mark helping.

Membership lives in the leaves; internal nodes only route (left subtree
strictly below the node's key).  Every internal node carries an update word
packing a 2-bit state (CLEAN / IFLAG / DFLAG / MARK) and a reference to the
operation record being applied, CAS-able as one unit.  An update flags the
node(s) it is about to change, and any process can finish a flagged
operation from its record, so completion is idempotent.

Recovery piggybacks on that helping: records gain a ``result`` field that
every completer sets *before* unflagging.  After a crash, one recovery
serves both updates: a process reads its record from ``rd``; if the flag it
names (``FLAG``, on node ``flagged``) is still installed, it helps itself,
then ``result`` says whether the update took effect.

The tree always holds two sentinel keys (the two largest values of the key
domain) which are never removed, so it never shrinks below three nodes.

``BaselineBst`` is the original non-recoverable algorithm (Ellen, Fatourou,
Ruppert and van Breugel) and holds the search and the helping code.
``RecoverableBst`` extends it: it overrides only the two completion steps
that write ``result`` before unflagging, and the two updates, which also
write the checkpoint ``cp`` and the record reference ``rd``.
"""

from __future__ import annotations

from typing import Optional

from .runtime import (CLEAN, DFLAG, IFLAG, MARK, REINVOKE, InfoRecord, Structure,
                      UNSET, UpdateWord)

INF2 = 2 ** 63 - 1
INF1 = 2 ** 63 - 2   # user keys must be strictly below INF1


class Internal:
    __slots__ = ("key", "update", "left", "right")

    def __init__(self, m, key, left, right):
        self.key = key
        self.update = m.new_cell(UpdateWord(CLEAN, None))
        self.left = m.new_cell(left)
        self.right = m.new_cell(right)


class Leaf:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key


class InsertInfo(InfoRecord):
    __slots__ = ("p", "l", "new_internal", "result")
    FLAG = IFLAG              # installed on ``flagged``, the parent
    flagged = property(lambda info: info.p)

    def __init__(self, m, p, l, new_internal, result=UNSET):
        self.p = p
        self.l = l
        self.new_internal = new_internal
        self.result = m.new_cell(result)


class DeleteInfo(InfoRecord):
    __slots__ = ("gp", "p", "l", "pupdate", "result")
    FLAG = DFLAG              # installed on ``flagged``, the grandparent
    flagged = property(lambda info: info.gp)

    def __init__(self, m, gp, p, l, pupdate, result=UNSET):
        self.gp = gp
        self.p = p
        self.l = l
        self.pupdate = pupdate
        self.result = m.new_cell(result)


class BaselineBst(Structure):
    """Non-recoverable flag/mark BST; keys below INF1, INF1/INF2 reserved."""

    def __init__(self, m):
        self.m = m
        self.root = Internal(m, INF2, Leaf(INF1), Leaf(INF2))

    def search(self, p, k):
        """Descend to the leaf for ``k``; returns (gp, parent, leaf,
        parent-update, gp-update) as read on the way down."""
        m = self.m
        gp = par = None
        gpu = pu = None
        l = self.root
        while isinstance(l, Internal):
            gp, par = par, l
            gpu, pu = pu, m.read(p, par.update)
            l = m.read(p, par.left if k < par.key else par.right)
        return gp, par, l, pu, gpu

    def find(self, p, k) -> Optional[Leaf]:
        l = self.search(p, k)[2]
        return l if l.key == k else None

    def contains(self, p, k) -> bool:
        return self.search(p, k)[2].key == k

    # -- helping -------------------------------------------------------------

    def cas_child(self, p, parent: Internal, old, new, note=None) -> None:
        m = self.m
        if new.key < parent.key:
            m.cas(p, parent.left, old, new, note)
        else:
            m.cas(p, parent.right, old, new, note)

    def help(self, p, u: UpdateWord) -> None:
        if u.state == IFLAG:
            self.help_insert(p, u.info)
        elif u.state == MARK:
            self.help_marked(p, u.info)
        elif u.state == DFLAG:
            self.help_delete(p, u.info)

    def help_insert(self, p, op: InsertInfo) -> None:
        self.cas_child(p, op.p, op.l, op.new_internal)
        self.m.cas(p, op.p.update, UpdateWord(IFLAG, op), UpdateWord(CLEAN, op))

    def help_delete(self, p, op: DeleteInfo) -> bool:
        m = self.m
        prev = m.cas_fetch(p, op.p.update, op.pupdate, UpdateWord(MARK, op))
        if prev == op.pupdate or prev == UpdateWord(MARK, op):
            self.help_marked(p, op)
            return True
        self.help(p, prev)
        m.cas(p, op.gp.update, UpdateWord(DFLAG, op), UpdateWord(CLEAN, op),
              "backtrack")
        return False

    def help_marked(self, p, op: DeleteInfo) -> None:
        m = self.m
        if m.read(p, op.p.right) is op.l:
            other = m.read(p, op.p.left)
        else:
            other = m.read(p, op.p.right)
        self.cas_child(p, op.gp, op.p, other)
        m.cas(p, op.gp.update, UpdateWord(DFLAG, op), UpdateWord(CLEAN, op))

    # -- updates -------------------------------------------------------------

    def insert(self, p, k) -> bool:
        m = self.m
        new_leaf = Leaf(k)
        while True:
            _, par, l, pu, _ = self.search(p, k)
            if l.key == k:
                return False
            if pu.state != CLEAN:
                self.help(p, pu)
            else:
                sibling = Leaf(l.key)
                lo, hi = (new_leaf, sibling) if k < l.key else (sibling, new_leaf)
                new_internal = Internal(m, max(k, l.key), lo, hi)
                op = InsertInfo(m, par, l, new_internal)
                prev = m.cas_fetch(p, par.update, pu, UpdateWord(IFLAG, op))
                if prev == pu:
                    self.help_insert(p, op)
                    return True
                self.help(p, prev)

    def delete(self, p, k) -> bool:
        m = self.m
        while True:
            gp, par, l, pu, gpu = self.search(p, k)
            if l.key != k:
                return False
            if gpu.state != CLEAN:
                self.help(p, gpu)
            elif pu.state != CLEAN:
                self.help(p, pu)
            else:
                op = DeleteInfo(m, gp, par, l, pu)
                prev = m.cas_fetch(p, gp.update, gpu, UpdateWord(DFLAG, op))
                if prev == gpu:
                    if self.help_delete(p, op):
                        return True
                else:
                    self.help(p, prev)

    # -- introspection (tests and harness only) ------------------------------

    def snapshot(self) -> set:
        out = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                if node.key < INF1:
                    out.add(node.key)
            else:
                stack.append(node.left.v)
                stack.append(node.right.v)
        return out

    def well_formed(self) -> bool:
        """Leaf-oriented order: internal keys route correctly everywhere."""

        def check(node, lo, hi):   # every key in the subtree is in [lo, hi)
            if isinstance(node, Leaf):
                return lo <= node.key < hi
            return (lo <= node.key < hi
                    and check(node.left.v, lo, node.key)
                    and check(node.right.v, node.key, hi))

        root = self.root
        return (root.key == INF2
                and check(root.left.v, -(2 ** 63), root.key)
                and check(root.right.v, root.key, INF2 + 1))

    def node_count(self) -> int:
        n = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            n += 1
            if isinstance(node, Internal):
                stack.append(node.left.v)
                stack.append(node.right.v)
        return n


class RecoverableBst(BaselineBst):
    """The baseline plus per-process tracking through ``cp``, ``rd`` and
    each record's ``result``."""

    # -- helping: completions write the result before unflagging ------------

    def help_insert(self, p, op: InsertInfo) -> None:
        m = self.m
        self.cas_child(p, op.p, op.l, op.new_internal, "ichild")
        m.write(p, op.result, True)
        m.cas(p, op.p.update, UpdateWord(IFLAG, op), UpdateWord(CLEAN, op),
              "iunflag")

    def help_marked(self, p, op: DeleteInfo) -> None:
        m = self.m
        if m.read(p, op.p.right) is op.l:
            other = m.read(p, op.p.left)
        else:
            other = m.read(p, op.p.right)
        self.cas_child(p, op.gp, op.p, other, "dchild")
        m.write(p, op.result, True)
        m.cas(p, op.gp.update, UpdateWord(DFLAG, op), UpdateWord(CLEAN, op),
              "dunflag")

    # -- updates -------------------------------------------------------------

    def insert(self, p, k) -> bool:
        m = self.m
        m.write(p, m.rd[p], UNSET)
        m.write(p, m.cp[p], 1)
        new_leaf = Leaf(k)
        while True:
            _, par, l, pu, _ = self.search(p, k)
            if l.key == k:
                m.write(p, m.rd[p],
                        InsertInfo(m, None, None, None, result=False))
                return False
            if pu.state != CLEAN:
                self.help(p, pu)
            else:
                sibling = Leaf(l.key)
                lo, hi = (new_leaf, sibling) if k < l.key else (sibling, new_leaf)
                new_internal = Internal(m, max(k, l.key), lo, hi)
                op = InsertInfo(m, par, l, new_internal)
                m.write(p, m.rd[p], op)
                prev = m.cas_fetch(p, par.update, pu, UpdateWord(IFLAG, op))
                if prev == pu:
                    self.help_insert(p, op)
                    return True
                self.help(p, prev)

    def delete(self, p, k) -> bool:
        m = self.m
        m.write(p, m.rd[p], UNSET)
        m.write(p, m.cp[p], 1)
        while True:
            gp, par, l, pu, gpu = self.search(p, k)
            if l.key != k:
                m.write(p, m.rd[p],
                        DeleteInfo(m, None, None, None, None, result=False))
                return False
            if gpu.state != CLEAN:
                self.help(p, gpu)
            elif pu.state != CLEAN:
                self.help(p, pu)
            else:
                op = DeleteInfo(m, gp, par, l, pu)
                m.write(p, m.rd[p], op)
                prev = m.cas_fetch(p, gp.update, gpu, UpdateWord(DFLAG, op))
                if prev == gpu:
                    if self.help_delete(p, op):
                        return True
                else:
                    self.help(p, prev)

    def insert_recover(self, p, k) -> bool:
        """Recover an insert, or a delete as ``delete_recover``."""
        m = self.m
        op = m.read(p, m.rd[p])
        if m.read(p, m.cp[p]) == 0 or op is UNSET:
            return REINVOKE
        if m.read(p, op.result) is False:
            return False
        word = m.read(p, op.flagged.update)
        if word == UpdateWord(op.FLAG, op):
            self.help(p, word)
        if m.read(p, op.result) is True:
            return True
        return REINVOKE

    delete_recover = insert_recover
