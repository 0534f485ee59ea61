"""Recoverable exchanger: two processes pair up and swap values.

Processes exchange records (:class:`ExchangeInfo`) rather than raw values.
The slot normally points at a shared ``default`` record (the only record
whose state is ever EMPTY).  A first arriver installs its record in WAITING
state and spins; a second arriver links itself as partner, flips the slot
(state BUSY) and completes the collision by cross-writing both ``result``
fields (:func:`switch_pair`).  Any process that observes a BUSY slot helps
finish the collision and resets the slot, which makes the completion step
idempotent and crash-recoverable: recovery re-runs exactly the completion
the crashed process was in the middle of, then reads its own ``result``.

Two variants share the record type and one copy of the protocol:

* :class:`TimedExchanger` -- the slot-addressed variant used by the
  elimination stack; a waiter whose deadline passes tries to reset the slot
  and reports TIMEOUT, unless a collision sneaks in first.
* :class:`Exchanger` -- the unbounded-wait variant, the timed one with an
  infinite deadline (a lone caller spins until the simulated step budget
  runs out; not lock-free by design).  Its recovery resumes waiting where
  the timed recovery gives up.
"""

from __future__ import annotations

import math
from typing import Any

from .runtime import REINVOKE, InfoRecord, Structure, TIMEOUT, UNSET

EX_EMPTY, EX_WAITING, EX_BUSY = 0, 1, 2


class ExchangeInfo(InfoRecord):
    __slots__ = ("state", "value", "result", "partner", "slot")

    def __init__(self, m, state, value, slot=None):
        self.state = m.new_cell(state)
        self.value = value
        self.result = m.new_cell(UNSET)
        self.partner = m.new_cell(None)
        self.slot = slot


def switch_pair(m, p, first: ExchangeInfo, second: ExchangeInfo) -> None:
    """Record each operation's value as the other's result (idempotent)."""
    m.write(p, first.result, second.value)
    m.write(p, second.result, first.value)


class TimedExchanger(Structure):
    """One elimination-array entry; exchanges give up after ``timeout``."""

    def __init__(self, m, default: ExchangeInfo):
        self.m = m
        self.default = default
        self.slot = m.new_cell(default)

    def exchange(self, p, value, timeout) -> Any:
        m = self.m
        deadline = m.now() + timeout
        myop = ExchangeInfo(m, EX_WAITING, value, slot=self)
        m.write(p, m.rd[p], myop)
        return self._collide(p, myop, deadline)

    def _collide(self, p, myop: ExchangeInfo, deadline) -> Any:
        """Install ``myop`` or collide with a waiter, helping any collision
        in progress; TIMEOUT once ``deadline`` passes."""
        m = self.m
        while True:
            if m.now() > deadline:
                return TIMEOUT
            yourop = m.read(p, self.slot)
            state = m.read(p, yourop.state)
            if state == EX_EMPTY:
                m.write(p, myop.state, EX_WAITING)
                m.write(p, myop.partner, None)
                if m.cas(p, self.slot, yourop, myop):
                    return self._await_collision(p, myop, deadline)
            elif state == EX_WAITING:
                m.write(p, myop.partner, yourop)
                m.write(p, myop.state, EX_BUSY)
                if m.cas(p, self.slot, yourop, myop):
                    switch_pair(m, p, myop, yourop)
                    m.cas(p, self.slot, myop, self.default)
                    return m.read(p, myop.result)
            else:  # EX_BUSY: a collision is in progress; help and retry
                self._complete(p, yourop)

    def _await_collision(self, p, myop: ExchangeInfo, deadline) -> Any:
        m = self.m
        while m.now() < deadline:
            yourop = m.read(p, self.slot)
            if yourop is not myop:
                self._finish_as_partner(p, myop, yourop)
                return m.read(p, myop.result)
        # deadline passed with nobody colliding
        if self._withdraw(p, myop):
            return TIMEOUT
        return m.read(p, myop.result)

    def _complete(self, p, op: ExchangeInfo) -> None:
        """Finish the collision that BUSY record ``op`` started."""
        m = self.m
        partner = m.read(p, op.partner)
        switch_pair(m, p, op, partner)
        m.cas(p, self.slot, op, self.default)

    def _finish_as_partner(self, p, myop: ExchangeInfo, yourop) -> None:
        """Finish the collision that names ``myop`` as partner, if any."""
        m = self.m
        if m.read(p, yourop.partner) is myop:
            switch_pair(m, p, myop, yourop)
            m.cas(p, self.slot, yourop, self.default)

    def _withdraw(self, p, myop: ExchangeInfo) -> bool:
        """Reset the slot from waiting ``myop``; False if a collision got in
        first, which is then finished."""
        m = self.m
        if m.cas(p, self.slot, myop, self.default):
            return True
        self._finish_as_partner(p, myop, m.read(p, self.slot))
        return False

    def recover(self, p, myop: ExchangeInfo) -> Any:
        """Finish or abandon a crashed exchange; UNSET means no collision."""
        m = self.m
        state = m.read(p, myop.state)
        if state == EX_WAITING:
            yourop = m.read(p, self.slot)
            if yourop is myop:
                self._withdraw(p, myop)   # as if the deadline just passed
            else:
                self._finish_as_partner(p, myop, yourop)
        if state == EX_BUSY:
            if m.read(p, self.slot) is myop:
                self._complete(p, myop)
        return m.read(p, myop.result)


class Exchanger(TimedExchanger):
    """Single-slot exchanger whose callers wait until somebody collides."""

    def __init__(self, m):
        super().__init__(m, ExchangeInfo(m, EX_EMPTY, UNSET))

    def exchange(self, p, value) -> Any:
        m = self.m
        myop = ExchangeInfo(m, EX_WAITING, value)
        m.write(p, m.rd[p], myop)
        m.write(p, m.cp[p], 1)
        return self._collide(p, myop, math.inf)

    def exchange_recover(self, p, value) -> Any:
        m = self.m
        myop = m.read(p, m.rd[p])
        yourop = m.read(p, self.slot)
        if m.read(p, m.cp[p]) == 0:
            return REINVOKE
        state = m.read(p, myop.state)
        if state == EX_WAITING:
            if yourop is myop:
                # still installed and uncollided: resume waiting
                return self._await_collision(p, myop, math.inf)
            self._finish_as_partner(p, myop, yourop)
        if state == EX_BUSY:
            if yourop is myop:
                self._complete(p, myop)
        res = m.read(p, myop.result)
        if res is not UNSET:
            return res
        return REINVOKE
