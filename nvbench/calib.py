"""Machine-speed calibration for the timed samples.

Measured on a shared 2-core machine, the same code ran up to 30% faster or
slower from one minute to the next, moving every variant and phase together.
So each timed sample (a variant's round, a verify unit, a set-up) is paired
with a fixed pure-Python reference loop run just before it, and the sample is
rescaled to the speed at which the reference takes ``REF_S``:

    rate at reference speed = measured rate * factor()
    time at reference speed = measured time / factor()

The loop allocates slotted objects, walks them and updates a dict, the mix
the structures spend their time on.  It runs on the calling thread with GC
off, while no worker threads exist, so settings the program under test
changes (GC thresholds, switch interval) cannot move it.
"""

from __future__ import annotations

import gc
import time

REF_S = 1e-3                  # the loop's time at the reference machine speed
REF_NODES = 2_000


class _Node:
    __slots__ = ("key", "next")


def _reference_seconds() -> float:
    t0 = time.perf_counter()
    head = None
    for k in range(REF_NODES):
        node = _Node()
        node.key = k
        node.next = head
        head = node
    total = 0
    for _ in range(3):
        node = head
        while node is not None:
            if node.key % 3 == 0:
                total += node.key
            node = node.next
    counts: dict = {}
    for k in range(REF_NODES):
        counts[k & 255] = counts.get(k & 255, 0) + 1
    return time.perf_counter() - t0


def factor() -> float:
    """Current machine slowness relative to the reference speed (best of 2)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_reference_seconds(), _reference_seconds()) / REF_S
    finally:
        if enabled:
            gc.enable()
