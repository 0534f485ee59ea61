"""Pinned histories: a fixed corpus of simulator runs hashes to a constant.

The corpus covers threaded crash-point enumeration (single and double
crashes) on five structures and direct-mode double-crash scans on two.  Any
change to scheduling, crash firing, recovery dispatch or event emission that
alters a single event shows up as a different digest.  A change that is
meant to alter histories must recompute ``PINNED_SHA256`` and say why.

A second corpus pins the flush-protocol list under a volatile cache, with
the same threaded and direct shapes (``PINNED_LIST_FLUSH_SHA256``).
"""

import dataclasses
import hashlib
import random

from nvtrack.cli import default_workload
from nvtrack.harness import STRUCTURES, enumerate_crash_points, run_direct

PINNED_SHA256 = "564fcaf867b68aff4bf685bb560f2b7afaf161e3ad04ea229ce85316e1362ad3"
PINNED_LIST_FLUSH_SHA256 = "67fd5df8d9ed1a762b34b71001cbccb1f4e74c161795a6710e08bfa60189378e"

THREADED = ("list", "bst", "stack", "exchanger", "exchanger-timed")
DIRECT_SCANS = {
    "list": [[("insert", (7,)), ("delete", (5,)), ("find", (7,))],
             [("delete", (7,)), ("insert", (9,)), ("delete", (9,))]],
    "bst": [[("insert", (7,)), ("delete", (5,)), ("contains", (7,))],
            [("delete", (7,)), ("insert", (9,)), ("delete", (9,))]],
}


def _serialise(outcome) -> bytes:
    lines = [f"{outcome.label}|{outcome.granted}|{outcome.inconclusive}"]
    for event in outcome.history:
        fields = ",".join(repr(getattr(event, f.name))
                          for f in dataclasses.fields(event))
        lines.append(f"{type(event).__name__}({fields})")
    return ("\n".join(lines) + "\n").encode()


def _corpus(threaded=THREADED, direct_scans=DIRECT_SCANS, cache="durable"):
    for name in threaded:
        workload, setup, _ = default_workload(name, 2, 2, 1)
        yield from enumerate_crash_points(
            STRUCTURES[name], workload, setup=setup, max_crashes=2,
            samples=6, step_budget=300, cache=cache)
    for name, scans in direct_scans.items():
        adapter = STRUCTURES[name]
        for i, ops in enumerate(scans):
            rng = random.Random(f"pin:{name}:{i}")
            probe = run_direct(adapter, ops, setup=(("insert", (5,)),),
                               cache=cache)
            yield probe
            for c1 in range(probe.granted):
                c2 = c1 + 1 + rng.randrange(max(1, probe.granted - c1))
                yield run_direct(adapter, ops, setup=(("insert", (5,)),),
                                 cache=cache, crash_steps=(c1, c2))


def corpus_digest(**corpus_kwargs) -> tuple:
    h = hashlib.sha256()
    runs = 0
    for outcome in _corpus(**corpus_kwargs):
        h.update(_serialise(outcome))
        runs += 1
    return h.hexdigest(), runs


def test_pinned_histories_are_unchanged():
    digest, runs = corpus_digest()
    assert runs > 200
    assert digest == PINNED_SHA256


def test_pinned_list_flush_histories_are_unchanged():
    digest, runs = corpus_digest(
        threaded=("list-flush",),
        direct_scans={"list-flush": DIRECT_SCANS["list"]}, cache="volatile")
    assert runs > 200
    assert digest == PINNED_LIST_FLUSH_SHA256
