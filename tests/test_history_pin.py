"""Pinned histories: a fixed corpus of simulator runs hashes to a constant.

The corpus covers threaded crash-point enumeration (single and double
crashes) on five structures and direct-mode double-crash scans on two.  Any
change to scheduling, crash firing, recovery dispatch or event emission that
alters a single event shows up as a different digest.  A change that is
meant to alter histories must recompute ``PINNED_SHA256`` and say why.
"""

import dataclasses
import hashlib
import random

from nvtrack.cli import default_workload
from nvtrack.harness import STRUCTURES, enumerate_crash_points, run_direct

PINNED_SHA256 = "564fcaf867b68aff4bf685bb560f2b7afaf161e3ad04ea229ce85316e1362ad3"

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


def _corpus():
    for name in THREADED:
        workload, setup, _ = default_workload(name, 2, 2, 1)
        yield from enumerate_crash_points(
            STRUCTURES[name], workload, setup=setup, max_crashes=2,
            samples=6, step_budget=300)
    for name, scans in DIRECT_SCANS.items():
        adapter = STRUCTURES[name]
        for i, ops in enumerate(scans):
            rng = random.Random(f"pin:{name}:{i}")
            probe = run_direct(adapter, ops, setup=(("insert", (5,)),))
            yield probe
            for c1 in range(probe.granted):
                c2 = c1 + 1 + rng.randrange(max(1, probe.granted - c1))
                yield run_direct(adapter, ops, setup=(("insert", (5,)),),
                                 crash_steps=(c1, c2))


def corpus_digest() -> tuple:
    h = hashlib.sha256()
    runs = 0
    for outcome in _corpus():
        h.update(_serialise(outcome))
        runs += 1
    return h.hexdigest(), runs


def test_pinned_histories_are_unchanged():
    digest, runs = corpus_digest()
    assert runs > 200
    assert digest == PINNED_SHA256
