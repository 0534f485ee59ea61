"""Pinned histories: a fixed corpus of simulator runs hashes to a constant.

The corpus covers threaded runs on five structures and direct-mode
double-crash scans on two.  The threaded runs are built here rather than by
``enumerate_crash_points``, so the corpus does not move when enumeration
does: along each default pattern, the crash-free probe, then twelve seeded
crash points, each with a single and a double crash.  Any change to
scheduling, crash firing, recovery start or event emission that alters a
single event shows up as a different digest.  A change that is meant to
alter histories must recompute ``PINNED_SHA256`` and say why.

A second corpus pins the flush-protocol list under a volatile cache, with
the same threaded and direct shapes (``PINNED_LIST_FLUSH_SHA256``).

A third pins what ``enumerate_crash_points`` yields (``PINNED_SWEEP_SHA256``):
seeded single and double crash points along the default patterns for every
structure at 2 processes, the stack at 3, and list-flush under a volatile
cache with every crash point, with no unflushed write surviving a crash and
with each surviving with probability 0.5.
"""

import dataclasses
import hashlib
import random

from nvtrack.cli import default_workload
from nvtrack.harness import (
    DEFAULT_PATTERNS,
    STRUCTURES,
    enumerate_crash_points,
    Schedule,
    pattern_quanta,
    run_direct,
    run_schedule,
)

PINNED_SHA256 = "451b6fb9e41925ba7169bf772326eed88bba8584446894cf138f1e8055ea9087"
PINNED_LIST_FLUSH_SHA256 = "507d0d27747be12278e12d7424ce027c2086c283841b0647e48ad263e87101d4"
PINNED_SWEEP_SHA256 = "dba670c2e469b302d5b504c1ef885d3f1bef6563d0e75f9ef39d3f6682aaa25b"

THREADED = ("list", "bst", "stack", "exchanger", "exchanger-timed")
CRASH_POINTS = 12              # seeded crash points per pattern
STEP_BUDGET = 300
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


def _threaded_runs(name, cache):
    adapter = STRUCTURES[name]
    workload, setup, _ = default_workload(name, 2, 2, 1)
    rng = random.Random(f"pin:{name}")

    def run(schedule, label):
        return run_schedule(adapter, workload, schedule, setup=setup,
                            cache=cache, step_budget=STEP_BUDGET, label=label)

    for pattern in DEFAULT_PATTERNS:
        quanta = pattern_quanta(pattern, 2, 2 * STEP_BUDGET)
        probe = run(Schedule(quanta), f"{pattern}/no-crash")
        yield probe
        if probe.inconclusive:
            continue
        total = probe.granted
        for c in sorted(rng.sample(range(total), min(CRASH_POINTS, total))):
            c2 = c + 1 + rng.randrange(max(1, total - c))
            for crashes in ((c,), (c, c2)):
                at = ",".join(map(str, crashes))
                yield run(Schedule(quanta, crashes), f"{pattern}/crash@{at}")


def _corpus(threaded=THREADED, direct_scans=DIRECT_SCANS, cache="durable"):
    for name in threaded:
        yield from _threaded_runs(name, cache)
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


def _sweep_corpus():
    """(structure, pids, enumerate_crash_points keyword arguments) per sweep."""
    for name in STRUCTURES:
        yield name, 2, dict(samples=CRASH_POINTS)
    yield "stack", 3, dict(samples=CRASH_POINTS // 2)
    for survival in (0.0, 0.5):
        yield "list-flush", 2, dict(cache="volatile", survival=survival)


def _sweeps():
    for name, pids, kwargs in _sweep_corpus():
        workload, setup, _ = default_workload(name, pids, 2, 1)
        yield from enumerate_crash_points(STRUCTURES[name], workload, setup=setup,
                                          max_crashes=2, seed=1,
                                          step_budget=STEP_BUDGET, **kwargs)


def corpus_digest(corpus=None, **corpus_kwargs) -> tuple:
    h = hashlib.sha256()
    runs = 0
    for outcome in corpus if corpus is not None else _corpus(**corpus_kwargs):
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


def test_pinned_sweep_outcomes_are_unchanged():
    digest, runs = corpus_digest(_sweeps())
    assert runs > 1000
    assert digest == PINNED_SWEEP_SHA256
