"""Scheduler determinism, history structure, and budget handling."""

import dataclasses
import inspect
import random
import threading

import pytest

from nvtrack import checker, harness
from nvtrack.checker import op_shape
from nvtrack.cli import default_workload
from nvtrack.harness import (
    DEFAULT_PATTERNS,
    STRUCTURES,
    Schedule,
    detectability_sweep,
    enumerate_crash_points,
    pattern_quanta,
    run_direct,
    run_schedule,
)
from nvtrack.rstack import EliminationStack
from nvtrack.runtime import (
    Abandoned,
    CrashEvent,
    Invoke,
    OpDef,
    REINVOKE,
    RecoverBegin,
    Response,
)

LIST = STRUCTURES["list"]


def test_same_schedule_twice_gives_identical_histories():
    wl = {0: [("insert", (5,)), ("delete", (5,))],
          1: [("insert", (5,)), ("insert", (7,))]}
    sched = Schedule(pattern_quanta("rand0", 2, 600, seed=3), (9,))
    a = run_schedule(LIST, wl, sched)
    b = run_schedule(LIST, wl, sched)
    assert a.history == b.history
    assert a.granted == b.granted


def test_single_pid_schedule_equals_sequential_run():
    ops = [("insert", (5,)), ("insert", (7,)), ("delete", (5,))]
    threaded = run_schedule(LIST, {0: ops}, Schedule(((0, 10_000),)))
    direct = run_direct(LIST, ops)
    strip = lambda h: [(type(e).__name__, getattr(e, "value", None)) for e in h]
    assert strip(threaded.history) == strip(direct.history)


def test_run_direct_records_its_crashes_sorted():
    ops = [("insert", (5,)), ("delete", (5,))]
    given = run_direct(LIST, ops, crash_steps=[9, 2])
    ordered = run_direct(LIST, ops, crash_steps=[2, 9])
    assert given.schedule.crashes == ordered.schedule.crashes == (2, 9)
    assert given.history == ordered.history


SET_SCAN = [("insert", (7,)), ("delete", (5,)), ("find", (7,))]
DIRECT_CASES = {
    "list": (SET_SCAN, (("insert", (5,)),), "durable"),
    "list-flush": (SET_SCAN, (("insert", (5,)),), "volatile"),
    "bst": ([("insert", (7,)), ("delete", (5,)), ("contains", (7,))],
            (("insert", (5,)),), "durable"),
    "stack": ([("push", (7,)), ("pop", ()), ("pop", ())], (("push", (5,)),),
              "durable"),
}


def _direct_view(out):
    return out.history, out.granted, out.obj.snapshot()


def _fresh_direct(adapter, ops, crashes=(), **kw):
    """A run of ``adapter``'s copy: no other run shares its workload's key."""
    return _direct_view(run_direct(dataclasses.replace(adapter), ops,
                                   crash_steps=crashes, **kw))


def _counting_builds(monkeypatch):
    builds = []
    prepared = harness.prepared_runtime

    def counted(*args, **kwargs):
        builds.append(args)
        return prepared(*args, **kwargs)

    monkeypatch.setattr(harness, "prepared_runtime", counted)
    return builds


@pytest.mark.parametrize("name", DIRECT_CASES)
def test_direct_runs_resume_and_equal_fresh_runs_in_any_order(monkeypatch, name):
    adapter = STRUCTURES[name]
    ops, setup, cache = DIRECT_CASES[name]
    kw = dict(setup=setup, cache=cache)
    total = run_direct(dataclasses.replace(adapter), ops, **kw).granted
    # a crash planned before the workload never fires, in a fresh run too,
    # and the later crashes of its plan fire all the same
    plans = [(), (-1,)] + [(c,) for c in range(total)] + \
        [(-1, c) for c in range(total)] + \
        [(c1, c2) for c1 in range(total) for c2 in range(c1 + 1, total)]
    expected = {plan: _fresh_direct(adapter, ops, plan, **kw) for plan in plans}
    random.Random(name).shuffle(plans)
    builds = _counting_builds(monkeypatch)
    for plan in plans:
        out = run_direct(adapter, ops, crash_steps=plan, **kw)
        assert _direct_view(out) == expected[plan], plan
    assert len(builds) == 1                # every later run resumed a boundary


def test_a_crash_planned_before_the_workload_blocks_no_later_crash():
    ops = [("insert", (5,)), ("delete", (5,))]
    for setup in ((), (("insert", (7,)),)):
        late = _fresh_direct(LIST, ops, (-1, 3), setup=setup)
        assert late == _fresh_direct(LIST, ops, (3,), setup=setup)
        assert CrashEvent in map(type, late[0])


def test_recorded_histories_never_change_afterwards(monkeypatch):
    # branched runs share events with the runs they branch off, and direct
    # runs with the crash-free run they resume; each history must read as it
    # did when it was produced, whichever run came after it
    seen = []

    def remember(history):
        seen.append((history, repr(history)))

    enumerate_runs = harness.enumerate_crash_points

    def remembering(*args, **kwargs):
        for outcome in enumerate_runs(*args, **kwargs):
            remember(outcome.history)
            yield outcome

    monkeypatch.setattr(harness, "enumerate_crash_points", remembering)
    for name, adapter in STRUCTURES.items():
        workload, setup, initial = default_workload(name, 2, 2, seed=0)
        detectability_sweep(adapter, workload, setup=setup, model_initial=initial,
                            max_crashes=2)
    for name in ("list", "list-flush", "bst"):
        ops, setup, cache = DIRECT_CASES[name]
        total = run_direct(STRUCTURES[name], ops, setup=setup, cache=cache).granted
        for c1 in range(total):
            for c2 in range(c1, total):
                remember(run_direct(STRUCTURES[name], ops, setup=setup, cache=cache,
                                    crash_steps=(c1, c2)).history)
    assert len(seen) > 1000
    changed = [before for history, before in seen if repr(history) != before]
    assert not changed, changed[0]


def test_direct_run_after_one_that_raised_equals_a_fresh_run():
    # the recovery of ``touch`` raises, so a crash inside ``touch`` ends its
    # run mid-operation; the next run restores a boundary all the same
    def touch(obj, pid):
        return obj.m.read(pid, obj.head.next).marked

    def boom(obj, pid):
        raise ValueError("boom")

    adapter = dataclasses.replace(LIST, ops=dict(
        LIST.ops, touch=OpDef("touch", touch, boom, is_update=False)))
    ops = [("insert", (5,)), ("touch", ()), ("delete", (5,))]
    probe = run_direct(adapter, ops)
    [inside] = [e.t for e in probe.history
                if isinstance(e, Invoke) and e.op == "touch"]
    for after in (inside + 3, 0, inside + 1):
        with pytest.raises(ValueError, match="boom"):
            run_direct(adapter, ops, crash_steps=(inside,))
        out = run_direct(adapter, ops, crash_steps=(after,))
        assert _direct_view(out) == _fresh_direct(adapter, ops, (after,)), after


def test_direct_runs_share_no_entry_across_runtime_classes(monkeypatch):
    class Other(harness.SimRuntime):
        pass

    ops, setup, _ = DIRECT_CASES["list"]
    expected = {c: _fresh_direct(LIST, ops, (c,), setup=setup) for c in (4, 6, 9)}
    builds = _counting_builds(monkeypatch)
    for runtime, crash in ((harness.SimRuntime, 4), (Other, 6), (Other, 9),
                           (harness.SimRuntime, 4)):
        monkeypatch.setattr(harness, "SimRuntime", runtime)
        out = run_direct(LIST, ops, setup=setup, crash_steps=(crash,))
        assert type(out.rt) is runtime
        assert _direct_view(out) == expected[crash]
    assert len(builds) == 3                # the second Other run resumed


def test_crash_event_precedes_recover_begin():
    wl = {0: [("insert", (5,))]}
    out = run_schedule(LIST, wl, Schedule(((0, 100),), (3,)))
    kinds = [type(e).__name__ for e in out.history]
    assert kinds.index("CrashEvent") < kinds.index("RecoverBegin")
    assert out.history[-1].value is True


def test_zero_crash_enumeration_is_plain_interleaving():
    wl = {0: [("insert", (5,))], 1: [("insert", (7,))]}
    out = run_schedule(LIST, wl, Schedule(pattern_quanta("block", 2, 500)))
    assert not any(isinstance(e, CrashEvent) for e in out.history)
    assert sorted(e.value for e in out.history if isinstance(e, Response)) \
        == [True, True]


def test_step_budget_exhaustion_marks_run_inconclusive():
    exchanger = STRUCTURES["exchanger"]
    wl = {0: [("exchange", (1,))]}     # a lone exchanger waits forever
    out = run_schedule(exchanger, wl, Schedule(((0, 10_000),)),
                       step_budget=120)
    assert out.inconclusive
    assert any(isinstance(e, Abandoned) for e in out.history)


def test_drain_runs_every_process_to_completion():
    # each find walks 500 keys in about 500 steps, within its budget of 600,
    # so the run is long but no operation is abandoned
    keys = 500
    setup = tuple(("insert", (k,)) for k in range(1, keys + 1))
    wl = {pid: [("find", (keys + 1 + pid,))] * 6 for pid in range(2)}
    out = run_schedule(LIST, wl, Schedule(pattern_quanta("rr1", 2, 1200)),
                       setup=setup, step_budget=600)
    assert [e.value for e in out.history if isinstance(e, Response)] \
        == [False] * 12
    assert not out.inconclusive


def test_setup_ops_do_not_appear_in_history():
    out = run_direct(LIST, [("find", (5,))], setup=(("insert", (5,)),))
    assert [type(e).__name__ for e in out.history] == ["Invoke", "Response"]
    assert out.history[-1].value is True


def test_pattern_quanta_rejects_unknown():
    with pytest.raises(ValueError):
        pattern_quanta("zigzag", 2, 10)


@pytest.mark.parametrize("pattern", ["rr0", "rr-1", "rrx", "rr+2", "rr 2", "rr1.5"])
def test_pattern_quanta_rejects_a_round_robin_quantum_that_is_not_positive(pattern):
    with pytest.raises(ValueError) as exc:
        pattern_quanta(pattern, 2, 10)
    assert str(exc.value) == f"unknown pattern {pattern}"


def test_round_robin_pattern_defaults_to_quantum_one():
    assert pattern_quanta("rr", 2, 10) == pattern_quanta("rr1", 2, 10)
    assert set(pattern_quanta("rr12", 2, 10)) == {(0, 12), (1, 12)}


def test_crash_starts_recoveries_in_pid_order_at_the_crash_time():
    wl = {0: [("insert", (5,))], 1: [("insert", (7,))], 2: [("insert", (9,))]}
    quanta = pattern_quanta("rr1", 3, 500)
    out = run_schedule(LIST, wl, Schedule(quanta, (6,)))
    [i] = [i for i, e in enumerate(out.history) if isinstance(e, CrashEvent)]
    begins = out.history[i + 1:i + 4]
    assert all(isinstance(e, RecoverBegin) for e in begins)  # all in flight
    assert [e.pid for e in begins] == [0, 1, 2]
    assert {e.t for e in begins} == {out.history[i].t}


def _raising_list():
    def boom(obj, pid, *args):
        obj.m.read(pid, obj.head.next)      # fail mid-operation, after a gate
        raise ValueError("boom")
    ops = dict(LIST.ops, boom=OpDef("boom", boom, boom))
    return dataclasses.replace(LIST, ops=ops)


def test_raising_op_propagates_out_of_run_schedule_without_hanging():
    adapter = _raising_list()
    wl = {0: [("insert", (5,)), ("insert", (7,))], 1: [("boom", ())]}
    seen = []

    def run():
        try:
            run_schedule(adapter, wl, Schedule(pattern_quanta("rr1", 2, 100)))
        except ValueError as exc:
            seen.append(exc)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(10)
    assert not t.is_alive()
    assert [str(e) for e in seen] == ["boom"]
    assert not [th.name for th in threading.enumerate()
                if th.name.startswith("simproc-")]


def test_raising_op_propagates_out_of_run_direct():
    with pytest.raises(ValueError, match="boom"):
        run_direct(_raising_list(), [("insert", (5,)), ("boom", ())])


def test_raising_op_is_an_errored_violation_not_an_aborted_sweep():
    adapter = _raising_list()
    wl = {0: [("insert", (5,))], 1: [("boom", ())]}
    reports = []
    t = threading.Thread(target=lambda: reports.append(
        detectability_sweep(adapter, wl)), daemon=True)
    t.start()
    t.join(10)
    assert not t.is_alive()
    [report] = reports
    assert report.total == len(DEFAULT_PATTERNS)
    assert [label for label, _ in report.violations] == \
        [f"{p}/no-crash [errored]" for p in DEFAULT_PATTERNS]
    assert all("ValueError: boom" in detail for _, detail in report.violations)
    assert not [th.name for th in threading.enumerate()
                if th.name.startswith("simproc-")]


def _with_op(name, fn):
    return dataclasses.replace(LIST, ops=dict(LIST.ops, **{name: OpDef(name, fn, fn)}))


def test_processes_run_on_the_calling_thread():
    seen = []

    def count(obj, pid, *args):
        seen.append(threading.active_count())
        return obj.m.read(pid, obj.head.next).marked

    before = threading.active_count()
    run_schedule(_with_op("count", count), {0: [("count", ())], 1: [("count", ())]},
                 Schedule(pattern_quanta("rr1", 2, 10)))
    assert seen == [before, before]


def test_access_inside_a_comprehension_has_no_scheduling_point():
    def peek(obj, pid, *args):
        return [obj.m.read(pid, nd.next) for nd in (obj.head, obj.tail)]

    with pytest.raises(RuntimeError, match="no scheduling point"):
        run_schedule(_with_op("peek", peek), {0: [("peek", ())]},
                     Schedule(((0, 10),)))


def test_op_whose_source_cannot_be_read_is_an_errored_run():
    namespace = {}
    exec("def sourceless(obj, pid, *args):\n    return obj.find(pid, 5)\n",
         namespace)
    report = detectability_sweep(_with_op("find", namespace["sourceless"]),
                                 {0: [("find", (5,))]}, patterns=("rr1",))
    [(label, detail)] = report.violations
    assert label == "rr1/no-crash [errored]"
    assert "cannot derive a simulated process from sourceless" in detail


def test_errored_run_traceback_points_at_the_op_source_line():
    boom = _raising_list().ops["boom"].call
    _, start = inspect.getsourcelines(boom)
    report = detectability_sweep(_raising_list(), {0: [("boom", ())]},
                                 patterns=("rr1",))
    [(_, detail)] = report.violations
    assert f'test_harness.py", line {start + 2}, in boom' in detail


def test_a_history_its_response_check_flags_fails_the_sweep():
    flagged = "rr2/no-crash"
    report = detectability_sweep(
        LIST, TWO_INSERTS, patterns=("rr1", "rr2"),
        check_responses=lambda out: "flagged" if out.label == flagged else None)
    assert report.violations == [(flagged, "flagged")]
    assert report.ok == report.total > 2 and not report.passed


@pytest.mark.parametrize("name,pids,ops,seed", [("list", 2, 2, 1), ("stack", 3, 2, 0)])
def test_sweep_grants_steps_only_to_processes_that_can_step(monkeypatch, counting_runtime,
                                                            name, pids, ops, seed):
    monkeypatch.setattr(harness, "SimRuntime", counting_runtime)
    workload, setup, initial = default_workload(name, pids, ops, seed)
    report = detectability_sweep(STRUCTURES[name], workload, setup=setup,
                                 model_initial=initial)
    assert report.passed and report.total > 100
    counts = counting_runtime.counts
    assert counts["calls"] == counts["granted"] > 0


TWO_INSERTS = {0: [("insert", (5,))], 1: [("insert", (7,))]}
BLOCK = pattern_quanta("block", 2, 500)     # quanta outlast both processes


def test_crash_at_the_final_step_fires_only_while_quanta_remain():
    steps = run_schedule(LIST, TWO_INSERTS, Schedule(BLOCK)).granted
    out = run_schedule(LIST, TWO_INSERTS, Schedule(BLOCK, (steps,)))
    assert out.history[-1] == CrashEvent(steps)
    assert sum(isinstance(e, CrashEvent) for e in out.history) == 1
    exact = ((0, steps),)                   # no quantum entry after the last step
    out = run_schedule(LIST, {0: [("insert", (5,))]}, Schedule(exact, (steps,)))
    assert not any(isinstance(e, CrashEvent) for e in out.history)


def test_crash_after_the_final_step_never_fires():
    steps = run_schedule(LIST, TWO_INSERTS, Schedule(BLOCK)).granted
    out = run_schedule(LIST, TWO_INSERTS, Schedule(BLOCK, (steps + 1,)))
    assert not any(isinstance(e, CrashEvent) for e in out.history)
    assert out.granted == steps and not out.inconclusive


@pytest.mark.parametrize("crash, fired", [(1, 1), (2, 3)])
def test_drain_fires_a_due_crash_before_its_next_round(crash, fired):
    # one planned step, then the drain: a crash due after the quanta fires
    # at once, and one falling inside a drain round fires once that round
    # (a step of each process) is over
    out = run_schedule(LIST, TWO_INSERTS, Schedule(((0, 1),), (crash,)))
    assert [e for e in out.history if isinstance(e, CrashEvent)] \
        == [CrashEvent(fired)]
    assert not out.inconclusive
    assert [e.value for e in out.history if hasattr(e, "value")] == [True, True]


@pytest.mark.parametrize("crashes", [(), (3,), (2, 9)])
def test_empty_quanta_and_quanta_of_finished_processes_change_nothing(crashes):
    quanta = ((0, 2), (1, 3), (0, 400), (1, 1), (1, 400))
    padded = ((1, 0), (0, 2), (0, 0), (1, 3), (0, 400), (0, 5), (1, 0),
              (1, 1), (0, 9), (1, 400), (0, 3), (1, 7))
    a = run_schedule(LIST, TWO_INSERTS, Schedule(quanta, crashes))
    b = run_schedule(LIST, TWO_INSERTS, Schedule(padded, crashes))
    assert a.history == b.history and a.granted == b.granted
    assert [type(e) for e in a.history].count(CrashEvent) == len(crashes)


def _left_state(obj):
    """What a run left in the structure: its contents, or an exchanger's slot."""
    if hasattr(obj, "snapshot"):
        return obj.snapshot()
    slot = obj.slot.v
    return slot is obj.default, slot.state.v, slot.value, slot.result.v


def _summary(outcome):
    rt = outcome.rt
    return (outcome.label, outcome.granted, outcome.inconclusive, outcome.error,
            outcome.history, rt.steps, len(rt._cells),
            _left_state(outcome.obj))


SURVIVALS = {"drop-all": 0.0, "drop-random": 0.5}
BRANCH_CASES = [pytest.param(name, pids, {}, id=f"{name}-{pids}")
                for name in STRUCTURES for pids in (2, 3)] + [
    pytest.param("list-flush", pids, dict(cache="volatile", survival=survival),
                 id=f"list-flush-{pids}-volatile-{mode}")
    for pids in (2, 3) for mode, survival in SURVIVALS.items()]


# Every crash point along two patterns, or eight seeded points along each of
# the five.  The workload seeds are ones whose histories depend on list-flush's
# unflushed writes, which a branch must restore.
@pytest.mark.parametrize("seed,points", [(1, dict(patterns=("block", "rand0"))),
                                         (0, dict(samples=8))],
                         ids=["full", "sampled"])
@pytest.mark.parametrize("name,pids,cache", BRANCH_CASES)
def test_crash_runs_equal_fresh_runs_of_their_schedules(name, pids, cache, seed,
                                                        points):
    adapter = STRUCTURES[name]
    workload, setup, _ = default_workload(name, pids, 2, seed)
    common = dict(setup=setup, seed=seed, step_budget=300, **cache)
    crash_runs = 0
    for outcome in enumerate_crash_points(adapter, workload, max_crashes=2,
                                          **points, **common):
        fresh = run_schedule(adapter, workload, outcome.schedule,
                             label=outcome.label, **common)
        assert _summary(outcome) == _summary(fresh)
        crash_runs += bool(outcome.schedule.crashes)
    assert crash_runs >= 12


# A stack visit past its first timeout picks its slot among several, by a hash
# of the step count, which a branch restores with the cells.  At 3 processes
# and 4 ops each, visits reach that range.
@pytest.mark.parametrize("seed", [0, 1])
def test_crash_runs_equal_fresh_runs_where_stack_visits_widen(monkeypatch, seed):
    visit = EliminationStack.visit
    widest = [1]                 # the widest range a visit reached

    def widening(self, p, value, cells, duration):
        widest[0] = max(widest[0], cells)
        return visit(self, p, value, cells, duration)

    monkeypatch.setattr(EliminationStack, "visit", widening)
    adapter = STRUCTURES["stack"]
    workload, setup, _ = default_workload("stack", 3, 4, seed)
    common = dict(setup=setup, seed=seed, step_budget=300)
    crash_runs = widened = 0
    for outcome in enumerate_crash_points(adapter, workload, max_crashes=2,
                                          samples=8, **common):
        widest[0] = 1
        fresh = run_schedule(adapter, workload, outcome.schedule,
                             label=outcome.label, **common)
        assert _summary(outcome) == _summary(fresh)
        crash_runs += bool(outcome.schedule.crashes)
        widened += bool(outcome.schedule.crashes) and widest[0] > 1
    assert crash_runs >= 12 and widened >= 1, (crash_runs, widened)


def test_a_recovery_that_raises_errors_only_its_own_crash_point():
    quanta = pattern_quanta("rr1", 2, 600)
    target = 6                    # rr1 fires the crash at 6 after 6 grants
    [t] = [e.t for e in run_schedule(LIST, TWO_INSERTS, Schedule(quanta, (target,))
                                     ).history if isinstance(e, CrashEvent)]
    insert = LIST.ops["insert"]

    def recover(obj, pid, *args):
        if obj.m.steps == t:
            raise ValueError("boom")
        return insert.recover(obj, pid, *args)

    adapter = dataclasses.replace(
        LIST, ops=dict(LIST.ops, insert=dataclasses.replace(insert, recover=recover)))
    errored, later = [], 0
    for outcome in enumerate_crash_points(adapter, TWO_INSERTS, patterns=("rr1",)):
        if outcome.error:
            errored.append(outcome.label)
            assert "ValueError: boom" in outcome.error
            continue
        fresh = run_schedule(adapter, TWO_INSERTS, outcome.schedule,
                             label=outcome.label, step_budget=600)
        assert _summary(outcome) == _summary(fresh)
        later += outcome.schedule.crashes > (target,)
    assert errored == [f"rr1/crash@{target}"]
    assert later >= 10


def test_sweep_counts_distinct_op_level_histories():
    adapter = STRUCTURES["stack"]
    workload, setup, initial = default_workload("stack", 2, 2, 1)
    common = dict(setup=setup, max_crashes=2, seed=1, step_budget=300)
    rep = detectability_sweep(adapter, workload, model_initial=initial, **common)
    shapes = {op_shape(out.history)
              for out in enumerate_crash_points(adapter, workload, **common)}
    assert 1 < rep.distinct == len(shapes) < rep.total
    assert f"({rep.distinct} distinct op-level histories)" in rep.summary()


def test_sweep_computes_op_shape_once_per_history(monkeypatch):
    shaped = []

    def counting(history):
        shaped.append(history)
        return op_shape(history)

    monkeypatch.setattr(harness, "op_shape", counting)
    monkeypatch.setattr(checker, "op_shape", counting)
    workload, setup, initial = default_workload("list", 2, 2, 1)
    rep = detectability_sweep(LIST, workload, setup=setup, model_initial=initial,
                              max_crashes=2, seed=1, samples=8, step_budget=300)
    assert rep.passed and rep.total > 10
    # the sweep's count and the checker's memo key share one computation
    assert len(shaped) == len({id(h) for h in shaped}) == rep.total


def _listed_insert(obj, pid, key):
    return [obj.insert(pid, key)]


def _listed_insert_recover(obj, pid, key):
    res = obj.insert_recover(pid, key)
    return res if res is REINVOKE else [res]


def test_sweep_counts_histories_whose_responses_cannot_be_hashed():
    adapter = dataclasses.replace(LIST, ops={"insert": OpDef(
        "insert", _listed_insert, _listed_insert_recover)})
    rep = detectability_sweep(adapter, {0: [("insert", (5,))], 1: [("insert", (7,))]},
                              patterns=("rr1", "block"))
    assert len(rep.violations) == rep.total     # [True] is not a set response
    assert 1 < rep.distinct < rep.total
