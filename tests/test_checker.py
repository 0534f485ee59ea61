"""Linearizability checker and strict-recoverability checker."""

import collections
import dataclasses
import hashlib

import pytest

from nvtrack import checker
from nvtrack.checker import (
    ExchangeModel,
    SetModel,
    StackModel,
    check_nrl,
    check_strict_recoverability,
    extract_ops,
)
from nvtrack.cli import default_workload
from nvtrack.harness import STRUCTURES, enumerate_crash_points, run_direct
from nvtrack.rlist import RecoverableList
from nvtrack.runtime import (
    Abandoned,
    CrashEvent,
    EMPTY,
    Invoke,
    RecoverBegin,
    REINVOKE,
    RecoverResponse,
    Response,
    SimRuntime,
    TIMEOUT,
    UNSET,
)


def H(*events):
    return list(events)


def test_sequential_set_history_is_ok():
    h = H(
        Invoke(0, 0, "insert", (5,)), Response(1, 0, "insert", True),
        Invoke(2, 0, "find", (5,)), Response(3, 0, "find", True),
        Invoke(4, 0, "delete", (5,)), Response(5, 0, "delete", True),
    )
    assert check_nrl(h, SetModel()).ok


def test_double_successful_delete_is_a_violation():
    h = H(
        Invoke(0, 0, "delete", (5,)),
        Invoke(0, 1, "delete", (5,)),
        Response(1, 0, "delete", True),
        Response(1, 1, "delete", True),
    )
    v = check_nrl(h, SetModel({5}))
    assert v.status == "VIOLATION"
    assert "delete" in v.detail


def test_concurrent_overlap_allows_either_order():
    h = H(
        Invoke(0, 0, "insert", (5,)),
        Invoke(0, 1, "delete", (5,)),
        Response(1, 0, "insert", True),
        Response(1, 1, "delete", True),
    )
    assert check_nrl(h, SetModel()).ok


def test_completed_response_lost_after_crash_is_violation():
    # insert completed (response returned), then a crash wiped its effect
    h = H(
        Invoke(0, 0, "insert", (5,)), Response(1, 0, "insert", True),
        CrashEvent(2),
        Invoke(3, 0, "find", (5,)), Response(4, 0, "find", False),
    )
    assert check_nrl(h, SetModel()).status == "VIOLATION"


def test_crashed_op_linearizes_over_extended_interval():
    # the delete's interval covers the concurrent insert thanks to recovery
    h = H(
        Invoke(0, 0, "delete", (5,)),
        CrashEvent(1),
        Invoke(2, 1, "insert", (5,)), Response(3, 1, "insert", True),
        RecoverBegin(4, 0, "delete"),
        RecoverResponse(5, 0, "delete", True),
    )
    assert check_nrl(h, SetModel()).ok


@pytest.mark.parametrize("model,pending,completed,resp,status", [
    (SetModel(), ("insert", (5,)), ("find", (5,)), True, "OK"),
    (SetModel(), ("insert", (5,)), ("find", (5,)), False, "OK"),
    (StackModel(), ("push", (5,)), ("pop", ()), 5, "OK"),
    (StackModel(), ("push", (5,)), ("pop", ()), EMPTY, "OK"),
    (StackModel(), ("push", (5,)), ("pop", ()), 6, "VIOLATION"),
], ids=["set-applied", "set-not-applied", "stack-applied", "stack-not-applied",
        "stack-pops-a-value-never-pushed"])
def test_pending_op_may_or_may_not_have_applied(model, pending, completed,
                                                resp, status):
    # p0's op never responds; p1's op overlaps it and completes with resp
    (op0, args0), (op1, args1) = pending, completed
    h = H(
        Invoke(0, 0, op0, args0),
        Invoke(1, 1, op1, args1), Response(2, 1, op1, resp),
    )
    assert check_nrl(h, model).status == status


def test_stack_model_lifo():
    h = H(
        Invoke(0, 0, "push", (1,)), Response(1, 0, "push", True),
        Invoke(2, 0, "push", (2,)), Response(3, 0, "push", True),
        Invoke(4, 0, "pop", ()), Response(5, 0, "pop", 2),
        Invoke(6, 0, "pop", ()), Response(7, 0, "pop", 1),
        Invoke(8, 0, "pop", ()), Response(9, 0, "pop", EMPTY),
    )
    assert check_nrl(h, StackModel()).ok
    fifo = H(
        Invoke(0, 0, "push", (1,)), Response(1, 0, "push", True),
        Invoke(2, 0, "push", (2,)), Response(3, 0, "push", True),
        Invoke(4, 0, "pop", ()), Response(5, 0, "pop", 1),
    )
    assert check_nrl(fifo, StackModel()).status == "VIOLATION"


def test_exchange_model_accepts_swap_and_rejects_mismatch():
    ok = H(
        Invoke(0, 0, "exchange", (10,)),
        Invoke(0, 1, "exchange", (20,)),
        Response(1, 0, "exchange", 20),
        Response(1, 1, "exchange", 10),
    )
    assert check_nrl(ok, ExchangeModel()).ok
    bad = H(
        Invoke(0, 0, "exchange", (10,)),
        Invoke(0, 1, "exchange", (20,)),
        Response(1, 0, "exchange", 20),
        Response(1, 1, "exchange", 99),
    )
    assert check_nrl(bad, ExchangeModel()).status == "VIOLATION"


def test_exchange_without_partner_cannot_return_a_value():
    lone = H(
        Invoke(0, 0, "exchange", (10,)),
        Response(1, 0, "exchange", 20),
    )
    assert check_nrl(lone, ExchangeModel()).status == "VIOLATION"
    timed_out = H(
        Invoke(0, 0, "exchange", (10,)),
        Response(1, 0, "exchange", TIMEOUT),
    )
    assert check_nrl(timed_out, ExchangeModel()).ok


def test_exchange_pairs_with_pending_partner():
    h = H(
        Invoke(0, 0, "exchange", (10,)),
        Invoke(0, 1, "exchange", (20,)),
        Response(1, 1, "exchange", 10),   # partner's response is pending
    )
    assert check_nrl(h, ExchangeModel()).ok


def test_long_sequential_set_history_is_checked_whole():
    events = []
    t = 0
    for k in range(30):
        events.append(Invoke(t, 0, "insert", (k,)))
        events.append(Response(t + 1, 0, "insert", True))
        t += 2
    v = check_nrl(events, SetModel())
    assert v.ok


def test_long_set_history_violation_names_real_events():
    events = []
    t = 0
    for k in range(30):
        events.append(Invoke(t, 0, "insert", (k,)))
        events.append(Response(t + 1, 0, "insert", k != 17))
        t += 2
    v = check_nrl(events, SetModel())
    assert v.status == "VIOLATION" and not v.inconclusive
    assert "  p0 insert(17,) -> False [34..35]" in v.detail.splitlines()


def test_oversized_non_set_history_reports_unchecked(monkeypatch):
    # 9 concurrent pushes, then a pop of a value never pushed: every order of
    # every subset of the pushes is a reachable stack, 986,410 (done, state)
    # pairs in all, within the default budget
    events = [Invoke(i, i, "push", (i,)) for i in range(9)]
    events += [Response(9 + i, i, "push", True) for i in range(9)]
    events += [Invoke(18, 0, "pop", ()), Response(19, 0, "pop", 999)]
    assert check_nrl(events, StackModel()).status == "VIOLATION"
    monkeypatch.setattr(checker, "BUDGET", 1_000)
    v = check_nrl(events, StackModel())
    assert v.status == "UNCHECKED" and v.inconclusive


def test_extract_ops_folds_recovery_into_one_interval():
    h = H(
        Invoke(0, 0, "insert", (5,)),
        CrashEvent(1),
        RecoverBegin(2, 0, "insert"),
        RecoverResponse(3, 0, "insert", True),
    )
    ops = extract_ops(h)
    assert len(ops) == 1
    assert ops[0].recovered and ops[0].resp is True


def test_strict_recoverability_passes_for_real_runs():
    out = run_direct(STRUCTURES["list"],
                     [("insert", (5,)), ("delete", (5,)), ("find", (5,))])
    assert check_strict_recoverability(out.history).ok


class _LossyList(RecoverableList):
    # mutation build: drop the response persist on insert's success path
    def insert(self, p, key):
        m = self.m
        from nvtrack.rlist import ListInfo, ListNode
        from nvtrack.runtime import MarkedRef
        newnd = ListNode(m, key, None)
        info = ListInfo(m, newnd)
        m.write(p, m.rd[p], info)
        m.write(p, m.cp[p], 1)
        while True:
            pred, curr = self.search(p, key)
            if curr.key == key:
                m.write(p, info.result, False)
                return False
            m.write(p, newnd.next, MarkedRef(curr, False))
            if m.cas(p, pred.next, MarkedRef(curr, False),
                     MarkedRef(newnd, False)):
                return True    # result persist dropped


def test_strict_recoverability_flags_missing_persist():
    from nvtrack.runtime import OpDef

    rt = SimRuntime(1)
    lst = rt.bind(_LossyList(rt))
    lossy_insert = OpDef("insert", _LossyList.insert,
                         _LossyList.insert_recover)
    rt.invoke(0, lossy_insert, (5,))
    v = check_strict_recoverability(rt.history)
    assert v.status == "VIOLATION"
    assert "persisted" in v.detail


class _BrokenArbitrationList(RecoverableList):
    # seeded bug: recovery claims success whenever the node is marked,
    # without competing for the deleter field
    def delete_recover(self, p, key):
        m = self.m
        if m.read(p, m.cp[p]) == 0:
            return REINVOKE
        info = m.read(p, m.rd[p])
        res = m.read(p, info.result)
        if res is not UNSET:
            return res
        nd = m.read(p, info.nd)
        if nd is not None and m.read(p, nd.next).marked:
            m.write(p, info.result, True)
            return True
        return REINVOKE


def test_sweep_catches_seeded_arbitration_bug():
    from nvtrack.harness import StructureAdapter, detectability_sweep
    from nvtrack.runtime import OpDef

    ops = {
        "insert": OpDef("insert", _BrokenArbitrationList.insert,
                        _BrokenArbitrationList.insert_recover),
        "delete": OpDef("delete", _BrokenArbitrationList.delete,
                        _BrokenArbitrationList.delete_recover),
    }
    adapter = StructureAdapter(lambda rt: _BrokenArbitrationList(rt), ops,
                               SetModel)
    rep = detectability_sweep(
        adapter, {0: [("delete", (5,))], 1: [("delete", (5,))]},
        setup=(("insert", (5,)),), model_initial={5}, seed=1, step_budget=400)
    assert len(rep.violations) > 0          # double-true deletes get flagged
    assert "delete" in rep.violations[0][1]
    # flagged by the checker, not by a recovery that raised
    assert not [label for label, _ in rep.violations if "[errored]" in label]


# ---------------------------------------------------------------------------
# The memo of OK verdicts
# ---------------------------------------------------------------------------

def _verdict(v):
    return v.status, v.inconclusive, v.detail


def test_memo_tells_a_true_response_from_a_one():
    def pushed(resp):
        return H(Invoke(0, 0, "push", (4,)), Response(1, 0, "push", resp))

    assert check_nrl(pushed(True), StackModel()).ok
    assert check_nrl(pushed(1), StackModel()).status == "VIOLATION"
    assert check_nrl(pushed(True), StackModel()).ok


def test_violations_are_checked_afresh_from_each_history():
    lost = H(
        Invoke(0, 0, "insert", (5,)), Response(1, 0, "insert", True),
        Invoke(3, 0, "find", (5,)), Response(4, 0, "find", False),
    )
    crashed = lost[:2] + [CrashEvent(2)] + lost[2:]
    assert "[2..3]" in check_nrl(lost, SetModel()).detail
    assert "[3..4]" in check_nrl(crashed, SetModel()).detail


def test_memo_tells_an_abandoned_op_from_a_pending_one():
    pending = H(Invoke(0, 0, "exchange", (10,)))
    abandoned = pending + [Abandoned(48, 0, "exchange")]
    assert _verdict(check_nrl(pending, ExchangeModel())) == ("OK", False, "")
    assert _verdict(check_nrl(abandoned, ExchangeModel())) == ("OK", True, "")


def _pinned_runs():
    """(history, model) for every run of the three pinned history corpora."""
    import test_history_pin as pin

    def model(name, initial):
        adapter = STRUCTURES[name]
        return adapter.model() if initial is None else adapter.model(initial)

    for name in pin.THREADED:
        initial = default_workload(name, 2, 2, 1)[2]
        for out in pin._corpus(threaded=(name,), direct_scans={}):
            yield out.history, model(name, initial)
    for name, scans in pin.DIRECT_SCANS.items():
        for out in pin._corpus(threaded=(), direct_scans={name: scans}):
            yield out.history, model(name, {5})
    for out in pin._corpus(threaded=("list-flush",), cache="volatile",
                           direct_scans={"list-flush": pin.DIRECT_SCANS["list"]}):
        yield out.history, model("list-flush", {5})
    for name, pids, kwargs in pin._sweep_corpus():
        workload, setup, initial = default_workload(name, pids, 2, 1)
        for out in enumerate_crash_points(STRUCTURES[name], workload, setup=setup,
                                          max_crashes=2, seed=1,
                                          step_budget=pin.STEP_BUDGET, **kwargs):
            yield out.history, model(name, initial)


PINNED_VERDICTS_SHA256 = "f1806039569e6e2032446cc5b4f278dabfbafccf5f455fc1e7573fd1281a238c"


def _corrupted(history):
    """``history`` with its middle response's value changed: a bool flipped,
    any other value wrapped in a tuple."""
    at = [i for i, ev in enumerate(history)
          if isinstance(ev, (Response, RecoverResponse))]
    if not at:
        return None
    i = at[len(at) // 2]
    value = history[i].value
    value = not value if isinstance(value, bool) else (value,)
    corrupted = list(history)
    corrupted[i] = dataclasses.replace(history[i], value=value)
    return corrupted


def test_pinned_verdicts_are_unchanged():
    # every pinned history and a copy with one response corrupted, checked
    # fresh (not through the memo); any change to a verdict moves the digest
    digest = hashlib.sha256()
    statuses = collections.Counter()
    for history, model in _pinned_runs():
        for h in (history, _corrupted(history)):
            if h is None:
                continue
            v = checker._check(extract_ops(h), model)
            digest.update(repr(_verdict(v)).encode() + b"\n")
            statuses[v.status] += 1
    assert statuses["OK"] > 2000 and statuses["VIOLATION"] > 2000
    assert digest.hexdigest() == PINNED_VERDICTS_SHA256


def test_memo_hits_equal_fresh_checks_over_the_pinned_corpora(monkeypatch):
    runs = list(_pinned_runs())
    cold = []
    for history, model in runs:
        checker._ok_memo.clear()
        cold.append(_verdict(check_nrl(history, model)))
    fresh = []
    check = checker._check
    monkeypatch.setattr(checker, "_check",
                        lambda *args: fresh.append(1) or check(*args))
    checker._ok_memo.clear()
    warm = [_verdict(check_nrl(history, model)) for history, model in runs]
    assert warm == cold
    assert len(fresh) < len(runs) / 2          # most checks were memo hits


class _NoHash:
    """A response equal to True that cannot be hashed."""

    __hash__ = None

    def __eq__(self, other):
        return other is True


def test_unhashable_responses_are_still_checked():
    def inserted(resp):
        return H(Invoke(0, 0, "insert", (5,)), Response(1, 0, "insert", resp))

    checker._ok_memo.clear()
    for _ in range(2):
        assert check_nrl(inserted(_NoHash()), SetModel()).ok
        assert check_nrl(inserted([True]), SetModel()).status == "VIOLATION"
    assert not checker._ok_memo


def test_a_mutated_verdict_does_not_change_the_next_one():
    h = H(Invoke(0, 0, "insert", (5,)), Response(1, 0, "insert", True))
    first = check_nrl(h, SetModel())
    first.status, first.detail, first.inconclusive = "VIOLATION", "edited", True
    assert _verdict(check_nrl(h, SetModel())) == ("OK", False, "")


def test_memo_stays_within_its_bound():
    for k in range(checker.OK_MEMO_SIZE + 50):
        h = H(Invoke(0, 0, "insert", (k,)), Response(1, 0, "insert", True))
        assert check_nrl(h, SetModel()).ok
        assert 0 < len(checker._ok_memo) <= checker.OK_MEMO_SIZE
