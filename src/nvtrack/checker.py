"""History checking: crash-extended linearizability and strict recoverability.

``check_nrl`` verifies that a recorded history linearizes against a
sequential model, where an operation that crashed occupies the whole interval
from its invocation to the response produced by its (possibly repeated)
recovery.  The search is an exhaustive DFS over linearization orders with
memoized (done-set, model-state) pairs, so a VIOLATION verdict is a real
counterexample and OK is a real witness order.  Every history is searched
whole; a search that would visit more than ``BUDGET`` pairs, a bound on its
work and not on time, stops undecided and reports UNCHECKED, which is
inconclusive -- never silently passed.  A verdict is inconclusive when it is
UNCHECKED or when some operation was abandoned (exhausted its step budget);
a sweep counts no inconclusive verdict ok.

A sequential model has an ``initial`` state; ``step(state, op, args, resp)``,
the list of states the operation may leave, where ``resp`` is ``WILDCARD``
(any response) for an operation with no response, which the search may also
leave out, so a model need not yield the unchanged state for it; and
``final_ok(state)``, whether a linearization may end there.

Sweeps produce the same operation-level history many times over: crash runs
that differ only in where the crash fell often fold into the same operation
records.  ``check_nrl`` therefore keeps a bounded memo of OK verdicts, keyed
on the model's type and initial state and the history's *op shape*
(:func:`op_shape`): its invocations ``(pid, op, args)``, responses
``(pid, type(value), value)`` and abandonments ``(pid,)`` in order, without
crashes, recovery starts or times.  The memo is exact: ``extract_ops`` reads
nothing else from a history but event positions, and the search reads those
only through the order of responses and invocations (``b.res < a.inv``),
which the shape keeps; the type tag keeps ``True`` and ``1`` apart, which
``StackModel`` tells apart with ``is``.  Only the built-in models, whose
behaviour is fixed by their type and ``initial``, are memoized, and only
their OK verdicts: a VIOLATION or UNCHECKED verdict is always computed from
the full history, so its witness names real event indices.  A history with
an unhashable value is checked without the memo.

``check_strict_recoverability`` inspects the persisted-result snapshot the
runtime records with every response: a completed update must have its
response durably stored in the record reachable from ``rd`` by the time it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .runtime import (
    Abandoned,
    EMPTY,
    Invoke,
    RecoverResponse,
    Response,
    TIMEOUT,
    UNSET,
    _Sentinel,
)

WILDCARD = _Sentinel("WILDCARD")


# ---------------------------------------------------------------------------
# Sequential models
# ---------------------------------------------------------------------------

class SetModel:
    """insert/delete/contains over a set of keys."""

    def __init__(self, initial: Iterable = ()):
        self.initial = frozenset(initial)

    def step(self, state, op, args, resp):
        k = args[0]
        if op == "insert":
            expect, after = k not in state, state | {k}
        elif op == "delete":
            expect, after = k in state, state - {k}
        elif op in ("find", "contains"):
            expect, after = k in state, state
        else:
            raise ValueError(f"unknown set op {op}")
        return [after] if resp is WILDCARD or resp == expect else []

    def final_ok(self, state) -> bool:
        return True


class StackModel:
    """push/pop over a LIFO stack; pop on empty yields EMPTY."""

    def __init__(self, initial: Sequence = ()):
        self.initial = tuple(initial)

    def step(self, state, op, args, resp):
        if op == "push":
            return [state + (args[0],)] if resp is True or resp is WILDCARD else []
        if op == "pop":
            if not state:
                return [state] if resp is EMPTY else []
            return [state[:-1]] if resp is WILDCARD or resp == state[-1] else []
        raise ValueError(f"unknown stack op {op}")

    def final_ok(self, state) -> bool:
        return True


class ExchangeModel:
    """Exchanges complete in pairs that swap values; TIMEOUT is a no-op.

    State is None (no half-open exchange) or ``(value, response)`` of the
    exchange linearized first in its pair; the second of the pair must see
    its own value as that recorded response and respond with the first's
    value.  A pending exchange opens a pair with a WILDCARD response or
    closes one; the search leaves out one that timed out.
    """

    initial = None

    def step(self, state, op, args, resp):
        if resp is TIMEOUT:
            return [state]
        v = args[0]
        if state is None:
            return [(v, resp)]
        v0, r0 = state
        if (r0 is WILDCARD or r0 == v) and (resp is WILDCARD or resp == v0):
            return [None]
        return []

    def final_ok(self, state) -> bool:
        return state is None or state[1] is WILDCARD


# ---------------------------------------------------------------------------
# History -> operation records
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    pid: int
    op: str
    args: tuple
    resp: Any
    inv: int
    res: Optional[int]        # event index of the final response, if any
    recovered: bool = False
    abandoned: bool = False

    @property
    def pending(self) -> bool:
        return self.res is None


def extract_ops(history: Sequence) -> list[OpRecord]:
    """Fold a history into one record per operation.

    A crashed operation's interval runs from its invocation to its final
    recovery response; internal re-invocations never appear as events.
    """
    ops: list[OpRecord] = []
    open_ops: dict[int, OpRecord] = {}
    for i, ev in enumerate(history):
        if isinstance(ev, Invoke):
            if ev.pid in open_ops:
                raise ValueError(f"pid {ev.pid} invoked while an op is open")
            rec = OpRecord(ev.pid, ev.op, ev.args, None, i, None)
            open_ops[ev.pid] = rec
            ops.append(rec)
        elif isinstance(ev, (Response, RecoverResponse)):
            rec = open_ops.pop(ev.pid)
            rec.resp = ev.value
            rec.res = i
            rec.recovered = isinstance(ev, RecoverResponse)
        elif isinstance(ev, Abandoned):
            rec = open_ops.pop(ev.pid)
            rec.abandoned = True
    return ops


def op_shape(history: Sequence) -> tuple:
    """The history's operation-level shape: one entry per invocation
    ``(pid, op, args)``, response ``(pid, type(value), value)`` and
    abandonment ``(pid,)``, in order, classified as :func:`extract_ops`
    classifies them.  Histories with equal shapes fold into the same
    operation records, up to event indices and the ``recovered`` tag."""
    shape = []
    for ev in history:
        if isinstance(ev, Invoke):
            shape.append((ev.pid, ev.op, ev.args))
        elif isinstance(ev, (Response, RecoverResponse)):
            shape.append((ev.pid, type(ev.value), ev.value))
        elif isinstance(ev, Abandoned):
            shape.append((ev.pid,))
    return tuple(shape)


# ---------------------------------------------------------------------------
# Linearizability search
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    status: str                  # "OK" | "VIOLATION" | "UNCHECKED"
    detail: str = ""
    inconclusive: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "OK"


def _linearizable(ops: list[OpRecord], model) -> Optional[bool]:
    """Whether ``ops`` linearize; None when the search would visit more than
    ``BUDGET`` (done, state) pairs before it could tell."""
    n = len(ops)
    if n == 0:
        return True
    completed_mask = 0
    pred = [0] * n
    for i, a in enumerate(ops):
        if not a.pending:
            completed_mask |= 1 << i
        for j, b in enumerate(ops):
            if b.res is not None and b.res < a.inv:
                pred[i] |= 1 << j
    seen = set()
    stack = [(0, model.initial)]
    while stack:
        done, state = stack.pop()
        if (done, state) in seen:
            continue
        if len(seen) >= BUDGET:
            return None
        seen.add((done, state))
        if done & completed_mask == completed_mask and model.final_ok(state):
            return True
        for i in range(n):
            bit = 1 << i
            if done & bit or (pred[i] & ~done):
                continue
            rec = ops[i]
            resp = WILDCARD if rec.pending else rec.resp
            for ns in model.step(state, rec.op, rec.args, resp):
                stack.append((done | bit, ns))
    return False


#: most (done, state) pairs one linearizability search visits
BUDGET = 1_000_000
#: most OK verdicts ``check_nrl`` keeps; the memo is emptied when it is full
OK_MEMO_SIZE = 1024
_ok_memo: dict = {}      # (model type, initial, op shape) -> inconclusive
_MEMO_MODELS = (SetModel, StackModel, ExchangeModel)


def check_nrl(history: Sequence, model) -> Verdict:
    """Crash-extended linearizability verdict for a complete history.

    OK verdicts of the built-in models are memoized by op shape (see the
    module docstring); every call returns a fresh ``Verdict``."""
    key = None
    if type(model) in _MEMO_MODELS:
        key = (type(model), model.initial, op_shape(history))
        try:
            inconclusive = _ok_memo.get(key)
        except TypeError:                  # an unhashable value: no memo
            key = inconclusive = None
        if inconclusive is not None:
            return Verdict("OK", inconclusive=inconclusive)
    verdict = _check(extract_ops(history), model)
    if key is not None and verdict.ok:
        if len(_ok_memo) >= OK_MEMO_SIZE:
            _ok_memo.clear()
        _ok_memo[key] = verdict.inconclusive
    return verdict


def _check(ops: list[OpRecord], model) -> Verdict:
    inconclusive = any(o.abandoned for o in ops)
    found = _linearizable(ops, model)
    if found is None:
        return Verdict("UNCHECKED", f"undecided after {BUDGET} pairs", True)
    if found:
        return Verdict("OK", inconclusive=inconclusive)
    return Verdict("VIOLATION", _witness(ops), inconclusive)


def _witness(ops: list[OpRecord]) -> str:
    lines = ["no linearization order exists for:"]
    for rec in ops:
        span = f"[{rec.inv}..{'?' if rec.res is None else rec.res}]"
        tag = " (recovered)" if rec.recovered else ""
        lines.append(
            f"  p{rec.pid} {rec.op}{rec.args} -> {rec.resp!r} {span}{tag}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Strict recoverability
# ---------------------------------------------------------------------------

#: The operations whose responses are never persisted: by default exempt
#: from strict recoverability.
READ_ONLY_OPS = ("find", "contains")


def check_strict_recoverability(history: Sequence,
                                read_only: Sequence[str] = READ_ONLY_OPS,
                                ) -> Verdict:
    """Every completed update's response must be persisted before it returns.

    Read-only operations are exempt (their responses are never persisted).
    """
    bad = []
    for i, ev in enumerate(history):
        if isinstance(ev, (Response, RecoverResponse)) and ev.op not in read_only:
            if ev.persisted is UNSET or ev.persisted != ev.value:
                bad.append(
                    f"event {i}: p{ev.pid} {ev.op} returned {ev.value!r} "
                    f"but persisted result is {ev.persisted!r}"
                )
    if bad:
        return Verdict("VIOLATION", "\n".join(bad))
    return Verdict("OK")
