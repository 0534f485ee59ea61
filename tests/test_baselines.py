"""The non-recoverable baselines are linearizable under interleaving.

Each baseline runs crash-free on the simulator over every default pattern
and several seeds, with processes contending for the same keys (or the same
stack top), and each history is checked against the sequential model.
Recovery never runs, so an adapter's recovery function is its call.  The
stack gets three processes: with two, the one whose top CAS fails finds its
rival already past the stack, so no elimination exchange ever pairs up.
"""

import pytest

from nvtrack.checker import SetModel, StackModel, check_nrl
from nvtrack.cli import default_workload
from nvtrack.harness import (
    DEFAULT_PATTERNS,
    Schedule,
    StructureAdapter,
    pattern_quanta,
    run_schedule,
)
from nvtrack.rbst import BaselineBst
from nvtrack.rlist import BaselineList
from nvtrack.rstack import BaselineStack
from nvtrack.runtime import OpDef

SEEDS = range(20)
STEP_BUDGET = 600
PIDS = {"list": 2, "bst": 2, "stack": 3}


def _adapter(cls, queries, updates, model, make=None):
    ops = {op: OpDef(op, getattr(cls, op), getattr(cls, op), is_update=False)
           for op in queries}
    ops.update({op: OpDef(op, getattr(cls, op), getattr(cls, op))
                for op in updates})
    return StructureAdapter(make or cls, ops, model)


BASELINES = {
    "list": _adapter(BaselineList, ("find",), ("insert", "delete"), SetModel),
    "bst": _adapter(BaselineBst, ("contains",), ("insert", "delete"), SetModel),
    "stack": _adapter(BaselineStack, (), ("push", "pop"), StackModel,
                      make=lambda rt: BaselineStack(rt, slots=1, exchange_wait=24)),
}


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_baseline_histories_linearize_under_contention(name):
    adapter, pids = BASELINES[name], PIDS[name]
    for seed in SEEDS:
        workload, setup, initial = default_workload(name, pids, 3, seed)
        for pattern in DEFAULT_PATTERNS:
            quanta = pattern_quanta(pattern, pids, STEP_BUDGET * pids, seed)
            out = run_schedule(adapter, workload, Schedule(quanta), setup=setup,
                               seed=seed, step_budget=STEP_BUDGET)
            assert not out.inconclusive, (seed, pattern)
            verdict = check_nrl(out.history, adapter.model(initial))
            assert verdict.ok, (seed, pattern, verdict.detail)
