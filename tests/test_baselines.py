"""The non-recoverable baselines are linearizable under interleaving.

Each baseline runs crash-free on the simulator over every default pattern
and several seeds, with processes contending for the same keys (or the same
stack top), and each history is checked against the sequential model.
The adapters come from ``structure_ops``; a baseline has no recovery
functions, so each operation's recovery is ``reinvoke``, which never runs.
The stack gets three processes: with two, the one whose top CAS fails finds
its rival already past the stack, so no elimination exchange ever pairs up.
"""

import functools

import pytest

from nvtrack.checker import SetModel, StackModel, check_nrl
from nvtrack.cli import default_workload
from nvtrack.harness import (
    DEFAULT_PATTERNS,
    Schedule,
    StructureAdapter,
    pattern_quanta,
    run_schedule,
    structure_ops,
)
from nvtrack.rbst import BaselineBst
from nvtrack.rlist import BaselineList
from nvtrack.rstack import BaselineStack
from nvtrack.runtime import EMPTY, NativeRuntime, SimRuntime

SEEDS = range(20)
STEP_BUDGET = 600
PIDS = {"list": 2, "bst": 2, "stack": 3}


BASELINES = {
    "list": StructureAdapter(
        BaselineList, structure_ops(BaselineList, "insert", "delete", "find"),
        SetModel),
    "bst": StructureAdapter(
        BaselineBst, structure_ops(BaselineBst, "insert", "delete", "contains"),
        SetModel),
    "stack": StructureAdapter(
        functools.partial(BaselineStack, slots=1, exchange_wait=24),
        structure_ops(BaselineStack, "push", "pop"), StackModel),
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


@pytest.mark.parametrize("runtime", [NativeRuntime, SimRuntime])
def test_baseline_stack_pop_on_an_empty_stack_returns_empty(runtime):
    stack = BaselineStack(runtime(1))
    assert stack.pop(0) is EMPTY
    assert stack.push(0, 3) is True
    assert stack.pop(0) == 3
    assert stack.pop(0) is EMPTY
