"""Tiny-size smoke tests for the benchmark.

    python3 -m pytest -q nvbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

import layers
import native
import run as bench
import verify

ROOT = os.path.dirname(bench.HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ("reads_per_op", "writes_per_op", "cas_per_op", "flushes_per_op",
                 "cells_per_op", "harness.steps_per_history",
                 "harness.sweep_histories", "harness.direct_histories",
                 "harness.inconclusive_share", "checker.ops_per_history",
                 "sched.grant_calls_per_step")


def bench_cmd(root: str, workload: str, seconds: str = "2", env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "nvbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170, env=env)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    result = json.loads(last) if last.startswith("{") else None
    return proc, result


def copy_tree(dst) -> str:
    for part in ("src/nvtrack", "nvbench"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dst, part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return str(dst)


def mutate(path: str, old: str, new: str) -> None:
    with open(path) as fh:
        text = fh.read()
    assert text.count(old) == 1, f"mutation site not found once in {path}"
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    proc, result = bench_cmd(ROOT, workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line
                   for line in proc.stdout.splitlines()), name
    assert "failed_share = " in proc.stdout


@pytest.fixture
def tiny(monkeypatch):
    for mod, name, value in (
            (layers, "LOOP_CALLS", 500), (layers, "CRASH_REPS", 5),
            (layers, "COUNT_OPS", 150), (layers, "LATENCY_OPS", 400),
            (layers, "DIRECT_PROBE_UNITS", 3), (layers, "SLICE_OPS", 100),
            (layers, "SLICE_SWEEP_UNITS", 1), (layers, "SLICE_DIRECT_UNITS", 1),
            (layers, "REFERENCE_S", 0.1), (native, "STREAM_OPS", 2000),
            (native, "ROUND_S", 0.005), (bench, "SETUP_REPEATS", 2)):
        monkeypatch.setattr(mod, name, value)
    monkeypatch.setattr(layers, "OUT_DIR", os.path.join(ROOT, ".nvbench_out", "smoke"))
    monkeypatch.syspath_prepend(bench.SRC)


def traced(workload: str) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = layers.run_traced(SimpleNamespace(workload=workload, seed=5, seconds=1))
    lines = out.getvalue().splitlines()
    return rc, lines, json.loads(lines[-1])


def test_traced_run_prints_per_layer_metrics_and_counts_repeat(tiny):
    workload = WORKLOADS[0]
    rc, lines, first = traced(workload)
    assert rc == 0 and first["correct"], "\n".join(lines[-5:])
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    for name, unit in names.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    _, _, second = traced(workload)
    for name in names:
        if name.endswith(DETERMINISTIC):
            assert first["metrics"][name] == second["metrics"][name], name


LOSSY_INSERT = (  # the recoverable list's insert never persists its success
    "                m.write(p, info.result, True)\n"
    "                if self._fp:\n"
    "                    m.flush(p, info.result)\n"
    "                return True\n\n"
    "    def insert_recover", "                return True\n\n    def insert_recover")
DUPLICATE_INSERT = (  # the baseline list reports inserting keys it already holds
    "            if curr.key == key:\n"
    "                return False\n"
    "            m.write(p, newnd.next, MarkedRef(curr, False))\n"
    "            if m.cas(p, pred.next, MarkedRef(curr, False), MarkedRef(newnd, False)):",
    "            if curr.key == key:\n"
    "                return True\n"
    "            m.write(p, newnd.next, MarkedRef(curr, False))\n"
    "            if m.cas(p, pred.next, MarkedRef(curr, False), MarkedRef(newnd, False)):")


@pytest.mark.parametrize("mutation", [LOSSY_INSERT, DUPLICATE_INSERT],
                         ids=["lossy-insert", "duplicate-insert"])
def test_seeded_mutant_drives_failed_share_above_zero(tmp_path, mutation):
    root = copy_tree(tmp_path)
    mutate(os.path.join(root, "src", "nvtrack", "rlist.py"), *mutation)
    proc, result = bench_cmd(root, WORKLOADS[-1])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert not result["correct"] and result["failed"] > 0
    assert "FAILED" in proc.stdout


def test_raising_operation_fails_its_history_instead_of_hanging(tiny):
    nv, _ = bench.load_nvtrack()
    plan = verify.Plan(nv, "sweep", 1)

    def broken(obj, pid, key):
        raise RuntimeError("seeded fault")
    adapter = nv.harness.STRUCTURES["list"]
    ops = dict(adapter.ops, find=dataclasses.replace(adapter.ops["find"],
                                                     call=broken, recover=broken))
    plan.adapters["list"] = verify.guarded_adapter(
        nv.runtime, dataclasses.replace(adapter, ops=ops), plan.errors)
    plan.units = [u for u in plan.units if u[0] == "list" and any(
        name == "find" for ops in u[2].values() for name, _ in ops)][:1]
    assert plan.units
    stats = verify.run_phase(plan, 0.0, min_units=1, deadline_s=30)
    assert stats.failed > 0 and stats.hung == 0


def test_watchdog_turns_a_hung_history_into_a_failure():
    release = threading.Event()
    plan = SimpleNamespace(cycle=lambda: iter(range(10 ** 6)),
                           run_unit=lambda unit, beat: release.wait(60)
                           and verify.VerifyStats())
    t0 = time.perf_counter()
    stats = verify.run_phase(plan, 0.0, min_units=1, deadline_s=0.5)
    release.set()
    assert stats.hung >= 1 and stats.failed >= 1
    assert time.perf_counter() - t0 < 10


def test_refuses_to_run_with_flush_stub():
    env = dict(os.environ, NVTRACK_NO_FLUSH_INSTR="1")
    proc, result = bench_cmd(ROOT, WORKLOADS[0], env=env)
    assert proc.returncode != 0 and result is None


def test_fails_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(os.path.join(ROOT, "nvbench"), tmp_path / "nvbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, result = bench_cmd(str(tmp_path), WORKLOADS[0])
    assert proc.returncode != 0 and result is None
