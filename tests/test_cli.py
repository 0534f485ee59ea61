"""CLI surface: bench and verify subcommands."""

import os
import re
import subprocess
import sys

import pytest

import nvtrack
from nvtrack import bench, checker, cli, harness, rlist
from nvtrack.bench import BUILDERS, BenchConfig, BenchResult
from nvtrack.checker import SetModel
from nvtrack.cli import main
from nvtrack.runtime import REINVOKE


def test_bench_defaults_mirror_reference_protocol():
    cfg = BenchConfig()
    assert cfg.total_ops == 1_000_000
    assert (bench.KEY_LO, bench.KEY_HI, bench.PREFILL) == (1, 500, 250)
    assert cfg.runs == 10
    assert cfg.seed == 42


@pytest.fixture
def bench_configs(monkeypatch):
    """Each ``BenchConfig`` that ``nvtrack bench`` runs; none is run."""
    configs = []

    def record(cfg):
        configs.append(cfg)
        return BenchResult(cfg, [1.0])

    monkeypatch.setattr(cli, "run_benchmark", record)
    return configs


def test_bench_flag_defaults_are_the_config_defaults(bench_configs, capsys):
    assert main(["bench"]) == 0
    assert bench_configs == [BenchConfig()]
    assert capsys.readouterr().out.splitlines()[1].startswith("list,recoverable,8,30,")


@pytest.mark.parametrize("structure,variant", list(BUILDERS))
def test_bench_accepts_every_pair_of_the_variant_table(bench_configs, structure,
                                                       variant):
    assert main(["bench", "--structure", structure, "--variant", variant,
                 "--read-pct", "0", "--ops", "5"]) == 0
    assert bench_configs == [BenchConfig(structure=structure, variant=variant,
                                         read_pct=0, total_ops=5)]


@pytest.mark.parametrize("flag,value", [
    ("--structure", "exchanger"), ("--variant", "flush")])
def test_bench_rejects_a_name_outside_the_variant_table(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid choice" in err
    names = bench.STRUCTURES if flag == "--structure" else bench.VARIANTS
    assert all(repr(name) in err or name in err for name in names)


def test_bench_subcommand_prints_csv(capsys):
    rc = main(["bench", "--structure", "list", "--variant", "base",
               "--threads", "1", "--ops", "300", "--runs", "1",
               "--read-pct", "30", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "structure,variant,threads,read_pct,mean_mops,stddev"
    assert lines[1].startswith("list,base,1,30,")


def test_bench_subcommand_rejects_bad_config(capsys):
    rc = main(["bench", "--structure", "list-flush", "--variant", "base"])
    assert rc == 2
    assert "flush" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--key-lo", "1"), ("--key-hi", "9"), ("--prefill", "3")])
def test_bench_has_no_key_range_or_prefill_flag(bench_configs, capsys, flag,
                                                value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", flag, value])
    assert exc.value.code == 2
    assert bench_configs == []
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_bench_rejects_an_unwritable_output_before_running(bench_configs,
                                                          tmp_path, capsys):
    rc = main(["bench", "--output", str(tmp_path / "missing" / "x.csv")])
    assert rc == 2
    assert bench_configs == []
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_sweeps_read_pct_then_threads_then_the_variant_table(
        bench_configs, capsys):
    assert main(["bench", "--structure", "bst", "list", "--variant",
                 "recoverable", "base", "--threads", "2", "1",
                 "--read-pct", "70", "30", "--ops", "5"]) == 0
    table = [("list", "base"), ("list", "recoverable"), ("bst", "base"),
             ("bst", "recoverable")]
    assert bench_configs == [
        BenchConfig(structure=s, variant=v, threads=threads, read_pct=read_pct,
                    total_ops=5)
        for read_pct in (70, 30) for threads in (2, 1) for s, v in table]
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + len(bench_configs)
    assert rows[1].startswith("list,base,2,70,") and rows[-1].startswith("bst,recoverable,1,30,")


@pytest.mark.parametrize("argv,message", [
    (["--structure", "list", "stack", "--read-pct", "30"], "the stack has no read"),
    (["--threads", "1", "0"], "threads, total_ops and runs must be positive"),
    (["--structure", "list-flush", "--variant", "base"],
     "structure/variant must be one of: list/base, list/recoverable, "
     "list-flush/recoverable,")])
def test_bench_validates_every_config_before_the_first_run(bench_configs, capsys,
                                                           argv, message):
    assert main(["bench"] + argv) == 2
    assert bench_configs == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_bench_two_variants_emit_comparable_rows(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    common = ["--threads", "1", "--ops", "300", "--runs", "1"]
    assert main(["bench", "--variant", "base", "--output", str(out_a)]
                + common) == 0
    assert main(["bench", "--variant", "recoverable", "--output", str(out_b)]
                + common) == 0
    rows_a = out_a.read_text().splitlines()
    rows_b = out_b.read_text().splitlines()
    assert rows_a[0] == rows_b[0]
    assert rows_a[1].split(",")[:4] == ["list", "base", "1", "30"]
    assert rows_b[1].split(",")[:4] == ["list", "recoverable", "1", "30"]


def test_verify_subcommand_passes_on_list(capsys):
    rc = main(["verify", "--structure", "list", "--pids", "2",
               "--ops-per-pid", "1", "--max-crashes", "1",
               "--seed", "5", "--budget", "300"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS list.detectability:")


def test_verify_sweeps_the_structures_in_the_order_given(capsys):
    rc = main(["verify", "--structure", "bst", "list", "--pids", "2",
               "--ops-per-pid", "1", "--samples", "2", "--budget", "300"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split(":")[0] for line in lines] == [
        "PASS bst.detectability", "PASS list.detectability"]


def test_verify_fails_if_any_sweep_fails_and_prints_every_line(capsys):
    # 12 steps finish both set-up inserts, but too few of the BST's operations
    rc = main(["verify", "--structure", "bst", "list", "--pids", "2",
               "--ops-per-pid", "1", "--budget", "12"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[0].startswith("FAIL bst.detectability: 5 runs ")
    assert lines[-1].startswith("PASS list.detectability: ")


class _LossyList(rlist.RecoverableList):
    """Seeded bug: recovery loses an interrupted insert's persisted result
    and runs the insert again, which then finds its own key."""

    def insert_recover(self, p, key):
        return REINVOKE


def test_verify_prints_each_violation_of_a_failing_sweep(capsys, monkeypatch):
    monkeypatch.setitem(harness.STRUCTURES, "list", harness.StructureAdapter(
        _LossyList, harness.structure_ops(_LossyList, "insert", "delete", "find"),
        SetModel))
    rc = main(["verify", "--structure", "list", "--pids", "2",
               "--ops-per-pid", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    found = re.match(r"FAIL list\.detectability: .* (\d+) linearizability "
                     r"violations, 0 strict-recoverability violations$", lines[0])
    assert found and int(found.group(1)) > 0
    headers = [i for i, line in enumerate(lines)
               if re.fullmatch(r"--- violation \[\S+\] ---", line)]
    assert len(headers) == int(found.group(1))
    for i in headers:
        assert lines[i + 1] == "no linearization order exists for:"
        assert "insert(7,) -> False" in "".join(lines[i + 2:i + 4])


def test_verify_prints_each_strict_recoverability_violation(capsys, monkeypatch):
    # insert never persists a True result
    from test_checker import _LossyList as _UnpersistedList
    monkeypatch.setitem(harness.STRUCTURES, "list", harness.StructureAdapter(
        _UnpersistedList,
        harness.structure_ops(_UnpersistedList, "insert", "delete", "find"),
        SetModel))
    rc = main(["verify", "--structure", "list", "--pids", "2",
               "--ops-per-pid", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    found = re.match(r"FAIL list\.detectability: .* 0 linearizability "
                     r"violations, (\d+) strict-recoverability violations$", lines[0])
    assert found and int(found.group(1)) > 0
    headers = [i for i, line in enumerate(lines)
               if re.fullmatch(r"--- strict-recoverability violation \[\S+\] ---", line)]
    assert len(headers) == int(found.group(1))
    for i in headers:
        assert re.fullmatch(r"event \d+: p\d insert returned True but persisted "
                            r"result is UNSET", lines[i + 1])


def test_verify_checks_every_set_up_before_the_first_sweep(capsys):
    # the exchanger has no set-up; the BST's insert needs more than 8 steps
    rc = main(["verify", "--structure", "exchanger", "bst", "--pids", "2",
               "--ops-per-pid", "1", "--budget", "8"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: set-up operation insert(5,) ")


def test_verify_sweeps_every_structure_by_default(capsys):
    rc = main(["verify", "--pids", "2", "--ops-per-pid", "1", "--samples", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split(":")[0] for line in lines] == [
        f"PASS {name}.detectability" for name in harness.STRUCTURES]
    assert len(lines) == 6


def test_verify_rejects_an_unpaired_exchanger_workload_before_any_sweep(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pids", "3", "--ops-per-pid", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "an exchange with no partner" in captured.err


def test_verify_subcommand_samples_mode(capsys):
    rc = main(["verify", "--structure", "bst", "--pids", "2",
               "--ops-per-pid", "1", "--samples", "5", "--seed", "5",
               "--budget", "300"])
    assert rc == 0
    assert "PASS bst.detectability" in capsys.readouterr().out


@pytest.mark.parametrize("arg,value", [
    ("--pids", "0"), ("--ops-per-pid", "0"), ("--budget", "0"),
    ("--samples", "-1"), ("--max-crashes", "0"), ("--max-crashes", "3"),
    ("--pids", "two")])
def test_verify_rejects_out_of_range_arguments(capsys, arg, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--structure", "list", arg, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {arg}:" in err


def test_verify_accepts_the_smallest_allowed_arguments(capsys):
    rc = main(["verify", "--structure", "list", "--pids", "1",
               "--ops-per-pid", "1", "--budget", "300", "--samples", "0",
               "--max-crashes", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS list.detectability: 5 runs ")


def test_verify_fails_when_no_history_is_checked(capsys):
    # a budget of one step per operation leaves every exchange unfinished
    rc = main(["verify", "--structure", "exchanger", "--pids", "2",
               "--ops-per-pid", "1", "--budget", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL exchanger.detectability: ")
    assert " 0 ok, " in out


def test_verify_rejects_a_budget_the_setup_cannot_meet(capsys):
    rc = main(["verify", "--structure", "list", "--pids", "1",
               "--ops-per-pid", "1", "--budget", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: set-up operation insert(5,) ")
    assert "--budget 1" in captured.err


def test_verify_counts_a_workload_op_out_of_budget_as_inconclusive(capsys):
    # 8 steps let the set-up insert finish, but no operation of the workload
    rc = main(["verify", "--structure", "list", "--pids", "1",
               "--ops-per-pid", "1", "--budget", "8"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL list.detectability: 5 runs ")
    assert " 0 ok, 5 inconclusive, 0 linearizability violations" in out


def test_verify_counts_a_history_over_the_checker_cap_as_inconclusive(
        capsys, monkeypatch):
    argv = ["verify", "--structure", "stack", "--pids", "2",
            "--ops-per-pid", "13", "--samples", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS stack.detectability: 20 runs ")
    assert " 20 ok, 0 inconclusive, 0 linearizability violations" in out
    # a search budget no history meets: nothing is checked, nothing is ok
    monkeypatch.setattr(checker, "BUDGET", 2)
    monkeypatch.setattr(checker, "_ok_memo", {})
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL stack.detectability: 20 runs ")
    assert " 0 ok, 20 inconclusive, 0 linearizability violations" in out


def test_python_dash_m_nvtrack_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nvtrack.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "nvtrack", "verify", "--structure", "list",
         "--pids", "1", "--ops-per-pid", "1", "--budget", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "set-up operation insert(5,)" in proc.stderr


@pytest.mark.parametrize("pids,ops", [(1, 1), (1, 2), (3, 1), (3, 3)])
def test_verify_rejects_exchanger_workloads_with_an_unpaired_exchange(
        capsys, pids, ops):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--structure", "exchanger", "--pids", str(pids),
              "--ops-per-pid", str(ops)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "an exchange with no partner" in err


def test_verify_accepts_exchanger_workloads_that_pair_up(capsys):
    rc = main(["verify", "--structure", "exchanger", "--pids", "3",
               "--ops-per-pid", "2", "--samples", "2"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS exchanger.detectability:")
