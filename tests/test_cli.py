"""CLI surface: bench and verify subcommands."""

import os
import subprocess
import sys

import pytest

import nvtrack
from nvtrack.bench import BenchConfig
from nvtrack.cli import main


def test_bench_defaults_mirror_reference_protocol():
    cfg = BenchConfig()
    assert cfg.total_ops == 1_000_000
    assert (cfg.key_lo, cfg.key_hi) == (1, 500)
    assert cfg.prefill == 250
    assert cfg.runs == 10
    assert cfg.seed == 42


def test_bench_subcommand_prints_csv(capsys):
    rc = main(["bench", "--structure", "list", "--variant", "base",
               "--threads", "1", "--ops", "300", "--runs", "1",
               "--key-lo", "1", "--key-hi", "30", "--read-pct", "30",
               "--prefill", "10", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "structure,variant,threads,read_pct,mean_mops,stddev"
    assert lines[1].startswith("list,base,1,30,")


def test_bench_subcommand_rejects_bad_config(capsys):
    rc = main(["bench", "--structure", "list-flush", "--variant", "base"])
    assert rc == 2
    assert "flush" in capsys.readouterr().err


def test_bench_two_variants_emit_comparable_rows(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    common = ["--threads", "1", "--ops", "300", "--runs", "1",
              "--key-hi", "30", "--prefill", "10"]
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
