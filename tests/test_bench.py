"""Benchmark configuration, determinism, and CSV output."""

import itertools

import pytest

from nvtrack import bench
from nvtrack.bench import (
    BUILDERS,
    DELETE,
    BenchConfig,
    ConfigError,
    CSV_HEADER,
    _op_table,
    _prefill,
    build_structure,
    emit_results,
    op_stream,
    run_benchmark,
)
from nvtrack.runtime import NativeRuntime


def small(**kw):
    base = dict(structure="list", variant="recoverable", threads=1,
                total_ops=400, key_lo=1, key_hi=40, read_pct=30,
                prefill=20, runs=1, seed=7)
    base.update(kw)
    return BenchConfig(**base)


def test_validation_rejects_base_flush_list():
    with pytest.raises(ConfigError, match="flush"):
        small(structure="list-flush", variant="base").validate()


def test_validation_rejects_bad_read_pct_and_stack_reads():
    with pytest.raises(ConfigError):
        small(read_pct=101).validate()
    with pytest.raises(ConfigError, match="stack"):
        small(structure="stack", read_pct=30).validate()


def test_validation_rejects_steps_timing_with_threads():
    with pytest.raises(ConfigError, match="single-threaded"):
        small(timing="steps", threads=2).validate()


def test_validation_rejects_out_of_domain_keys():
    with pytest.raises(ConfigError, match="key range"):
        small(key_lo=0, key_hi=2 ** 63 - 1).validate()


def test_op_streams_are_a_pure_function_of_seed():
    a = op_stream(small(), 0, 0, 300)
    b = op_stream(small(), 0, 0, 300)
    c = op_stream(small(seed=8), 0, 0, 300)
    assert a == b
    assert a != c


def test_smoke_run_emits_csv_row():
    res = run_benchmark(small())
    text = emit_results([res])
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("list,recoverable,1,30,")
    assert res.mean_mops > 0


def responses(cfg):
    """Each op's response to one thread's stream of run 0, on a prefilled
    structure built as the benchmark builds it."""
    rt = NativeRuntime(1, seed=cfg.seed)
    structure = build_structure(cfg, rt)
    _prefill(cfg, structure)
    table = _op_table(cfg, structure)
    out = []
    for code, key in op_stream(cfg, 0, 0, cfg.total_ops):
        rt.invoke_reset(0)
        if cfg.structure == "stack" and code == DELETE:
            out.append(table[code](0))
        else:
            out.append(table[code](0, key))
    return out


@pytest.mark.parametrize("structure,read_pct", [
    ("list", 30), ("bst", 30), ("stack", 0),
])
def test_base_and_recoverable_agree_on_responses(structure, read_pct):
    results = {}
    for variant in ("base", "recoverable"):
        cfg = small(structure=structure, variant=variant, read_pct=read_pct,
                    total_ops=600)
        results[variant] = responses(cfg)
    assert results["base"] == results["recoverable"]
    assert len(results["base"]) == 600


def test_flush_list_matches_plain_recoverable_responses():
    plain = responses(small(total_ops=600))
    flush = responses(small(structure="list-flush", total_ops=600))
    assert plain == flush


@pytest.mark.parametrize("structure,variant", list(BUILDERS))
def test_steps_timing_is_bit_stable(structure, variant):
    cfg = dict(structure=structure, variant=variant, timing="steps", runs=1,
               threads=1, total_ops=500, read_pct=0 if structure == "stack" else 30)
    a = emit_results([run_benchmark(small(**cfg))])
    b = emit_results([run_benchmark(small(**cfg))])
    assert a == b


@pytest.mark.parametrize("threads", [1, 2])
def test_a_worker_exception_reaches_the_caller(monkeypatch, threads):
    calls = itertools.count(1)
    build = bench.build_structure

    def faulty_build(cfg, rt):
        structure = build(cfg, rt)
        find = structure.find

        def failing_find(pid, key):
            if next(calls) == 5:
                raise RuntimeError("find failed")
            return find(pid, key)

        structure.find = failing_find
        return structure

    monkeypatch.setattr(bench, "build_structure", faulty_build)
    with pytest.raises(RuntimeError, match="find failed"):
        run_benchmark(small(variant="base", threads=threads))


def test_writeback_flush_copies_value():
    rt = NativeRuntime(1)
    cell = rt.new_cell(0)
    rt.write(0, cell, 5)
    rt.flush(0, cell)
    assert cell.p == 5
