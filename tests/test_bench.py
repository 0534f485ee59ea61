"""Benchmark configuration, determinism, and CSV output."""

import pytest

from nvtrack.bench import (
    BenchConfig,
    ConfigError,
    CSV_HEADER,
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


@pytest.mark.parametrize("structure,read_pct", [
    ("list", 30), ("bst", 30), ("stack", 0),
])
def test_base_and_recoverable_agree_on_responses(structure, read_pct):
    results = {}
    for variant in ("base", "recoverable"):
        cfg = small(structure=structure, variant=variant, read_pct=read_pct,
                    total_ops=600, record_responses=True)
        results[variant] = run_benchmark(cfg).responses
    assert results["base"] == results["recoverable"]
    assert len(results["base"]) == 600


def test_flush_list_matches_plain_recoverable_responses():
    plain = run_benchmark(small(total_ops=600, record_responses=True))
    flush = run_benchmark(small(structure="list-flush", total_ops=600,
                                record_responses=True))
    assert plain.responses == flush.responses


def test_steps_timing_is_bit_stable():
    cfg = dict(timing="steps", runs=1, threads=1, total_ops=500)
    a = emit_results([run_benchmark(small(**cfg))])
    b = emit_results([run_benchmark(small(**cfg))])
    assert a == b


def test_writeback_flush_copies_value():
    rt = NativeRuntime(1)
    cell = rt.new_cell(0)
    rt.write(0, cell, 5)
    rt.flush(0, cell)
    assert cell.p == 5
