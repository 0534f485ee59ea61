#!/usr/bin/env python3
"""nvtrack benchmark: native structure throughput and verifier histories/s.

    python3 nvbench/run.py --workload update-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload has a native phase (the paper's throughput protocol on
``NativeRuntime``, see ``native.py``) and a verify phase (crash-injected,
fully checked histories on ``SimRuntime``, see ``verify.py``):

* ``update-sweep`` -- 30% lookups / 35% inserts / 35% deletes on all seven
  variants; verify phase through ``harness.detectability_sweep`` (threaded
  scheduler).
* ``read-direct``  -- 70% lookups on the five set variants (the stacks have
  no lookup and rerun 50/50 push/pop); verify phase through
  ``harness.run_direct`` double-crash scans (no worker threads).

Every timed sample is rescaled to a reference machine speed (``calib.py``);
the text lines also show each value as measured.  The whole process is kept
on one CPU.

With ``--trace 0`` the run prints one line per end-to-end metric, then a
JSON object with the metrics named in BENCHMARK.json as its last line.  With
``--trace 1`` it runs the per-layer probes and a traced slice instead (see
``layers.py``).  The exit code is 1 when a correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = {
    "update-sweep": {"read_pct": 30, "verify": "sweep"},
    "read-direct": {"read_pct": 70, "verify": "direct"},
}
NATIVE_SHARE = 0.5          # of --seconds; the verify phase gets the rest
SETUP_REPEATS = 5
NO_FLUSH_ENV = "NVTRACK_NO_FLUSH_INSTR"


def die(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def load_nvtrack():
    """Import nvtrack afresh from ``src/``; returns (package, seconds)."""
    for name in [m for m in sys.modules if m == "nvtrack" or m.startswith("nvtrack.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    nv = importlib.import_module("nvtrack")
    for sub in ("runtime", "harness", "checker"):
        importlib.import_module(f"nvtrack.{sub}")
    return nv, time.perf_counter() - t0


def set_up(workload: str, seed: int) -> tuple:
    """Imports, stream generation, structure construction and prefill: every
    step before the first timed op.  Returns (nv, variants, plan, seconds)."""
    import native
    import verify
    cfg = WORKLOADS[workload]
    nv, t_import = load_nvtrack()
    t0 = time.perf_counter()
    streams = native.make_streams(seed, cfg["read_pct"])
    plan = verify.Plan(nv, cfg["verify"], seed)
    t1 = time.perf_counter()
    variants = native.build_variants(nv, native.VARIANTS, seed, cfg["read_pct"],
                                     streams=streams)
    t2 = time.perf_counter()
    return nv, variants, plan, {"import": t_import, "streams": t1 - t0,
                                "prefill": t2 - t1}


def set_up_repeated(workload: str, seed: int) -> tuple:
    """Set up ``SETUP_REPEATS`` times; keep the last.  Returns the median
    parts as measured and the median total at reference machine speed."""
    parts, totals = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()               # every repetition starts from a clean heap
        speed = calib.factor()
        nv, variants, plan, secs = set_up(workload, seed)
        parts.append(secs)
        totals.append(sum(secs.values()) / speed)
    med = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    return nv, variants, plan, med, statistics.median(totals)


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "switchinterval": sys.getswitchinterval(),
        "gc_thresholds": list(gc.get_threshold()),
    }


def low_tail(values: list) -> tuple:
    """The lowest quantile with at least ten samples below it, as
    (percent, value); (None, None) when there are fewer than 20 samples."""
    s = sorted(values)
    for pct in (0.1, 1, 5, 10, 25):
        if len(s) * pct / 100 >= 10:
            return pct, s[int(len(s) * pct / 100)]
    return None, None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(args) -> int:
    import native
    import verify
    cfg = WORKLOADS[args.workload]
    nv, variants, plan, _parts, setup_s = set_up_repeated(args.workload, args.seed)
    native.warm_up(variants)
    start = time.perf_counter()
    rounds = native.run_rounds(variants, NATIVE_SHARE * args.seconds)
    left = args.seconds - (time.perf_counter() - start)
    vstats = verify.run_phase(plan, max(left, 1.0))

    metrics = {}
    lines = []
    problems = []
    for v in variants:
        kops = statistics.median(v.scaled) / 1e3 if v.scaled else 0.0
        raw = statistics.median(v.rates) / 1e3 if v.rates else 0.0
        pct, tail = low_tail(v.scaled)
        tail_txt = f", p{pct:g} {tail / 1e3:.2f}" if pct is not None else ""
        metrics[f"{v.name}_kops"] = (kops, "kops/s")
        lines.append(f"{v.name}_kops = {kops:.3f} kops/s  (median of "
                     f"{len(v.rates)} rounds{tail_txt}, {v.round_ops} ops/round; "
                     f"as measured {raw:.3f})")
        why = v.check()
        if why:
            problems.append(f"{v.name}: {why}")
            v.failed = v.attempted
    native_attempted = sum(v.attempted for v in variants)
    native_failed = sum(v.failed for v in variants)
    hps = vstats.histories / vstats.scaled_seconds if vstats.scaled_seconds else 0.0
    metrics["histories_per_s"] = (hps, "1/s")
    lines.append(f"histories_per_s = {hps:.2f} 1/s  ({cfg['verify']}: "
                 f"{vstats.histories} histories in {vstats.units} units, "
                 f"{vstats.inconclusive} inconclusive; as measured "
                 f"{vstats.histories / max(vstats.seconds, 1e-9):.2f} in "
                 f"{vstats.seconds:.2f} s)")
    problems += vstats.details
    if vstats.failed and not vstats.details:
        problems.append(f"{vstats.failed} verify histories failed")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    attempted = native_attempted + vstats.histories
    failed = native_failed + vstats.failed
    lines.append(f"failed_share = {native_failed / max(native_attempted, 1):.6f} "
                 f"(native ops), {vstats.failed / max(vstats.histories, 1):.6f} "
                 "(verify histories)")
    lines.append(f"setup_s = {setup_s:.4f} s  (median of {SETUP_REPEATS} set-ups)")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.2f} MB")
    lines.append(f"rounds = {rounds}, env = {json.dumps(environment())}")
    for line in lines:
        print(line)
    for p in problems:
        print(f"FAILED {p}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get(NO_FLUSH_ENV) == "1":
        die(f"{NO_FLUSH_ENV}=1 turns NativeRuntime.flush into a stub and "
            "would inflate list_flush_kops; unset it")
    if not os.path.isfile(os.path.join(SRC, "nvtrack", "__init__.py")):
        die(f"no nvtrack sources under {SRC}; run from a checkout of the repo")
    if args.seconds <= 0:
        die("--seconds must be positive")
    # Under the GIL only one thread runs at a time; keeping every thread on
    # one CPU turns the scheduler's thread handoffs into same-core switches
    # instead of cross-core wake-ups, whose latency swings with other load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    if args.trace:
        import layers
        return layers.run_traced(args)
    return run_end_to_end(args)


if __name__ == "__main__":
    raise SystemExit(main())
