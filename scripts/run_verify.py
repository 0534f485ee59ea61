#!/usr/bin/env python3
"""Crash-injection verification across all structures.

Runs the detectability sweep (exhaustive crash placement under the default
interleaving patterns) for each structure and prints one pass/fail line per
structure, with witness dumps on failure.

    python3 scripts/run_verify.py --budget 400
"""

import argparse
import sys

from nvtrack.cli import main as cli_main
from nvtrack.harness import STRUCTURES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pids", type=int, default=2)
    ap.add_argument("--ops-per-pid", type=int, default=2)
    ap.add_argument("--max-crashes", type=int, default=1)
    ap.add_argument("--budget", type=int, default=500)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    failed = 0
    for structure in STRUCTURES:
        rc = cli_main([
            "verify", "--structure", structure,
            "--pids", str(args.pids), "--ops-per-pid", str(args.ops_per_pid),
            "--max-crashes", str(args.max_crashes),
            "--budget", str(args.budget), "--seed", str(args.seed),
        ])
        failed += rc != 0
    print(f"{len(STRUCTURES) - failed}/{len(STRUCTURES)} structures passed",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
