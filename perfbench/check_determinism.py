"""Check that the exact counts repeat between two runs at the same seed.

    python3 perfbench/check_determinism.py --seed 0

Runs every workload traced twice with the same seed and compares the
``exact`` block of the two reports: certified and gap counts, LP solves,
simplex pivots, exact-search nodes and the instance cells processed, all
over each run's fixed prefix of ops. These depend only on the code and
the seed, so any difference is nondeterminism in the program, not timing
noise. Exits 1 when a count differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"


def exact_counts(workload: str, seed: int) -> dict:
    # --seconds 0: only the prefix ops, which every run makes.
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    subprocess.run(cmd, capture_output=True, text=True, check=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace1.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    if not report["correct"]:
        raise SystemExit(f"{workload}: run reported incorrect output: {report['problems']}")
    return report["exact"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args()
    status = 0
    for workload in args.workload or WORKLOADS:
        first = exact_counts(workload, args.seed)
        second = exact_counts(workload, args.seed)
        diffs = {k: (first.get(k), second.get(k))
                 for k in sorted(first.keys() | second.keys()) if first.get(k) != second.get(k)}
        if diffs:
            status = 1
            print(f"{workload}: NONDETERMINISM (not noise): {diffs}")
        else:
            print(f"{workload}: deterministic, {json.dumps(first, sort_keys=True)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
