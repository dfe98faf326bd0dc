"""Run every workload in BENCHMARK.json once and print its end-to-end metrics and fail ratio.

    python3 perfbench/all.py --seed 1 --seconds 30

Each workload runs in a process of its own (``run.py``), as a benchmark
run does, so that its peak RSS is its own. Exits non-zero if a run fails
or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    status = 0
    for workload in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        ok = proc.returncode == 0 and json.loads(lines[-1])["correct"]
        print("\n".join(lines[:-1] if ok else lines), flush=True)  # the last line is the JSON result
        if not ok:
            print(proc.stderr, file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
