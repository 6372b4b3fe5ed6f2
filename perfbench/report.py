"""Run every workload, untraced and traced, and print each metric by name.

  python3 perfbench/report.py --seed 7 --seconds 25

Runs run.py once per workload with --trace 0 (end-to-end metrics) and
once with --trace 1 (per-layer metrics), then prints one line per
metric: workload, name, value and unit, plus each run's job count and
failed_ratio (failed jobs over attempted jobs).  Exits 1 if any run
failed or printed a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit code {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{workload:14s} {'jobs' if trace == 0 else 'jobs_traced':40s} {result['attempted']:>14d}")
            print(f"{workload:14s} {'failed_ratio':40s} {result['failed'] / result['attempted']:>14.6g}")
            for name, metric in result["metrics"].items():
                print(f"{workload:14s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
