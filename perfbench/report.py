"""Run every workload once and print each metric by name and unit.

Usage (from the repository root):

    python3 perfbench/report.py [--seed 7] [--seconds 30] [--trace 0]

Each workload runs through run.py in its own process, exactly as a
single benchmark run.  The exit status is 0 only when every workload's
outputs passed their checks.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    all_correct = True
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{w['name']}: no result (exit status {proc.returncode})")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct &= proc.returncode == 0 and result["correct"]
        print(f"{w['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:50s} {m['value']:>16.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
