"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload match-db --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, each for the
`run_seconds` of BENCHMARK.json, and prints for each end-to-end metric its
median and the distance between the first and third quartile as a share of
the median, next to the bound in BENCHMARK.json.
With --json PATH it also writes every run's metrics there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)
    for metric in bench["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else float("nan")
        print(f"{args.workload:12s} {metric['name']:12s} median {mid:12.5g} {metric['unit']:6s} "
              f"spread {spread:.4f}  bound {metric['bound']}  (target < {metric['bound'] / 3:.4f})")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
