#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the bounds are judged.

Runs ``BENCHMARK.json``'s command ``--runs`` times per workload, each time
with another ``--seed``, and prints for every workload × end-to-end metric the
median, the inter-quartile range as a share of the median, and the declared
bound.  A bound is sound when the spread stays under a third of it.

    python3 benchmarks/e2e/spread.py --runs 10 --out DIR
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare import quartiles

REPO_ROOT = Path(__file__).resolve().parents[2]


def spread(values) -> float:
    """IQR ÷ median, quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    first, median, third = quartiles(values)
    return (third - first) / median


def main() -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append", help="only these (repeatable)")
    parser.add_argument("--out", type=Path, help="keep every result line here")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for run in range(args.runs):
            command = [
                *spec["command"], "--workload", workload, "--seed",
                str(args.first_seed + run), "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            done = subprocess.run(
                command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=900
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {args.first_seed + run}: "
                      f"{result['failed']} of {result['attempted']} operations failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{workload}-{run}.json").write_text(json.dumps(result) + "\n")
        print(f"== {workload} ({args.runs} runs)")
        for name, bound in bounds.items():
            share = spread(values[name])
            worst = max(worst, share / bound)
            flag = "" if share <= bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
            print(f"  {name:<30} median {statistics.median(values[name]):>14.4f}  "
                  f"spread {share:>7.4f}  bound {bound:.2f}{flag}")
        sys.stdout.flush()
    print(f"worst spread/bound = {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
