#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py BASE_DIR CHANGE_DIR``.

Each directory holds the ``<workload>.json`` files ``run.py --out`` wrote, one
sub-directory per run (``run-1/``, ``run-2/`` …); traced results are ignored,
end-to-end metrics always come from untraced runs.  Prints one row per
workload × end-to-end metric — both medians with their quartiles, the ratio
change ÷ base, the bound — and a verdict:

``regressed``   the change's median is worse than the base's by more than the
                metric's bound (``BENCHMARK.json``);
``unresolved``  either side's own spread (IQR ÷ median) is wider than the
                bound, so "no worse than the bound" cannot be shown;
``improved``    the change wins at least nine tenths of the pairs (run *i* of
                one side against run *i* of the other, ties for neither) and
                the medians differ by more than the base's IQR.  A claim
                needs at least ten pairs; the pair count is printed;
``unchanged``   none of the above.

Exits non-zero when any row is ``regressed`` or a workload's failed fraction
is higher on the change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Untraced results under ``directory``, by workload, in path order."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            result = json.loads(path.read_text())
        except ValueError:
            continue
        if not isinstance(result, dict) or "end_to_end" not in result:
            continue
        if result.get("traced"):
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(base: List[float], change: List[float], better: str, bound: float) -> str:
    b1, b_median, b3 = quartiles(base)
    c1, c_median, c3 = quartiles(change)
    if b_median == 0:
        return "unchanged" if c_median == 0 else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_median - b_median) / abs(b_median)
    spread = max((b3 - b1) / abs(b_median), (c3 - c1) / abs(c_median) if c_median else 0.0)
    if worse_by > bound and spread <= bound:
        return "regressed"
    if spread > bound:
        return "unresolved"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if wins >= 0.9 * len(pairs) and sign * (b_median - c_median) > (b3 - b1):
        return "improved"
    return "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    base_runs, change_runs = load_runs(Path(argv[1])), load_runs(Path(argv[2]))
    bad = 0
    header = (f"{'workload':<15} {'metric':<28} {'unit':<7} {'base median [q1, q3]':<36} "
              f"{'change median [q1, q3]':<36} {'change/base':>11} {'bound':>6} "
              f"{'pairs':>5}  verdict")
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        base, change = base_runs.get(workload, []), change_runs.get(workload, [])
        if not base or not change:
            print(f"{workload:<15} missing on {'base' if not base else 'change'} side")
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run["end_to_end"][name]["value"] for run in base]
            c = [run["end_to_end"][name]["value"] for run in change]
            outcome = verdict(b, c, metric["better"], metric["bound"])
            bad += outcome == "regressed"
            b1, bm, b3 = quartiles(b)
            c1, cm, c3 = quartiles(c)
            ratio = f"{cm / bm:.4f}" if bm else "n/a"
            print(f"{workload:<15} {name:<28} {metric['unit']:<7} "
                  f"{f'{bm:.4f} [{b1:.4f}, {b3:.4f}]':<36} "
                  f"{f'{cm:.4f} [{c1:.4f}, {c3:.4f}]':<36} "
                  f"{ratio + ' of ' + format(bm, '.4g'):>11} {metric['bound']:>6.2f} "
                  f"{min(len(b), len(c)):>5}  {outcome}")
        failed_base = sum(r["failed"] for r in base) / max(1, sum(r["attempted"] for r in base))
        failed_change = sum(r["failed"] for r in change) / max(1, sum(r["attempted"] for r in change))
        outcome = "regressed" if failed_change > failed_base else "unchanged"
        bad += outcome == "regressed"
        print(f"{workload:<15} {'failed_fraction':<28} {'ratio':<7} {failed_base:<36.6f} "
              f"{failed_change:<36.6f} {'':>11} {0:>6.2f} {min(len(base), len(change)):>5}  {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
