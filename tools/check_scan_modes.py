#!/usr/bin/env python3
"""Which scan served the repo benchmark's statements — and a gate on it.

Reads the ``<workload>.spans.jsonl`` files a traced benchmark run leaves
(``python3 benchmarks/e2e/run.py --smoke --traced --out DIR``), prints per
workload the histogram of ``scan_mode`` / ``fallback_reason`` over the
``server:DataScanNode`` spans, and fails if a columnar workload's scan still
reports a reason the direct scan no longer has: a live memtable
(``memtable``) or overlapping components (``overlap``) are reconciled by key
membership inside the direct scan, and ``[*]`` paths, ``is_array`` and
``SOME … SATISFIES`` over a union-typed field are served from element runs,
so the benchmark's columnar statements have no ``plan`` or ``schema``
fallback left either.  Any of the four reappearing means something turns the
column engine off again.

Usage::

    python3 tools/check_scan_modes.py DIR

``fallback_reason`` lists every distinct per-partition reason, sorted and
comma-joined; each is counted on its own.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

#: The workloads on columnar layouts (``analytics_open`` is row-major: its
#: scans fall back on ``layout`` by design and are only reported).
COLUMNAR_WORKLOADS = ("mixed_serving", "ingest_feed", "analytics_amax")
RETIRED_REASONS = ("memtable", "overlap", "plan", "schema")


def scan_histogram(path: Path) -> Counter:
    """``direct`` / ``reconciled:<reason>`` → span count for one spans file."""
    histogram: Counter = Counter()
    with path.open() as lines:
        for line in lines:
            if '"server:DataScanNode"' not in line:
                continue
            attrs = json.loads(line).get("attrs", {})
            mode = attrs.get("scan_mode")
            if mode is None:
                continue  # the interpreted executor's scan span carries no mode
            reasons = attrs.get("fallback_reason")
            if not reasons:
                histogram[mode] += 1
            for reason in (reasons or "").split(","):
                if reason:
                    histogram[f"{mode}:{reason}"] += 1
    return histogram


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    directory = Path(argv[1])
    failures = []
    for path in sorted(directory.glob("*.spans.jsonl")):
        workload = path.name[: -len(".spans.jsonl")]
        histogram = scan_histogram(path)
        summary = ", ".join(f"{key}={count}" for key, count in sorted(histogram.items()))
        print(f"{workload}: {summary or 'no DataScanNode spans'}")
        if workload in COLUMNAR_WORKLOADS:
            for reason in RETIRED_REASONS:
                count = histogram[f"reconciled:{reason}"]
                if count:
                    failures.append(f"{workload}: {count} scan(s) fell back on {reason!r}")
    missing = [
        workload
        for workload in COLUMNAR_WORKLOADS
        if not (directory / f"{workload}.spans.jsonl").exists()
    ]
    failures.extend(f"{workload}: no spans file in {directory}" for workload in missing)
    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
