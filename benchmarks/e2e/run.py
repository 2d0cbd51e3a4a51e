#!/usr/bin/env python3
"""The repo benchmark: wire-level workloads against a real shard cluster.

Two ways in, one code path::

    # one workload, one result line (the form BENCHMARK.json's command takes)
    python3 benchmarks/e2e/run.py --workload ingest_feed --seed 3 --seconds 12 --trace 0

    # everything: all four workloads, untraced then (--traced) traced
    python3 benchmarks/e2e/run.py --seed 11 --out DIR --traced

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SOURCE_ROOT = REPO_ROOT / "src"

# The program under test is this checkout's ``src/repro`` and nothing else.
sys.path.insert(0, str(SOURCE_ROOT))
try:
    import repro
except ImportError as error:
    sys.exit(f"cannot import the program under test from {SOURCE_ROOT}: {error}")
if not Path(repro.__file__).resolve().is_relative_to(SOURCE_ROOT):
    sys.exit(f"imported repro from {repro.__file__}, not from {SOURCE_ROOT}")

from harness import inputs  # noqa: E402
from harness.spec import Spec  # noqa: E402
from harness.workloads import Options, make_workload  # noqa: E402

SMOKE_SECONDS = 1.5


def host_stamp() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def run_one(spec: Spec, name: str, args: argparse.Namespace, traced: bool,
            work_root: Path, out_dir) -> dict:
    """Run one workload once; returns (and optionally writes) its result."""
    options = Options(
        seed=args.seed,
        seconds=args.seconds,
        traced=traced,
        smoke=args.smoke,
        work_dir=work_root / f"{name}-{os.getpid()}",
        source_root=SOURCE_ROOT,
        keep=args.keep,
        regen_golden=args.regen_golden,
    )
    workload = make_workload(name, options)
    workload.run()
    end_to_end = spec.emit("end_to_end", workload.end_to_end())
    result = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": traced,
        "correct": workload.ops.failed == 0,
        "attempted": workload.ops.attempted,
        "failed": workload.ops.failed,
        "failures": workload.ops.failures,
        "inputs_sha256": workload.digest,
        "end_to_end": end_to_end,
        "host": host_stamp(),
    }
    if traced:
        result["per_layer"] = spec.emit("per_layer", workload.per_layer())
    result["info"] = workload.info
    if out_dir is not None:
        suffix = ".traced" if traced else ""
        (out_dir / f"{name}{suffix}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True, default=str) + "\n"
        )
        if workload.recorder is not None:
            workload.recorder.write(out_dir / f"{name}.spans.jsonl")
    return result


def print_metrics(result: dict) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"({mode}): attempted={result['attempted']} failed={result['failed']}")
    for group in ("end_to_end", "per_layer"):
        for name, metric in result.get(group, {}).items():
            print(f"  {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def regen_pins(spec: Spec, work_root: Path) -> None:
    """Recompute the default seed's digests and goldens (full and smoke sizes)."""
    digests = {}
    for smoke in (False, True):
        for name in ("analytics_amax", "ingest_feed", "mixed_serving"):
            options = Options(
                seed=inputs.DEFAULT_SEED, seconds=float(spec.run_seconds), traced=False,
                smoke=smoke, work_dir=work_root, source_root=SOURCE_ROOT,
                regen_golden=True,
            )
            workload = make_workload(name, options)
            workload.build_inputs()
            digests[workload.info["inputs_pin"]] = workload.digest
    inputs.write_pinned_digests(digests)
    print(json.dumps(digests, indent=2))


def main() -> int:
    spec = Spec.load()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.workloads,
                        help="run this workload only (default: all four)")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed phase (default {spec.run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, the result line holds the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="with no --workload: follow each untraced run by a traced one")
    parser.add_argument("--smoke", action="store_true",
                        help=f"sizes / {inputs.SMOKE_DIVISOR}, {SMOKE_SECONDS}s timed "
                             "phases, single set-up and recovery")
    parser.add_argument("--out", type=Path,
                        help="write <workload>[.traced].json and spans here")
    parser.add_argument("--keep", action="store_true", help="keep the cluster work dirs")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute the default seed's goldens and pinned digests")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec.run_seconds)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # SIGTERM unwinds through the finally blocks that reap the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        work_root = args.out.resolve() / "work"
    else:
        work_root = REPO_ROOT / ".bench_e2e"

    if args.regen_golden:
        regen_pins(spec, work_root)
        return 0

    try:
        return run(spec, args, work_root)
    finally:
        try:
            work_root.rmdir()  # only ever holds per-run dirs, removed by now
        except OSError:
            pass


def run(spec: Spec, args: argparse.Namespace, work_root: Path) -> int:
    if args.workload is not None:
        result = run_one(spec, args.workload, args, bool(args.trace), work_root, args.out)
        print_metrics(result)
        group = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result[group],
        }))
        return 0

    failed = 0
    for name in spec.workloads:
        for traced in ([False, True] if args.traced or args.trace else [False]):
            result = run_one(spec, name, args, traced, work_root, args.out)
            print_metrics(result)
            failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
