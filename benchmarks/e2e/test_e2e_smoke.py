"""Self-test of the benchmark: ``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.

Runs every workload in ``--smoke`` mode (untraced and traced, probe included)
through the real command line and checks the result files against
``BENCHMARK.json``: every declared metric and workload is emitted, nothing
undeclared is, units match, nothing failed, and no server process is left
behind.  It lives outside ``testpaths``, so the tier-1 suite does not pay for
it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _server_processes(marker: str) -> list:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "repro.server" in command and marker in command:
            found.append(command)
    return found


def test_smoke_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "smoke"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced", "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

    for group, suffix in (("end_to_end", ""), ("per_layer", ".traced")):
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            result = json.loads((out / f"{workload}{suffix}.json").read_text())
            assert result["workload"] == workload
            assert result["failed"] == 0, result["failures"]
            assert result["correct"] is True and result["attempted"] >= 1
            emitted = {name: m["unit"] for name, m in result[group].items()}
            assert emitted == declared
            for name, metric in result[group].items():
                assert isinstance(metric["value"], float), name
            if group == "end_to_end":
                # An end-to-end metric that reads 0 measured nothing.
                assert all(m["value"] > 0 for m in result[group].values()), result[group]
            else:
                assert result["per_layer"]["bench.failed_fraction"]["value"] == 0.0
                assert (out / f"{workload}.spans.jsonl").stat().st_size > 0

    assert _server_processes(str(out)) == []
    assert not (out / "work").exists() or not any((out / "work").iterdir())

    compare = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert compare.returncode == 0, compare.stdout
    assert "regressed" not in compare.stdout and "improved" not in compare.stdout


def test_result_line_and_missing_program(tmp_path):
    """The single-workload form ends with one JSON object; a checkout without
    ``src/`` exits non-zero and prints no result."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mixed_serving",
         "--smoke", "--seed", "3", "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    subprocess.run(["cp", "-r", str(HERE), str(bare / "benchmarks" / "e2e")], check=True)
    (bare / "BENCHMARK.json").write_text((REPO_ROOT / "BENCHMARK.json").read_text())
    gone = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mixed_serving",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert gone.returncode != 0
    assert gone.stdout.strip() == ""
