"""The declared benchmark (``BENCHMARK.json``): the one list of metric names.

The harness computes values by name; this module knows which names, units and
bounds were declared and refuses a result that emits anything else, so the
declaration and the code cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

#: ``benchmarks/e2e/harness/spec.py`` → the checkout root.
REPO_ROOT = Path(__file__).resolve().parents[3]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"


class Spec:
    def __init__(self, payload: dict) -> None:
        self.run_seconds: int = payload["run_seconds"]
        self.workloads: List[str] = [w["name"] for w in payload["workloads"]]
        self.end_to_end: Dict[str, dict] = {m["name"]: m for m in payload["end_to_end"]}
        self.per_layer: Dict[str, dict] = {m["name"]: m for m in payload["per_layer"]}

    @classmethod
    def load(cls) -> "Spec":
        return cls(json.loads(BENCHMARK_JSON.read_text()))

    def emit(self, kind: str, values: Dict[str, float]) -> Dict[str, dict]:
        """``{name: {"value", "unit"}}`` for one declared group; raises when
        the computed names differ from the declared ones."""
        declared = self.end_to_end if kind == "end_to_end" else self.per_layer
        missing = sorted(set(declared) - set(values))
        undeclared = sorted(set(values) - set(declared))
        if missing or undeclared:
            raise RuntimeError(
                f"{kind} metrics out of step with BENCHMARK.json: "
                f"missing {missing}, undeclared {undeclared}"
            )
        return {
            name: {"value": float(values[name]), "unit": declared[name]["unit"]}
            for name in declared
        }
