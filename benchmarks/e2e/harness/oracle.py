"""Expected answers and the comparison rules every result is checked by.

Expected answers come from the ``interpreted`` executor over one in-process,
single-partition, row-layout store — the repo's reference path, sharing no
code with the wire, the coordinator, the columnar layouts or the fast
executors.  They are cached under ``golden/`` keyed by the input digest, so a
golden can never be applied to inputs it was not computed from.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from repro import Datastore, StoreConfig

from .inputs import Statement

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
FLOAT_RELATIVE_TOLERANCE = 1e-9


def compute_expected(
    documents: Dict[str, List[dict]], statements: List[Statement]
) -> Dict[str, dict]:
    """Run every statement on the reference path; see :func:`check_rows`."""
    store = Datastore(StoreConfig(partitions_per_node=1, observability=False))
    try:
        for dataset, docs in documents.items():
            store.create_dataset(dataset, layout="open").insert_many(docs)
        expected: Dict[str, dict] = {}
        for statement in statements:
            rows = store.query(statement.text, executor="interpreted")
            if statement.order_key is None:
                expected[statement.name] = {"rows": rows}
                continue
            # Ties on the sort key are order-free: keep every row that could
            # legally appear, i.e. all rows at or above the last returned key.
            key = statement.order_key
            everything = store.query(statement.unlimited_text, executor="interpreted")
            floor = rows[-1][key] if rows else None
            expected[statement.name] = {
                "order_key": key,
                "keys": [row[key] for row in rows],
                "candidates": [row for row in everything if rows and row[key] >= floor],
            }
        return expected
    finally:
        store.close()


def load_or_compute(
    digest: str,
    documents: Dict[str, List[dict]],
    statements: List[Statement],
    write: bool = False,
) -> Dict[str, dict]:
    """Golden for ``digest`` when committed, else computed now (other seeds)."""
    path = GOLDEN_DIR / f"{digest[:16]}.json"
    if not write:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            payload = None
        if payload is not None and payload.get("inputs_sha256") == digest:
            return payload["expected"]
    expected = compute_expected(documents, statements)
    if write:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps({"inputs_sha256": digest, "expected": expected}, sort_keys=True)
            + "\n"
        )
    return expected


# -- comparison ------------------------------------------------------------------------


def values_equal(left, right) -> bool:
    """Deep equality with floats compared to 1e-9 relative; bools are not ints."""
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    if isinstance(left, float) or isinstance(right, float):
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            return False
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return math.isclose(left, right, rel_tol=FLOAT_RELATIVE_TOLERANCE, abs_tol=0.0)
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            values_equal(left[key], right[key]) for key in left
        )
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            values_equal(a, b) for a, b in zip(left, right)
        )
    return type(left) is type(right) and left == right


def check_rows(expected: dict, rows: Optional[list]) -> bool:
    """Is ``rows`` a correct answer?  ``expected`` is one entry of
    :func:`compute_expected`: exact ``rows``, or a top-k ``keys`` sequence plus
    the ``candidates`` each returned row must be drawn from, without repeats."""
    if rows is None:
        return False
    if "rows" in expected:
        return values_equal(expected["rows"], rows)
    keys = expected["keys"]
    if len(rows) != len(keys):
        return False
    order_key = expected["order_key"]
    remaining = list(expected["candidates"])
    for row, key in zip(rows, keys):
        if not isinstance(row, dict) or not values_equal(row.get(order_key), key):
            return False
        for index, candidate in enumerate(remaining):
            if values_equal(candidate, row):
                del remaining[index]
                break
        else:
            return False
    return True


def topk_expected(statement: Statement, groups: List[dict]) -> dict:
    """Top-k expectation from a full group list (used where the answer is
    computed directly from the documents, not by the reference executor)."""
    key = statement.order_key
    ordered = sorted((row[key] for row in groups), reverse=True)[: statement.limit]
    floor = ordered[-1] if ordered else None
    return {
        "order_key": key,
        "keys": ordered,
        "candidates": [row for row in groups if floor is not None and row[key] >= floor],
    }
