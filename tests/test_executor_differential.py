"""Executor-differential fuzzing: batch against the interpreted oracle.

A randomized SQL++ generator produces queries over a synthetic document
collection, and every query runs under the interpreted (row-at-a-time
oracle) and batch (vectorized) executors, across all four storage layouts
and with pushdown both enabled and disabled.  Both batch/pushdown
combinations must return exactly the rows the oracle returns.

The corpus deliberately includes the adversarial shapes the batch kernels
special-case: MISSING vs null fields, booleans stored next to numbers,
integers beyond the float64-exact range and beyond int64, NaN-free floats,
nested objects, and arrays for UNNEST — scalars (``tags``), homogeneous
objects (``items``: the shape the direct scan unnests itself) and a
heterogeneous mix of nulls, scalars, objects and nested arrays (``mixed``:
must fall back).  Two datasets are queried — one fully
flushed with disjoint per-flush key ranges (so columnar layouts take the
assembly-free direct batch path unshadowed) and one with memtable rows,
deletes, and updates (so the direct scan must shadow the flushed component and
overlay the memtable winners — newest-wins without the reconciling merge).

Seeds flow through the shared ``REPRO_TEST_SEED`` plumbing in
``tests/conftest.py``: a failure report prints the exact replay command.
"""

from __future__ import annotations

import random

import pytest

from repro.store import Datastore, StoreConfig

from conftest import seeded_rng

LAYOUTS = ("open", "vector", "apax", "amax")
QUERIES_PER_LAYOUT = 200

#: Paths that hold numbers (plus occasional null/MISSING) in every document
#: generation — safe for ordering comparisons and numeric aggregates.
NUMERIC_PATHS = ("a", "c", "nested.v")
STRING_PATHS = ("b", "nested.w")
GROUP_PATHS = ("b", "a", "nested.w")


def _document(rng: random.Random, key: int) -> dict:
    doc = {"id": key, "a": rng.randint(0, 60)}
    roll = rng.random()
    if roll < 0.08:
        doc["a"] = None
    elif roll < 0.12:
        del doc["a"]  # MISSING, distinct from null
    elif roll < 0.15:
        # Beyond float64-exact, still within int64 (the storage encoders
        # reject wider ints); int64-overflowing values appear as query
        # literals instead, which is where the kernel fallback lives.
        doc["a"] = 2 ** 53 + rng.randint(1, 99)
    if rng.random() < 0.8:
        doc["b"] = rng.choice(["ash", "birch", "cedar", "oak"])
    if rng.random() < 0.7:
        doc["c"] = round(rng.uniform(-50, 50), 3)
    elif rng.random() < 0.5:
        doc["c"] = rng.randint(-50, 50)  # ints mixed into a float column
    if rng.random() < 0.6:
        doc["nested"] = {}
        if rng.random() < 0.8:
            doc["nested"]["v"] = rng.randint(-5, 5)
        if rng.random() < 0.6:
            doc["nested"]["w"] = rng.choice(["p", "q", "r"])
    if rng.random() < 0.5:
        doc["tags"] = [rng.randint(0, 6) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.2:
        doc["flag"] = rng.random() < 0.5  # bools next to numbers elsewhere
    if rng.random() < 0.7:
        # Never empty: an array first seen empty infers a null item, which
        # unions with the objects that follow and disqualifies the component.
        doc["items"] = [_item(rng) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        doc["mixed"] = [
            rng.choice((None, rng.randint(0, 9), _item(rng), [1, 2], "x"))
            for _ in range(rng.randint(0, 3))
        ]
    return doc


def _item(rng: random.Random) -> dict:
    """One element of an array of objects; every field is sometimes MISSING."""
    item = {}
    if rng.random() < 0.85:
        item["n"] = rng.randint(-9, 40)
    if rng.random() < 0.7:
        item["s"] = rng.choice(["ash", "birch", "cedar"])
    if rng.random() < 0.4:
        item["o"] = {"z": rng.randint(0, 5)} if rng.random() < 0.8 else {}
    return item


def _build_store(layout: str, rng: random.Random) -> Datastore:
    store = Datastore(StoreConfig(partitions_per_node=2))
    # "d": fully flushed in disjoint key ranges — columnar components have
    # pairwise-disjoint key spans and empty memtables, so apax/amax scans
    # qualify for the direct (assembly-free) batch path.
    d = store.create_dataset("d", layout=layout)
    d.insert_many([_document(rng, key) for key in range(0, 150)])
    d.flush_all()
    d.insert_many([_document(rng, key) for key in range(150, 300)])
    d.flush_all()
    # "m": memtable rows + deletes + overwrites — reconciliation required:
    # the direct scan drops the shadowed flushed versions and emits the
    # memtable winners as overlay row batches.
    m = store.create_dataset("m", layout=layout)
    m.insert_many([_document(rng, key) for key in range(0, 200)])
    m.flush_all()
    for key in range(0, 40, 3):
        m.delete(key)
    m.insert_many([_document(rng, key) for key in range(50, 90, 4)])  # updates
    m.insert_many([_document(rng, key) for key in range(200, 240)])  # memtable
    return store


def _literal(rng: random.Random, path: str) -> str:
    if path in STRING_PATHS:
        return repr(rng.choice(["ash", "birch", "cedar", "oak", "p", "q", ""]))
    if rng.random() < 0.1:
        return str(2 ** 53 + rng.randint(0, 120))  # float64-inexact int
    if rng.random() < 0.05:
        return str(2 ** 63 + rng.randint(0, 120))  # beyond int64
    if rng.random() < 0.4:
        return str(round(rng.uniform(-55, 55), 2))
    return str(rng.randint(-10, 62))


def _comparison(rng: random.Random, var: str = "t") -> str:
    path = rng.choice(NUMERIC_PATHS + STRING_PATHS)
    op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
    return f"{var}.{path} {op} {_literal(rng, path)}"


def _predicate(rng: random.Random, var: str = "t") -> str:
    roll = rng.random()
    if roll < 0.5:
        return _comparison(rng, var)
    connective = "AND" if roll < 0.8 else "OR"
    return f"{_comparison(rng, var)} {connective} {_comparison(rng, var)}"


def _aggregate_list(rng: random.Random) -> str:
    parts = []
    for index in range(rng.randint(1, 3)):
        function = rng.choice(("COUNT", "SUM", "MIN", "MAX", "AVG"))
        if function == "COUNT":
            argument = "*"  # COUNT(expr) is not in the SQL++ subset
        elif function in ("MIN", "MAX") and rng.random() < 0.3:
            argument = "t." + rng.choice(STRING_PATHS)
        else:
            argument = "t." + rng.choice(NUMERIC_PATHS)
        parts.append(f"{function}({argument}) AS agg{index}")
    return ", ".join(parts)


#: Paths used as equi-join keys: low-cardinality, with null/MISSING mixed in
#: (which must never match) and numbers next to the occasional wide int.
JOIN_PATHS = ("a", "b", "nested.v")


def _join_query(rng: random.Random, dataset: str, where: str) -> str:
    other = "m" if dataset == "d" else "d"
    path = rng.choice(JOIN_PATHS)
    limit = f" LIMIT {rng.randint(1, 60)}" if rng.random() < 0.3 else ""
    if rng.random() < 0.5:
        return (
            f"SELECT t.id AS i, y.id AS j FROM {dataset} AS t JOIN {other} AS y "
            f"ON t.{path} = y.{path}{where} ORDER BY i, j{limit};"
        )
    extra = f" AND ({_predicate(rng)})" if rng.random() < 0.5 else ""
    return (
        f"SELECT t.id AS i, y.id AS j FROM {dataset} AS t, {other} AS y "
        f"WHERE t.{path} = y.{path}{extra} ORDER BY i, j{limit};"
    )


def _subquery_query(rng: random.Random, dataset: str, where: str) -> str:
    other = rng.choice(("d", "m"))
    roll = rng.random()
    if roll < 0.35:
        inner_where = f" WHERE {_predicate(rng, 'u')}" if rng.random() < 0.7 else ""
        path = rng.choice(("a", "b"))
        return (
            f"SELECT t.id AS i FROM {dataset} AS t WHERE t.{path} IN "
            f"(SELECT VALUE u.{path} FROM {other} AS u{inner_where}) ORDER BY i;"
        )
    if roll < 0.55:
        values = ", ".join(_literal(rng, "a") for _ in range(rng.randint(1, 4)))
        return (
            f"SELECT t.id AS i FROM {dataset} AS t "
            f"WHERE t.a IN [{values}] ORDER BY i;"
        )
    if roll < 0.8:
        inner_where = f" WHERE {_predicate(rng, 'u')}" if rng.random() < 0.7 else ""
        function = rng.choice(("MIN", "MAX", "AVG"))
        op = rng.choice(("<=", ">", "="))
        return (
            f"SELECT t.id AS i FROM {dataset} AS t WHERE t.a {op} "
            f"(SELECT {function}(u.a) FROM {other} AS u{inner_where}) ORDER BY i;"
        )
    # Correlated (nested-loop fallback): keep the outer side narrow.
    path = rng.choice(("a", "b"))
    return (
        f"SELECT t.id AS i, (SELECT COUNT(*) FROM {other} AS u "
        f"WHERE u.{path} = t.{path}) AS c FROM {dataset} AS t "
        f"WHERE t.id < {rng.randint(5, 40)} ORDER BY i;"
    )


def _window_query(rng: random.Random, dataset: str, where: str) -> str:
    # Window ORDER BY is always the unique primary key: running aggregates
    # and ROW_NUMBER are then deterministic even across shard re-orderings.
    function = rng.choice(("ROW_NUMBER", "COUNT", "SUM", "MIN", "MAX", "AVG"))
    if function == "ROW_NUMBER":
        call = "ROW_NUMBER()"
    elif function == "COUNT":
        call = "COUNT(*)"
    else:
        call = f"{function}(t.{rng.choice(NUMERIC_PATHS)})"
    partition = (
        f"PARTITION BY t.{rng.choice(GROUP_PATHS)} " if rng.random() < 0.8 else ""
    )
    direction = " DESC" if rng.random() < 0.3 else ""
    return (
        f"SELECT t.id AS i, {call} OVER ({partition}ORDER BY t.id{direction}) AS w "
        f"FROM {dataset} AS t{where} ORDER BY i;"
    )


def _object_unnest_query(rng: random.Random, dataset: str, where: str) -> str:
    """UNNEST over an array of objects, reading element fields (or nothing)."""
    array = "items" if rng.random() < 0.8 else "mixed"
    source = f"FROM {dataset} AS t{where} UNNEST t.{array} AS e"
    if rng.random() < 0.5:
        source += f" WHERE e.n {rng.choice(('<', '>=', '!='))} {rng.randint(-5, 30)}"
    roll = rng.random()
    if roll < 0.2:
        return f"SELECT COUNT(*) AS c {source};"
    if roll < 0.45:
        return (
            f"SELECT MAX(e.n) AS hi, MIN(e.s) AS lo, SUM(e.o.z) AS z, "
            f"COUNT(*) AS c {source};"
        )
    if roll < 0.7:
        key = rng.choice(("t.b", "t.nested.w", "e.s", "e.o.z"))
        return f"SELECT k AS k, COUNT(*) AS c, AVG(e.n) AS m {source} GROUP BY {key} AS k;"
    if roll < 0.9:
        return f"SELECT t.id AS i, t.a AS a, e.n AS n, e.o.z AS z {source};"
    # An object-valued element path: only assembly can build it.  (Single-key
    # objects, so shards that inferred fields in another order still agree.)
    return f"SELECT VALUE e.o {source};"


def generate_query(rng: random.Random) -> str:
    """One random SQL++ SELECT over the synthetic corpus."""
    dataset = rng.choice(("d", "m"))
    where = f" WHERE {_predicate(rng)}" if rng.random() < 0.75 else ""
    shape = rng.random()
    if shape < 0.22:
        return f"SELECT {_aggregate_list(rng)} FROM {dataset} AS t{where};"
    if shape < 0.4:
        path = rng.choice(GROUP_PATHS)
        return (
            f"SELECT t.{path} AS k, COUNT(*) AS c, SUM(t.a) AS s "
            f"FROM {dataset} AS t{where} GROUP BY t.{path};"
        )
    if shape < 0.54:
        # ORDER BY the (unique) primary key so ties cannot reorder rows.
        limit = f" LIMIT {rng.randint(1, 40)}" if rng.random() < 0.7 else ""
        direction = " DESC" if rng.random() < 0.5 else ""
        return (
            f"SELECT t.id AS i, t.{rng.choice(NUMERIC_PATHS + STRING_PATHS)} AS x "
            f"FROM {dataset} AS t{where} ORDER BY i{direction}{limit};"
        )
    if shape < 0.66:
        unnest_where = f" WHERE {_predicate(rng)}" if rng.random() < 0.4 else ""
        if rng.random() < 0.6:
            return _object_unnest_query(rng, dataset, unnest_where)
        if rng.random() < 0.5:
            return (
                f"SELECT VALUE u FROM {dataset} AS t "
                f"UNNEST t.tags AS u{unnest_where};"
            )
        return (
            f"SELECT u AS k, COUNT(*) AS c FROM {dataset} AS t "
            f"UNNEST t.tags AS u{unnest_where} GROUP BY u;"
        )
    if shape < 0.78:
        return _join_query(rng, dataset, where)
    if shape < 0.88:
        return _subquery_query(rng, dataset, where)
    if shape < 0.96:
        return _window_query(rng, dataset, where)
    return f"SELECT COUNT(*) AS c FROM {dataset} AS t{where};"


def _canonical(rows: list) -> list:
    """Order-insensitive comparison form (ORDER BY keys are unique anyway)."""
    return sorted(repr(row) for row in rows)


@pytest.fixture(scope="module", params=LAYOUTS)
def fuzz_store(request):
    rng = seeded_rng(0xD1FF, salt=LAYOUTS.index(request.param) + 1)
    store = _build_store(request.param, rng)
    yield request.param, store
    store.close()


def test_executor_differential(fuzz_store):
    layout, store = fuzz_store
    rng = seeded_rng(0xD1FF + 1)
    failures = []
    for index in range(QUERIES_PER_LAYOUT):
        text = generate_query(rng)
        oracle = _canonical(store.query(text, executor="interpreted"))
        for pushdown in (True, False):
            got = _canonical(store.query(text, executor="batch", pushdown=pushdown))
            if got != oracle:
                failures.append(
                    f"[{layout}] query #{index} executor=batch "
                    f"pushdown={pushdown}\n  {text}\n"
                    f"  oracle={oracle[:4]}...\n  got   ={got[:4]}..."
                )
    assert not failures, "\n".join(failures[:10]) + f"\n({len(failures)} divergences)"


def test_interpreted_pushdown_consistency(fuzz_store):
    """The oracle itself must not depend on pushdown (exact pre-filtering)."""
    layout, store = fuzz_store
    rng = seeded_rng(0xD1FF + 2)
    for _ in range(40):
        text = generate_query(rng)
        with_pushdown = _canonical(store.query(text, executor="interpreted"))
        without = _canonical(
            store.query(text, executor="interpreted", pushdown=False)
        )
        assert with_pushdown == without, text


def test_direct_batches_engage_for_columnar_layouts(fuzz_store):
    """Meta-test: the fuzz corpus actually exercises the direct scan path."""
    layout, store = fuzz_store
    from repro.query.batch_executor import plan_supports_direct, source_batches
    from repro.sqlpp import compile_query

    compiled = compile_query(
        "SELECT t.b AS k, COUNT(*) AS c FROM d AS t WHERE t.a >= 0 GROUP BY t.b;"
    )
    plan = compiled.query.optimized_plan(store)
    assert plan_supports_direct(plan)
    batches = list(source_batches(store, plan))
    direct = [batch for batch in batches if batch.paths]
    if layout in ("apax", "amax"):
        assert direct, "columnar layouts should emit assembly-free batches"
        assert all(not batch.vars for batch in direct)
    else:
        assert not direct, "row layouts must use row-backed batches"


def test_direct_scan_unnests_arrays_of_objects(fuzz_store):
    """Meta-test: the ``items`` UNNESTs of the corpus are performed by the
    direct scan on the columnar layouts, and ``mixed`` ones never are."""
    layout, store = fuzz_store
    text = "SELECT MAX(e.n) AS hi, COUNT(*) AS c FROM d AS t UNNEST t.{} AS e;"
    for array, columnar_mode in (("items", "direct"), ("mixed", "reconciled")):
        oracle = store.query(text.format(array), executor="interpreted")
        assert oracle[0]["c"] > 0
        assert store.query(text.format(array), executor="batch") == oracle
        scan = _find_span(store.last_trace.root, "DataScanNode")
        expected = columnar_mode if layout in ("apax", "amax") else "reconciled"
        assert scan.attrs["scan_mode"] == expected, (array, scan.attrs)
        unnest = _find_span(store.last_trace.root, "UnnestNode")
        assert unnest.attrs.get("pushed", False) is (expected == "direct")


def test_direct_scan_overlays_the_live_memtable(fuzz_store):
    """Meta-test: dataset ``m`` — deletes, updates and new keys all still in
    the memtable — stays on the direct scan for the columnar layouts, with
    the flushed versions of the 24 touched keys shadowed and the 50 live
    memtable documents overlaid."""
    layout, store = fuzz_store
    text = "SELECT COUNT(*) AS c, MAX(t.nested.v) AS hi FROM m AS t WHERE t.a >= 0;"
    oracle = store.query(text, executor="interpreted")
    assert store.query(text, executor="batch") == oracle
    scan = _find_span(store.last_trace.root, "DataScanNode")
    if layout in ("apax", "amax"):
        assert scan.attrs["scan_mode"] == "direct", scan.attrs
        assert "fallback_reason" not in scan.attrs
        assert scan.attrs["overlay_rows"] == 10 + 40  # updates + new keys
        assert scan.attrs["shadowed_rows"] == 14 + 10  # deletes + updates
    else:
        assert scan.attrs["fallback_reason"] == "layout"


def _find_span(node, name):
    if node.name == name:
        return node
    for child in node.children:
        found = _find_span(child, name)
        if found is not None:
            return found
    return None
