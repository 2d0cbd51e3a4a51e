"""Cross-layout differential tests.

The four storage layouts (``open``, ``vector``, ``apax``, ``amax``) are
alternative physical representations of the same logical collection; every
read path must therefore return *byte-identical* results regardless of layout,
executor, or whether scan pushdown is enabled.  These tests ingest a seeded
random corpus of heterogeneous documents — union types, missing fields,
nested objects, arrays of objects, nulls, plus updates and deletes that
exercise LSM reconciliation — into all four layouts and diff every read path.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import resolve_seed

from repro import Datastore, StoreConfig
from repro.query import And, Call, Field, Or, Query, Var
from repro.query.plan import OrderByNode

LAYOUTS = ("open", "vector", "apax", "amax")

NUM_RECORDS = 600
SEED = 20260730


# -- corpus -----------------------------------------------------------------------------


def _heterogeneous_document(rng: random.Random, record_id: int) -> dict:
    """One document with randomized shape: types conflict across records."""
    doc = {"id": record_id}
    # ``score``: int, double, string, or missing — a three-way union column.
    shape = rng.randrange(4)
    if shape == 0:
        doc["score"] = rng.randint(0, 100)
    elif shape == 1:
        doc["score"] = round(rng.uniform(0, 100), 3)
    elif shape == 2:
        doc["score"] = rng.choice(["low", "medium", "high"])
    # ``flag``: bool or null or missing.
    flag_shape = rng.randrange(3)
    if flag_shape == 0:
        doc["flag"] = rng.random() < 0.5
    elif flag_shape == 1:
        doc["flag"] = None
    # ``meta``: object or string (object/atomic union at the same slot).
    if rng.random() < 0.5:
        doc["meta"] = {
            "source": rng.choice(["api", "batch", "ui"]),
            "weight": rng.randint(1, 9),
        }
    elif rng.random() < 0.5:
        doc["meta"] = rng.choice(["inline", "legacy"])
    # ``tags``: array of strings, sometimes empty, sometimes missing.
    if rng.random() < 0.7:
        doc["tags"] = [
            rng.choice(["a", "b", "c", "d"]) for _ in range(rng.randrange(4))
        ]
    # ``events``: array of objects with occasionally missing members.
    if rng.random() < 0.6:
        doc["events"] = [
            {
                "kind": rng.choice(["x", "y"]),
                **({"value": rng.randint(-50, 50)} if rng.random() < 0.8 else {}),
            }
            for _ in range(rng.randrange(3))
        ]
    return doc


def _corpus():
    rng = random.Random(resolve_seed(SEED))
    documents = [_heterogeneous_document(rng, i) for i in range(NUM_RECORDS)]
    # Updates: rewrite ~15% of the records with a *different* random shape so
    # the newest version may flip a predicate outcome (reconciliation must
    # never resurrect the older version under pushdown).
    updates = [
        _heterogeneous_document(rng, record_id)
        for record_id in rng.sample(range(NUM_RECORDS), NUM_RECORDS // 7)
    ]
    deletes = rng.sample(range(NUM_RECORDS), NUM_RECORDS // 10)
    return documents, updates, deletes


@pytest.fixture(scope="module")
def stores():
    """The same corpus ingested under every layout (small budget → many flushes)."""
    documents, updates, deletes = _corpus()
    config = StoreConfig(
        partitions_per_node=2,
        memory_component_budget=24 * 1024,
        max_tolerable_components=3,
    )
    out = {}
    for layout in LAYOUTS:
        store = Datastore(config)
        dataset = store.create_dataset("docs", layout=layout)
        for document in documents:
            dataset.insert(document)
        dataset.flush_all()  # ensure the updates land in newer components
        for document in updates:
            dataset.insert(document)
        for key in deletes:
            dataset.delete(key)
        dataset.flush_all()
        out[layout] = store
    return out


def _canonical(rows) -> str:
    return json.dumps(rows, sort_keys=True)


def emits_by_component(query, layout, executor, pushdown) -> bool:
    """Is this the one read path whose rows do not come in key order?

    The batch executor's direct scan of a columnar layout (only taken with
    pushdown on) emits component by component, then the memtable overlay, so
    without an ORDER BY its rows match the other paths' as a multiset only.
    Every other path — row layouts, the interpreted executor, pushdown off —
    reconciles through the key-ordered merge and is compared as a sequence.
    """
    ordered = any(isinstance(op, OrderByNode) for op in query.build_plan().breakers)
    return (
        executor == "batch" and layout in ("apax", "amax") and pushdown and not ordered
    )


def _multiset(rows) -> str:
    return _canonical(sorted(rows, key=_canonical))


# -- scans and point lookups -----------------------------------------------------------


def test_full_scans_are_byte_identical(stores):
    reference = None
    for layout in LAYOUTS:
        scanned = sorted(stores[layout].dataset("docs").scan(), key=lambda kv: kv[0])
        payload = _canonical(scanned)
        if reference is None:
            reference = payload
        assert payload == reference, f"{layout} full scan diverges"


def test_point_lookups_are_identical(stores):
    documents, updates, deletes = _corpus()
    latest = {doc["id"]: doc for doc in documents}
    latest.update({doc["id"]: doc for doc in updates})
    for key in deletes:
        latest.pop(key, None)
    probe_keys = list(range(-3, NUM_RECORDS + 3))  # includes absent + deleted keys
    for layout in LAYOUTS:
        dataset = stores[layout].dataset("docs")
        for key in probe_keys:
            found = dataset.point_lookup(key)
            expected = latest.get(key)
            assert _canonical(found) == _canonical(expected), (layout, key)


def test_counts_agree(stores):
    counts = {layout: stores[layout].dataset("docs").count() for layout in LAYOUTS}
    assert len(set(counts.values())) == 1, counts


# -- the fixed query set ---------------------------------------------------------------


def _query_suite():
    t = Var("t")

    def q_count(name):
        return Query(name, "t").count()

    def q_eq_filter(name):
        # Pushable equality on a union-typed column.
        return (
            Query(name, "t")
            .where(Field(t, "score") == "high")
            .select([("id", Field(t, "id")), ("score", Field(t, "score"))])
        )

    def q_range_filter(name):
        # Pushable range over int/double branches of the union.
        return (
            Query(name, "t")
            .where(Field(t, "score") > 90)
            .select([("id", Field(t, "id")), ("score", Field(t, "score"))])
        )

    def q_ne_filter(name):
        # ``!=`` must see the object/atomic union at ``meta`` (not pushable
        # for components whose schema admits an object there).
        return (
            Query(name, "t")
            .where(Field(t, "meta") != "legacy")
            .aggregate([("n", "count", None)])
        )

    def q_nested_eq(name):
        # Nested path + conjunction: one pushed conjunct, one residual (Or).
        return (
            Query(name, "t")
            .where(
                And(
                    Field(t, "meta.source") == "api",
                    Or(Field(t, "flag") == True, Field(t, "score") > 50),  # noqa: E712
                )
            )
            .group_by(
                key=("weight", Field(t, "meta.weight")),
                aggregates=[("n", "count", None)],
            )
            .order_by("weight")
        )

    def q_unnest(name):
        return (
            Query(name, "t")
            .where(Field(t, "score") > 10)
            .unnest("e", "events")
            .group_by(key=("kind", Field(Var("e"), "kind")), aggregates=[("n", "count", None)])
            .order_by("kind")
        )

    def q_array_function(name):
        return (
            Query(name, "t")
            .where(Call("array_contains", Field(t, "tags"), "c"))
            .aggregate([("n", "count", None)])
        )

    def q_pk_range(name):
        # Predicates on the primary key prune via group key ranges, not
        # (absent) per-column statistics.
        return (
            Query(name, "t")
            .where(Field(t, "id") >= NUM_RECORDS - 20)
            .select([("id", Field(t, "id"))])
        )

    return [
        q_count,
        q_eq_filter,
        q_range_filter,
        q_ne_filter,
        q_nested_eq,
        q_unnest,
        q_array_function,
        q_pk_range,
    ]


@pytest.mark.parametrize("executor", ["batch", "interpreted"])
def test_query_suite_identical_across_layouts_and_pushdown(stores, executor):
    for query_factory in _query_suite():
        reference = None
        for layout in LAYOUTS:  # "open" leads: the reference is in key order
            for pushdown in (True, False):
                query = query_factory("docs")
                rows = query.execute(
                    stores[layout], executor=executor, pushdown=pushdown
                )
                payload = _canonical(rows)
                if reference is None:
                    reference = payload
                if emits_by_component(query, layout, executor, pushdown):
                    # ...in an order of its own, the same on every run.
                    rerun = query.execute(
                        stores[layout], executor=executor, pushdown=pushdown
                    )
                    assert _canonical(rerun) == payload
                    payload = _multiset(rows)
                    expected = _multiset(json.loads(reference))
                else:
                    expected = reference
                assert payload == expected, (
                    f"{query_factory.__name__} diverges on {layout} "
                    f"(pushdown={pushdown}, executor={executor})"
                )


def test_pushdown_never_resurrects_older_versions(stores):
    """Updated records whose new version fails a predicate must stay invisible.

    The corpus rewrites records with fresh random shapes, so for every layout
    the filter below must reflect only the *newest* version of each key; a
    pushdown bug that skipped keys before reconciliation would instead let an
    older, passing version of an updated record leak through on columnar
    layouts and diverge from the row layouts.
    """
    t = Var("t")
    reference = None
    for layout in LAYOUTS:
        rows = (
            Query("docs", "t")
            .where(Field(t, "score") > 0)
            .select([("id", Field(t, "id")), ("score", Field(t, "score"))])
            .execute(stores[layout], pushdown=True)
        )
        ids = sorted(row["id"] for row in rows)
        if reference is None:
            reference = ids
        assert ids == reference, f"{layout} leaks stale versions"
