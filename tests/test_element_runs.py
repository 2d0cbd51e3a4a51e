"""Element runs: ``[*]`` paths, ``is_array`` and ``SOME … SATISFIES`` served
by the direct scan from the definition levels of an array's columns.

Differential tests against the interpreted oracle, on both columnar layouts
under the batch executor.  The documents vary the shape of one field record
by record — missing, null, a scalar, an object, an empty array, arrays of
objects whose elements lack a field or hold a null leaf, arrays of scalars
with null elements — so that each field is a union whose array branch the
scan must pick out.  Every case also asserts *which* scan ran, through the
``DataScanNode`` span's ``scan_mode`` / ``fallback_reason``.

Each store is built once per module and layout; the queries only read it.
"""

from __future__ import annotations

import pytest

from repro.query import Field, Query, Var
from repro.store import Datastore, StoreConfig

COLUMNAR = ("apax", "amax")
FAST = ("batch",)


def _shape(key: int):
    """The value of a heterogeneous field for record ``key`` (None: absent)."""
    return {
        0: None,
        1: ("null",),
        2: 7,
        3: {"v": 3, "b": {"c": "US"}},
        4: [],
        5: [{"v": 1, "b": {"c": "US"}}, {"v": 3, "b": {"c": "FR"}}],
        6: [{"w": 1}],  # an element without the tails
        7: [{"v": None, "b": {"c": None}}],  # null leaves
        8: [{"v": 3}, {}, {"v": 2, "b": {"c": "us"}, "deep": [1, 2]}],
        9: [{"v": "3", "b": {"c": "DE"}}],  # another type at a leaf
        10: [5],  # an element of another type: ``x.v`` is MISSING
        11: [None, {"v": 3}],
    }[key % 12]


def _tags(key: int):
    return {0: None, 1: [], 2: ["x", None, 3], 3: ["y", "x"], 4: [4]}[key % 5]


def document(key: int, **override) -> dict:
    """``a`` is first seen as an empty array (a null element type that later
    unions with the objects); ``p`` is first seen as an array of objects that
    only hold ``v`` — ``p[*].b.c`` is inferred mid-flush, back-filled over
    the earlier records, whose arrays do have elements."""
    document = {"id": key, "k": key % 3}
    for name, value in (("a", _shape(key)), ("p", _shape(key + 5)), ("tags", _tags(key))):
        if value == ("null",):
            document[name] = None
        elif value is not None:
            document[name] = value
    if key == 0:
        document["a"] = []
        document["p"] = [{"v": 5}, {"v": 6}]
    document.update(override)
    return document


def _spans(node, name, out=None):
    out = out if out is not None else []
    if node.name == name:
        out.append(node)
    for child in node.children:
        _spans(child, name, out)
    return out


def _canonical(rows):
    return sorted(repr(row) for row in rows)


def check(store, queries, mode="direct", reason=None, overlay=None, shadowed=None):
    """Every query agrees with the oracle (the interpreted executor with
    pushdown, whose reconciling scan assembles only the pruned paths' columns),
    having taken the expected scan."""
    for text in queries:
        oracle = _canonical(store.query(text, executor="interpreted"))
        for executor in FAST:
            assert _canonical(store.query(text, executor=executor)) == oracle, text
            (scan,) = _spans(store.last_trace.root, "DataScanNode")
            assert scan.attrs["scan_mode"] == mode, (text, scan.attrs)
            assert scan.attrs.get("fallback_reason") == reason, (text, scan.attrs)
            for name, rows in (("overlay_rows", overlay), ("shadowed_rows", shadowed)):
                if rows is not None:
                    assert scan.attrs[name] == rows, (text, scan.attrs)


#: Queries the element runs serve: per-record lists, ``is_array``, quantifiers
#: (in WHERE and in SELECT, beside pushed predicates) and the wos_q3 pattern.
QUERIES = (
    "SELECT s.id AS id, s.a[*].v AS vs, s.a[*].b.c AS cs FROM d AS s;",
    "SELECT s.id AS id, s.p[*].v AS vs, s.p[*].b.c AS cs FROM d AS s;",
    "SELECT s.id AS id, s.tags[*] AS ts, is_array(s.tags) AS arr FROM d AS s;",
    "SELECT COUNT(*) AS n FROM d AS s WHERE is_array(s.a);",
    "SELECT c AS c, COUNT(*) AS n FROM d AS s "
    "LET cs = array_distinct(s.p[*].b.c) "
    "WHERE is_array(s.p) AND array_count(cs) > 0 "
    "UNNEST cs AS c GROUP BY c;",
    "SELECT s.id AS id FROM d AS s WHERE SOME x IN s.a SATISFIES x.v = 3;",
    "SELECT k AS k, COUNT(*) AS n FROM d AS s "
    'WHERE SOME x IN s.p SATISFIES lowercase(x.b.c) = "us" GROUP BY s.k AS k;',
    "SELECT s.id AS id, is_array(s.a) AS arr, "
    "(SOME x IN s.a SATISFIES x.v > 1) AS big FROM d AS s WHERE s.k >= 1;",
    'SELECT COUNT(*) AS n FROM d AS s WHERE SOME t IN s.tags SATISFIES t = "x";',
)

#: The body is True for an element whose ``v`` is MISSING (``{}``, ``{"w":
#: 1}``, a scalar or null element), never for an empty array: the element
#: counts must be exact, also where a union element type leaves an empty
#: array and a one-element array of another branch looking alike.
SOME_ON_MISSING = (
    "SELECT s.id AS id FROM d AS s WHERE SOME x IN s.a SATISFIES coalesce(x.v, 0) = 0;",
    "SELECT s.id AS id FROM d AS s WHERE SOME x IN s.p SATISFIES coalesce(x.v, 0) = 0;",
    "SELECT s.id AS id FROM d AS s WHERE SOME t IN s.tags SATISFIES coalesce(t, 0) = 0;",
)


def build(layout, flushes, memtable=(), deletes=()):
    store = Datastore(StoreConfig(partitions_per_node=1))
    dataset = store.create_dataset("d", layout=layout)
    for documents, removed in flushes:
        dataset.insert_many(documents)
        for key in removed:
            dataset.delete(key)
        dataset.flush_all()
    if memtable:
        dataset.insert_many(list(memtable))
    for key in deletes:
        dataset.delete(key)
    return store


@pytest.fixture(scope="module", params=COLUMNAR)
def one_flush(request):
    store = build(request.param, [([document(key) for key in range(60)], ())])
    yield store
    store.close()


@pytest.fixture(scope="module", params=COLUMNAR)
def stacked(request):
    """Anti-matter inside a leaf group, a newer component that rewrites keys of
    the older one with other shapes, and a live memtable over both."""
    older = [document(key) for key in range(60)]
    newer = [
        document(key, a=_shape(key + 3), p=_shape(key + 4)) for key in range(0, 60, 7)
    ]
    store = build(
        request.param,
        [(older, (11, 12, 300)), (newer, (20,))],
        memtable=[document(500), document(501, a=[{"v": 3}], tags=["x"])],
        deletes=(5,),
    )
    yield store
    store.close()


def test_shapes_of_one_flush_scan_direct(one_flush):
    check(one_flush, QUERIES + SOME_ON_MISSING, overlay=0, shadowed=0)
    # Not vacuous: the lists, the checks and both kinds of quantifier select.
    rows = {row["id"]: row for row in one_flush.query(QUERIES[0])}
    assert rows[5]["vs"] == [1, 3] and rows[7]["vs"] == [None]
    assert rows[6]["vs"] == [] and rows[4]["vs"] == [] and rows[3]["vs"] is None
    (count,) = one_flush.query(QUERIES[3])
    assert 0 < count["n"] < 60
    found = {row["id"] for row in one_flush.query(SOME_ON_MISSING[0])}
    assert {6, 8, 10, 11} <= found and not {0, 4, 16} & found


def test_backfilled_column_reads_the_anchor(one_flush):
    # Records 0 and 1 have ``p`` arrays with elements but predate the
    # ``p[*].b.c`` column: their lists are empty, not MISSING.
    rows = {row["id"]: row for row in one_flush.query(QUERIES[1])}
    assert rows[0] == {"id": 0, "vs": [5, 6], "cs": []}
    assert rows[1] == {"id": 1, "vs": [], "cs": []}


def test_stacked_components_and_memtable_scan_direct(stacked):
    (partition,) = stacked.dataset("d").partitions
    assert len(partition.components) == 2
    groups = [group for component in partition.components for group in component.groups]
    assert sum(group.antimatter_count or 0 for group in groups) == 4
    check(stacked, QUERIES + SOME_ON_MISSING, overlay=2)
    (scan,) = _spans(stacked.last_trace.root, "DataScanNode")
    assert scan.attrs["shadowed_rows"] > 0


@pytest.mark.parametrize("layout", COLUMNAR)
def test_record_paths_beside_the_runs_still_decide_the_gate(layout):
    """The runs serve only what they can: an object at a tail, a second
    wildcard, the array consumed whole, or a quantifier that reads the record
    keep the reconciling scan — with the oracle's answers."""
    store = build(layout, [([document(key) for key in range(40)], ())])
    try:
        check(
            store,
            [
                "SELECT s.id AS id, s.a[*].b AS bs FROM d AS s;",
                "SELECT s.id AS id, s.p[*].deep AS ds FROM d AS s;",
                "SELECT s.id AS id, array_count(s.a) AS n FROM d AS s;",
            ],
            mode="reconciled",
            reason="schema",
        )
        check(
            store,
            ["SELECT COUNT(*) AS n FROM d AS s WHERE SOME x IN s.a SATISFIES x.v = s.k;"],
            mode="reconciled",
            reason="plan",
        )
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_array_under_an_array_first_seen_nested_falls_back(layout):
    # The array's first column sits under a second array: its runs are not
    # one entry per element, so nothing is served from them.
    documents = [document(1, p=[{"deep": [1], "v": 1}])] + [
        document(key) for key in range(2, 40)
    ]
    store = build(layout, [(documents, ())])
    try:
        check(store, QUERIES[1:2], mode="reconciled", reason="schema")
        check(store, QUERIES[:1] + QUERIES[2:4])
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_array_absent_from_a_component_reads_nothing(layout):
    documents = [{"id": key, "k": key % 3, "a": key} for key in range(20)]
    store = build(layout, [(documents, ())])
    try:
        check(store, QUERIES[:1] + QUERIES[3:4] + QUERIES[5:6] + SOME_ON_MISSING[:1])
        assert store.query(QUERIES[3]) == [{"n": 0}]
    finally:
        store.close()


def test_runs_require_every_use_of_the_array_to_be_served():
    def runs(query):
        return query.build_plan().source.pushdown.runs

    s = Var("s")
    from repro.query import Call, SomeSatisfies

    served = runs(
        Query("d", "s")
        .where(Call("is_array", Field(s, "a")))
        .where(SomeSatisfies(Field(s, "a"), "x", Field(Var("x"), "v") == 1))
        .select([("vs", Field(s, "a[*].b.c")), ("k", Field(s, "k"))])
    )
    assert [run.describe() for run in served] == ["a(is_array; [*].b.c; some $x: [v])"]
    rejected = [
        Query("d", "s").select([("a", Field(s, "a")), ("vs", Field(s, "a[*].v"))]),
        Query("d", "s").select([("n", Field(s, "a.v")), ("vs", Field(s, "a[*].v"))]),
        Query("d", "s").select([("vs", Field(s, "a[*].v[*].w"))]),
        Query("d", "s").unnest("r", "a").select([("vs", Field(s, "a[*].v"))]),
        Query("d", "s").where(
            SomeSatisfies(Field(s, "a"), "x", Field(Var("x"), "v") == Field(s, "k"))
        ).count(),
        Query("d", "s").where(
            SomeSatisfies(Field(s, "a"), "x", Field(Var("x"), "v[*].w") == 1)
        ).count(),
    ]
    for query in rejected:
        assert runs(query) == (), query.build_plan().describe()
