"""Assembly-free scans of repeated paths: the direct scan performs the UNNEST.

Differential tests against the interpreted oracle, on both columnar layouts
under the batch executor, over hand-built datasets that pin down each shape
the repeated direct scan must either serve exactly or hand to the reconciling
scan: missing / empty / null arrays, elements missing a field, null and scalar
elements, nested arrays, a column inferred mid-flush (back-filled), anti-matter
inside a leaf group, disjoint and overlapping components, live memtables and
pushed parent predicates.  Every case also asserts *which* scan ran, through
the ``DataScanNode`` span's ``scan_mode`` / ``fallback_reason`` (and, for the
direct scan, its ``overlay_rows`` / ``shadowed_rows``): the reconciliation
shapes the direct scan decides in place — upserts and deletes of flushed keys,
delete → re-insert, a failing newer version, a pruned group that still
shadows, cross-type keys — are pinned here too.  What a live memtable may cost
in I/O, frozen memtables and random write interleavings are in
``test_direct_scan_overlay.py``.

The last section checks the point of the exercise on the Figure 14 data: the
sensors queries, ``wos_q2`` — and, served from element runs
(``tests/test_element_runs.py``), ``wos_q3``, ``wos_q4`` and ``tweet1_q3`` —
assemble nothing and read only the columns they name.
"""

from __future__ import annotations

import pytest

from repro.bench.queries import FIGURE11_SQLPP, SQLPP_QUERY_SUITES
from repro.core.schema import field_name_steps
from repro.datasets import make_generator
from repro.query import Field, Query, Var
from repro.store import Datastore, StoreConfig

COLUMNAR = ("apax", "amax")
FAST = ("batch",)

#: The query shapes in scope, over ``d`` with ``readings`` / ``games`` arrays.
QUERIES = (
    "SELECT COUNT(*) AS c FROM d AS s UNNEST s.readings AS r;",
    "SELECT MAX(r.temp) AS hi, MIN(r.temp) AS lo, COUNT(*) AS c "
    "FROM d AS s UNNEST s.readings AS r;",
    "SELECT sid AS sid, MAX(r.temp) AS hi, COUNT(*) AS c FROM d AS s "
    "UNNEST s.readings AS r GROUP BY s.sensor_id AS sid;",
    "SELECT s.sensor_id AS sid, r.seq AS seq, r.temp AS temp, r.loc.lat AS lat "
    "FROM d AS s UNNEST s.readings AS r WHERE r.temp > 3;",
    "SELECT k AS k, COUNT(*) AS c, SUM(r.seq) AS q FROM d AS s "
    "UNNEST s.readings AS r WHERE r.seq >= 1 GROUP BY r.kind AS k;",
    "SELECT sid AS sid, MAX(r.temp) AS hi FROM d AS s "
    "WHERE s.report_time > 2 AND s.report_time < 9 "
    "UNNEST s.readings AS r GROUP BY s.sensor_id AS sid;",
    "SELECT g AS g, COUNT(*) AS cnt FROM d AS s UNNEST s.games AS g GROUP BY g;",
    "SELECT s.sensor_id AS sid, g AS g FROM d AS s UNNEST s.games AS g "
    "WHERE s.report_time >= 4;",
)


def reading(seq, temp=None, **extra):
    """One array element; fields passed as None are left out (MISSING)."""
    element = {"seq": seq, "temp": temp, **extra}
    return {name: value for name, value in element.items() if value is not None}


def sensor(key, readings="absent", games="absent", **extra):
    document = {"id": key, "sensor_id": key % 4, "report_time": key % 11}
    if readings != "absent":
        document["readings"] = readings
    if games != "absent":
        document["games"] = games
    document.update(extra)
    return document


def plain_batch(start, stop):
    """Homogeneous documents: every shape the direct scan serves itself."""
    documents = []
    for key in range(start, stop):
        readings = [
            reading(
                index,
                temp=(key * 7 + index) % 23 if (key + index) % 5 else None,
                kind="ab"[index % 2] if index % 3 else None,
                loc={"lat": key + index / 10} if index % 2 else {},
            )
            for index in range(key % 4)
        ]
        games = [f"game{(key + index) % 5}" for index in range(key % 3)]
        if key % 7 == 0:
            documents.append(sensor(key))  # both arrays MISSING
        elif key % 7 == 1:
            documents.append(sensor(key, readings=[], games=[]))
        else:
            documents.append(sensor(key, readings=readings, games=games))
    # The first record fixes the element types: a non-empty array of objects
    # and a non-empty array of strings (an array first seen empty infers a
    # null item, which later unions with the real element type).
    documents[0] = sensor(
        start,
        readings=[reading(0, temp=5, kind="a", loc={"lat": 1.5})],
        games=["game0"],
    )
    return documents


def build(layout, flushes, memtable=(), deletes=(), **config):
    store = Datastore(StoreConfig(**{"partitions_per_node": 1, **config}))
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


def _find_spans(node, name, out=None):
    out = out if out is not None else []
    if node.name == name:
        out.append(node)
    for child in node.children:
        _find_spans(child, name, out)
    return out


def _canonical(rows):
    return sorted(repr(row) for row in rows)


def check(
    store, queries=QUERIES, mode="direct", reason=None, overlay=0, shadowed=0,
    filtered=(),
):
    """Every query agrees with the oracle on the fast executor, having taken
    the expected scan.  ``overlay`` / ``shadowed`` are the direct scan's
    expected row counters (None: whatever they come to); ``filtered`` names
    the queries whose parent predicates drop every overlay row before the
    UNNEST operator sees it."""
    for text in queries:
        oracle = _canonical(store.query(text, executor="interpreted"))
        for executor in FAST:
            got = _canonical(store.query(text, executor=executor))
            assert got == oracle, (executor, text)
            (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
            assert scan.attrs["scan_mode"] == mode, (executor, text, scan.attrs)
            assert scan.attrs.get("fallback_reason") == reason, (executor, text)
            for name, rows in (("overlay_rows", overlay), ("shadowed_rows", shadowed)):
                if mode == "direct" and rows is not None:
                    assert scan.attrs[name] == rows, (text, scan.attrs)
            if "UNNEST" not in text:
                continue
            # Exactly one UNNEST span either way: a marker when the scan did
            # all of the work, the operator itself when rows went through it
            # (the reconciled scan's, or a direct scan's memtable overlay).
            (unnest,) = _find_spans(store.last_trace.root, "UnnestNode")
            if overlay is not None:
                marker = mode == "direct" and (not overlay or text in filtered)
                assert unnest.attrs.get("pushed", False) is marker, (executor, text)


# ======================================================================================
# Shapes the direct scan serves
# ======================================================================================


@pytest.mark.parametrize("layout", COLUMNAR)
def test_missing_empty_and_partial_elements_scan_direct(layout):
    store = build(layout, [(plain_batch(0, 60), ())])
    try:
        check(store)
        # Not vacuous: the corpus has elements, gaps and empty arrays.
        (row,) = store.query(QUERIES[1], executor="batch")
        assert row["c"] > 50 and row["hi"] == 22
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_two_disjoint_components_scan_direct(layout):
    store = build(
        layout, [(plain_batch(100, 160), ()), (plain_batch(0, 60), ())]
    )
    try:
        check(store)
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_antimatter_inside_a_group_scans_direct(layout):
    # Deleting from the memtable flushes anti-matter entries into the same
    # leaf group as live records; key 75 never existed anywhere.
    store = build(layout, [(plain_batch(0, 40), ()), (plain_batch(50, 70), (53, 60, 75))])
    try:
        groups = [
            group
            for partition in store.dataset("d").partitions
            for component in partition.components
            for group in component.groups
        ]
        assert sum(group.antimatter_count or 0 for group in groups) == 3
        check(store)
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_column_inferred_mid_flush_is_backfilled_not_miscounted(layout):
    # ``temp`` (and ``kind``) first appear in the third record of the flush:
    # their columns read "no array" for the first two, whose arrays do have
    # elements.  Counting elements off such a column would drop those rows.
    documents = [
        sensor(0, readings=[reading(0), reading(1)], games=["game0"]),
        sensor(1, readings=[reading(0)]),
        sensor(2, readings=[reading(0, temp=9, kind="a"), reading(1, temp=4)]),
        sensor(3),
        sensor(4, readings=[reading(0, temp=1)]),
    ]
    store = build(layout, [(documents, ())])
    try:
        check(store)
        (row,) = store.query(QUERIES[1], executor="batch")
        assert row == {"hi": 9, "lo": 1, "c": 6}
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_pushed_parent_predicate_selects_a_subset(layout):
    store = build(layout, [(plain_batch(0, 80), ())])
    try:
        text = QUERIES[5]
        plan = store.explain(text)
        assert "predicates=[report_time > 2, report_time < 9]" in plan
        assert "unnest=$r<-readings; elements=[readings[*].temp]" in plan
        check(store, [text])
        everything = store.query(
            "SELECT COUNT(*) AS c FROM d AS s UNNEST s.readings AS r;"
        )[0]["c"]
        subset = store.query(
            "SELECT COUNT(*) AS c FROM d AS s WHERE s.report_time > 2 "
            "AND s.report_time < 9 UNNEST s.readings AS r;"
        )[0]["c"]
        assert 0 < subset < everything
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_array_absent_from_a_component_yields_no_rows(layout):
    documents = [{"id": key, "sensor_id": key % 4, "report_time": key} for key in range(20)]
    store = build(layout, [(documents, ())])
    try:
        check(store)
        assert store.query(QUERIES[0], executor="batch") == [{"c": 0}]
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_figure11_array_of_scalars(layout):
    store = Datastore(StoreConfig(partitions_per_node=2))
    try:
        gamers = store.create_dataset("gamers", layout=layout)
        gamers.insert_many(
            {"id": key, "games": [f"g{(key * index) % 7}" for index in range(1, key % 5 + 1)]}
            for key in range(1, 90)
        )
        gamers.flush_all()
        text = FIGURE11_SQLPP.format(dataset="gamers")
        oracle = store.query(text, executor="interpreted")
        for executor in FAST:
            got = store.query(text, executor=executor)
            assert [row["cnt"] for row in got] == [row["cnt"] for row in oracle]
            (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
            assert scan.attrs["scan_mode"] == "direct"
    finally:
        store.close()


# ======================================================================================
# Heterogeneous arrays, shapes that must fall back — and still agree — and
# shapes reconciled in place
# ======================================================================================

SCHEMA_FALLBACKS = {
    "null array": [sensor(90, readings=None, games=None)],
    "null element": [sensor(90, readings=[reading(0, temp=2), None], games=["game1", None])],
    "scalar or array": [sensor(90, readings=7, games="game3")],
    "scalar element": [sensor(90, readings=[reading(0, temp=2), 11], games=["game1", 4])],
    "nested array": [
        sensor(90, readings=[reading(0, temp=2, tags=[1, 2])], games=[["game1"], ["game2"]])
    ],
    "array first seen empty": None,  # built below: the empty record leads
}

#: The UNNESTs of ``games``, whose element is read as a value (``g``).
GAMES_QUERIES = QUERIES[6:]


@pytest.mark.parametrize("shape", sorted(SCHEMA_FALLBACKS))
@pytest.mark.parametrize("layout", COLUMNAR)
def test_heterogeneous_arrays_fall_back_on_schema(layout, shape):
    """Unions at, above and under the unnested array scan direct: the array's
    shape columns tell empty arrays from elements of another branch.  Only an
    element read as a non-atomic value — the nested ``games`` arrays — still
    needs assembly, and falls back on ``schema``."""
    extra = SCHEMA_FALLBACKS[shape]
    if extra is None:
        documents = [sensor(-1, readings=[], games=[])] + plain_batch(0, 40)
    else:
        documents = plain_batch(0, 40) + extra
    store = build(layout, [(documents, ())])
    try:
        if shape == "nested array":
            check(store, QUERIES[:6])
            check(store, GAMES_QUERIES, mode="reconciled", reason="schema")
        else:
            check(store)
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_overlapping_components_are_shadowed(layout):
    # The second flush rewrites three keys of the first and deletes a fourth:
    # newest-wins is decided by the older component dropping the four keys
    # the newer one holds.
    updates = [sensor(key, readings=[reading(0, temp=40 + key)]) for key in (3, 9, 20)]
    store = build(layout, [(plain_batch(0, 40), ()), (updates, (5,))])
    try:
        check(store, shadowed=4)
    finally:
        store.close()


@pytest.mark.parametrize("key", (200, 202))
@pytest.mark.parametrize("layout", COLUMNAR)
def test_live_memtable_is_overlaid(layout, key):
    # One new key is overlaid as a row batch, one anti-matter entry shadows
    # flushed key 4.  202 % 11 == 4 passes every parent predicate of QUERIES,
    # so the UNNEST operator always sees the overlay; 200 % 11 == 2 fails the
    # ``report_time > 2`` that QUERIES[5] applies ahead of its UNNEST, whose
    # span therefore stays the pushed marker: nothing reached the operator.
    store = build(
        layout,
        [(plain_batch(0, 40), ())],
        memtable=[sensor(key, readings=[reading(0, temp=22)], games=["game9"])],
        deletes=(4,),
    )
    try:
        filtered = (QUERIES[5],) if key == 200 else ()
        check(store, overlay=1, shadowed=1, filtered=filtered)
        # Where rows did go through the operator, the span is its own: the
        # already-unnested component rows pass through it and are counted.
        (count,) = store.query(QUERIES[0])
        (unnest,) = _find_spans(store.last_trace.root, "UnnestNode")
        assert "pushed" not in unnest.attrs
        assert unnest.attrs["rows_out"] == count["c"]
    finally:
        store.close()


def _fresh(key, temp, **extra):
    """A newer version of ``key``; 106 % 11 == 7 passes every parent predicate."""
    return sensor(key, readings=[reading(0, temp=temp)], games=["game9"], **extra)


#: Keys 50..52 (report_time 6..8) pass QUERIES[5]'s pushed ``report_time > 2
#: AND report_time < 9`` with temperatures no other record reaches: an older
#: version that resurfaced would show in every MAX.
PASSING = [_fresh(key, 900 + key) for key in (50, 51, 52)]

#: shape → (flushes, memtable, memtable deletes, overlay_rows, shadowed_rows):
#: what the old "nothing to reconcile" gates used to hide.  Anti-matter
#: records are dropped by their own flag, never counted as shadowed.
IN_PLACE = {
    "memtable upsert and delete of flushed keys": (
        [(plain_batch(0, 40), ())],
        [_fresh(7, 99), _fresh(106, 60)],
        (8, 777),  # 777 never existed: shadows nothing
        2,
        2,
    ),
    "delete then re-insert across three components": (
        [
            (plain_batch(0, 20), ()),
            ([_fresh(6, 70)], (5,)),
            ([_fresh(5, 80)], ()),  # back again, two components above the first
        ],
        (),
        (),
        0,
        2,  # the oldest 5 (hidden twice over, counted once) and the oldest 6
    ),
    "and deleted again from the memtable": (
        [(plain_batch(0, 20), ()), ([_fresh(6, 70)], (5,)), ([_fresh(5, 80)], ())],
        (),
        (5,),
        0,
        3,
    ),
    # The newer version of 50 fails the pushed predicate its flushed version
    # passes: that one must stay hidden all the same.
    "failing newer version in the memtable": (
        [(plain_batch(0, 40) + PASSING, ())],
        [_fresh(50, 30, report_time=20), _fresh(106, 60)],
        (),
        2,
        1,
    ),
    "failing newer version in a newer component": (
        [
            (plain_batch(0, 40) + PASSING, ()),
            ([_fresh(50, 30, report_time=20), _fresh(106, 60)], ()),
        ],
        (),
        (),
        0,
        1,
    ),
    "anti-matter-only component": (
        [(plain_batch(0, 20), ()), ([], (3, 4, 99))],
        (),
        (),
        0,
        2,
    ),
}


@pytest.mark.parametrize("shape", sorted(IN_PLACE))
@pytest.mark.parametrize("layout", COLUMNAR)
def test_newest_wins_is_decided_in_place(layout, shape):
    flushes, memtable, deletes, overlay, shadowed = IN_PLACE[shape]
    store = build(layout, flushes, memtable=memtable, deletes=deletes)
    try:
        (partition,) = store.dataset("d").partitions
        assert len(partition.components) == len(flushes)
        check(store, overlay=overlay, shadowed=shadowed)
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_group_pruned_by_min_max_still_shadows_the_older_component(
    layout, monkeypatch
):
    # Every record of the newer component fails ``report_time < 9``.
    updates = [_fresh(key, 1, report_time=20) for key in (50, 51, 52)]
    store = build(layout, [(plain_batch(0, 40) + PASSING, ()), (updates, ())])
    try:
        newest, oldest = store.dataset("d").partitions[0].components
        decoded = []
        for cls in {type(group) for group in newest.groups}:
            original = cls.read_columns

            def spy(group, columns, original=original):
                columns = list(columns)
                decoded.append((group, [column.is_primary_key for column in columns]))
                return original(group, columns)

            monkeypatch.setattr(cls, "read_columns", spy)
        rows = store.query(QUERIES[5], executor="batch")
        assert max(row["hi"] for row in rows) < 900
        # Min/max pruning skips the newer component's groups — the scan decodes
        # no value column of them — yet their keys (read keys-only, for the
        # shadow) hide 50, 51 and 52 below.
        of_newest = [flags for group, flags in decoded if group in newest.groups]
        assert of_newest and all(flags == [True] for flags in of_newest)
        assert any(
            not all(flags) for group, flags in decoded if group in oldest.groups
        )
        monkeypatch.undo()
        check(store, shadowed=3)
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_equal_keys_of_other_types_shadow_like_the_memtable_conflates_them(layout):
    """1 / 1.0 / True are one dict key — in the memtable and in the shadow."""
    store = build(layout, [(plain_batch(0, 5), ())])
    partition = store.dataset("d").partitions[0]
    try:
        # The routed insert path only admits int and str keys; a float or
        # bool key can only reach a memtable directly.
        memtable = partition.memtable
        memtable.put(1.0, {**_fresh(1, 77, report_time=5), "id": 1.0})
        memtable.put(True, {**_fresh(1, 88, report_time=5), "id": True})  # over 1.0
        memtable.delete(2.0)
        check(store, overlay=1, shadowed=2)
        (row,) = store.query(QUERIES[1])
        assert row["hi"] == 88
    finally:
        # Such keys cannot be flushed (a durable store's close would try).
        partition.memtable = type(partition.memtable)(partition.memtable.budget_bytes)
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_incomparable_key_spans_count_as_intersecting(layout):
    """String keys over an integer-keyed component: no order between the
    spans, so the shadow is simply consulted.  (The oracle's heap merge cannot
    order such keys at all — the expected answer is spelled out.)"""
    store = build(
        layout,
        [([_fresh(key, 10 + key) for key in range(5)], ())],
        memtable=[{**_fresh(0, 60), "id": "a"}, {**_fresh(1, 70), "id": "b"}],
    )
    try:
        with pytest.raises(TypeError):
            store.query(QUERIES[1], executor="interpreted")
        assert store.query(QUERIES[1], executor="batch") == [
            {"hi": 70, "lo": 10, "c": 7}
        ]
        (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
        assert scan.attrs["scan_mode"] == "direct"
        assert (scan.attrs["overlay_rows"], scan.attrs["shadowed_rows"]) == (2, 0)
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_partitions_choose_independently(layout):
    """One partition with a live memtable runs the UNNEST operator on its
    overlay batch while every component batch arrives already unnested."""
    from repro.query.batch_executor import source_batches
    from repro.sqlpp import compile_query

    store = Datastore(StoreConfig(partitions_per_node=2))
    try:
        dataset = store.create_dataset("d", layout=layout)
        dataset.insert_many(plain_batch(0, 80))
        dataset.flush_all()
        dataset.insert(sensor(500, readings=[reading(0, temp=21)], games=["game7"]))
        live = [len(partition.memtable) > 0 for partition in dataset.partitions]
        assert sorted(live) == [False, True]
        plan = compile_query(QUERIES[2]).query.optimized_plan(store)
        shapes = {
            (batch.unnested, bool(batch.paths))
            for batch in source_batches(store, plan)
        }
        assert shapes == {(True, True), (False, False)}
        check(store, overlay=1)
    finally:
        store.close()


@pytest.mark.parametrize("layout", ("open", "vector"))
def test_row_layouts_never_scan_direct(layout):
    store = build(layout, [(plain_batch(0, 40), ())])
    try:
        check(store, mode="reconciled", reason="layout")
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_plans_that_need_the_array_itself_keep_their_unnest(layout):
    """No binding (the array is also consumed whole) → the UNNEST stays a
    pipeline operator and the scan falls back on the array-valued path."""
    store = build(layout, [(plain_batch(0, 40), ())])
    try:
        text = (
            "SELECT COUNT(*) AS c FROM d AS s "
            "WHERE array_count(s.readings) > 1 UNNEST s.readings AS r;"
        )
        assert "unnest=" not in store.explain(text)
        oracle = store.query(text, executor="interpreted")
        for executor in FAST:
            assert store.query(text, executor=executor) == oracle
            (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
            assert scan.attrs["scan_mode"] == "reconciled"
            assert scan.attrs["fallback_reason"] == "schema"
            (unnest,) = _find_spans(store.last_trace.root, "UnnestNode")
            assert "pushed" not in unnest.attrs
        # A quantifier over another array is decided from that array's
        # element runs, beside the UNNEST the scan performs.
        text = (
            "SELECT COUNT(*) AS c FROM d AS s UNNEST s.readings AS r "
            'WHERE SOME g IN s.games SATISFIES g = "game1";'
        )
        assert "unnest=$r<-readings" in store.explain(text)
        assert "runs=[games(some $g: [*])]" in store.explain(text)
        oracle = store.query(text, executor="interpreted")
        for executor in FAST:
            assert store.query(text, executor=executor) == oracle
            (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
            assert scan.attrs["scan_mode"] == "direct"
            (unnest,) = _find_spans(store.last_trace.root, "UnnestNode")
            assert unnest.attrs.get("pushed") is True
        # An expression the direct path cannot evaluate — a quantifier whose
        # body reads the record too — keeps the whole plan (and its UNNEST,
        # binding or not) on the reconciling scan.
        text = (
            "SELECT COUNT(*) AS c FROM d AS s UNNEST s.readings AS r "
            "WHERE SOME g IN s.games SATISFIES s.sensor_id = 1;"
        )
        assert "unnest=$r<-readings" in store.explain(text)
        assert "runs=" not in store.explain(text)
        oracle = store.query(text, executor="interpreted")
        for executor in FAST:
            assert store.query(text, executor=executor) == oracle
            (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
            assert scan.attrs["fallback_reason"] == "plan"
            (unnest,) = _find_spans(store.last_trace.root, "UnnestNode")
            assert "pushed" not in unnest.attrs
    finally:
        store.close()


def test_binding_requires_the_array_to_be_unnest_only():
    def binding(query):
        return query.build_plan().source.pushdown.unnest

    s, r = Var("s"), Var("r")
    plain = Query("d", "s").unnest("r", "readings")
    assert binding(plain.count()).elements == ()
    named = binding(
        Query("d", "s").unnest("r", "readings").aggregate([("m", "max", Field(r, "temp"))])
    )
    assert (named.variable, str(named.array)) == ("r", "readings")
    assert [str(named.element_path(e)) for e in named.elements] == ["readings[*].temp"]
    bare = binding(Query("d", "s").unnest("r", "readings").select([("r", r)]))
    assert [str(bare.element_path(e)) for e in bare.elements] == ["readings[*]"]
    rejected = [
        # the array is read again, whole or through a wildcard
        Query("d", "s").unnest("r", "readings").select([("n", Field(s, "readings"))]),
        Query("d", "s").unnest("r", "readings").select([("n", Field(s, "readings[*].temp"))]),
        # a second UNNEST, a rebound or early-read unnest variable
        Query("d", "s").unnest("r", "readings").unnest("g", "games").count(),
        Query("d", "s").unnest("r", "readings").assign("r", Field(s, "sensor_id")).count(),
        Query("d", "s").where(Field(r, "temp") > 1).unnest("r", "readings").count(),
        # not an array-free path of the scan variable
        Query("d", "s").unnest("r", "readings[*].tags").count(),
        Query("d", "s").assign("a", Field(s, "readings")).unnest("r", Var("a")).count(),
        # an element path that crosses a further array
        Query("d", "s").unnest("r", "readings").select([("t", Field(r, "tags[*].x"))]),
    ]
    for query in rejected:
        assert binding(query) is None, query.build_plan().describe()


# ======================================================================================
# No assembly, and only the named columns, on the Figure 14 data
# ======================================================================================


@pytest.fixture(scope="module")
def figure14_store():
    # Small pages, so that every column of a mega leaf owns pages of its own
    # and the device counters can tell a pruned read from a whole-subtree one.
    store = Datastore(
        StoreConfig(partitions_per_node=1, page_size=4096, memory_component_budget=4 << 20)
    )
    for name, count in (("sensors", 1500), ("wos", 400), ("tweet_1", 400)):
        dataset = store.create_dataset(name, layout="amax")
        dataset.insert_many(make_generator(name, count, seed=3).documents())
        dataset.flush_all()
    yield store
    store.close()


_WOS_SUBJECT = "static_data.fullrecord_metadata.category_info.subjects.subject"
_WOS_ADDRESS = "static_data.fullrecord_metadata.addresses.address_name"

#: query → the dotted column paths it names (array steps dropped).
NAMED_COLUMNS = {
    "sensors_q1": {"readings.seq"},  # cardinality only: the array's first column
    "sensors_q2": {"readings.temp"},
    "sensors_q3": {"sensor_id", "readings.temp"},
    "sensors_q4": {"sensor_id", "report_time", "readings.temp"},
    "wos_q2": {f"{_WOS_SUBJECT}.ascatype", f"{_WOS_SUBJECT}.value"},
    # is_array and the country lists, off the array branch of the union.
    "wos_q3": {f"{_WOS_ADDRESS}.address_spec.country"},
    "wos_q4": {f"{_WOS_ADDRESS}.address_spec.country"},
    "tweet1_q3": {"user.name", "entities.hashtags.text"},
}

#: query prefix → (dataset, the array its columns are pruned from, LIMIT key).
_FIGURE14 = {
    "sensors": ("sensors", "readings", "max_temp"),
    "wos_q2": ("wos", _WOS_SUBJECT, "cnt"),
    "wos": ("wos", _WOS_ADDRESS, "cnt"),
    "tweet1": ("tweet_1", "entities.hashtags", "c"),
}


def _page_touches(store, text, executor):
    before = store.io_snapshot()
    rows = store.query(text, executor=executor)
    delta = store.io_snapshot().delta_since(before)
    return rows, delta.pages_read + delta.cache_hits


@pytest.mark.parametrize("executor", FAST)
@pytest.mark.parametrize("name", sorted(NAMED_COLUMNS))
def test_figure14_unnests_assemble_nothing_and_read_only_named_columns(
    figure14_store, monkeypatch, name, executor
):
    from repro.columnar import amax, base
    from repro.core import assembly

    store = figure14_store
    dataset, array, key = _FIGURE14.get(name) or _FIGURE14[name.split("_")[0]]
    text = SQLPP_QUERY_SUITES[dataset][name].format(dataset=dataset)
    # The oracle assembles the whole array subtree through the reconciling scan.
    oracle, reconciled_touches = _page_touches(store, text, "interpreted")

    assembled = []
    monkeypatch.setattr(
        base, "assemble_document", lambda *a, **k: assembled.append("document")
    )
    monkeypatch.setattr(
        assembly.RecordAssembler,
        "__init__",
        lambda *a, **k: assembled.append("assembler"),
    )
    read = []
    original = amax.AmaxGroup.read_columns

    def spy(group, columns):
        columns = list(columns)
        read.append((group, columns))
        return original(group, columns)

    monkeypatch.setattr(amax.AmaxGroup, "read_columns", spy)
    got, direct_touches = _page_touches(store, text, executor)

    assert assembled == []
    if "LIMIT" in text:  # ties at the cut are order-free; compare the sort key
        assert [row[key] for row in got] == [row[key] for row in oracle]
    else:
        assert got == oracle
    paths = {
        ".".join(field_name_steps(column.path))
        for _, columns in read
        for column in columns
        if not column.is_primary_key
    }
    assert paths == NAMED_COLUMNS[name]
    # The device agrees: fewer page touches than assembling the subtree, and
    # the columns read own fewer pages than the array's columns together.
    assert 0 < direct_touches < reconciled_touches
    for group, columns in read:
        subtree = [
            column
            for column in group.component.schema.columns
            if ".".join(field_name_steps(column.path)).startswith(array + ".")
        ]
        unnamed = [column for column in subtree if column not in columns]
        pruned = group.pages_for_columns(columns)
        whole = group.pages_for_columns(subtree + columns)
        assert pruned < whole if unnamed else pruned == whole
