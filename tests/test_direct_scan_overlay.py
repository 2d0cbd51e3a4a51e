"""Newest-wins without a merge: what the direct scan costs and survives under writes.

The direct columnar scan reconciles by key membership — each component is
scanned under the *shadow* of every newer source (memtable winners, keys of
newer overlapping components) and the live memtable records leave as row
batches.  The reconciliation shapes themselves are pinned, one by one, in
``test_repeated_direct_scan.py``; here are the three things its ``build()``
cannot stage: the I/O a live memtable may not add (a memtable whose keys lie
outside the flushed spans costs no page; a key stream is decoded only for the
leaf groups a shadow key falls into, on either side), frozen memtables
awaiting a paused flush, and seeded random write interleavings.

The ``executor-matrix`` CI job runs this file with and without NumPy.
"""

from __future__ import annotations

import pytest

from conftest import seeded_rng
from repro.query.batch_executor import _Shadow, _groups_holding_keys

from test_repeated_direct_scan import COLUMNAR, _find_spans, build, check

#: Flat, grouped, projected and unnested statements over ``doc`` documents;
#: every aggregate is over integers, so accumulation order cannot show.
SUITE = (
    "SELECT COUNT(*) AS c FROM d AS s;",
    "SELECT COUNT(*) AS c, MAX(s.v) AS hi, MIN(s.v) AS lo, SUM(s.v) AS total "
    "FROM d AS s WHERE s.v >= 50;",
    "SELECT g AS g, COUNT(*) AS c, SUM(s.v) AS total FROM d AS s GROUP BY s.g AS g;",
    "SELECT s.id AS id, s.v AS v FROM d AS s WHERE s.v < 30;",
    "SELECT COUNT(*) AS c, MAX(r.temp) AS hi FROM d AS s UNNEST s.readings AS r;",
    "SELECT k AS k, COUNT(*) AS c, SUM(r.temp) AS total FROM d AS s "
    "WHERE s.v >= 20 UNNEST s.readings AS r GROUP BY r.kind AS k;",
)
COUNT, PASSING = SUITE[0], SUITE[1]  # PASSING pushes ``v >= 50``


def doc(key, v):
    """Never an empty array: one first seen empty would infer a null item
    (a ``schema`` fallback, whichever flush it leads)."""
    readings = [
        {"seq": index, "temp": (v + index) % 17, "kind": "ab"[(key + index) % 2]}
        for index in range(1 + key % 3)
    ]
    return {"id": key, "v": v, "g": key % 3, "readings": readings}


# ======================================================================================
# Frozen memtables
# ======================================================================================


@pytest.mark.parametrize("layout", COLUMNAR)
def test_frozen_memtables_under_a_live_one(layout):
    """Rotated memtables the (paused) pool has not flushed yet are in-memory
    sources like the mutable one: newest first among themselves, all of them
    newer than every component."""
    store = build(
        layout,
        [([doc(key, 10) for key in range(30)], ())],
        background_workers=1,
        max_frozen_memtables=8,
    )
    try:
        dataset = store.dataset("d")
        store.scheduler.pause()
        partition = dataset.partitions[0]
        dataset.insert(doc(1, 51))
        dataset.insert(doc(2, 52))
        dataset.delete(3)
        partition.request_flush()  # rotates; the flush itself stays queued
        dataset.insert(doc(2, 62))  # newer than the frozen 52
        dataset.delete(1)  # deletes the frozen 51
        dataset.insert(doc(3, 63))  # re-inserts over the frozen delete
        partition.request_flush()
        dataset.insert(doc(40, 70))
        dataset.insert(doc(2, 72))  # newest of three in-memory versions
        assert len(partition._frozen) == 2 and len(partition.memtable) == 2
        # Winners: 1 (deleted), 2 -> 72, 3 -> 63, 40 -> 70.  ``v >= 20``
        # ahead of SUITE[5]'s UNNEST passes all three live ones; ``v >= 50``
        # prunes the flushed group before any shadow is applied to it.
        check(store, SUITE, overlay=3, shadowed=None)
        check(store, [COUNT], overlay=3, shadowed=3)
        assert store.query(PASSING) == [
            {"c": 3, "hi": 72, "lo": 63, "total": 72 + 63 + 70}
        ]
        store.scheduler.resume()
        store.drain_background()
        check(store, SUITE, overlay=None, shadowed=None)
        assert store.query(COUNT) == [{"c": 30}]
    finally:
        store.scheduler.resume()
        store.close()


# ======================================================================================
# I/O: what a live memtable, and an overlapping component, may and may not add
# ======================================================================================


def test_shadow_spans_and_group_placement():
    class Group:
        def __init__(self, low, high, records=4):
            self.min_key, self.max_key, self.record_count = low, high, records
            self.reads = 0

        def read_keys(self):
            self.reads += 1
            return list(range(self.min_key, self.max_key + 1, 3)), None

    winners = {10: None, 15: None, 20: None}
    shadow = _Shadow(10, 20, keys=winners)
    for low, high in ((0, 10), (20, 30), (12, 13), ("a", "z")):  # cross-type: yes
        assert shadow.keys_within(low, high) is winners
    assert shadow.keys_within(0, 9) is None and shadow.keys_within(21, 30) is None
    mixed = {1: None, "a": None}
    assert _Shadow(None, None, keys=mixed).keys_within(0, 5) is mixed

    groups = [Group(0, 9), Group(10, 19), Group(None, None, records=0), Group(30, 39)]
    # A component's shadow reads the groups that reach into the span, once.
    component = _Shadow(0, 39, groups=groups)
    assert component.keys_within(40, 50) is None
    assert component.keys_within(20, 29) is None  # the gap between two groups
    assert component.keys_within(12, 31) == {10, 13, 16, 19, 30, 33, 36, 39}
    assert component.keys_within(15, 35) is component.keys_within(11, 30)
    assert [group.reads for group in groups] == [0, 1, 0, 1]
    assert component.keys_within("a", "b") == set(range(0, 10, 3)) | set(
        range(10, 20, 3)
    ) | set(range(30, 40, 3))

    assert _groups_holding_keys(groups, [winners]) == {1}  # 20 falls in the gap
    assert _groups_holding_keys(groups, [{5, 35, 99}]) == {0, 3}
    assert _groups_holding_keys(groups, [{-5, -1}]) == set()
    # Equal keys of other types land where their int twin would...
    assert _groups_holding_keys(groups, [{True, 12.0}]) == {0, 1}
    # ...and keys with no order against the groups' select every group.
    assert _groups_holding_keys(groups, [{"a"}]) == {0, 1, 3}


def _touches(store, text):
    before = store.io_snapshot()
    rows = store.query(text, executor="batch")
    delta = store.io_snapshot().delta_since(before)
    return rows, delta.pages_read + delta.cache_hits


def _spy_on_reads(monkeypatch, components):
    """Record ``(group, columns)`` of every ``read_columns`` on the groups."""
    decoded = []
    for cls in {type(group) for component in components for group in component.groups}:
        original = cls.read_columns

        def spy(group, columns, original=original):
            columns = list(columns)
            decoded.append((group, columns))
            return original(group, columns)

        monkeypatch.setattr(cls, "read_columns", spy)
    return decoded


# Small pages / leaves: several groups per component.
_SMALL_GROUPS = dict(page_size=4096, amax_max_records_per_leaf=64)


@pytest.mark.parametrize("layout", COLUMNAR)
def test_count_reads_no_page_beside_a_memtable_outside_the_flushed_spans(
    layout, monkeypatch
):
    store = build(layout, [([doc(key, key) for key in range(400)], ())], **_SMALL_GROUPS)
    try:
        dataset = store.dataset("d")
        (component,) = dataset.partitions[0].components
        assert len(component.groups) >= 3
        assert _touches(store, COUNT) == ([{"c": 400}], 0)
        # The writer continues the key space, as mixed_serving's does.
        dataset.insert_many(doc(key, key) for key in range(400, 460))
        assert _touches(store, COUNT) == ([{"c": 460}], 0)
        check(store, [COUNT], overlay=60, shadowed=0)

        # One upsert inside the flushed span: the key stream of the one group
        # holding that key is all the scan adds.
        target = component.groups[1]
        dataset.insert(doc(target.min_key, 1))
        decoded = _spy_on_reads(monkeypatch, [component])
        rows, touches = _touches(store, COUNT)
        assert rows == [{"c": 460}] and touches > 0
        assert [group for group, _ in decoded] == [target]
        assert all(column.is_primary_key for column in decoded[0][1])
        monkeypatch.undo()
        check(store, [COUNT], overlay=61, shadowed=1)
    finally:
        store.close()


@pytest.mark.parametrize("layout", COLUMNAR)
def test_one_overlapping_key_reads_one_group_of_keys_on_either_side(
    layout, monkeypatch
):
    """Two many-group components joined by a single upsert: the newer one has
    the key stream of its one group that reaches into the older one's span
    read for the shadow, the older one that of the one group the key is in."""
    older = [doc(key, key) for key in range(200, 600)]
    newer = [doc(key, key) for key in range(599, 1000)]  # 599: the one upsert
    store = build(layout, [(older, ()), (newer, ())], **_SMALL_GROUPS)
    try:
        newest, oldest = store.dataset("d").partitions[0].components
        assert len(newest.groups) >= 3 and len(oldest.groups) >= 3
        decoded = _spy_on_reads(monkeypatch, [newest, oldest])
        assert store.query(COUNT, executor="batch") == [{"c": 800}]
        assert [group for group, _ in decoded] == [newest.groups[0], oldest.groups[-1]]
        assert all(column.is_primary_key for _, columns in decoded for column in columns)
        monkeypatch.undo()
        check(store, SUITE, shadowed=None)
        check(store, [COUNT], shadowed=1)
    finally:
        store.close()


# ======================================================================================
# Random interleavings
# ======================================================================================


@pytest.mark.parametrize("layout", COLUMNAR)
def test_random_write_interleavings_agree_with_the_oracle(layout):
    """Seeded insert / upsert / delete / flush interleavings, never
    checkpointed: after every few operations the whole suite must agree, on
    the direct scan, whatever overlaps the flushes and merges have left."""
    rng = seeded_rng(0x0511AD, salt=COLUMNAR.index(layout) + 1)
    for round_index in range(6):
        store = build(
            layout,
            [],
            partitions_per_node=rng.choice((1, 2)),
            max_tolerable_components=rng.choice((3, 5, 50)),
            page_size=4096,
            amax_max_records_per_leaf=rng.choice((8, 64)),
        )
        try:
            dataset = store.dataset("d")
            key_space = rng.choice((12, 60, 300))
            for step in range(rng.randrange(60, 140)):
                roll = rng.random()
                key = rng.randrange(key_space)
                if roll < 0.62:
                    dataset.insert(doc(key, rng.randrange(100)))
                elif roll < 0.8:
                    dataset.delete(key)
                elif roll < 0.92:
                    dataset.flush_all()
                else:
                    dataset.insert_many(
                        doc(key + offset, rng.randrange(100))
                        for offset in range(rng.randrange(1, 25))
                    )
                if step % 9 == 0:
                    check(store, SUITE, overlay=None, shadowed=None)
            check(store, SUITE, overlay=None, shadowed=None)
        finally:
            store.close()
