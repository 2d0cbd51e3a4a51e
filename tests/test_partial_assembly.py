"""Partial assembly of pruned paths is exact on heterogeneous documents.

The reconciling scan of a columnar component assembles only the columns that
:meth:`~repro.core.schema.Schema.columns_for_paths` names for the pruned path
set P (the interpreted executor with pushdown, and every columnar fallback of
the batch executor, read through it).  The property: for random documents and
random P, reading each path of P from the partially assembled document gives
what reading it from the whole document gives.

The documents vary one field's shape record by record — MISSING, null,
scalars, objects, arrays first seen empty, arrays mixing scalars, objects and
nested arrays — and are split over one or two flushes, so some columns are
inferred mid-flush and back-filled over the records before them.  Objects are
never empty: a field only ever holding ``{}`` owns no column, which no
assembly can rebuild.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.model import FieldPath, documents_equal
from repro.model.path import get_path
from repro.model.values import MISSING
from repro.query.pushdown import PushdownSpec
from repro.store import Datastore, StoreConfig

COLUMNAR = ("apax", "amax")
TOP = ("a", "p")
INNER = ("v", "w")

atomics = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(("x", "y"))
)
values = st.recursive(
    atomics,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(INNER), children, min_size=1, max_size=2),
    ),
    max_leaves=6,
)
documents = st.lists(
    st.dictionaries(st.sampled_from(TOP), values, max_size=2), min_size=1, max_size=8
)
paths = st.lists(
    st.tuples(
        st.sampled_from(TOP), st.lists(st.sampled_from(("[*]",) + INNER), max_size=3)
    ).map(lambda path: FieldPath((path[0], *path[1]))),
    min_size=1,
    max_size=3,
    unique=True,
)


def _same(left, right) -> bool:
    if left is MISSING or right is MISSING:
        return left is right
    return documents_equal(left, right)


@pytest.mark.parametrize("layout", COLUMNAR)
@given(docs=documents, requested=paths, split=st.integers(0, 8))
@example(  # an array first seen empty: its element type unions null with objects
    docs=[{"a": []}, {"a": [{"v": 1}]}], requested=[FieldPath.parse("a[*].v")], split=1
)
@example(  # scalar and object elements in one array
    docs=[{"a": [5]}, {"a": [{"v": 1}]}, {"a": [5, {"v": 2}]}],
    requested=[FieldPath.parse("a[*].v")],
    split=0,
)
@example(  # a column inferred mid-flush, back-filled over an array with elements
    docs=[{"a": [{"w": 1}]}, {"a": [{"v": 2}]}], requested=[FieldPath.parse("a[*].v")], split=0
)
@example(  # a nested array holds the object branch's first column
    docs=[{"a": [{"v": [None, False]}]}], requested=[FieldPath.parse("a.w")], split=0
)
@settings(max_examples=40, deadline=None)
def test_partial_assembly_reads_what_the_whole_document_holds(
    layout, docs, requested, split
):
    store = Datastore(StoreConfig(partitions_per_node=1))
    try:
        dataset = store.create_dataset("d", layout=layout)
        records = [{"id": key, **document} for key, document in enumerate(docs)]
        for batch in (records[:split], records[split:]):
            if batch:
                dataset.insert_many(batch)
                dataset.flush_all()
        fields = sorted({path.top_field for path in requested})
        spec = PushdownSpec(fields=fields, paths=list(requested))
        assembled = dict(dataset.scan(fields=fields, pushdown=spec))
        assert sorted(assembled) == [record["id"] for record in records]
        for record in records:
            for path in requested:
                got = get_path(assembled[record["id"]], path)
                expected = get_path(record, path)
                assert _same(got, expected), (str(path), record, assembled[record["id"]])
    finally:
        store.close()
