"""Text-built vs builder-built plans must return identical rows everywhere.

Extends the oracle pattern of ``test_layout_differential``: the same seeded
heterogeneous corpus (unions, missing fields, arrays of objects, updates and
deletes) is ingested under all four layouts, and for every query that exists
both as a fluent-builder construction and as SQL++ text, the two must return
byte-identical rows on every layout, with and without pushdown.

The Figure 11 acceptance case lives here too: the paper's query, written
verbatim as SQL++, must produce the same rows *and* the same optimizer-chosen
plan (full ``explain`` equality) as the builder construction on all layouts.
"""

from __future__ import annotations

import json

import pytest

from repro import Datastore, StoreConfig
from repro.bench.queries import FIGURE11_SQLPP, figure11_query
from repro.query import Call, Field, Or, Query, Var
from repro.sqlpp import compile_query

from test_layout_differential import (
    LAYOUTS,
    NUM_RECORDS,
    _corpus,
    _multiset,
    emits_by_component,
)


@pytest.fixture(scope="module")
def stores():
    """The differential corpus under every layout (same recipe as the oracle)."""
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
        dataset.flush_all()
        for document in updates:
            dataset.insert(document)
        for key in deletes:
            dataset.delete(key)
        dataset.flush_all()
        out[layout] = store
    return out


def _canonical(rows) -> str:
    return json.dumps(rows, sort_keys=True)


# -- builder/text query pairs over the corpus -------------------------------------------


def _pairs():
    t = Var("t")

    def b_count(name):
        return Query(name, "t").count()

    def b_eq(name):
        return (
            Query(name, "t")
            .where(Field(t, "score") == "high")
            .select([("id", Field(t, "id")), ("score", Field(t, "score"))])
        )

    def b_range_order(name):
        return (
            Query(name, "t")
            .where(Field(t, "score") > 90)
            .select([("id", Field(t, "id"))])
            .order_by("id")
            .limit(25)
        )

    def b_nested_disjunction(name):
        return (
            Query(name, "t")
            .where(Field(t, "meta.source") == "api")
            .where(Or(Field(t, "flag") == True, Field(t, "score") > 50))  # noqa: E712
            .group_by(
                key=("weight", Field(t, "meta.weight")),
                aggregates=[("n", "count", None)],
            )
            .order_by("weight")
        )

    def b_unnest(name):
        return (
            Query(name, "t")
            .where(Field(t, "score") > 10)
            .unnest("e", "events")
            .group_by(
                key=("kind", Field(Var("e"), "kind")),
                aggregates=[("n", "count", None), ("s", "sum", Field(Var("e"), "value"))],
            )
            .order_by("kind")
        )

    def b_array_fn(name):
        return (
            Query(name, "t")
            .where(Call("array_contains", Field(t, "tags"), "c"))
            .aggregate([("n", "count", None)])
        )

    def b_some(name):
        from repro.query import SomeSatisfies

        return (
            Query(name, "t")
            .where(
                SomeSatisfies(Field(t, "events"), "e", Field(Var("e"), "value") > 40)
            )
            .select([("id", Field(t, "id"))])
            .order_by("id")
        )

    return [
        (b_count, "SELECT COUNT(*) FROM {dataset} AS t;"),
        (
            b_eq,
            """
            SELECT t.id AS id, t.score AS score
            FROM {dataset} AS t
            WHERE t.score = "high";
            """,
        ),
        (
            b_range_order,
            """
            SELECT t.id AS id FROM {dataset} AS t
            WHERE t.score > 90
            ORDER BY id
            LIMIT 25;
            """,
        ),
        (
            b_nested_disjunction,
            """
            SELECT weight AS weight, COUNT(*) AS n
            FROM {dataset} AS t
            WHERE t.meta.source = "api"
            WHERE t.flag = TRUE OR t.score > 50
            GROUP BY t.meta.weight AS weight
            ORDER BY weight;
            """,
        ),
        (
            b_unnest,
            """
            SELECT kind AS kind, COUNT(*) AS n, SUM(e.value) AS s
            FROM {dataset} AS t
            WHERE t.score > 10
            UNNEST t.events AS e
            GROUP BY e.kind AS kind
            ORDER BY kind;
            """,
        ),
        (
            b_array_fn,
            'SELECT COUNT(*) AS n FROM {dataset} AS t '
            'WHERE array_contains(t.tags, "c");',
        ),
        (
            b_some,
            """
            SELECT t.id AS id FROM {dataset} AS t
            WHERE SOME e IN t.events SATISFIES e.value > 40
            ORDER BY id;
            """,
        ),
    ]


@pytest.mark.parametrize("executor", ["batch", "interpreted"])
def test_text_and_builder_rows_identical_everywhere(stores, executor):
    for builder_factory, text in _pairs():
        reference = None
        for layout in LAYOUTS:
            store = stores[layout]
            for pushdown in (True, False):
                builder = builder_factory("docs")
                builder_rows = builder.execute(
                    store, executor=executor, pushdown=pushdown
                )
                text_rows = compile_query(text.replace("{dataset}", "docs")).execute(
                    store, executor=executor, pushdown=pushdown
                )
                payload = _canonical(text_rows)
                assert payload == _canonical(builder_rows), (
                    f"{builder_factory.__name__}: text != builder on {layout} "
                    f"(pushdown={pushdown}, executor={executor})"
                )
                if reference is None:
                    reference = payload  # "open" leads: key order
                expected = reference
                if emits_by_component(builder, layout, executor, pushdown):
                    payload = _multiset(text_rows)
                    expected = _multiset(json.loads(reference))
                assert payload == expected, (
                    f"{builder_factory.__name__}: {layout} diverges "
                    f"(pushdown={pushdown}, executor={executor})"
                )


def test_text_plans_share_builder_plan_shape(stores):
    """Same chosen access path and pushdown spec as the builder, per layout."""
    for builder_factory, text in _pairs():
        for layout in LAYOUTS:
            store = stores[layout]
            builder_plan = builder_factory("docs").optimized_plan(store)
            text_plan = compile_query(
                text.replace("{dataset}", "docs")
            ).query.optimized_plan(store)
            assert type(text_plan.source) is type(builder_plan.source)
            builder_spec = builder_plan.source.pushdown
            text_spec = text_plan.source.pushdown
            assert (text_spec is None) == (builder_spec is None)
            if text_spec is not None:
                assert set(map(repr, text_spec.predicates)) == set(
                    map(repr, builder_spec.predicates)
                )
                builder_paths = (
                    None
                    if builder_spec.paths is None
                    else {str(p) for p in builder_spec.paths}
                )
                text_paths = (
                    None
                    if text_spec.paths is None
                    else {str(p) for p in text_spec.paths}
                )
                assert text_paths == builder_paths


# -- the Figure 11 acceptance criterion --------------------------------------------------

GAMERS = [
    {"id": 0, "games": [{"title": "NFL"}]},
    {"id": 1, "games": [{"title": "FIFA"}, {"title": "NFL"}]},
    {"id": 2, "games": [{"title": "NBA"}, {"title": "NFL"}, {"title": "FIFA"}]},
    {"id": 3},
    {"id": 4, "games": ["NBA", ["FIFA", "PES"], "NFL"]},  # heterogeneous (Fig. 6)
    {"id": 5, "games": []},
]


@pytest.fixture(scope="module")
def gamer_stores():
    out = {}
    for layout in LAYOUTS:
        store = Datastore(StoreConfig(partitions_per_node=1))
        dataset = store.create_dataset("gamers", layout=layout)
        dataset.insert_many(GAMERS)
        dataset.flush_all()
        out[layout] = store
    return out


def test_figure11_verbatim_matches_builder_on_all_layouts(gamer_stores):
    reference_rows = None
    for layout in LAYOUTS:
        store = gamer_stores[layout]
        compiled = compile_query(FIGURE11_SQLPP.replace("{dataset}", "gamers"))
        builder = figure11_query("gamers")

        # Same optimizer-chosen plan, verified via the full explain rendering.
        assert compiled.explain(store) == builder.explain(store), layout

        text_rows = compiled.execute(store)
        builder_rows = builder.execute(store)
        assert _canonical(text_rows) == _canonical(builder_rows), layout
        if reference_rows is None:
            reference_rows = _canonical(text_rows)
        assert _canonical(text_rows) == reference_rows, layout


def test_figure11_logical_plans_are_node_identical():
    compiled = compile_query(FIGURE11_SQLPP.replace("{dataset}", "gamers"))
    assert compiled.query.build_plan().describe() == (
        figure11_query("gamers").build_plan().describe()
    )