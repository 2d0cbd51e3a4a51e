"""Tests for expressions, plans, the optimizer, and both executors."""

from __future__ import annotations

import pytest

from repro import Datastore, StoreConfig
from repro.model import MISSING
from repro.model.errors import QueryError
from repro.query import And, Call, Compare, Field, Literal, Or, Query, SomeSatisfies, Var
from repro.query.expressions import compare_values

from conftest import RETIRED_EXECUTOR


@pytest.fixture(scope="module")
def store():
    config = StoreConfig(partitions_per_node=2, memory_component_budget=256 * 1024)
    datastore = Datastore(config)
    dataset = datastore.create_dataset("events", layout="amax")
    dataset.create_secondary_index("ts", "ts")
    for i in range(1000):
        dataset.insert(
            {
                "id": i,
                "ts": 1000 + i,
                "kind": ["click", "view", "buy"][i % 3],
                "amount": (i % 50) * 1.0,
                "user": {"name": f"u{i % 20}", "vip": i % 10 == 0},
                "items": [{"sku": f"s{i % 7}", "qty": 1 + i % 3} for _ in range(i % 3)],
            }
        )
    dataset.flush_all()
    return datastore


class TestExpressions:
    ROW = {"t": {"a": 5, "b": "x", "arr": [1, 2, 3], "nested": {"k": "v"}}}

    def test_var_and_field(self):
        assert Var("t").evaluate(self.ROW) == self.ROW["t"]
        assert Field(Var("t"), "a").evaluate(self.ROW) == 5
        assert Field(Var("t"), "nested.k").evaluate(self.ROW) == "v"
        assert Field(Var("t"), "missing").evaluate(self.ROW) is MISSING

    def test_compare_dynamic_typing(self):
        assert compare_values("<", 3, 5) is True
        assert compare_values("<", 3, "five") is None  # incompatible types -> NULL
        assert compare_values("==", 3, "3") is False
        assert compare_values(">", None, 5) is None
        assert compare_values(">=", 2, 2.0) is True

    def test_comparison_operators_build_expressions(self):
        expression = Field(Var("t"), "a") >= 5
        assert isinstance(expression, Compare)
        assert expression.evaluate(self.ROW) is True

    def test_boolean_connectives(self):
        true_expr = And(Field(Var("t"), "a") == 5, Field(Var("t"), "b") == "x")
        false_expr = And(Field(Var("t"), "a") == 5, Field(Var("t"), "b") == "y")
        either = Or(Field(Var("t"), "a") == 99, Field(Var("t"), "b") == "x")
        assert true_expr.evaluate(self.ROW) is True
        assert false_expr.evaluate(self.ROW) is False
        assert either.evaluate(self.ROW) is True

    def test_functions(self):
        assert Call("length", Field(Var("t"), "arr")).evaluate(self.ROW) == 3
        assert Call("lowercase", Literal("ABC")).evaluate({}) == "abc"
        assert Call("array_contains", Field(Var("t"), "arr"), 2).evaluate(self.ROW) is True
        assert Call("array_distinct", Literal([1, 1, 2])).evaluate({}) == [1, 2]
        assert Call("array_pairs", Literal(["a", "b", "c"])).evaluate({}) == [
            ["a", "b"], ["a", "c"], ["b", "c"],
        ]
        assert Call("is_array", Literal({"a": 1})).evaluate({}) is False
        with pytest.raises(QueryError):
            Call("no_such_function", Literal(1))

    def test_some_satisfies(self):
        row = {"t": {"hashtags": [{"text": "Jobs"}, {"text": "news"}]}}
        predicate = SomeSatisfies(
            Field(Var("t"), "hashtags"),
            "h",
            Call("lowercase", Field(Var("h"), "text")) == "jobs",
        )
        assert predicate.evaluate(row) is True
        assert predicate.evaluate({"t": {"hashtags": []}}) is False
        assert predicate.evaluate({"t": {}}) is False


class TestOptimizer:
    def test_projection_pushdown_collects_top_fields(self):
        query = (
            Query("events", "e")
            .where(Field(Var("e"), "kind") == "buy")
            .group_by(key=("user", "user.name"), aggregates=[("s", "sum", "amount")])
        )
        plan = query.build_plan()
        assert sorted(plan.source.fields) == ["amount", "kind", "user"]

    def test_count_star_projects_nothing(self):
        plan = Query("events", "e").count().build_plan()
        assert plan.source.fields == []

    def test_whole_record_reference_disables_pushdown(self):
        plan = Query("events", "e").select([("doc", Var("e"))]).build_plan()
        assert plan.source.fields is None

    def test_explain_mentions_operators(self):
        text = (
            Query("events", "e")
            .unnest("i", "items")
            .where(Field(Var("i"), "qty") > 1)
            .count()
            .explain()
        )
        assert "SCAN" in text and "UNNEST" in text and "FILTER" in text


class TestExecutors:
    @pytest.mark.parametrize("executor", ["batch", "interpreted"])
    def test_count(self, store, executor):
        result = Query("events", "e").count().execute(store, executor=executor)
        assert result == [{"count": 1000}]

    @pytest.mark.parametrize("executor", ["batch", "interpreted"])
    def test_filter_and_group(self, store, executor):
        result = (
            Query("events", "e")
            .where(Field(Var("e"), "kind") == "buy")
            .group_by(key=("user", "user.name"), aggregates=[("n", "count", None)])
            .order_by("n", descending=True)
            .limit(5)
            .execute(store, executor=executor)
        )
        assert len(result) == 5
        assert all(row["n"] > 0 for row in result)

    def test_executors_agree_on_unnest_aggregation(self, store):
        query = (
            Query("events", "e")
            .unnest("i", "items")
            .group_by(key=("sku", Field(Var("i"), "sku")), aggregates=[("q", "sum", Field(Var("i"), "qty"))])
            .order_by("q", descending=True)
        )
        batch = query.execute(store, executor="batch")
        interpreted = query.execute(store, executor="interpreted")
        assert batch == interpreted
        assert len(batch) == 7

    def test_aggregates(self, store):
        result = (
            Query("events", "e")
            .aggregate(
                [
                    ("max_amount", "max", "amount"),
                    ("min_amount", "min", "amount"),
                    ("avg_amount", "avg", "amount"),
                    ("total", "sum", "amount"),
                    ("rows", "count", None),
                ]
            )
            .execute(store)
        )
        row = result[0]
        assert row["rows"] == 1000
        assert row["max_amount"] == 49.0
        assert row["min_amount"] == 0.0
        assert abs(row["avg_amount"] - row["total"] / 1000) < 1e-9

    def test_index_based_execution(self, store):
        indexed = (
            Query("events", "e")
            .use_index("ts", 1100, 1199)
            .count()
            .execute(store)
        )
        scanned = (
            Query("events", "e")
            .where(Field(Var("e"), "ts") >= 1100)
            .where(Field(Var("e"), "ts") <= 1199)
            .count()
            .execute(store)
        )
        assert indexed == scanned == [{"count": 100}]

    def test_index_with_projection(self, store):
        rows = (
            Query("events", "e")
            .use_index("ts", 1000, 1009)
            .select([("kind", "kind"), ("name", "user.name")])
            .execute(store)
        )
        assert len(rows) == 10
        assert all(set(row) == {"kind", "name"} for row in rows)

    def test_unknown_index_rejected(self, store):
        with pytest.raises(QueryError):
            Query("events", "e").use_index("nope", 0, 1).count().execute(store)

    @pytest.mark.parametrize("name", ["vectorized", RETIRED_EXECUTOR, ""])
    def test_unknown_executor_rejected_before_any_work(self, store, name):
        before = store.io_snapshot()
        join = "SELECT COUNT(*) AS n FROM events AS a JOIN events AS b ON a.id = b.id;"
        for run in (
            lambda: Query("events", "e").count().execute(store, executor=name),
            lambda: store.query(join, executor=name),
            lambda: store.query("SELECT 1 AS one;", executor=name),  # FROM-less
            lambda: store.explain(join, executor=name),
        ):
            with pytest.raises(QueryError, match="one of: interpreted, batch"):
                run()
        # Rejected before the join's build side (or anything else) was read.
        delta = store.io_snapshot().delta_since(before)
        assert delta.pages_read + delta.cache_hits == 0

    @pytest.mark.parametrize("batch_size", [-1, 0, 1.5, "x", True])
    @pytest.mark.parametrize("executor", ["batch", "interpreted"])
    def test_bad_batch_size_rejected(self, store, executor, batch_size):
        text = "SELECT e.kind AS kind, COUNT(*) AS n FROM events AS e GROUP BY e.kind;"
        with pytest.raises(QueryError, match="batch_size"):
            store.query(text, executor=executor, batch_size=batch_size)
        # A tiny but valid size still returns every group.
        assert len(store.query(text, executor=executor, batch_size=1)) == 3

    @pytest.mark.parametrize("count", [-1, True, False, 2.0, "3", None])
    def test_bad_limit_rejected(self, count):
        # limit(-1) used to drop the last row (rows[:-1]), limit(True) kept one.
        with pytest.raises(QueryError, match="LIMIT"):
            Query("events", "e").order_by("id").limit(count)

    @pytest.mark.parametrize("executor", ["batch", "interpreted"])
    def test_limit_zero_and_beyond_the_rows(self, store, executor):
        query = Query("events", "e").select([("id", "id")]).order_by("id")
        every = query.execute(store, executor=executor)
        for count, expected in ((0, []), (3, every[:3]), (5000, every)):
            rows = (
                Query("events", "e")
                .select([("id", "id")])
                .order_by("id")
                .limit(count)
                .execute(store, executor=executor)
            )
            assert rows == expected

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            Query("events").aggregate([("x", "median", None)])
