"""Unit and integration tests for scan pushdown (plan rewrite + columnar eval)."""

from __future__ import annotations

import pytest

from repro import Datastore, StoreConfig
from repro.core.schema import Schema
from repro.model.path import FieldPath
from repro.query import And, Call, Compare, Field, Literal, Or, Query, Var
from repro.query.pushdown import (
    ColumnPredicate,
    compile_predicate,
    compile_predicates,
)


def _spec(query):
    return query.build_plan().source.pushdown


class TestPlanRewrite:
    def test_simple_equality_is_pushed(self):
        spec = _spec(Query("d", "t").where(Field(Var("t"), "kind") == "buy").count())
        assert spec.predicates == [ColumnPredicate(FieldPath.parse("kind"), "==", "buy")]

    def test_conjunction_splits_into_conjuncts(self):
        spec = _spec(
            Query("d", "t")
            .where(And(Field(Var("t"), "a") > 1, Field(Var("t"), "b.c") <= 2.5))
            .count()
        )
        assert spec.predicates == [
            ColumnPredicate(FieldPath.parse("a"), ">", 1),
            ColumnPredicate(FieldPath.parse("b.c"), "<=", 2.5),
        ]

    def test_reversed_comparison_is_flipped(self):
        spec = _spec(
            Query("d", "t").where(Compare("<", Literal(10), Field(Var("t"), "a"))).count()
        )
        assert spec.predicates == [ColumnPredicate(FieldPath.parse("a"), ">", 10)]

    def test_disjunction_is_not_pushed(self):
        spec = _spec(
            Query("d", "t")
            .where(Or(Field(Var("t"), "a") == 1, Field(Var("t"), "b") == 2))
            .count()
        )
        assert spec.predicates == []

    def test_array_paths_and_function_calls_are_not_pushed(self):
        spec = _spec(
            Query("d", "t")
            .where(
                And(
                    Field(Var("t"), "tags[*]") == "x",
                    Compare("==", Call("length", Field(Var("t"), "a")), Literal(3)),
                )
            )
            .count()
        )
        assert spec.predicates == []

    def test_rebound_scan_variable_disables_predicates(self):
        spec = _spec(
            Query("d", "t")
            .assign("t", Field(Var("t"), "inner"))
            .where(Field(Var("t"), "a") == 1)
            .count()
        )
        assert spec.predicates == []

    def test_paths_are_pruned_and_prefix_minimized(self):
        spec = _spec(
            Query("d", "t")
            .where(Field(Var("t"), "user.name") == "u1")
            .select([("n", Field(Var("t"), "user.name")), ("k", Field(Var("t"), "kind"))])
        )
        assert sorted(str(path) for path in spec.paths) == ["kind", "user.name"]
        # A shorter prefix swallows deeper paths.
        spec = _spec(
            Query("d", "t")
            .where(Field(Var("t"), "user.name") == "u1")
            .select([("u", Field(Var("t"), "user"))])
        )
        assert [str(path) for path in spec.paths] == ["user"]

    def test_whole_record_reference_disables_pruning(self):
        spec = _spec(Query("d", "t").select([("doc", Var("t"))]))
        assert spec.paths is None
        assert spec.fields is None

    def test_nested_bare_variable_disables_pruning(self):
        # A bare Var nested inside an expression that *also* references a
        # path still consumes the whole record (e.g. length(t) == t.a).
        query = Query("d", "t").where(
            Compare("==", Call("length", Var("t")), Field(Var("t"), "a"))
        ).select([("id", Field(Var("t"), "id"))])
        spec = _spec(query)
        assert spec.fields is None
        assert spec.paths is None

    def test_nested_bare_variable_query_results(self):
        config = StoreConfig(partitions_per_node=1, memory_component_budget=16 * 1024)
        store = Datastore(config)
        dataset = store.create_dataset("bare", layout="amax")
        dataset.insert({"id": 1, "a": 2, "b": 9})
        dataset.insert({"id": 2, "a": 3, "b": 9})
        dataset.flush_all()
        query = (
            Query("bare", "t")
            .where(Compare("==", Call("length", Var("t")), Field(Var("t"), "a")))
            .select([("id", Field(Var("t"), "id"))])
        )
        # Both documents have 3 fields, so only id=2 (a == 3) matches — the
        # length() must see the un-pruned record in both modes.
        assert query.execute(store, pushdown=True) == [{"id": 2}]
        assert query.execute(store, pushdown=False) == [{"id": 2}]

    def test_explicit_projection_disables_path_pruning(self):
        spec = _spec(
            Query("d", "t").project_fields(["a", "b"]).where(Field(Var("t"), "a") == 1).count()
        )
        assert spec.fields == ["a", "b"]
        assert spec.paths is None

    def test_pushdown_flag_disables_the_rewrite(self):
        plan = Query("d", "t").where(Field(Var("t"), "a") == 1).count().build_plan(
            pushdown=False
        )
        assert plan.source.pushdown is None

    def test_explain_mentions_pushdown(self):
        text = Query("d", "t").where(Field(Var("t"), "a") == 1).count().explain()
        assert "PUSHDOWN" in text and "a == 1" in text


class TestPredicateCompilation:
    def _schema(self, documents):
        schema = Schema(primary_key_field="id")
        for document in documents:
            schema.observe(document)
        return schema

    def test_matches_union_branches(self):
        schema = self._schema([{"id": 1, "v": 5}, {"id": 2, "v": "five"}])
        compiled = compile_predicate(schema, ColumnPredicate(FieldPath.parse("v"), "==", 5))
        assert {column.type_tag for column in compiled.columns} == {"int64", "string"}

    def test_unknown_field_compiles_to_constant_false(self):
        schema = self._schema([{"id": 1, "v": 5}])
        compiled = compile_predicate(
            schema, ColumnPredicate(FieldPath.parse("nope"), "==", 1)
        )
        assert compiled.columns == []
        assert compiled.group_may_match(object()) is False

    def test_not_equal_refuses_object_slots(self):
        schema = self._schema([{"id": 1, "m": {"a": 1}}, {"id": 2, "m": "s"}])
        assert (
            compile_predicate(schema, ColumnPredicate(FieldPath.parse("m"), "!=", "s"))
            is None
        )
        # ...but compiles when only atomic branches exist.
        atomic = self._schema([{"id": 1, "m": 5}, {"id": 2, "m": "s"}])
        compiled = compile_predicate(atomic, ColumnPredicate(FieldPath.parse("m"), "!=", "s"))
        assert compiled is not None and len(compiled.columns) == 2

    def test_batch_evaluation_semantics(self):
        schema = self._schema([{"id": 1, "v": 5}, {"id": 2, "v": "five"}])
        compiled = compile_predicates(
            schema, [ColumnPredicate(FieldPath.parse("v"), "!=", 99)]
        )[0]
        int_column = next(c for c in compiled.columns if c.type_tag == "int64")
        str_column = next(c for c in compiled.columns if c.type_tag == "string")
        streams = {
            # records: v=5, v missing, v=99
            int_column.column_id: ([int_column.max_def, 0, int_column.max_def], [5, 99]),
            str_column.column_id: ([0, 0, 0], []),
        }
        assert compiled.evaluate(streams, 3) == [True, False, False]
        # A present string satisfies ``!= 99`` via the incompatible-type rule.
        streams = {
            int_column.column_id: ([0, 0, 0], []),
            str_column.column_id: ([str_column.max_def, 0, 0], ["five"]),
        }
        assert compiled.evaluate(streams, 3) == [True, False, False]


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def store(self):
        config = StoreConfig(partitions_per_node=2, memory_component_budget=32 * 1024)
        datastore = Datastore(config)
        for layout in ("amax", "apax"):
            dataset = datastore.create_dataset(f"d_{layout}", layout=layout)
            for i in range(1200):
                dataset.insert(
                    {
                        "id": i,
                        "bucket": i % 7,
                        "kind": ["click", "view", "buy"][i % 3],
                        "payload": "p" * 40,
                    }
                )
            dataset.flush_all()
            # Newest version of id=3 stops matching ``kind == 'buy'`` (id=3
            # had kind='buy'); pushdown must not resurrect the old version.
            dataset.insert(
                {"id": 3, "bucket": 3, "kind": "click", "payload": "updated"}
            )
            dataset.flush_all()
        return datastore

    @pytest.mark.parametrize("layout", ["amax", "apax"])
    def test_results_match_disabled_pushdown(self, store, layout):
        query = (
            Query(f"d_{layout}", "t")
            .where(Field(Var("t"), "kind") == "buy")
            .select([("id", Field(Var("t"), "id"))])
        )
        with_pushdown = query.execute(store, pushdown=True)
        without = query.execute(store, pushdown=False)
        assert with_pushdown == without
        ids = {row["id"] for row in with_pushdown}
        assert 3 not in ids  # the updated record's new version fails the filter

    @pytest.mark.parametrize("layout", ["amax", "apax"])
    def test_selective_filter_reads_fewer_pages(self, store, layout):
        query = (
            Query(f"d_{layout}", "t")
            .where(Field(Var("t"), "bucket") > 100)  # matches nothing: max is 6
            .select([("id", Field(Var("t"), "id")), ("p", Field(Var("t"), "payload"))])
        )
        before = store.io_snapshot()
        rows = query.execute(store, pushdown=True)
        with_pages = store.io_snapshot().delta_since(before)
        before = store.io_snapshot()
        rows_disabled = query.execute(store, pushdown=False)
        without_pages = store.io_snapshot().delta_since(before)
        assert rows == rows_disabled == []
        touched = with_pages.pages_read + with_pages.cache_hits
        baseline = without_pages.pages_read + without_pages.cache_hits
        # Min/max pruning skips every leaf group, so the wide ``payload``
        # column is never decoded and page touches drop.
        assert touched < baseline

    @pytest.mark.parametrize("layout", ["amax", "apax"])
    def test_primary_key_predicates(self, store, layout):
        # Keys have no per-column min/max statistics (they live with the group
        # header), so pk predicates must prune via the group's key range and
        # never via the absent column stats.
        query = (
            Query(f"d_{layout}", "t")
            .where(Field(Var("t"), "id") >= 1195)
            .select([("id", Field(Var("t"), "id"))])
        )
        with_pushdown = query.execute(store, pushdown=True)
        without = query.execute(store, pushdown=False)
        assert with_pushdown == without
        assert sorted(row["id"] for row in with_pushdown) == [1195, 1196, 1197, 1198, 1199]

    def test_string_primary_key_predicate(self):
        config = StoreConfig(partitions_per_node=1, memory_component_budget=16 * 1024)
        store = Datastore(config)
        dataset = store.create_dataset("s", layout="amax", primary_key_field="sk")
        for i in range(120):
            dataset.insert({"sk": f"k{i:03d}", "v": i})
        dataset.flush_all()
        query = (
            Query("s", "t")
            .where(Field(Var("t"), "sk") > "k115")
            .select([("k", Field(Var("t"), "sk"))])
        )
        rows = query.execute(store, pushdown=True)
        assert rows == query.execute(store, pushdown=False)
        assert sorted(row["k"] for row in rows) == ["k116", "k117", "k118", "k119"]

    @pytest.mark.parametrize("layout", ["amax", "apax"])
    def test_mixed_numeric_literal_types(self, layout):
        # AMAX prunes on byte prefixes, and int/double prefixes use different
        # order-preserving encodings — a float literal against an int64 column
        # (or vice versa) must coerce bounds into the column's domain instead
        # of comparing incomparable prefixes.
        config = StoreConfig(partitions_per_node=1, memory_component_budget=16 * 1024)
        store = Datastore(config)
        dataset = store.create_dataset("nums", layout=layout)
        for i in range(200):
            dataset.insert({"id": i, "ival": i % 50, "fval": (i % 50) + 0.5})
        dataset.flush_all()

        cases = [
            (Field(Var("t"), "ival") > 5.5, 200 * 44 // 50),   # float literal, int column
            (Field(Var("t"), "ival") == 7.0, 4),
            (Field(Var("t"), "fval") < 5, 20),                  # int literal, double column
            (Field(Var("t"), "fval") >= 49, 4),
        ]
        for predicate, expected in cases:
            query = Query("nums", "t").where(predicate).count()
            with_pushdown = query.execute(store, pushdown=True)
            without = query.execute(store, pushdown=False)
            assert with_pushdown == without == [{"count": expected}], predicate

    @pytest.mark.parametrize("layout", ["amax", "apax"])
    def test_nan_values_do_not_poison_group_statistics(self, layout):
        # NaN is unordered: naively it leaks into min/max (and the AMAX
        # pruning prefixes place +NaN above every finite double), which would
        # prune groups that contain perfectly matching finite rows.
        config = StoreConfig(partitions_per_node=1, memory_component_budget=16 * 1024)
        store = Datastore(config)
        dataset = store.create_dataset("nan", layout=layout)
        dataset.insert({"id": 1, "x": float("nan")})
        dataset.insert({"id": 2, "x": 1.0})
        dataset.flush_all()
        query = (
            Query("nan", "t")
            .where(Field(Var("t"), "x") <= 2.0)
            .select([("id", Field(Var("t"), "id"))])
        )
        with_pushdown = query.execute(store, pushdown=True)
        assert with_pushdown == query.execute(store, pushdown=False)
        assert [row["id"] for row in with_pushdown] == [2]
        # An all-NaN column keeps working too (it can never match a range).
        dataset.insert({"id": 3, "y": float("nan")})
        dataset.flush_all()
        rows = (
            Query("nan", "t").where(Field(Var("t"), "y") < 1.0).count().execute(store)
        )
        assert rows == [{"count": 0}]

    def test_count_star_is_unaffected(self, store):
        for layout in ("amax", "apax"):
            assert (
                Query(f"d_{layout}", "t").count().execute(store, pushdown=True)
                == Query(f"d_{layout}", "t").count().execute(store, pushdown=False)
                == [{"count": 1200}]
            )
