"""SQL++ frontend tests: golden plans, golden errors, semantics, the shell.

The golden corpus pins the *full* ``describe()`` rendering of the lowered
plan for representative texts, so any change to the parser, the binder, the
lowering, or the plan rendering shows up as a readable diff.  Error goldens
pin exact messages and positions — they are part of the user interface.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import Datastore, StoreConfig
from repro.model.errors import SqlppError, UnknownFunctionError
from repro.query import Call, Literal, register_function
from repro.sqlpp import compile_query, parse, tokenize

REPO_ROOT = Path(__file__).resolve().parent.parent


def plan_text(sql: str, pushdown: bool = True) -> str:
    return compile_query(sql).query.build_plan(pushdown=pushdown).describe()


# ======================================================================================
# Golden corpus: SQL++ text → expected plan rendering
# ======================================================================================

GOLDEN_PLANS = [
    (
        "SELECT COUNT(*) FROM cell AS c;",
        """\
        SCAN cell AS $c (fields=[])
          PUSHDOWN paths=[]
        AGGREGATE count=count(*)""",
    ),
    (
        "SELECT COUNT(*) FROM cell AS c WHERE c.duration >= 600;",
        """\
        SCAN cell AS $c (fields=['duration'])
          PUSHDOWN paths=[duration]; predicates=[duration >= 600]
        FILTER Compare(Field(Var('c'), 'duration') >= Literal(600))
        AGGREGATE count=count(*)""",
    ),
    (
        # Figure 11, verbatim.
        """
        SELECT t AS t, COUNT(*) AS cnt
        FROM gamers AS g
        UNNEST g.games AS t
        GROUP BY t
        ORDER BY cnt DESC
        LIMIT 10;
        """,
        """\
        SCAN gamers AS $g (fields=['games'])
          PUSHDOWN paths=[games]; unnest=$t<-games; elements=[games[*]]
        UNNEST $t <- Field(Var('g'), 'games')
        GROUPBY keys=[t=Var('t')] aggregates=[cnt=count(*)]
        ORDERBY cnt DESC
        LIMIT 10""",
    ),
    (
        # Conjunctions split into separate FILTERs; predicates pushed down.
        """
        SELECT s.sensor_id AS sid
        FROM sensors AS s
        WHERE s.report_time > 100 AND s.report_time < 900;
        """,
        """\
        SCAN sensors AS $s (fields=['report_time', 'sensor_id'])
          PUSHDOWN paths=[report_time, sensor_id]; \
predicates=[report_time > 100, report_time < 900]
        FILTER Compare(Field(Var('s'), 'report_time') > Literal(100))
        FILTER Compare(Field(Var('s'), 'report_time') < Literal(900))
        PROJECT sid=Field(Var('s'), 'sensor_id')""",
    ),
    (
        # LET, function calls, quantifier, dotted + wildcard paths.
        """
        SELECT uname AS uname, COUNT(*) AS c
        FROM tweets AS t
        LET tags = t.entities.hashtags[*].text
        WHERE SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = "jobs"
        GROUP BY t.user.name AS uname
        ORDER BY c DESC
        LIMIT 10;
        """,
        """\
        SCAN tweets AS $t (fields=['entities', 'user'])
          PUSHDOWN paths=[entities.hashtags, user.name]; \
runs=[entities.hashtags([*].text; some $ht: [text])]
        ASSIGN $tags <- Field(Var('t'), 'entities.hashtags[*].text')
        FILTER SomeSatisfies(Field(Var('t'), 'entities.hashtags'), 'ht', \
Compare(Call('lowercase', Field(Var('ht'), 'text')) == Literal('jobs')))
        GROUPBY keys=[uname=Field(Var('t'), 'user.name')] aggregates=[c=count(*)]
        ORDERBY c DESC
        LIMIT 10""",
    ),
    (
        # Aggregate-only query with expressions; EXISTS sugar.
        """
        SELECT MAX(r.temp) AS max_temp, MIN(r.temp) AS min_temp
        FROM sensors AS s
        WHERE EXISTS s.readings
        UNNEST s.readings AS r;
        """,
        """\
        SCAN sensors AS $s (fields=['readings'])
          PUSHDOWN paths=[readings]
        FILTER Compare(Call('array_count', Field(Var('s'), 'readings')) > Literal(0))
        UNNEST $r <- Field(Var('s'), 'readings')
        AGGREGATE max_temp=max(Field(Var('r'), 'temp')), \
min_temp=min(Field(Var('r'), 'temp'))""",
    ),
    (
        # Bracketed navigation and array/object literals.
        """
        SELECT g["name"].first AS first
        FROM gamers AS g
        WHERE array_contains([1, 2, 3], g.id) OR g.meta = {"kind": "vip"};
        """,
        """\
        SCAN gamers AS $g (fields=['id', 'meta', 'name'])
          PUSHDOWN paths=[id, meta, name.first]
        FILTER Or(Call('array_contains', Literal([1, 2, 3]), Field(Var('g'), 'id')), \
Compare(Field(Var('g'), 'meta') == Literal({'kind': 'vip'})))
        PROJECT first=Field(Var('g'), 'name.first')""",
    ),
]


@pytest.mark.parametrize(
    "sql,expected", GOLDEN_PLANS, ids=[f"golden{i}" for i in range(len(GOLDEN_PLANS))]
)
def test_golden_plan(sql, expected):
    expected = textwrap.dedent(expected)
    actual = plan_text(sql)
    assert actual == expected, f"\n{actual}\n!=\n{expected}"


# ======================================================================================
# Golden errors: exact message and position
# ======================================================================================

GOLDEN_ERRORS = [
    (
        "SELECT g.x FROM d AS t\nWHERE g.a = 1;",
        "unknown alias `g` at line 2 col 7; in scope: t",
    ),
    (
        "SELECT t.a AS a FROM d AS t WHERE frobnicate(t.a) = 1;",
        "unknown function `frobnicate` at line 1 col 35; available built-ins: "
        "array_contains, array_count, array_distinct, array_pairs, coalesce, "
        "double_it, is_array, length, lowercase",
    ),
    ("SELECT t.a FROM d AS t WHERE ;", "expected an expression, found ';' at line 1 col 30"),
    ("SELECT t.a FROM d t;", "expected AS, found 't' at line 1 col 19"),
    ("SELECT FROM d AS t;", "expected an expression, found FROM at line 1 col 8"),
    (
        "SELECT t.a AS a FROM d AS t ORDER BY b;",
        "ORDER BY references unknown output column `b` at line 1 col 38; "
        "output columns: a",
    ),
    (
        "SELECT MAX(t.a) AS m FROM d AS t WHERE MAX(t.a) > 1;",
        "aggregate function MAX at line 1 col 40 is only allowed in the SELECT "
        "clause of a grouped or aggregate query",
    ),
    (
        "SELECT t.a AS x FROM d AS t UNNEST t.b AS t;",
        "duplicate alias `t` at line 1 col 43; already bound by FROM/UNNEST/LET",
    ),
    ("SELECT 'oops FROM d AS t;", "unterminated string at line 1 col 8"),
    (
        "SELECT t.a AS a FROM d AS t LIMIT ten;",
        "expected a non-negative integer after LIMIT at line 1 col 35",
    ),
    (
        "SELECT t.items[0] AS x FROM d AS t;",
        "numeric array indexing is not supported (use [*]) at line 1 col 16",
    ),
]


@pytest.mark.parametrize(
    "sql,message", GOLDEN_ERRORS, ids=[f"err{i}" for i in range(len(GOLDEN_ERRORS))]
)
def test_golden_error(sql, message):
    # ``double_it`` is registered by test_register_function below; make the
    # registry state deterministic regardless of test order.
    register_function("double_it", lambda v: None if v is None else v * 2)
    with pytest.raises(SqlppError) as excinfo:
        compile_query(sql)
    assert str(excinfo.value) == message
    assert excinfo.value.line >= 1 and excinfo.value.column >= 1


def test_error_positions_are_attributes():
    with pytest.raises(SqlppError) as excinfo:
        compile_query("SELECT g.x FROM d AS t\nWHERE g.a = 1;")
    assert (excinfo.value.line, excinfo.value.column) == (2, 7)


# ======================================================================================
# Lexer / parser units
# ======================================================================================


def test_tokenize_positions_and_comments():
    tokens = tokenize("SELECT -- a comment\n  t.a\n")
    kinds = [(t.kind, t.value, t.line, t.column) for t in tokens]
    assert kinds == [
        ("KEYWORD", "SELECT", 1, 1),
        ("IDENT", "t", 2, 3),
        ("PUNCT", ".", 2, 4),
        ("IDENT", "a", 2, 5),
        ("EOF", None, 3, 1),
    ]


def test_string_escapes_and_doubling():
    tokens = tokenize(r"'it''s' \"a\\nb\"".replace("\\\"", '"'))
    assert tokens[0].value == "it's"


def test_keywords_are_case_insensitive_and_ok_as_field_names():
    statement = parse("select t.value as v from d as t group by t.value order by v;")
    assert statement.dataset == "d"
    plan = compile_query(
        "select t.value as v, count(*) from d as t group by t.value;"
    ).query.build_plan()
    assert "Field(Var('t'), 'value')" in plan.describe()


def test_negative_and_float_literals():
    compiled = compile_query("SELECT VALUE [-5, 2.5, 1e3];")
    assert compiled.execute() == [[-5, 2.5, 1000.0]]


def test_from_less_select():
    assert compile_query("SELECT 1;").execute() == [{"$1": 1}]
    assert compile_query("SELECT VALUE lowercase('ABC');").execute() == ["abc"]
    assert compile_query('SELECT 1 AS a, "x" AS b;').execute() == [{"a": 1, "b": "x"}]


def test_from_less_rejects_dataset_clauses():
    with pytest.raises(SqlppError):
        compile_query("SELECT 1 ORDER BY a;")


def test_from_less_applies_limit():
    assert compile_query("SELECT 1 LIMIT 0;").execute() == []
    assert compile_query("SELECT 1 LIMIT 5;").execute() == [{"$1": 1}]


def test_keywords_usable_as_output_names():
    # ``t.value`` derives the column name "value"; the same spelling must be
    # addressable in AS and ORDER BY.
    compiled = compile_query(
        "SELECT t.value AS value FROM d AS t ORDER BY value DESC;"
    )
    plan = compiled.query.build_plan()
    assert "PROJECT value=Field(Var('t'), 'value')" in plan.describe()
    assert "ORDERBY value DESC" in plan.describe()


def test_select_value_requires_single_expression():
    with pytest.raises(SqlppError):
        compile_query("SELECT VALUE 1, 2;")


# ======================================================================================
# Execution semantics against a real store
# ======================================================================================


@pytest.fixture(scope="module")
def store():
    store = Datastore(StoreConfig(partitions_per_node=1))
    dataset = store.create_dataset("events", layout="amax")
    dataset.insert_many(
        [
            {"id": 1, "kind": "a", "qty": 5, "tags": ["x", "y"]},
            {"id": 2, "kind": "b", "qty": 2, "tags": []},
            {"id": 3, "kind": "a", "qty": 9},
            {"id": 4, "kind": "c", "qty": 1, "tags": ["y"]},
        ]
    )
    dataset.flush_all()
    return store


def test_datastore_query_and_explain(store):
    rows = store.query("SELECT COUNT(*) FROM events AS e WHERE e.qty > 1;")
    assert rows == [{"count": 3}]
    text = store.explain("SELECT COUNT(*) FROM events AS e WHERE e.qty > 1;")
    assert "OPTIMIZER" in text and "PUSHDOWN" in text


def test_select_value_unwraps(store):
    values = store.query("SELECT VALUE e.kind FROM events AS e WHERE e.qty >= 5;")
    assert sorted(values) == ["a", "a"]


def test_select_value_orders_by_derived_name(store):
    # The value column keeps its derived name until the final unwrap, so it
    # is a legal ORDER BY target.
    values = store.query("SELECT VALUE e.qty FROM events AS e ORDER BY qty DESC;")
    assert values == [9, 5, 2, 1]
    with pytest.raises(SqlppError, match="unknown output column"):
        compile_query("SELECT VALUE e.qty FROM events AS e ORDER BY other;")


def test_exists_and_array_function(store):
    rows = store.query(
        "SELECT e.id AS id FROM events AS e WHERE EXISTS e.tags ORDER BY id;"
    )
    assert rows == [{"id": 1}, {"id": 4}]
    rows = store.query(
        'SELECT e.id AS id FROM events AS e WHERE array_contains(e.tags, "x");'
    )
    assert rows == [{"id": 1}]


def test_multi_key_order_by(store):
    rows = store.query(
        "SELECT e.kind AS kind, e.qty AS qty FROM events AS e ORDER BY kind, qty DESC;"
    )
    assert rows == [
        {"kind": "a", "qty": 9},
        {"kind": "a", "qty": 5},
        {"kind": "b", "qty": 2},
        {"kind": "c", "qty": 1},
    ]


def test_group_select_reorder_keeps_written_column_order(store):
    rows = store.query(
        "SELECT COUNT(*) AS n, kind AS kind FROM events AS e "
        "GROUP BY e.kind AS kind ORDER BY kind;"
    )
    assert [list(row.keys()) for row in rows] == [["n", "kind"]] * 3


def test_group_select_subset_projects(store):
    # Selecting only the aggregate forces a PROJECT after the GROUPBY.
    rows = store.query(
        "SELECT COUNT(*) AS n FROM events AS e GROUP BY e.kind ORDER BY n DESC;"
    )
    assert rows == [{"n": 2}, {"n": 1}, {"n": 1}]
    plan = compile_query(
        "SELECT COUNT(*) AS n FROM events AS e GROUP BY e.kind;"
    ).query.build_plan()
    assert "PROJECT n=Var('n')" in plan.describe()


def test_interpreted_executor_matches_default(store):
    sql = (
        "SELECT e.kind AS kind, COUNT(*) AS n FROM events AS e "
        "WHERE e.qty > 1 GROUP BY e.kind ORDER BY kind;"
    )
    assert store.query(sql, executor="interpreted") == store.query(sql)


def test_register_function_reaches_sqlpp(store):
    register_function("double_it", lambda v: None if v is None else v * 2)
    rows = store.query(
        "SELECT VALUE double_it(e.qty) FROM events AS e WHERE e.id = 1;"
    )
    assert rows == [10]
    # And the engine-level Call sees it too (shared registry).
    assert Call("double_it", Literal(4)).evaluate({}) == 8


def test_unknown_function_error_lists_builtins():
    with pytest.raises(UnknownFunctionError) as excinfo:
        Call("no_such_fn")
    message = str(excinfo.value)
    assert "no_such_fn" in message and "array_contains" in message


def test_register_function_validates():
    from repro.model.errors import QueryError

    with pytest.raises(QueryError):
        register_function("bad name", lambda: None)
    with pytest.raises(QueryError):
        register_function("fine", "not callable")


# ======================================================================================
# Shell
# ======================================================================================


def _run_shell(stdin: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.shell", "--batch", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=REPO_ROOT,
    )


def test_shell_smoke_select_1():
    result = _run_shell("SELECT 1;\n")
    assert result.returncode == 0, result.stderr
    assert "1" in result.stdout and "row" in result.stdout


def test_shell_demo_query_multiline_and_commands():
    result = _run_shell(
        "\\d\n"
        "SELECT t.title AS title, COUNT(*) AS n\n"
        "FROM gamers AS g UNNEST g.games AS t\n"
        "GROUP BY t.title ORDER BY n DESC LIMIT 3;\n"
        "\\timing\n"
        "\\explain\n"
        "SELECT COUNT(*) FROM gamers AS g;\n"
    )
    assert result.returncode == 0, result.stderr
    assert "gamers  layout=amax" in result.stdout
    assert "NFL" in result.stdout
    assert "OPTIMIZER" in result.stdout  # \explain printed the plan
    assert "Time:" in result.stdout  # \timing printed the wall clock


def test_shell_batch_fails_on_error():
    result = _run_shell("SELECT nope FROM gamers AS g;\n")
    assert result.returncode == 1
    assert "unknown alias `nope`" in result.stderr


def test_shell_semicolon_inside_multiline_string():
    # A ';' at end of line inside a still-open string must not cut the
    # statement; the lexer-aware terminator keeps buffering.
    result = _run_shell('SELECT COUNT(*) AS n FROM gamers AS g WHERE g.name = "a;\nb";\n')
    assert result.returncode == 0, result.stderr
    assert "(1 row)" in result.stdout


# ======================================================================================
# Transaction and DML statements
# ======================================================================================


def _fresh_shell():
    from io import StringIO

    from repro.shell import Shell

    store = Datastore(StoreConfig(partitions_per_node=2))
    store.create_dataset("accounts", layout="amax")
    return Shell(store, batch=True, out=StringIO(), err=StringIO())


def test_parse_any_statement_kinds():
    from repro.sqlpp import (
        BeginStatement,
        CommitStatement,
        DeleteStatement,
        InsertStatement,
        RollbackStatement,
        SelectStatement,
        parse_any,
    )

    assert isinstance(parse_any("BEGIN;"), BeginStatement)
    assert isinstance(parse_any("begin transaction;"), BeginStatement)
    assert isinstance(parse_any("Commit"), CommitStatement)
    assert isinstance(parse_any("rollback ;"), RollbackStatement)
    insert = parse_any("INSERT INTO accounts {'id': 1};")
    assert isinstance(insert, InsertStatement) and insert.dataset == "accounts"
    delete = parse_any("DELETE FROM accounts WHERE id = 7;")
    assert isinstance(delete, DeleteStatement)
    assert (delete.dataset, delete.key_field) == ("accounts", "id")
    assert isinstance(parse_any("SELECT 1;"), SelectStatement)


def test_statement_words_are_still_legal_field_names():
    # BEGIN/COMMIT/... are deliberately not lexer keywords: they must keep
    # working as field names and aliases inside queries.
    plan = plan_text("SELECT t.begin AS begin, t.commit AS commit FROM d AS t;")
    assert "Field(Var('t'), 'begin')" in plan
    assert "Field(Var('t'), 'commit')" in plan


#: Transaction/DML misuse → exact message and position (run in a fresh shell
#: session; ``open_txn`` first opens a transaction so COMMIT/BEGIN nesting
#: rules apply).  Same contract as GOLDEN_ERRORS: messages are UI.
GOLDEN_TXN_ERRORS = [
    (False, "COMMIT;", "COMMIT outside a transaction at line 1 col 1"),
    (False, "ROLLBACK;", "ROLLBACK outside a transaction at line 1 col 1"),
    (False, "  commit;", "COMMIT outside a transaction at line 1 col 3"),
    (False, "\n  ROLLBACK;", "ROLLBACK outside a transaction at line 2 col 3"),
    (
        True,
        "BEGIN;",
        "nested BEGIN: a transaction is already open (COMMIT or ROLLBACK it "
        "first) at line 1 col 1",
    ),
    (
        False,
        "INSERT accounts {'id': 1};",
        "expected INTO, found 'accounts' at line 1 col 8",
    ),
    (
        False,
        "INSERT INTO accounts 42;",
        "expected an object literal (or an array of objects) to INSERT, "
        "found '42' at line 1 col 22",
    ),
    (
        False,
        "INSERT INTO accounts [1, 2];",
        "INSERT expects an object literal or a non-empty array of objects "
        "at line 1 col 22",
    ),
    (
        False,
        "INSERT INTO accounts [];",
        "INSERT expects an object literal or a non-empty array of objects "
        "at line 1 col 22",
    ),
    (False, "DELETE FROM accounts;", "expected WHERE, found ';' at line 1 col 21"),
    (
        False,
        "DELETE FROM accounts WHERE balance = 1;",
        "DELETE key field `balance` is not the primary key `id` of dataset "
        "'accounts' at line 1 col 1",
    ),
    (
        False,
        "DELETE FROM accounts WHERE id > 1;",
        "expected '=' comparing the primary key in DELETE ... WHERE, "
        "found '>' at line 1 col 31",
    ),
    (False, "BEGIN EXTRA;", "unexpected 'EXTRA' after statement end at line 1 col 7"),
]


@pytest.mark.parametrize(
    "open_txn,sql,message",
    GOLDEN_TXN_ERRORS,
    ids=[f"txnerr{i}" for i in range(len(GOLDEN_TXN_ERRORS))],
)
def test_golden_transaction_error(open_txn, sql, message):
    shell = _fresh_shell()
    if open_txn:
        shell.execute_statement("BEGIN;")
    with pytest.raises(SqlppError) as excinfo:
        shell.execute_statement(sql)
    assert str(excinfo.value) == message
    assert excinfo.value.line >= 1 and excinfo.value.column >= 1


def test_shell_transaction_commit_and_rollback_semantics():
    shell = _fresh_shell()
    dataset = shell.store.dataset("accounts")

    assert shell.execute_statement("INSERT INTO accounts {'id': 1, 'balance': 100};") == "INSERT 1"
    assert shell.execute_statement("BEGIN;") == "BEGIN (transaction #1)"
    status = shell.execute_statement(
        "INSERT INTO accounts [{'id': 1, 'balance': 90}, {'id': 2, 'balance': 10}];"
    )
    assert status == "INSERT 2 (buffered in transaction)"
    assert dataset.point_lookup(2) is None  # not visible before COMMIT
    assert shell.execute_statement("COMMIT;").startswith("COMMIT (sequence ")
    assert dataset.point_lookup(1)["balance"] == 90
    assert dataset.point_lookup(2)["balance"] == 10

    shell.execute_statement("BEGIN;")
    assert (
        shell.execute_statement("DELETE FROM accounts WHERE id = 1;")
        == "DELETE 1 (buffered in transaction)"
    )
    assert shell.execute_statement("ROLLBACK;") == "ROLLBACK"
    assert dataset.point_lookup(1)["balance"] == 90  # delete discarded

    # A conflicting COMMIT raises but always closes the shell's transaction.
    shell.execute_statement("BEGIN;")
    shell.execute_statement("INSERT INTO accounts {'id': 1, 'balance': 0};")
    dataset.insert({"id": 1, "balance": 77})  # invalidates the snapshot
    from repro.model.errors import TransactionConflictError

    with pytest.raises(TransactionConflictError):
        shell.execute_statement("COMMIT;")
    assert shell.txn is None
    assert shell.execute_statement("BEGIN;") == "BEGIN (transaction #4)"
    assert shell.execute_statement("COMMIT;") == "COMMIT (read-only)"


def test_shell_subprocess_transaction_round_trip():
    result = _run_shell(
        "BEGIN;\n"
        "INSERT INTO gamers {'id': 999, 'name': 'txn-user', 'games': []};\n"
        "COMMIT;\n"
        "SELECT g.name AS name FROM gamers AS g WHERE g.id = 999;\n"
    )
    assert result.returncode == 0, result.stderr
    assert "BEGIN (transaction #1)" in result.stdout
    assert "INSERT 1 (buffered in transaction)" in result.stdout
    assert "COMMIT (sequence" in result.stdout
    assert "txn-user" in result.stdout


def test_shell_subprocess_rolls_back_open_transaction_on_exit():
    result = _run_shell(
        "BEGIN;\n"
        "INSERT INTO gamers {'id': 998, 'name': 'ghost', 'games': []};\n"
        "SELECT COUNT(*) AS n FROM gamers AS g WHERE g.id = 998;\n"
    )
    assert result.returncode == 0, result.stderr
    # SELECT reads latest-committed state: the buffered insert is invisible,
    # and quitting with the transaction still open rolled it back.
    assert "rolled back open transaction" in result.stdout + result.stderr