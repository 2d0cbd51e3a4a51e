"""Joins, subqueries, and window functions: results, optimizer, errors.

Result tests compare every executor × every layout × pushdown on/off against
an independent pure-Python reference computed inline (not against another
executor), so a shared engine bug cannot self-certify.  The optimizer tests
pin the statistics-driven build-side choice as rendered by ``explain()``;
the error goldens pin the frontend's rejection messages.
"""

from __future__ import annotations

import pytest

from repro.model.errors import SqlppError
from repro.store import Datastore, StoreConfig

LAYOUTS = ("open", "vector", "apax", "amax")
EXECUTORS = ("interpreted", "batch")

USERS = [{"id": i, "name": f"u{i:02d}", "tier": i % 3} for i in range(8)]
#: ``user`` ranges over 0..11 while only users 0..7 exist: some orders dangle
#: and must vanish from every join.  ``total`` collides across orders so
#: window partitions and scalar-subquery comparisons see ties.
ORDERS = [
    {"id": i, "user": (i * 5) % 12, "total": (i * 7) % 40} for i in range(30)
]


@pytest.fixture(scope="module", params=LAYOUTS)
def store(request):
    db = Datastore(StoreConfig(partitions_per_node=2))
    db.create_dataset("users", layout=request.param).insert_many(USERS)
    db.create_dataset("orders", layout=request.param).insert_many(ORDERS)
    yield db
    db.close()


def _all_modes(db, text, expected):
    for executor in EXECUTORS:
        for pushdown in (True, False):
            got = db.query(text, executor=executor, pushdown=pushdown)
            assert got == expected, f"{executor} pushdown={pushdown}: {text}"


# ======================================================================================
# Join results vs the inline reference
# ======================================================================================


def _ref_inner_join():
    rows = [
        {"id": o["id"], "name": u["name"], "total": o["total"]}
        for o in ORDERS
        for u in USERS
        if o["user"] == u["id"]
    ]
    return sorted(rows, key=lambda r: r["id"])


def test_explicit_join_matches_reference(store):
    text = (
        "SELECT o.id AS id, u.name AS name, o.total AS total "
        "FROM orders AS o JOIN users AS u ON o.user = u.id ORDER BY id;"
    )
    _all_modes(store, text, _ref_inner_join())


def test_comma_join_is_equivalent_to_explicit_join(store):
    text = (
        "SELECT o.id AS id, u.name AS name, o.total AS total "
        "FROM orders AS o, users AS u WHERE o.user = u.id ORDER BY id;"
    )
    _all_modes(store, text, _ref_inner_join())


def test_join_with_residual_filter(store):
    expected = [r for r in _ref_inner_join() if r["total"] > 20]
    text = (
        "SELECT o.id AS id, u.name AS name, o.total AS total "
        "FROM orders AS o JOIN users AS u ON o.user = u.id "
        "WHERE o.total > 20 ORDER BY id;"
    )
    _all_modes(store, text, expected)


def test_reversed_join_sides_give_the_same_rows(store):
    # FROM users JOIN orders — same equality, roles flipped in the text.
    text = (
        "SELECT o.id AS id, u.name AS name, o.total AS total "
        "FROM users AS u JOIN orders AS o ON o.user = u.id ORDER BY id;"
    )
    _all_modes(store, text, _ref_inner_join())


def test_null_missing_and_bool_join_keys_never_cross_match():
    db = Datastore(StoreConfig(partitions_per_node=2))
    try:
        left = [
            {"id": 1, "k": 1},
            {"id": 2, "k": True},  # bool: a distinct key space from numbers
            {"id": 3, "k": None},  # NULL never matches, not even NULL
            {"id": 4},  # MISSING never matches
            {"id": 5, "k": 1.0},  # numeric: 1.0 does match 1
        ]
        right = [{"id": 1, "k": 1}, {"id": 2, "k": None}, {"id": 3}]
        db.create_dataset("l", layout="amax").insert_many(left)
        db.create_dataset("r", layout="amax").insert_many(right)
        text = "SELECT x.id AS i, y.id AS j FROM l AS x JOIN r AS y ON x.k = y.k ORDER BY i, j;"
        _all_modes(db, text, [{"i": 1, "j": 1}, {"i": 5, "j": 1}])
    finally:
        db.close()


# ======================================================================================
# Subqueries vs the inline reference
# ======================================================================================


def test_uncorrelated_in_subquery(store):
    big_spenders = {o["user"] for o in ORDERS if o["total"] > 25}
    expected = sorted(
        ({"name": u["name"]} for u in USERS if u["id"] in big_spenders),
        key=lambda r: r["name"],
    )
    text = (
        "SELECT u.name AS name FROM users AS u WHERE u.id IN "
        "(SELECT VALUE o.user FROM orders AS o WHERE o.total > 25) "
        "ORDER BY name;"
    )
    _all_modes(store, text, list(expected))


def test_uncorrelated_scalar_subquery(store):
    average = sum(o["total"] for o in ORDERS) / len(ORDERS)
    expected = sorted(
        ({"id": o["id"]} for o in ORDERS if o["total"] > average),
        key=lambda r: r["id"],
    )
    text = (
        "SELECT o.id AS id FROM orders AS o WHERE o.total > "
        "(SELECT AVG(x.total) FROM orders AS x) ORDER BY id;"
    )
    _all_modes(store, text, expected)


def test_correlated_count_subquery(store):
    expected = [
        {
            "name": u["name"],
            "n": sum(1 for o in ORDERS if o["user"] == u["id"]),
        }
        for u in sorted(USERS, key=lambda u: u["name"])
    ]
    text = (
        "SELECT u.name AS name, (SELECT COUNT(*) FROM orders AS o "
        "WHERE o.user = u.id) AS n FROM users AS u ORDER BY name;"
    )
    _all_modes(store, text, expected)


def test_in_literal_list(store):
    expected = [{"id": o["id"]} for o in ORDERS if o["total"] in (0, 7, 35)]
    expected.sort(key=lambda r: r["id"])
    text = (
        "SELECT o.id AS id FROM orders AS o WHERE o.total IN [0, 7, 35] "
        "ORDER BY id;"
    )
    _all_modes(store, text, expected)


# ======================================================================================
# Window functions vs the inline reference
# ======================================================================================


def _ref_running_sum():
    rows = []
    seen: dict = {}
    for o in sorted(ORDERS, key=lambda o: o["id"]):
        seen[o["user"]] = seen.get(o["user"], 0) + o["total"]
        rows.append({"id": o["id"], "run": seen[o["user"]]})
    return rows


def test_partitioned_running_sum(store):
    text = (
        "SELECT o.id AS id, SUM(o.total) OVER (PARTITION BY o.user "
        "ORDER BY o.id) AS run FROM orders AS o ORDER BY id;"
    )
    _all_modes(store, text, _ref_running_sum())


def test_row_number_descending(store):
    expected = [
        {"id": o["id"], "rank": len(ORDERS) - o["id"]}
        for o in sorted(ORDERS, key=lambda o: o["id"])
    ]
    text = (
        "SELECT o.id AS id, ROW_NUMBER() OVER (ORDER BY o.id DESC) AS rank "
        "FROM orders AS o ORDER BY id;"
    )
    _all_modes(store, text, expected)


def test_window_count_beside_plain_columns(store):
    expected = []
    counts: dict = {}
    for o in sorted(ORDERS, key=lambda o: o["id"]):
        counts[o["user"]] = counts.get(o["user"], 0) + 1
        expected.append(
            {"id": o["id"], "total": o["total"], "nth": counts[o["user"]]}
        )
    text = (
        "SELECT o.id AS id, o.total AS total, COUNT(*) OVER "
        "(PARTITION BY o.user ORDER BY o.id) AS nth "
        "FROM orders AS o ORDER BY id;"
    )
    _all_modes(store, text, expected)


# ======================================================================================
# Optimizer: statistics-driven build-side choice
# ======================================================================================


@pytest.fixture(scope="module")
def flushed_store():
    """Statistics exist only for flushed components."""
    db = Datastore(StoreConfig(partitions_per_node=2))
    users = db.create_dataset("users", layout="amax")
    users.insert_many(USERS)
    users.flush_all()
    orders = db.create_dataset("orders", layout="amax")
    orders.insert_many(ORDERS)
    orders.flush_all()
    yield db
    db.close()


def test_explain_reports_build_and_probe_cardinalities(flushed_store):
    # Scanning the big side and hashing the small side is already optimal:
    # the optimizer keeps the written order and reports the statistics.
    text = (
        "SELECT o.id AS id FROM orders AS o JOIN users AS u "
        "ON o.user = u.id ORDER BY id;"
    )
    plan = flushed_store.explain(text)
    assert "HASH-JOIN users AS $u" in plan
    assert f"build rows~{len(USERS)}, probe rows~{len(ORDERS)}" in plan
    assert "swapped by optimizer" not in plan


def test_optimizer_swaps_join_when_build_side_is_larger(flushed_store):
    # Written with the big dataset on the build side: statistics flip it.
    text = (
        "SELECT u.id AS id FROM users AS u JOIN orders AS o "
        "ON u.id = o.user ORDER BY id;"
    )
    plan = flushed_store.explain(text)
    assert "swapped by optimizer" in plan
    assert "HASH-JOIN users AS $u" in plan  # users became the build side
    assert f"build rows~{len(USERS)}, probe rows~{len(ORDERS)}" in plan
    # The swap is invisible in the results.
    expected = sorted(
        ({"id": o["user"]} for o in ORDERS if o["user"] < len(USERS)),
        key=lambda r: r["id"],
    )
    _all_modes(flushed_store, text, expected)


# ======================================================================================
# Error goldens
# ======================================================================================


def _compile_error(text: str) -> str:
    from repro.sqlpp import compile_query

    with pytest.raises(SqlppError) as excinfo:
        compile_query(text)
    return str(excinfo.value)


def test_cross_product_is_rejected():
    message = _compile_error(
        "SELECT x.id AS i FROM a AS x, b AS y ORDER BY i;"
    )
    assert "cross products are unsupported" in message


def test_join_on_must_be_a_single_equality():
    message = _compile_error(
        "SELECT x.id AS i FROM a AS x JOIN b AS y ON x.k < y.k ORDER BY i;"
    )
    assert "must be a single equality" in message


def test_window_with_group_by_is_rejected():
    message = _compile_error(
        "SELECT g AS g, COUNT(*) OVER (ORDER BY g) AS n FROM a AS t "
        "GROUP BY t.g AS g;"
    )
    assert "cannot be combined with GROUP BY" in message


def test_plain_aggregate_beside_window_is_rejected():
    message = _compile_error(
        "SELECT SUM(t.v) AS s, COUNT(*) OVER (ORDER BY t.id) AS n "
        "FROM a AS t;"
    )
    assert "needs an OVER clause" in message


def test_over_requires_a_window_function():
    message = _compile_error(
        "SELECT UPPER(t.v) OVER (ORDER BY t.id) AS s FROM a AS t;"
    )
    assert "requires a window-function call" in message


def test_row_number_takes_no_arguments():
    message = _compile_error(
        "SELECT ROW_NUMBER(t.v) OVER (ORDER BY t.id) AS r FROM a AS t;"
    )
    assert "takes no arguments" in message


def test_count_expr_in_over_is_rejected():
    message = _compile_error(
        "SELECT COUNT(t.v) OVER (ORDER BY t.id) AS n FROM a AS t;"
    )
    assert "only COUNT(*) is supported" in message
