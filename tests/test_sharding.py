"""Sharded scatter-gather tests: routing, partial-aggregate merges, and the
multi-process differential suite.

The expensive fixtures spawn real ``python -m repro.server`` shard processes
(1, 2, and 4 shards, module-scoped) and load the paper's ``cell`` corpus
under all four layouts plus ``sensors`` under amax; every benchmark-suite
query then runs both through the coordinator and through a single-process
oracle store holding identical documents.  Merge edge cases (AVG with
zero-row shards, MIN/MAX over MISSING and mixed types, COUNT with
antimatter) get direct unit tests against :mod:`repro.shard.partial` so the
failure, if any, points at the merge rather than at five processes.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import LAYOUTS
from repro.bench.queries import SQLPP_QUERY_SUITES
from repro.datasets.generators import make_generator
from repro.lsm.keys import stable_key_hash
from repro.model.errors import QueryError
from repro.model.values import MISSING
from repro.query.executor import run_breakers
from repro.query.plan import WindowNode
from repro.shard import ShardCluster, shard_for_key, split_query
from repro.shard.partial import merge_rows
from repro.sqlpp import compile_query
from repro.store import Datastore, StoreConfig

from conftest import RETIRED_EXECUTOR, seeded_rng
from test_executor_differential import _document, generate_query

CELL_DOCS = list(make_generator("cell", 300, seed=11))
SENSORS_DOCS = list(make_generator("sensors", 80, seed=11))

CELL_QUERIES = dict(SQLPP_QUERY_SUITES["cell"])
CELL_QUERIES["cell_avg"] = (
    "SELECT AVG(c.duration) AS a, SUM(c.duration) AS s, MIN(c.signal) AS lo, "
    "MAX(c.signal) AS hi FROM {dataset} AS c;"
)
CELL_QUERIES["cell_stream"] = (
    "SELECT c.id AS id, c.duration AS d FROM {dataset} AS c "
    "WHERE c.duration >= 3000 ORDER BY d DESC, id LIMIT 7;"
)
CELL_QUERIES["cell_value"] = (
    "SELECT VALUE c.duration FROM {dataset} AS c WHERE c.id < 5;"
)
CELL_QUERIES["cell_group_avg"] = (
    "SELECT tower AS tower, COUNT(*) AS n, AVG(c.duration) AS a "
    "FROM {dataset} AS c GROUP BY c.tower AS tower ORDER BY n DESC, tower "
    "LIMIT 12;"
)
SENSORS_QUERIES = dict(SQLPP_QUERY_SUITES["sensors"])

# The bench suites order by an aggregate and cut with LIMIT; ties at the cut
# make the surviving rows depend on merge order (true in any distributed
# engine).  The differential tests append a unique tie-breaker key so both
# sides produce one well-defined answer; the aggregate VALUES are still
# compared bit-for-bit.
CELL_QUERIES["cell_q2"] = CELL_QUERIES["cell_q2"].replace(
    "ORDER BY m DESC", "ORDER BY m DESC, caller"
)
for _name in ("sensors_q3", "sensors_q4"):
    SENSORS_QUERIES[_name] = SENSORS_QUERIES[_name].replace(
        "ORDER BY max_temp DESC", "ORDER BY max_temp DESC, sid"
    )


def _split(text: str):
    compiled = compile_query(text.replace("{dataset}", "t"))
    return split_query(compiled.query)


# ======================================================================================
# Routing
# ======================================================================================


def test_shard_for_key_is_stable_and_spreads():
    assert shard_for_key(42, 4) == stable_key_hash(42) % 4
    for num_shards in (1, 2, 4):
        owners = {shard_for_key(key, num_shards) for key in range(500)}
        assert owners == set(range(num_shards))
    # String and int keys both route deterministically.
    assert shard_for_key("user-7", 3) == shard_for_key("user-7", 3)


# ======================================================================================
# Plan splitting
# ======================================================================================


def test_split_kinds():
    assert _split("SELECT COUNT(*) FROM t AS c;").kind == "aggregate"
    assert (
        _split(
            "SELECT tower AS tower, COUNT(*) AS n FROM t AS c "
            "GROUP BY c.tower AS tower;"
        ).kind
        == "groupby"
    )
    assert (
        _split("SELECT c.id AS id FROM t AS c ORDER BY id LIMIT 3;").kind == "stream"
    )


def test_split_decomposes_avg_into_sum_and_count():
    split = _split("SELECT AVG(c.duration) AS a FROM t AS c;")
    assert split.kind == "aggregate"
    (merge,) = split.aggregates
    assert merge.function == "avg"
    assert merge.columns == ("a#sum", "a#n")
    local_aggs = split.local_query._breakers[-1].aggregates
    assert [(name, fn) for name, fn, _ in local_aggs] == [
        ("a#sum", "sum"),
        ("a#n", "countv"),
    ]


def test_split_keeps_order_and_limit_after_groupby_at_coordinator():
    split = _split(
        "SELECT tower AS tower, COUNT(*) AS n FROM t AS c "
        "GROUP BY c.tower AS tower ORDER BY n DESC LIMIT 5;"
    )
    assert split.kind == "groupby"
    # A per-shard LIMIT under a GROUP BY would drop groups that span shards.
    names = [type(op).__name__ for op in split.post_breakers]
    assert names == ["OrderByNode", "LimitNode"]
    local_names = [type(op).__name__ for op in split.local_query._breakers]
    assert "LimitNode" not in local_names and "OrderByNode" not in local_names


def test_split_window_query_routes_to_raw():
    # A window breaker is NOT shard-safe: running it per shard slice would
    # number/accumulate within each slice instead of over the whole dataset.
    split = _split(
        "SELECT t.id AS id, SUM(t.v) OVER (PARTITION BY t.g ORDER BY t.id) AS s "
        "FROM {dataset} AS t;"
    )
    assert split.kind == "raw"
    assert any(isinstance(op, WindowNode) for op in split.post_breakers)
    # Shards stream bare pipeline rows; every breaker runs at the coordinator.
    assert split.local_query._breakers == []


def test_split_unknown_breaker_routes_to_raw_not_stream():
    # Regression: an unrecognised breaker type must fall back to raw (shards
    # ship pipeline rows, coordinator runs the full breaker chain).  The old
    # code classified by the breakers it knew and silently dropped novel ones
    # from the post-merge chain — returning wrong rows instead of either
    # correct rows or an error.
    class NovelBreaker:
        pass

    compiled = compile_query("SELECT c.id AS id FROM t AS c;")
    compiled.query._breakers.append(NovelBreaker())
    split = split_query(compiled.query)
    assert split.kind == "raw"
    assert any(isinstance(op, NovelBreaker) for op in split.post_breakers)
    assert split.local_query._breakers == []


def test_run_breakers_rejects_unknown_breaker_type():
    # The coordinator replays post_breakers through run_breakers; a breaker
    # the executor does not understand must raise, never pass rows through.
    with pytest.raises(QueryError, match="unsupported breaker"):
        run_breakers([], [object()])


def test_split_joins_and_subqueries_route_to_fetch():
    compiled = compile_query(
        "SELECT x.id AS id FROM t AS x, u AS y WHERE x.g = y.g;"
    )
    split = split_query(compiled.query, pk_fields={"t": "id", "u": "id"})
    assert split.kind == "fetch"
    assert sorted(split.fetch_datasets) == ["t", "u"]
    compiled = compile_query(
        "SELECT t.id AS i FROM t AS t "
        "WHERE t.a IN (SELECT VALUE u.a FROM u AS u);"
    )
    split = split_query(compiled.query)
    assert split.kind == "fetch"
    assert sorted(split.fetch_datasets) == ["t", "u"]


def test_split_co_hashed_pk_join_stays_shard_local():
    text = "SELECT x.id AS id, y.v AS v FROM t AS x JOIN u AS y ON x.id = y.id ORDER BY id;"
    # Both sides join on their primary key: rows with equal keys live on the
    # same shard (placement hashes the pk), so the join can run per shard.
    compiled = compile_query(text)
    split = split_query(compiled.query, pk_fields={"t": "id", "u": "id"})
    assert split.kind == "stream"
    # Without primary-key knowledge co-hashing cannot be proven: fetch.
    assert split_query(compile_query(text).query).kind == "fetch"
    # Joining a pk to a non-pk field is never co-hashed.
    other = compile_query(
        "SELECT x.id AS id FROM t AS x JOIN u AS y ON x.id = y.ref ORDER BY id;"
    )
    assert split_query(other.query, pk_fields={"t": "id", "u": "id"}).kind == "fetch"


# ======================================================================================
# Merge edge cases (unit level — no processes involved)
# ======================================================================================


def test_merge_avg_with_zero_row_shards():
    split = _split("SELECT AVG(c.v) AS a FROM t AS c;")
    # One shard saw values, one saw rows with no numeric v, one saw nothing.
    merged = merge_rows(
        split,
        [
            [{"a#sum": 10, "a#n": 4}],
            [{"a#sum": None, "a#n": 0}],
            [{"a#sum": None, "a#n": 0}],
        ],
    )
    assert merged == [{"a": 2.5}]
    # All shards empty: AVG of nothing is NULL, not a ZeroDivisionError.
    merged = merge_rows(split, [[{"a#sum": None, "a#n": 0}]] * 3)
    assert merged == [{"a": None}]


def test_merge_sum_min_max_skip_empty_shard_partials():
    split = _split(
        "SELECT SUM(c.v) AS s, MIN(c.v) AS lo, MAX(c.v) AS hi FROM t AS c;"
    )
    merged = merge_rows(
        split,
        [
            [{"s": None, "lo": None, "hi": None}],
            [{"s": 7, "lo": 2, "hi": 9}],
            [{"s": 3, "lo": -1, "hi": 4}],
        ],
    )
    assert merged == [{"s": 10, "lo": -1, "hi": 9}]
    merged = merge_rows(split, [[{"s": None, "lo": None, "hi": None}]] * 2)
    assert merged == [{"s": None, "lo": None, "hi": None}]


def test_merge_min_mixed_types_raises_like_the_oracle():
    split = _split("SELECT MIN(c.v) AS lo FROM t AS c;")
    # One shard's slice was all strings, another's all ints — the
    # single-process aggregator raises TypeError on the same data.
    with pytest.raises(TypeError):
        merge_rows(split, [[{"lo": "abc"}], [{"lo": 3}]])
    assert merge_rows(split, [[{"lo": "abc"}], [{"lo": "abd"}]]) == [{"lo": "abc"}]


def test_merge_count_sums_partials():
    split = _split("SELECT COUNT(*) AS n FROM t AS c;")
    assert merge_rows(split, [[{"n": 5}], [{"n": 0}], [{"n": 7}]]) == [{"n": 12}]


def test_merge_groupby_combines_groups_across_shards():
    split = _split(
        "SELECT g AS g, COUNT(*) AS n, AVG(c.v) AS a FROM t AS c "
        "GROUP BY c.g AS g;"
    )
    merged = merge_rows(
        split,
        [
            [
                {"g": "x", "n": 2, "a#sum": 10, "a#n": 2},
                {"g": "y", "n": 1, "a#sum": None, "a#n": 0},
            ],
            [
                {"g": "y", "n": 3, "a#sum": 6, "a#n": 3},
                {"g": "z", "n": 1, "a#sum": 4, "a#n": 1},
            ],
        ],
    )
    by_key = {row["g"]: row for row in merged}
    assert by_key["x"] == {"g": "x", "n": 2, "a": 5.0}
    assert by_key["y"] == {"g": "y", "n": 4, "a": 2.0}
    assert by_key["z"] == {"g": "z", "n": 1, "a": 4.0}


#: Members of one conflated group (or of groups that must stay apart), and
#: the rows GROUP BY shows for them however the members arrive.
GROUP_IDENTITY_CASES = [
    # 1, 1.0 and True conflate (SQL++ equality); bool < int < float under rep_ranks.
    ([1.0, True, 1], [{"g": True, "n": 3}]),
    # int beats float when no bool is present.
    ([2.0, 2], [{"g": 2, "n": 2}]),
    # MISSING and NULL are one group, shown as NULL.
    ([None, MISSING, None], [{"g": None, "n": 3}]),
    # Equal-looking keys of different kinds stay separate groups.
    (["1", 1], [{"g": "1", "n": 1}, {"g": 1, "n": 1}]),
]


@pytest.mark.parametrize(
    "members, expected",
    GROUP_IDENTITY_CASES,
    ids=["bool-int-float", "int-float", "missing-null", "str-vs-int"],
)
def test_group_identity_is_the_same_for_every_caller(members, expected):
    """One key table, three callers: the interpreted GROUP BY feeds it rows,
    the batch GROUP BY vector slots, the coordinator's merge shard partials.
    All must show a group by the same representative, whichever member
    arrives first (compared by repr so 1 vs 1.0 vs True differences count).
    Batches of one row and shard lists of one member make every member its
    own single-type key vector, so the batched fast path must agree too;
    all members in one batch or list take the row-by-row fallback."""
    text = "SELECT g AS g, COUNT(*) AS n FROM t AS c GROUP BY c.g AS g;"
    split = _split(text)
    for ordered in (members, members[::-1]):
        docs = [
            {"id": i} if member is MISSING else {"id": i, "g": member}
            for i, member in enumerate(ordered)
        ]
        store = _oracle_with([("t", "amax", docs)])
        try:
            answers = {
                executor: store.query(text, executor=executor)
                for executor in ("interpreted", "batch")
            }
            answers["batch of 1"] = store.query(text, executor="batch", batch_size=1)
        finally:
            store.close()
        partials = [{"g": None if m is MISSING else m, "n": 1} for m in ordered]
        answers["merge, one list"] = merge_rows(split, [partials])
        answers["merge"] = merge_rows(split, [[partial] for partial in partials])
        for caller, rows in answers.items():
            assert sorted(map(repr, rows)) == sorted(map(repr, expected)), caller


def test_merge_rows_refuses_fetch_splits():
    compiled = compile_query(
        "SELECT x.id AS id FROM t AS x, u AS y WHERE x.g = y.g;"
    )
    split = split_query(compiled.query)
    assert split.kind == "fetch"
    with pytest.raises(ValueError):
        merge_rows(split, [])


# ======================================================================================
# Multi-process differential suite
# ======================================================================================


def _load(target, dataset_name: str, layout: str, documents) -> None:
    target.create_dataset(dataset_name, layout=layout)
    target.dataset(dataset_name).insert_many(documents)


@pytest.fixture(scope="module")
def oracle():
    """Single-process stores with the same corpora the clusters hold."""
    store = Datastore(StoreConfig(partitions_per_node=2))
    for layout in LAYOUTS:
        dataset = store.create_dataset(f"cell_{layout}", layout=layout)
        dataset.insert_many(CELL_DOCS)
    sensors = store.create_dataset("sensors_amax", layout="amax")
    sensors.insert_many(SENSORS_DOCS)
    yield store
    store.close()


@pytest.fixture(scope="module", params=[1, 2, 4], ids=["1shard", "2shards", "4shards"])
def sharded_env(request, tmp_path_factory):
    num_shards = request.param
    root = tmp_path_factory.mktemp(f"cluster{num_shards}")
    with ShardCluster(num_shards, root) as cluster:
        with cluster.connect() as sharded:
            for layout in LAYOUTS:
                sharded.create_dataset(f"cell_{layout}", layout=layout)
                sharded.dataset(f"cell_{layout}").insert_many(CELL_DOCS)
            sharded.create_dataset("sensors_amax", layout="amax")
            sharded.dataset("sensors_amax").insert_many(SENSORS_DOCS)
            sharded.checkpoint()
            yield num_shards, sharded, cluster


def _span(sharded, name: str):
    """The one ``name`` span of the statement this (single-threaded) test ran
    last — where what a scatter-gather moved is recorded: ``scatter`` carries
    ``shards``; ``merge`` carries ``kind``, ``rows_in`` (rows that crossed the
    wire) and ``rows_out``."""
    found = sharded.last_trace.find(name)
    assert found in sharded.last_trace.root.children, name
    return found


def _shard_requests(sharded) -> float:
    return sum(
        sharded.metrics.get_value("repro_shard_requests_total", shard=str(shard))
        for shard in range(sharded.num_shards)
    )


def _assert_same_rows(got, want, text: str) -> None:
    if "ORDER BY" in text:
        assert got == want, text
    else:
        assert sorted(map(repr, got)) == sorted(map(repr, want)), text


@pytest.mark.parametrize("query_name", sorted(CELL_QUERIES))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_cell_queries_match_single_process_across_layouts(
    sharded_env, oracle, layout, query_name
):
    num_shards, sharded, _ = sharded_env
    dataset = f"cell_{layout}"
    text = CELL_QUERIES[query_name].replace("{dataset}", dataset)
    got = sharded.query(text)
    want = oracle.query(text)
    _assert_same_rows(got, want, text)
    assert _span(sharded, "scatter").attrs["shards"] == num_shards


@pytest.mark.parametrize("query_name", sorted(SENSORS_QUERIES))
def test_sensors_queries_match_single_process(sharded_env, oracle, query_name):
    _, sharded, _ = sharded_env
    text = SENSORS_QUERIES[query_name].replace("{dataset}", "sensors_amax")
    got = sharded.query(text)
    want = oracle.query(text)
    _assert_same_rows(got, want, text)


@pytest.mark.parametrize("executor", ["interpreted", "batch"])
def test_shards_agree_across_executors(sharded_env, oracle, executor):
    _, sharded, _ = sharded_env
    text = (
        "SELECT tower AS tower, COUNT(*) AS n FROM cell_amax AS c "
        "GROUP BY c.tower AS tower ORDER BY n DESC, tower LIMIT 5;"
    )
    assert sharded.query(text, executor=executor) == oracle.query(text)


def test_coordinator_rejects_an_unknown_executor_before_scattering(sharded_env):
    _, sharded, _ = sharded_env
    text = "SELECT COUNT(*) AS n FROM cell_amax AS c;"
    sharded.query(text)
    sent = _shard_requests(sharded)
    # A local QueryError, not a shard's RemoteError: nothing was sent.
    with pytest.raises(QueryError, match="one of: interpreted, batch"):
        sharded.query(text, executor=RETIRED_EXECUTOR)
    assert _shard_requests(sharded) == sent > 0
    assert sharded.query(text) == [{"n": len(CELL_DOCS)}]


def test_pushdown_moves_aggregates_not_rows(sharded_env):
    num_shards, sharded, _ = sharded_env
    # COUNT(*): one partial row per shard crosses the wire — never the data.
    before = sharded.io_snapshot()
    rows = sharded.query("SELECT COUNT(*) AS n FROM cell_amax AS c;")
    assert rows == [{"n": len(CELL_DOCS)}]
    merge = _span(sharded, "merge").attrs
    assert merge["kind"] == "aggregate"
    assert merge["rows_in"] == num_shards
    # ... and per shard the COUNT(*) shortcut reads zero data pages (the
    # shards' done frames feed the coordinator's io_snapshot()).
    io = sharded.io_snapshot().delta_since(before)
    assert io.pages_read + io.cache_hits == 0
    # GROUP BY: per-shard groups cross, bounded by shards × group count —
    # for a low-cardinality key, far fewer rows than the dataset holds.
    groups = len({doc["dropped"] for doc in CELL_DOCS})
    sharded.query(
        "SELECT d AS d, COUNT(*) AS n FROM cell_amax AS c "
        "GROUP BY c.dropped AS d;"
    )
    merge = _span(sharded, "merge").attrs
    assert merge["kind"] == "groupby"
    assert merge["rows_in"] <= num_shards * groups < len(CELL_DOCS)


def test_point_operations_route_to_owning_shard(sharded_env, oracle):
    num_shards, sharded, _ = sharded_env
    for key in (0, 7, 123, 299):
        assert sharded.dataset(f"cell_{LAYOUTS[0]}").point_lookup(key) == oracle.dataset(
            f"cell_{LAYOUTS[0]}"
        ).point_lookup(key)
    assert sharded.dataset("cell_amax").count() == len(CELL_DOCS)


def test_count_with_per_shard_antimatter(sharded_env):
    num_shards, sharded, _ = sharded_env
    name = f"anti_{num_shards}"
    docs = [{"id": i, "v": i % 10} for i in range(100)]
    sharded.create_dataset(name, layout="amax")
    sharded.dataset(name).insert_many(docs)
    sharded.checkpoint()  # flush, so deletes become antimatter records
    deleted = list(range(0, 100, 3))
    for key in deleted:
        sharded.dataset(name).delete(key)
    oracle = Datastore(StoreConfig(partitions_per_node=2))
    try:
        dataset = oracle.create_dataset(name, layout="amax")
        dataset.insert_many(docs)
        dataset.flush_all()
        for key in deleted:
            dataset.delete(key)
        for text in (
            f"SELECT COUNT(*) AS n FROM {name} AS t;",
            f"SELECT AVG(t.v) AS a, SUM(t.v) AS s FROM {name} AS t;",
        ):
            assert sharded.query(text) == oracle.query(text), text
        assert sharded.dataset(name).count() == 100 - len(deleted)
    finally:
        oracle.close()


def test_distributed_explain_renders_both_fragments(sharded_env):
    num_shards, sharded, _ = sharded_env
    text = sharded.explain(
        "SELECT tower AS tower, COUNT(*) AS n FROM cell_amax AS c "
        "GROUP BY c.tower AS tower;"
    )
    assert f"DISTRIBUTED SCATTER-GATHER over {num_shards} shards" in text
    assert "MERGE-GROUPBY" in text
    assert "SHARD FRAGMENT" in text and "SCAN" in text


# ======================================================================================
# Fault injection: kill a shard mid-ingest, restart, no data loss
# ======================================================================================


@pytest.mark.parametrize("graceful", [False, True], ids=["sigkill", "sigterm"])
def test_shard_restart_recovers_from_its_own_wal(tmp_path, graceful):
    with ShardCluster(2, tmp_path) as cluster:
        sharded = cluster.connect()
        sharded.create_dataset("t", layout="amax")
        sharded.dataset("t").insert_many([{"id": i, "v": i} for i in range(120)])
        sharded.checkpoint()
        # A second wave that is durable only in the WALs (no checkpoint).
        sharded.dataset("t").insert_many([{"id": i, "v": i} for i in range(120, 160)])
        if graceful:
            cluster.terminate_shard(1)  # SIGTERM: drain + checkpoint
        else:
            cluster.kill_shard(1)  # SIGKILL mid-flight: recovery replays WAL
        address = cluster.restart_shard(1)
        sharded.reconnect_shard(1, address)
        recovery = sharded.recovery_info(1)
        assert recovery is not None
        assert recovery["datasets_recovered"] == 1
        if graceful:
            # Graceful shutdown checkpointed: the WAL tail was empty.
            assert recovery["wal_records_replayed"] == 0
        else:
            # The crash lost nothing: the uncheckpointed wave replays.
            assert recovery["wal_records_replayed"] > 0
        assert sharded.dataset("t").count() == 160
        rows = sharded.query("SELECT COUNT(*) AS n FROM t AS t;")
        assert rows == [{"n": 160}]
        for key in (0, 125, 159):
            assert sharded.dataset("t").point_lookup(key) == {"id": key, "v": key}
        sharded.close()


# ======================================================================================
# Joins, subqueries, and windows across shards
# ======================================================================================

#: Every query orders by a unique key so exact row-order comparison is valid.
JOIN_DIFF_QUERIES = (
    # Comma join with the equi-condition in WHERE.
    "SELECT o.id AS id, u.name AS name FROM {o} AS o, {u} AS u "
    "WHERE o.user = u.id ORDER BY id;",
    # Explicit JOIN ... ON, plus a residual filter.
    "SELECT o.id AS id, u.name AS name, o.total AS total FROM {o} AS o "
    "JOIN {u} AS u ON o.user = u.id WHERE o.total > 30 ORDER BY id;",
    # Uncorrelated IN subquery.
    "SELECT u.name AS name FROM {u} AS u WHERE u.id IN "
    "(SELECT VALUE o.user FROM {o} AS o WHERE o.total > 50) ORDER BY name;",
    # Uncorrelated scalar subquery.
    "SELECT o.id AS id FROM {o} AS o WHERE o.total > "
    "(SELECT AVG(x.total) FROM {o} AS x) ORDER BY id;",
    # Correlated subquery (nested-loop fallback at the coordinator).
    "SELECT u.name AS name, (SELECT COUNT(*) FROM {o} AS o "
    "WHERE o.user = u.id) AS n FROM {u} AS u ORDER BY name;",
    # Window functions: running sum per user, global row numbers.
    "SELECT o.id AS id, SUM(o.total) OVER (PARTITION BY o.user "
    "ORDER BY o.id) AS run FROM {o} AS o ORDER BY id;",
    "SELECT o.id AS id, ROW_NUMBER() OVER (ORDER BY o.id DESC) AS rank "
    "FROM {o} AS o ORDER BY id;",
)


def _users_orders(num_shards: int):
    users_name, orders_name = f"users{num_shards}", f"orders{num_shards}"
    users = [{"id": i, "name": f"u{i:02d}", "tier": i % 3} for i in range(12)]
    # (i * 7) % 15 dangles past the last user id: joins must drop those rows.
    orders = [
        {"id": i, "user": (i * 7) % 15, "total": (i * 13) % 97} for i in range(40)
    ]
    return users_name, users, orders_name, orders


def _oracle_with(datasets):
    store = Datastore(StoreConfig(partitions_per_node=2))
    for name, layout, docs in datasets:
        store.create_dataset(name, layout=layout).insert_many(docs)
    return store


@pytest.fixture(scope="module")
def join_env(sharded_env):
    num_shards, sharded, _ = sharded_env
    users_name, users, orders_name, orders = _users_orders(num_shards)
    sharded.create_dataset(users_name, layout="amax")
    sharded.dataset(users_name).insert_many(users)
    sharded.create_dataset(orders_name, layout="vector")
    sharded.dataset(orders_name).insert_many(orders)
    sharded.checkpoint()
    oracle = _oracle_with(
        [(users_name, "amax", users), (orders_name, "vector", orders)]
    )
    yield num_shards, sharded, oracle, users_name, orders_name
    oracle.close()


@pytest.mark.parametrize("executor", ["interpreted", "batch"])
def test_joins_subqueries_windows_match_single_process(join_env, executor):
    _, sharded, oracle, users_name, orders_name = join_env
    for template in JOIN_DIFF_QUERIES:
        text = template.replace("{u}", users_name).replace("{o}", orders_name)
        got = sharded.query(text, executor=executor)
        want = oracle.query(text, executor=executor)
        assert got == want, text


def test_join_and_window_stats_report_execution_path(join_env):
    num_shards, sharded, _, users_name, orders_name = join_env
    sharded.query(
        f"SELECT o.id AS id, u.name AS name FROM {orders_name} AS o, "
        f"{users_name} AS u WHERE o.user = u.id ORDER BY id;"
    )
    merge = _span(sharded, "merge").attrs
    assert merge["kind"] == "fetch"
    # The fetch pulled both whole datasets to the coordinator.
    assert merge["rows_in"] == 40 + 12
    sharded.query(
        f"SELECT o.id AS id, ROW_NUMBER() OVER (ORDER BY o.id) AS r "
        f"FROM {orders_name} AS o ORDER BY id;"
    )
    assert _span(sharded, "merge").attrs["kind"] == "raw"


def test_co_hashed_pk_join_runs_shard_local(join_env):
    num_shards, sharded, oracle, users_name, orders_name = join_env
    # users ⋈ users on the primary key: co-hashed, so no dataset crosses the
    # wire — each shard joins its own slice and streams the joined rows.
    mirror = f"mirror{num_shards}"
    users = [{"id": i, "name": f"u{i:02d}", "tier": i % 3} for i in range(12)]
    sharded.create_dataset(mirror, layout="amax")
    sharded.dataset(mirror).insert_many(users)
    oracle.create_dataset(mirror, layout="amax").insert_many(users)
    text = (
        f"SELECT a.id AS id, b.tier AS tier FROM {users_name} AS a "
        f"JOIN {mirror} AS b ON a.id = b.id ORDER BY id;"
    )
    got = sharded.query(text)
    assert got == oracle.query(text)
    merge = _span(sharded, "merge").attrs
    assert merge["kind"] == "stream"
    assert merge["rows_in"] == len(users)


def test_distributed_explain_shows_fetch_plan(join_env):
    _, sharded, _, users_name, orders_name = join_env
    text = sharded.explain(
        f"SELECT o.id AS id, u.name AS name FROM {orders_name} AS o "
        f"JOIN {users_name} AS u ON o.user = u.id ORDER BY id;"
    )
    assert "kind=fetch" in text
    assert "FETCH-AND-EXECUTE" in text
    assert users_name in text and orders_name in text
    assert "HASH-JOIN" in text  # the coordinator-side plan is rendered too


def test_order_by_null_and_missing_match_single_process(sharded_env):
    # MISSING field values surface as NULL once projected (the engine
    # conflates them at assign time), so the coordinator re-sort only ever
    # sees None sort keys; the unique id tie-breaker pins the full order.
    num_shards, sharded, _ = sharded_env
    name = f"nulls{num_shards}"
    docs = []
    for i in range(30):
        doc = {"id": i}
        if i % 3 == 0:
            doc["v"] = i
        elif i % 3 == 1:
            doc["v"] = None
        docs.append(doc)  # i % 3 == 2: v is MISSING entirely
    sharded.create_dataset(name, layout="amax")
    sharded.dataset(name).insert_many(docs)
    oracle = _oracle_with([(name, "amax", docs)])
    try:
        text = f"SELECT t.id AS id, t.v AS v FROM {name} AS t ORDER BY v, id;"
        got = sharded.query(text)
        assert got == oracle.query(text)
        # NULL (and conflated MISSING) rows precede every valued row.
        kinds = ["null" if row["v"] is None else "value" for row in got]
        assert kinds == ["null"] * kinds.count("null") + ["value"] * kinds.count(
            "value"
        )
        assert kinds.count("null") == 20
    finally:
        oracle.close()


def test_groupby_mixed_type_keys_match_single_process(sharded_env):
    # End-to-end lock on the merge-representative fix: group keys mixing
    # True/1/1.0 (one group) and False/0/0.0 (another) must come back with
    # the exact representative the single-process oracle picks, on every
    # shard count.  Compared by repr so 1 vs 1.0 vs True differences count.
    num_shards, sharded, _ = sharded_env
    name = f"mixed{num_shards}"
    keys = [1, 1.0, True, 0, 0.0, False, "1", 2, 2.0, None]
    docs = []
    for i in range(80):
        doc = {"id": i, "v": i % 7}
        if i % 11 != 0:  # every 11th doc leaves g MISSING
            doc["g"] = keys[i % len(keys)]
        docs.append(doc)
    sharded.create_dataset(name, layout="apax")
    sharded.dataset(name).insert_many(docs)
    sharded.checkpoint()
    oracle = _oracle_with([(name, "apax", docs)])
    try:
        text = (
            f"SELECT g AS g, COUNT(*) AS n, SUM(t.v) AS s FROM {name} AS t "
            "GROUP BY t.g AS g;"
        )
        got = sharded.query(text)
        want = oracle.query(text)
        assert sorted(map(repr, got)) == sorted(map(repr, want))
        assert _span(sharded, "merge").attrs["kind"] == "groupby"
    finally:
        oracle.close()


# ======================================================================================
# Sharded fuzz differential: the widened executor-fuzz corpus vs one process
# ======================================================================================

SHARD_FUZZ_QUERIES = 60
SHARD_FUZZ_ATTEMPTS = 200


def _shard_fuzz_hazard(text: str) -> bool:
    """Queries whose sharded answer legitimately differs in the last ulp.

    Partial aggregation folds per-shard float subtotals at the coordinator,
    so ``SUM``/``AVG`` over the float column ``c`` may differ from the
    single-process left-to-right fold by rounding.  Window aggregates are
    fine: the raw path recomputes them at the coordinator in ``ORDER BY``
    order, identical to the oracle.
    """
    if "OVER (" in text:
        return False
    return "SUM(t.c)" in text or "AVG(t.c)" in text


@pytest.fixture(scope="module")
def fuzz_env(sharded_env):
    """Datasets named exactly ``d`` and ``m`` (generate_query hardcodes them)
    with identical documents on the cluster and a single-process oracle."""
    num_shards, sharded, _ = sharded_env
    rng = seeded_rng(6011, salt=101)
    d_first = [_document(rng, key) for key in range(0, 150)]
    d_second = [_document(rng, key) for key in range(150, 300)]
    m_base = [_document(rng, key) for key in range(0, 200)]
    m_updates = [_document(rng, key) for key in range(50, 90, 4)]
    m_fresh = [_document(rng, key) for key in range(200, 240)]
    deletes = list(range(0, 40, 3))

    sharded.create_dataset("d", layout="amax")
    sharded.dataset("d").insert_many(d_first)
    sharded.checkpoint()
    sharded.dataset("d").insert_many(d_second)
    sharded.checkpoint()
    sharded.create_dataset("m", layout="vector")
    sharded.dataset("m").insert_many(m_base)
    sharded.checkpoint()  # flushed, so the deletes below become antimatter
    for key in deletes:
        sharded.dataset("m").delete(key)
    sharded.dataset("m").insert_many(m_updates)
    sharded.dataset("m").insert_many(m_fresh)

    oracle = Datastore(StoreConfig(partitions_per_node=2))
    d = oracle.create_dataset("d", layout="amax")
    d.insert_many(d_first)
    d.flush_all()
    d.insert_many(d_second)
    d.flush_all()
    m = oracle.create_dataset("m", layout="vector")
    m.insert_many(m_base)
    m.flush_all()
    for key in deletes:
        m.delete(key)
    m.insert_many(m_updates)
    m.insert_many(m_fresh)
    yield num_shards, sharded, oracle
    oracle.close()


def test_fuzz_corpus_matches_single_process(fuzz_env):
    num_shards, sharded, oracle = fuzz_env
    rng = seeded_rng(6011, salt=202)
    executors = ("interpreted", "batch")
    ran = 0
    for attempt in range(SHARD_FUZZ_ATTEMPTS):
        if ran >= SHARD_FUZZ_QUERIES:
            break
        text = generate_query(rng)
        if _shard_fuzz_hazard(text):
            continue
        got = sharded.query(text, executor=executors[ran % len(executors)])
        want = oracle.query(text)
        if " ORDER BY i" in text:
            assert got == want, f"shards={num_shards} seed-index={attempt}: {text}"
        else:
            assert sorted(map(repr, got)) == sorted(
                map(repr, want)
            ), f"shards={num_shards} seed-index={attempt}: {text}"
        ran += 1
    assert ran == SHARD_FUZZ_QUERIES
