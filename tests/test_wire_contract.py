"""One wire contract, two roles.

The same :class:`~repro.net.server.SessionHandler` and
:class:`~repro.net.session.StatementSession` serve an engine (one
``Datastore``) and a shard coordinator (a ``ShardedDatastore`` over two
in-process shards).  Every request below is sent to both; the answers must
agree — rows, statuses, error codes and messages, and the *set* of done-frame
fields (``shards`` is the coordinator's only extra) — so a client cannot tell
the roles apart except where the contract says so (BEGIN, ``mode:
"partial"``).

Also here, because they need the same rig: the per-connection attribution of
traces under concurrency, and the one-parse-per-statement count.
"""

from __future__ import annotations

import threading

import pytest

from repro.net.client import RemoteError
from repro.net.server import SessionHandler
from repro.store import Datastore, StoreConfig

from conftest import ServerThread, ShardRig

#: Done-frame fields whose *values* legitimately differ between the roles
#: (commit sequences are per shard, plans and metrics name the topology, ...).
ROLE_SPECIFIC_VALUES = {
    "io", "query_id", "sequence", "trace", "text", "explain", "recovery", "shards",
}

ACCOUNTS = [{"id": i, "owner": f"o{i % 3}", "balance": 10 * i} for i in range(1, 9)]


@pytest.fixture()
def roles():
    """``{"engine": client, "coordinator": client}`` over empty stores."""
    engine = Datastore(StoreConfig(partitions_per_node=2))
    engine_server = ServerThread(engine, metrics=engine.metrics)
    rig = ShardRig(2)
    clients = {
        "engine": engine_server.connect(),
        "coordinator": rig.serve().connect(),
    }
    assert clients["coordinator"].server_hello["role"] == "coordinator"
    try:
        yield clients
    finally:
        for client in clients.values():
            client.close()
        rig.close()
        engine_server.stop()
        engine.close()


def _send(client, payload: dict):
    try:
        return client.request(dict(payload))
    except RemoteError as error:
        return error


def both(clients, payload: dict, extra=frozenset({"shards"})):
    """Send one request to both roles, hold the answers to the contract, and
    return the engine's (a ``StatementResult``, or the ``RemoteError``).

    ``extra`` names the done fields only the coordinator may add: ``shards``
    on statements, nothing on any other op.
    """
    engine = _send(clients["engine"], payload)
    coordinator = _send(clients["coordinator"], payload)
    if isinstance(engine, RemoteError) or isinstance(coordinator, RemoteError):
        assert isinstance(engine, RemoteError), (payload, coordinator.done)
        assert isinstance(coordinator, RemoteError), (payload, engine.done)
        assert str(coordinator) == str(engine)
        assert coordinator.code == engine.code, payload
        return engine
    assert sorted(map(repr, coordinator.rows)) == sorted(map(repr, engine.rows))
    if "ORDER BY" in payload.get("text", ""):
        assert coordinator.rows == engine.rows
    assert set(coordinator.done) - set(engine.done) == set(extra) & set(
        coordinator.done
    ), payload
    assert set(engine.done) <= set(coordinator.done), payload
    for key in set(engine.done) - ROLE_SPECIFIC_VALUES:
        assert coordinator.done[key] == engine.done[key], (payload, key)
    return engine


def statement(clients, text: str, **fields):
    result = both(clients, {"op": "statement", "text": text, **fields})
    if not isinstance(result, RemoteError):
        # `shards` rides every coordinator statement, and only there.
        assert "shards" not in result.done
    return result


def _create_accounts(clients) -> None:
    both(clients, {"op": "create_dataset", "name": "accounts", "layout": "amax"},
         extra=())


# ======================================================================================
# SQL++ statements
# ======================================================================================


def test_sqlpp_dml_and_selects_agree(roles):
    _create_accounts(roles)
    one = statement(roles, "INSERT INTO accounts {'id': 100, 'owner': 'z', 'balance': 5};")
    assert one.status == "INSERT 1" and one.sequence is not None
    several = statement(
        roles,
        "INSERT INTO accounts [{'id': 1, 'owner': 'a', 'balance': 10}, "
        "{'id': 2, 'owner': 'b', 'balance': 20}, {'id': 3, 'owner': 'a', 'balance': 30}];",
    )
    assert several.status == "INSERT 3" and several.sequence is None
    rows = statement(
        roles, "SELECT t.id AS id, t.balance AS b FROM accounts AS t ORDER BY id;"
    )
    assert [row["id"] for row in rows.rows] == [1, 2, 3, 100]
    assert rows.done["result"] == "rows" and rows.done["rows_returned"] == 4
    values = statement(roles, "SELECT VALUE t.owner FROM accounts AS t WHERE t.id < 3;")
    assert sorted(values.rows) == ["a", "b"]
    grouped = statement(
        roles,
        "SELECT o AS o, COUNT(*) AS n, SUM(t.balance) AS s FROM accounts AS t "
        "GROUP BY t.owner AS o ORDER BY o;",
        explain=True,
    )
    assert grouped.rows[0] == {"o": "a", "n": 2, "s": 40}
    assert grouped.done["explain"]
    constant = statement(roles, "SELECT 1 AS one, 'x' AS s;", explain=True)
    assert constant.rows == [{"one": 1, "s": "x"}]
    assert "explain" not in constant.done  # FROM-less: nothing to plan
    deleted = statement(roles, "DELETE FROM accounts WHERE id = 2;")
    assert deleted.status == "DELETE 1" and deleted.sequence is not None
    assert statement(roles, "SELECT COUNT(*) AS n FROM accounts AS t;").rows == [{"n": 3}]


def test_sqlpp_errors_agree(roles):
    _create_accounts(roles)
    not_key = statement(roles, "DELETE FROM accounts WHERE balance = 10;")
    assert not_key.code == "SqlppError"
    assert "is not the primary key `id`" in str(not_key)
    assert "line 1 col 1" in str(not_key)
    assert statement(roles, "INSERT INTO accounts 7;").code == "SqlppError"
    assert statement(roles, "INSERT INTO nosuch {'id': 1};").code == "DatasetError"
    assert statement(roles, "DELETE FROM nosuch WHERE id = 1;").code == "DatasetError"
    assert statement(roles, "SELECT FROM;").code == "SqlppError"
    assert statement(roles, "SELECT 1;", executor="no-such-executor").code == "QueryError"
    # Every failure left both connections usable.
    assert statement(roles, "SELECT 1 AS one;").rows == [{"one": 1}]


def test_transaction_control(roles):
    """Engine: BEGIN…COMMIT works.  Coordinator: BEGIN is refused, typed and
    positioned, the connection stays usable, and — no transaction having
    opened — COMMIT / ROLLBACK fail exactly as they do on an idle engine."""
    _create_accounts(roles)
    for verb in ("COMMIT", "ROLLBACK"):
        outside = statement(roles, f"\n  {verb};")
        assert outside.code == "SqlppError"
        assert str(outside) == f"{verb} outside a transaction at line 2 col 3"

    engine, coordinator = roles["engine"], roles["coordinator"]
    with pytest.raises(RemoteError) as refused:
        coordinator.statement("\n  BEGIN;")
    assert refused.value.code == "SqlppError"
    assert "transactions are not supported through the shard coordinator" in str(
        refused.value
    )
    assert str(refused.value).endswith("at line 2 col 3")
    assert coordinator.statement("SELECT 1 AS one;").rows == [{"one": 1}]
    with pytest.raises(RemoteError, match="COMMIT outside a transaction"):
        coordinator.statement("COMMIT;")

    assert engine.statement("BEGIN;").status.startswith("BEGIN (transaction #")
    assert engine.statement(
        "INSERT INTO accounts {'id': 1, 'balance': 1};"
    ).status == "INSERT 1 (buffered in transaction)"
    assert engine.statement("COMMIT;").status.startswith("COMMIT (sequence ")
    assert engine.statement("BEGIN;").status.startswith("BEGIN")
    assert engine.statement("DELETE FROM accounts WHERE id = 1;").status == (
        "DELETE 1 (buffered in transaction)"
    )
    assert engine.statement("ROLLBACK;").status == "ROLLBACK"
    assert engine.count("accounts") == 1


# ======================================================================================
# Plain ops
# ======================================================================================


def op(clients, op_name: str, **fields):
    return both(clients, {"op": op_name, **fields}, extra=())


def test_plain_ops_agree(roles):
    _create_accounts(roles)
    single = op(roles, "insert", dataset="accounts", documents=ACCOUNTS[:1])
    assert single.done["count"] == 1 and single.done["sequence"] is not None
    bulk = op(roles, "insert", dataset="accounts", documents=ACCOUNTS[1:])
    assert bulk.done["count"] == len(ACCOUNTS) - 1 and bulk.done["sequence"] is None
    assert op(roles, "count", dataset="accounts").done["count"] == len(ACCOUNTS)
    assert op(roles, "delete", dataset="accounts", key=8).done["sequence"] is not None
    op(roles, "checkpoint")  # flushed: `fields` projects on columnar components
    found = op(roles, "lookup", dataset="accounts", key=3)
    assert found.done["found"] and found.done["document"] == ACCOUNTS[2]
    projected = op(roles, "lookup", dataset="accounts", key=3, fields=["balance"])
    assert projected.done["document"]["balance"] == 30
    gone = op(roles, "lookup", dataset="accounts", key=8)
    assert gone.done["found"] is False and gone.done["document"] is None
    listed = op(roles, "list_datasets")
    assert listed.rows == [
        {"name": "accounts", "layout": "amax", "records": 7, "primary_key": "id"}
    ]
    assert op(roles, "recovery_info").done["recovery"] is None  # fresh stores
    explained = op(
        roles, "explain", text="SELECT COUNT(*) AS n FROM accounts AS t;"
    )
    assert "SCAN accounts" in explained.done["text"]
    assert "repro_wire_frames_total" in op(roles, "metrics").done["text"]
    assert op(roles, "ping").done == {"type": "done"}


def test_plain_op_errors_agree(roles):
    _create_accounts(roles)
    unknown = op(roles, "frobnicate")
    assert unknown.code == "WireError" and "unknown request op" in str(unknown)
    assert op(roles, "count", dataset="nosuch").code == "DatasetError"
    assert op(roles, "insert", dataset="accounts", documents=[{"x": 1}]).code == (
        "DatasetError"
    )
    duplicate = op(roles, "create_dataset", name="accounts", layout="amax")
    assert duplicate.code == "DatasetError"
    assert op(roles, "count", dataset="accounts").done["count"] == 0


def test_partial_mode_is_shard_side_only(roles):
    """A fragment is what a coordinator sends a shard; a coordinator asked for
    one refuses (the sharded store will not run a fragment), an engine answers
    with its partial rows and — always — its trace."""
    _create_accounts(roles)
    for client in roles.values():
        client.insert("accounts", ACCOUNTS)
    text = "SELECT AVG(t.balance) AS a FROM accounts AS t;"
    for name in ("statement", "explain"):
        with pytest.raises(RemoteError) as refused:
            roles["coordinator"].request({"op": name, "text": text, "mode": "partial"})
        assert refused.value.code == "WireError"
        assert str(refused.value) == (
            "partial mode is shard-side only; the coordinator runs the merge"
        )
    fragment = roles["engine"].request(
        {"op": "statement", "text": text, "mode": "partial"}
    )
    assert fragment.rows == [{"a#sum": 360, "a#n": 8}]
    assert fragment.trace["text"] == text
    plan = roles["engine"].request({"op": "explain", "text": text, "mode": "partial"})
    assert "countv" in plan.done["text"]
    assert statement(roles, text).rows == [{"a": 45.0}]


# ======================================================================================
# Per-statement facts belong to the statement, not to the shared store
# ======================================================================================


def test_a_connection_is_answered_with_its_own_trace():
    """Two connections, one coordinator: B loops cheap statements while A asks
    for its trace with ``explain`` — a whole shard round trip between running
    A's statement and building A's done frame.  Every trace A receives must be
    A's: its query id, its text.  (A handler that reads the trace back off the
    shared store ships B's.)"""
    rig = ShardRig(2)
    try:
        rig.sharded.create_dataset("d", layout="amax")
        rig.sharded.dataset("d").insert_many([{"id": i, "g": i % 4} for i in range(64)])
        server = rig.serve()
        stop = threading.Event()
        noise_errors = []

        def noise() -> None:
            try:
                with server.connect() as b:
                    while not stop.is_set():
                        b.statement("SELECT COUNT(*) AS n FROM d AS t;", query_id="b" * 12)
            except Exception as error:  # surfaced below, on the test thread
                noise_errors.append(error)

        thread = threading.Thread(target=noise, daemon=True)
        thread.start()
        text = "SELECT t.g AS g, COUNT(*) AS n FROM d AS t GROUP BY t.g ORDER BY g;"
        try:
            with server.connect() as a:
                for _ in range(40):
                    done = a.request(
                        {
                            "op": "statement",
                            "text": text,
                            "explain": True,
                            "trace": True,
                            "query_id": "a" * 12,
                        }
                    ).done
                    assert done["query_id"] == "a" * 12
                    assert done["trace"]["query_id"] == "a" * 12
                    assert done["trace"]["text"] == text
        finally:
            stop.set()
            thread.join(20)
        assert not noise_errors, noise_errors
    finally:
        rig.close()


def test_one_parse_per_statement_per_process(monkeypatch):
    """Every parse entry point tokenizes its text exactly once, so counting
    tokenizations on this thread counts the coordinator's parses (the
    in-process shards parse on their own server threads): one per statement,
    with or without ``explain``; one per ``explain`` op and ``split_for``;
    and one on a shard for the fragment it is sent."""
    import repro.sqlpp.parser as parser

    me = threading.get_ident()
    parsed = []
    tokenize = parser.tokenize

    def counting(text):
        if threading.get_ident() == me:
            parsed.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "tokenize", counting)
    rig = ShardRig(2)
    try:
        rig.sharded.create_dataset("d", layout="amax")
        rig.sharded.dataset("d").insert_many([{"id": i, "g": i % 4} for i in range(16)])
        text = "SELECT t.g AS g, COUNT(*) AS n FROM d AS t GROUP BY t.g ORDER BY g;"
        coordinator = SessionHandler(rig.sharded)
        for request in (
            {"op": "statement", "text": text},
            {"op": "statement", "text": text, "explain": True, "trace": True},
            {"op": "explain", "text": text},
            {"op": "statement", "text": "SELECT 1;"},
            {"op": "statement", "text": "INSERT INTO d {'id': 99, 'g': 1};"},
        ):
            parsed.clear()
            coordinator.handle(request)
            assert parsed == [request["text"]], request
        parsed.clear()
        assert rig.sharded.split_for(text).kind == "groupby"
        assert parsed == [text]
        shard = SessionHandler(rig.stores[0])
        for request in (
            {"op": "statement", "text": text, "mode": "partial"},
            {"op": "explain", "text": text, "mode": "partial"},
        ):
            parsed.clear()
            shard.handle(request)
            assert parsed == [text], request
    finally:
        rig.close()
