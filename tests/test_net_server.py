"""Wire frontend tests: protocol framing, the asyncio server, and the client.

The server runs on a background thread inside the test process (signal
handlers need the main thread, so tests shut it down via
``request_shutdown``/the ``shutdown`` op); full-subprocess coverage — the
``python -m repro.server`` executable, ready files, SIGTERM — lives in
``tests/test_sharding.py`` alongside the cluster tests.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.net.client import RemoteError, WireClient
from repro.net.protocol import (
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WireError,
    check_hello,
    decode_body,
    encode_frame,
    frame_length,
)
from repro.store import Datastore, StoreConfig

from conftest import RETIRED_CONFIG, RETIRED_EXECUTOR, ServerThread


# ======================================================================================
# Protocol framing
# ======================================================================================


def test_frame_roundtrip():
    payload = {"op": "statement", "text": "SELECT 1;", "n": 3, "f": 2.5}
    body = encode_frame(payload)
    assert frame_length(body[: HEADER.size]) == len(body) - HEADER.size
    assert decode_body(body[HEADER.size :]) == payload


def test_frame_roundtrip_nonfinite_floats():
    body = encode_frame({"x": math.nan, "y": math.inf})
    decoded = decode_body(body[HEADER.size :])
    assert math.isnan(decoded["x"]) and decoded["y"] == math.inf


def test_frame_rejects_non_object_payload():
    with pytest.raises(WireError):
        decode_body(b"[1, 2, 3]")
    with pytest.raises(WireError):
        decode_body(b"\xff\xfe not json")


def test_frame_rejects_unserializable_value():
    with pytest.raises(TypeError):
        encode_frame({"x": object()})


def test_frame_length_caps_allocation():
    with pytest.raises(WireError):
        frame_length(HEADER.pack(MAX_FRAME_BYTES + 1))


def test_check_hello_version_mismatch():
    with pytest.raises(WireError):
        check_hello({"type": "hello", "version": PROTOCOL_VERSION + 1}, "client")
    with pytest.raises(WireError):
        check_hello({"type": "rows"}, "client")
    with pytest.raises(WireError):
        check_hello(None, "client")


# ======================================================================================
# In-thread server harness
# ======================================================================================


@pytest.fixture()
def accounts_server():
    store = Datastore(StoreConfig(partitions_per_node=2))
    store.create_dataset("accounts", layout="amax")
    server = ServerThread(store, backend_close=store.close)
    yield server
    if server.thread.is_alive():
        server.stop()


# ======================================================================================
# Handshake and statement execution over the wire
# ======================================================================================


def test_handshake_and_ping(accounts_server):
    with accounts_server.connect() as client:
        assert client.server_hello["version"] == PROTOCOL_VERSION
        assert client.server_hello["role"] == "engine"
        client.ping()


def test_statement_statuses_match_the_shell(accounts_server):
    with accounts_server.connect() as client:
        r = client.statement("INSERT INTO accounts {'id': 1, 'balance': 100};")
        assert r.status == "INSERT 1" and r.sequence is not None
        assert client.statement("BEGIN;").status == "BEGIN (transaction #1)"
        status = client.statement(
            "INSERT INTO accounts {'id': 2, 'balance': 50};"
        ).status
        assert status == "INSERT 1 (buffered in transaction)"
        assert client.statement("COMMIT;").status.startswith("COMMIT (sequence ")
        assert client.statement("BEGIN;").status == "BEGIN (transaction #2)"
        assert client.statement("COMMIT;").status == "COMMIT (read-only)"
        assert client.statement("BEGIN;").status == "BEGIN (transaction #3)"
        assert client.statement("ROLLBACK;").status == "ROLLBACK"
        r = client.statement("DELETE FROM accounts WHERE id = 1;")
        assert r.status == "DELETE 1"
        rows = client.statement("SELECT COUNT(*) AS n FROM accounts AS a;").rows
        assert rows == [{"n": 1}]


def test_remote_errors_carry_the_engine_error_class(accounts_server):
    with accounts_server.connect() as client:
        with pytest.raises(RemoteError) as err:
            client.statement("SELECT FROM;")
        assert err.value.code == "SqlppError"
        with pytest.raises(RemoteError) as err:
            client.statement("SELECT COUNT(*) AS n FROM nope AS x;")
        assert err.value.code in ("DatasetError", "SqlppError")
        with pytest.raises(RemoteError) as err:
            client.statement("COMMIT;")
        assert err.value.code == "SqlppError"
        assert "COMMIT outside a transaction" in str(err.value)
        # The connection survives statement errors.
        client.ping()


@pytest.mark.parametrize(
    "text, options",
    [
        # What a pre-removal client would still send.
        ("SELECT COUNT(*) AS n FROM accounts AS a;", {"executor": RETIRED_EXECUTOR}),
        ("SELECT 1 AS one;", {"executor": RETIRED_EXECUTOR}),  # FROM-less checks it too
        ("SELECT COUNT(*) AS n FROM accounts AS a;", {"batch_size": -1}),
        ("SELECT COUNT(*) AS n FROM accounts AS a;", {"batch_size": "x"}),
        ("SELECT COUNT(*) AS n FROM accounts AS a;", {"batch_size": 1.5}),
    ],
    ids=["old-client", "old-client-fromless", "negative", "string", "float"],
)
def test_bad_executor_or_batch_size_is_a_typed_error(accounts_server, text, options):
    with accounts_server.connect() as client:
        client.statement("INSERT INTO accounts {'id': 1, 'balance': 100};")
        with pytest.raises(RemoteError) as err:
            client.statement(text, **options)
        assert err.value.code == "QueryError"
        assert err.value.query_id
        if "executor" in options:
            assert "one of: interpreted, batch" in str(err.value)
            with pytest.raises(RemoteError) as err:
                client.explain(text, **options)
            assert err.value.code == "QueryError"
        # Neither a hang nor a silent fallback, and the connection is still usable.
        assert client.statement(
            "SELECT COUNT(*) AS n FROM accounts AS a;", batch_size=1
        ).rows == [{"n": 1}]


def test_transactions_are_per_connection(accounts_server):
    with accounts_server.connect() as c1, accounts_server.connect() as c2:
        assert c1.statement("BEGIN;").status == "BEGIN (transaction #1)"
        assert c2.statement("BEGIN;").status == "BEGIN (transaction #2)"
        c1.statement("INSERT INTO accounts {'id': 10, 'balance': 1};")
        # c1's buffered write is invisible to c2 until COMMIT.
        assert c2.statement("SELECT COUNT(*) AS n FROM accounts AS a;").rows == [
            {"n": 0}
        ]
        assert c2.statement("COMMIT;").status == "COMMIT (read-only)"
        c1.statement("COMMIT;")
        assert c2.statement("SELECT COUNT(*) AS n FROM accounts AS a;").rows == [
            {"n": 1}
        ]


def test_result_streaming_spans_multiple_rows_frames(accounts_server):
    with accounts_server.connect() as client:
        documents = [{"id": i, "balance": i * 2} for i in range(1200)]
        assert client.insert("accounts", documents).done["count"] == 1200
        rows = client.statement(
            "SELECT a.id AS id FROM accounts AS a;", executor="batch"
        ).rows
        assert len(rows) == 1200  # > 2 ROWS_PER_FRAME batches reassembled
        assert {row["id"] for row in rows} == set(range(1200))


def test_concurrent_clients_interleave_without_errors(accounts_server):
    errors = []

    def worker(base: int) -> None:
        try:
            with accounts_server.connect() as client:
                for i in range(5):
                    client.statement(
                        f"INSERT INTO accounts {{'id': {base + i}, 'b': {i}}};"
                    )
                    client.statement("SELECT COUNT(*) AS n FROM accounts AS a;")
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(1000 * t,)) for t in range(12)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors
    with accounts_server.connect() as client:
        rows = client.statement("SELECT COUNT(*) AS n FROM accounts AS a;").rows
        assert rows == [{"n": 60}]


def test_lookup_count_and_list_datasets_ops(accounts_server):
    with accounts_server.connect() as client:
        client.insert("accounts", [{"id": 5, "balance": 7}])
        assert client.lookup("accounts", 5) == {"id": 5, "balance": 7}
        assert client.lookup("accounts", 404) is None
        assert client.count("accounts") == 1
        (listed,) = client.list_datasets()
        assert listed["name"] == "accounts"
        assert listed["layout"] == "amax"
        assert listed["records"] == 1
        assert listed["primary_key"] == "id"


def test_explain_over_the_wire(accounts_server):
    with accounts_server.connect() as client:
        client.insert("accounts", [{"id": 1, "balance": 2}])
        text = client.explain("SELECT COUNT(*) AS n FROM accounts AS a;")
        assert "OPTIMIZER" in text
        # EXPLAIN piggybacked on a statement request.
        result = client.statement(
            "SELECT COUNT(*) AS n FROM accounts AS a;", explain=True
        )
        assert "OPTIMIZER" in result.done["explain"]


def test_client_leaves_the_executor_to_the_server_unless_asked(accounts_server):
    """``statement``/``explain`` send no ``executor`` key of their own, so the
    server's default applies; an explicit choice still travels."""
    with accounts_server.connect() as client:
        sent = []
        request = client.request

        def recording(payload, **kwargs):
            sent.append(dict(payload))
            return request(payload, **kwargs)

        client.request = recording
        text = "SELECT COUNT(*) AS n FROM accounts AS a;"
        assert client.statement(text).rows == [{"n": 0}]
        assert "EXECUTOR batch" in client.explain(text)  # the server default
        assert client.statement(text, executor="interpreted").rows == [{"n": 0}]
        assert "EXECUTOR interpreted" in client.explain(text, executor="interpreted")
        assert ["executor" in payload for payload in sent] == [False, False, True, True]


def test_done_frame_reports_statement_io(accounts_server):
    with accounts_server.connect() as client:
        client.insert("accounts", [{"id": i, "b": i} for i in range(500)])
        client.checkpoint()  # flush so the scan touches real pages
        result = client.statement("SELECT SUM(a.b) AS s FROM accounts AS a;")
        io = result.io
        assert io["pages_read"] + io["cache_hits"] > 0
        # COUNT(*) answers from Page 0 metadata alone — zero data pages.
        shortcut = client.statement("SELECT COUNT(*) AS n FROM accounts AS a;")
        assert shortcut.io["pages_read"] == 0
        assert shortcut.rows == [{"n": 500}]


# ======================================================================================
# Graceful shutdown
# ======================================================================================


def test_graceful_shutdown_rolls_back_and_checkpoints(tmp_path):
    directory = str(tmp_path / "store")
    store = Datastore(StoreConfig(storage_directory=directory, partitions_per_node=2))
    store.create_dataset("t", layout="amax")
    server = ServerThread(store, backend_close=store.close)
    committed = WireClient(*server.address)
    committed.statement("INSERT INTO t {'id': 1, 'v': 'kept'};")
    open_txn = WireClient(*server.address)
    open_txn.statement("BEGIN;")
    open_txn.statement("INSERT INTO t {'id': 2, 'v': 'doomed'};")

    server.server.request_shutdown("maintenance")
    server.thread.join(20)
    assert not server.thread.is_alive()

    # The client with the open transaction was told about the rollback
    # before the goodbye (the same notice the shell prints).
    frames = [open_txn._read_frame(), open_txn._read_frame()]
    notices = [f for f in frames if f and f.get("type") == "notice"]
    goodbyes = [f for f in frames if f and f.get("type") == "goodbye"]
    assert len(notices) == 1 and len(goodbyes) == 1
    assert "rolled back open transaction #1" in notices[0]["message"]
    assert "maintenance" in goodbyes[0]["reason"]
    committed.close()
    open_txn.close()

    # backend_close went through checkpoint(): the restart replays an empty
    # WAL tail, the committed row survived, the buffered one never existed.
    reopened = Datastore.open(directory)
    try:
        assert reopened.last_recovery.wal_records_replayed == 0
        assert reopened.dataset("t").point_lookup(1) == {"id": 1, "v": "kept"}
        assert reopened.dataset("t").point_lookup(2) is None
    finally:
        reopened.close()


def test_draining_server_rejects_new_statements_but_finishes_shutdown(
    accounts_server,
):
    with accounts_server.connect() as client:
        client.shutdown()  # the shutdown op acks, then drains
        accounts_server.thread.join(20)
        assert not accounts_server.thread.is_alive()


def test_shell_connect_roundtrip(accounts_server):
    """The shell's remote mode speaks to the server like the local mode."""
    from io import StringIO

    from repro.shell import Shell

    client = WireClient(*accounts_server.address)
    out = StringIO()
    shell = Shell(client=client, batch=True, out=out, err=StringIO())
    assert shell.execute_statement("INSERT INTO accounts {'id': 1, 'b': 2};") == (
        "INSERT 1"
    )
    assert shell.execute_statement("BEGIN;") == "BEGIN (transaction #1)"
    assert shell.execute_statement("ROLLBACK;") == "ROLLBACK"
    rows = shell.execute_statement("SELECT COUNT(*) AS n FROM accounts AS a;")
    assert rows == [{"n": 1}]
    assert shell.run_command("\\d") is None
    assert "accounts  layout=amax  records=1" in out.getvalue()
    client.close()


_RETIRED_TEXT = json.dumps({**RETIRED_CONFIG, "page_size": 8192})


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"bogus_field": 1}', ["bogus_field"]),
        (_RETIRED_TEXT, sorted(RETIRED_CONFIG)),
        ("[1, 2]", ["expected a JSON object"]),
        ("{not json", ["not valid JSON"]),
        # Known fields whose values the engine would trip over later.
        ('{"page_size": "x"}', ["page_size"]),
        ('{"partitions_per_node": 0}', ["partitions_per_node", "at least one partition"]),
        ('{"compression": "lz4"}', ["unknown compression codec 'lz4'"]),
    ],
    # The retired keys' JSON grows whenever a field is retired: name that
    # case, so that its test id stays put (the others keep their text).
    ids=lambda value: "retired-config" if value == _RETIRED_TEXT else None,
)
def test_server_rejects_bad_config_json(capsys, monkeypatch, text, named):
    """A bad ``--config-json`` is a usage error naming the culprit, not a
    crash or a server that fails at its first flush."""
    error = _usage_error(capsys, monkeypatch, ["--config-json", text])
    assert "--config-json" in error
    assert all(part in error for part in named)
    if "page_size" not in named:
        assert "page_size" not in error  # only the culprit keys are named


def test_server_rejects_bad_store_flag(capsys, monkeypatch):
    """A store flag is checked with the config it joins, at parse time."""
    error = _usage_error(capsys, monkeypatch, ["--partitions-per-node", "0"])
    assert "partitions_per_node" in error and "at least one partition" in error


def _usage_error(capsys, monkeypatch, flags) -> str:
    from repro import server

    def serve(args):  # reached only if the config was accepted
        raise AssertionError(f"{flags!r} was accepted")

    monkeypatch.setattr(server, "_serve", serve)
    with pytest.raises(SystemExit) as exit_info:
        server.main(["--empty", *flags])
    assert exit_info.value.code == 2
    return capsys.readouterr().err
