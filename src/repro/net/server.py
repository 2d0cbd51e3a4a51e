"""Asyncio wire server: many concurrent clients over one statement backend.

The server owns the sockets and the frame protocol; *what* a request does is
delegated to a per-connection :class:`SessionHandler` produced by a factory.
One handler class serves both roles — every connection of an engine shares
one snapshot-isolated :class:`~repro.store.datastore.Datastore`, every
connection of a coordinator one
:class:`~repro.shard.coordinator.ShardedDatastore`:
``WireServer → SessionHandler → StatementSession → store``.

Concurrency model: the asyncio loop multiplexes connections; each request's
(blocking, GIL-releasing on I/O) execution is offloaded to a thread pool, so
many clients' statements genuinely overlap on the engine's thread-safe
snapshot/commit machinery.  Requests on one connection stay strictly
ordered — a session's transaction state needs no extra locking.

Graceful shutdown (SIGTERM/SIGINT or a client ``shutdown`` op): the server
stops accepting connections, rejects new statements, drains in-flight ones,
rolls back every session's open transaction — sending each client the same
rollback notice the shell prints — and finally closes the backend store
through its checkpoint path, so a restarted shard replays an empty WAL tail.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Tuple

from ..model.errors import ReproError
from ..obs import MetricsRegistry, new_query_id
from .client import RemoteError
from .protocol import (
    HEADER,
    ROWS_PER_FRAME,
    WireError,
    check_hello,
    decode_body,
    encode_frame,
    frame_length,
    hello_frame,
)
from .session import StatementSession, insert_documents

#: Default size of the statement-execution thread pool.
DEFAULT_EXECUTOR_WORKERS = 8

#: Default seconds to wait for in-flight statements during shutdown.
DEFAULT_DRAIN_TIMEOUT = 10.0


class SessionHandler:
    """Request handler for one connection, over either kind of store.

    The same ops serve an engine (:class:`~repro.store.datastore.Datastore`)
    and a shard coordinator
    (:class:`~repro.shard.coordinator.ShardedDatastore`): both stores provide
    the surface used below, and differ only in who runs a compiled SELECT and
    who owns a key.  ``handle`` runs on a worker thread; it returns ``(rows,
    done_payload)`` where ``rows`` is None for status-only responses.
    Statement-level I/O is measured as a delta over the store's shared
    counters (device pages on an engine, what the shards' done frames
    reported on a coordinator), so overlapping statements may overcount,
    never undercount.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.session = StatementSession(store)
        #: The in-flight request's query identifier — the dispatch loop reads
        #: it when building error frames, so failures correlate with traces.
        self.current_query_id: Optional[str] = None

    # -- dispatch ----------------------------------------------------------------------
    def handle(self, request: dict) -> Tuple[Optional[list], dict]:
        op = request.get("op", "statement")
        self.current_query_id = request.get("query_id") or new_query_id()
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise WireError(f"unknown request op {op!r}")
        rows, done = handler(request)
        done.setdefault("query_id", self.current_query_id)
        return rows, done

    def close(self) -> Optional[str]:
        """End the session; returns the open-transaction rollback notice."""
        return self.session.close()

    # -- ops ---------------------------------------------------------------------------
    def _op_statement(self, request: dict) -> Tuple[Optional[list], dict]:
        # A shard-side fragment is always traced: the coordinator stitches the
        # returned span tree under its own scatter span.
        partial = request.get("mode", "full") == "partial"
        before = self.store.io_snapshot()
        outcome = self.session.execute(
            request["text"],
            executor=request.get("executor"),
            explain=request.get("explain", False),
            pushdown=request.get("pushdown", True),
            batch_size=request.get("batch_size"),
            query_id=self.current_query_id,
            partial=partial,
        )
        delta = self.store.io_snapshot().delta_since(before)
        done = {"type": "done", "io": delta.as_dict(), **self.store.topology}
        if outcome.trace is not None and (partial or request.get("trace")):
            done["trace"] = outcome.trace.to_dict()
        if outcome.rows is not None:
            done["result"] = "rows"
            done["rows_returned"] = len(outcome.rows)
        else:
            done["result"] = "status"
            done["status"] = outcome.status
        if outcome.sequence is not None:
            done["sequence"] = outcome.sequence
        if outcome.explain_text is not None:
            done["explain"] = outcome.explain_text
        return outcome.rows, done

    def _op_explain(self, request: dict) -> Tuple[Optional[list], dict]:
        text = self.store.explain(
            request["text"],
            executor=request.get("executor"),
            analyze=request.get("analyze", False),
            partial=request.get("mode") == "partial",
        )
        return None, {"type": "done", "text": text}

    def _op_create_dataset(self, request: dict) -> Tuple[Optional[list], dict]:
        self.store.create_dataset(
            request["name"],
            layout=request.get("layout", "amax"),
            primary_key_field=request.get("primary_key_field"),
        )
        return None, {"type": "done"}

    def _op_insert(self, request: dict) -> Tuple[Optional[list], dict]:
        dataset = self.store.dataset(request["dataset"])
        before = self.store.io_snapshot()
        count, sequence = insert_documents(dataset, request["documents"])
        delta = self.store.io_snapshot().delta_since(before)
        return None, {
            "type": "done",
            "count": count,
            "sequence": sequence,
            "io": delta.as_dict(),
        }

    def _op_delete(self, request: dict) -> Tuple[Optional[list], dict]:
        sequence = self.store.dataset(request["dataset"]).delete(request["key"])
        return None, {"type": "done", "sequence": sequence}

    def _op_lookup(self, request: dict) -> Tuple[Optional[list], dict]:
        dataset = self.store.dataset(request["dataset"])
        before = self.store.io_snapshot()
        document = dataset.point_lookup(request["key"], request.get("fields"))
        delta = self.store.io_snapshot().delta_since(before)
        return None, {
            "type": "done",
            "found": document is not None,
            "document": document,
            "io": delta.as_dict(),
        }

    def _op_count(self, request: dict) -> Tuple[Optional[list], dict]:
        return None, {
            "type": "done",
            "count": self.store.dataset(request["dataset"]).count(),
        }

    def _op_list_datasets(self, request: dict) -> Tuple[Optional[list], dict]:
        rows = self.store.list_datasets()
        return rows, {"type": "done", "result": "rows", "rows_returned": len(rows)}

    def _op_checkpoint(self, request: dict) -> Tuple[Optional[list], dict]:
        self.store.checkpoint()
        return None, {"type": "done"}

    def _op_recovery_info(self, request: dict) -> Tuple[Optional[list], dict]:
        return None, {
            "type": "done",
            "recovery": self.store.recovery_info(request.get("shard", 0)),
        }

    def _op_metrics(self, request: dict) -> Tuple[Optional[list], dict]:
        """The store's metrics in Prometheus text exposition format."""
        return None, {"type": "done", "text": self.store.metrics_text()}


class _Connection:
    """Per-connection state: streams, session handler, and a write lock."""

    __slots__ = ("reader", "writer", "handler", "write_lock", "closed")

    def __init__(self, reader, writer, handler) -> None:
        self.reader = reader
        self.writer = writer
        self.handler = handler
        self.write_lock = asyncio.Lock()
        self.closed = False


class WireServer:
    """The asyncio server: sockets, handshakes, dispatch, graceful shutdown.

    Args:
        session_factory: Produces one request handler per connection (e.g.
            ``lambda: SessionHandler(store)``).
        host/port: Bind address; port 0 picks a free port (``bound_port``
            holds the real one after :meth:`start`).
        role: Advertised in the hello frame (``"engine"``/``"coordinator"``).
        backend_close: Called once during shutdown, after every session is
            closed — this is where the datastore's checkpoint-and-close runs.
        drain_timeout: Seconds to wait for in-flight statements on shutdown.
        executor_workers: Size of the statement-execution thread pool.
        metrics: Registry to count wire frames/bytes against (typically the
            backend store's); None counts nothing.
    """

    def __init__(
        self,
        session_factory: Callable[[], object],
        host: str = "127.0.0.1",
        port: int = 0,
        role: str = "engine",
        backend_close: Optional[Callable[[], None]] = None,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._session_factory = session_factory
        registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
        frames = registry.counter("repro_wire_frames_total")
        wire_bytes = registry.counter("repro_wire_bytes_total")
        self._frames_in = frames.labels(direction="in")
        self._frames_out = frames.labels(direction="out")
        self._bytes_in = wire_bytes.labels(direction="in")
        self._bytes_out = wire_bytes.labels(direction="out")
        self.host = host
        self.port = port
        self.role = role
        self._backend_close = backend_close
        self.drain_timeout = drain_timeout
        self._pool = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="wire-exec"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: "set[_Connection]" = set()
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._draining = False
        self._shutdown_started = False
        self._closed: Optional[asyncio.Event] = None
        self.bound_host: Optional[str] = None
        self.bound_port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        address = self._server.sockets[0].getsockname()
        self.bound_host, self.bound_port = address[0], address[1]

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def serve(self) -> None:
        """Start and run until shutdown completes."""
        await self.start()
        await self.wait_closed()

    def install_signal_handlers(self) -> bool:
        """SIGTERM/SIGINT → graceful shutdown; False when unsupported here.

        Signal handlers only attach on the main thread of the main
        interpreter (tests running the server on a side thread shut it down
        via :meth:`request_shutdown` or the ``shutdown`` op instead).
        """
        assert self._loop is not None, "call start() first"
        try:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(
                    signum,
                    self._begin_shutdown,
                    f"received {signal.Signals(signum).name}",
                )
        except (NotImplementedError, RuntimeError, ValueError):
            return False
        return True

    def request_shutdown(self, reason: str = "shutdown requested") -> None:
        """Begin graceful shutdown from any thread."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._begin_shutdown, reason)

    def _begin_shutdown(self, reason: str) -> None:
        if self._shutdown_started:
            return
        self._shutdown_started = True
        assert self._loop is not None
        self._loop.create_task(self._shutdown(reason))

    async def _shutdown(self, reason: str) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain: every already-dispatched statement finishes (bounded).
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=self.drain_timeout)
        except asyncio.TimeoutError:
            print(
                f"wire server: drain timed out after {self.drain_timeout}s; "
                "closing with statements in flight",
                file=sys.stderr,
            )
        # Roll back every session's open transaction, telling its client why.
        loop = asyncio.get_running_loop()
        for connection in list(self._connections):
            try:
                notice = await loop.run_in_executor(
                    self._pool, connection.handler.close
                )
            except Exception:  # session teardown must never abort shutdown
                traceback.print_exc()
                notice = None
            if notice:
                await self._send(connection, {"type": "notice", "message": notice})
            await self._send(connection, {"type": "goodbye", "reason": reason})
            self._close_connection(connection)
        if self._backend_close is not None:
            await loop.run_in_executor(None, self._backend_close)
        self._pool.shutdown(wait=False)
        self._closed.set()

    # -- connections -------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        connection = _Connection(reader, writer, self._session_factory())
        self._connections.add(connection)
        try:
            await self._send(
                connection, hello_frame(self.role, server="repro-datastore")
            )
            check_hello(await self._read_frame(reader), "client")
            while True:
                request = await self._read_frame(reader)
                if request is None:
                    break
                await self._dispatch(connection, request)
        except WireError as error:
            await self._send(
                connection,
                {"type": "error", "error": str(error), "code": "WireError"},
            )
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(connection)
            try:
                notice = connection.handler.close()
            except Exception:
                traceback.print_exc()
                notice = None
            if notice:
                await self._send(connection, {"type": "notice", "message": notice})
            self._close_connection(connection)

    async def _read_frame(self, reader) -> Optional[dict]:
        try:
            header = await reader.readexactly(HEADER.size)
            body = await reader.readexactly(frame_length(header))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        self._frames_in.inc()
        self._bytes_in.inc(HEADER.size + len(body))
        return decode_body(body)

    async def _send(self, connection: _Connection, payload: dict) -> None:
        if connection.closed:
            return
        encoded = encode_frame(payload)
        self._frames_out.inc()
        self._bytes_out.inc(len(encoded))
        async with connection.write_lock:
            try:
                connection.writer.write(encoded)
                await connection.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                connection.closed = True

    def _close_connection(self, connection: _Connection) -> None:
        connection.closed = True
        try:
            connection.writer.close()
        except (ConnectionResetError, OSError):
            pass

    # -- dispatch ----------------------------------------------------------------------
    async def _dispatch(self, connection: _Connection, request: dict) -> None:
        op = request.get("op", "statement")
        if op == "ping":
            await self._send(connection, {"type": "done"})
            return
        if op == "shutdown":
            await self._send(connection, {"type": "done", "status": "shutting down"})
            self._begin_shutdown("shutdown requested by client")
            return
        if self._draining:
            await self._send(
                connection,
                {
                    "type": "error",
                    "error": "server is shutting down; statement rejected",
                    "code": "WireError",
                },
            )
            return
        self._inflight += 1
        self._idle.clear()
        try:
            assert self._loop is not None
            rows, done = await self._loop.run_in_executor(
                self._pool, connection.handler.handle, request
            )
        except ReproError as error:
            frame = {
                "type": "error",
                "error": str(error),
                # A shard's error is relayed under the shard's code.
                "code": (error.code if isinstance(error, RemoteError)
                         else type(error).__name__),
            }
            query_id = getattr(connection.handler, "current_query_id", None)
            if query_id is not None:
                frame["query_id"] = query_id
            await self._send(connection, frame)
            return
        except Exception as error:  # engine bug: report, keep serving
            traceback.print_exc()
            frame = {
                "type": "error",
                "error": f"internal server error: {error}",
                "code": "InternalError",
            }
            query_id = getattr(connection.handler, "current_query_id", None)
            if query_id is not None:
                frame["query_id"] = query_id
            await self._send(connection, frame)
            return
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
        if rows is not None:
            # Zero rows sends no rows frames: the done frame alone answers.
            for start in range(0, len(rows), ROWS_PER_FRAME):
                await self._send(
                    connection,
                    {"type": "rows", "rows": rows[start : start + ROWS_PER_FRAME]},
                )
        await self._send(connection, done)
