"""Blocking wire client: one TCP connection speaking the frame protocol.

Used by the shell's ``--connect`` mode, the shard coordinator (one pooled
connection per shard), and the benchmarks.  A client is *not* thread-safe —
one request/response exchange at a time; the coordinator pools clients and
checks them out exclusively.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..model.errors import ReproError
from .protocol import check_hello, decode_body, encode_frame, frame_length, HEADER

#: Default per-read socket timeout; generous so slow differential-test hosts
#: fail loud instead of flaking, while a hung server still surfaces.
DEFAULT_TIMEOUT = 120.0


class RemoteError(ReproError):
    """A statement failed on the server; carries the remote error class name
    and, when the server tagged the request, the ``query_id`` to correlate
    the failure with server-side traces and slow-query-log entries."""

    def __init__(
        self,
        message: str,
        code: str = "ReproError",
        query_id: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.query_id = query_id


@dataclass
class StatementResult:
    """One request's full response: streamed rows plus the done frame."""

    rows: List[object] = field(default_factory=list)
    done: dict = field(default_factory=dict)
    notices: List[str] = field(default_factory=list)

    @property
    def status(self) -> Optional[str]:
        return self.done.get("status")

    @property
    def sequence(self) -> Optional[int]:
        return self.done.get("sequence")

    @property
    def io(self) -> dict:
        return self.done.get("io") or {}

    @property
    def query_id(self) -> Optional[str]:
        return self.done.get("query_id")

    @property
    def trace(self) -> Optional[dict]:
        """Serialized span tree from the done frame (when traced)."""
        return self.done.get("trace")


class WireClient:
    """A connected client with the handshake already exchanged."""

    def __init__(
        self, host: str, port: int, timeout: float = DEFAULT_TIMEOUT
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._closed = False
        self.server_hello = check_hello(self._read_frame(), "server")
        self._send({"type": "hello", "version": self.server_hello["version"]})

    # -- framing -----------------------------------------------------------------------
    def _send(self, payload: dict) -> None:
        try:
            self._sock.sendall(encode_frame(payload))
        except OSError as exc:
            raise RemoteError(
                f"connection to {self.host}:{self.port} lost: {exc}",
                code="ConnectionError",
            )

    def _read_exact(self, size: int) -> Optional[bytes]:
        chunks = []
        remaining = size
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout as exc:
                raise RemoteError(
                    f"timed out waiting for {self.host}:{self.port}",
                    code="ConnectionError",
                ) from exc
            except OSError as exc:
                raise RemoteError(
                    f"connection to {self.host}:{self.port} lost: {exc}",
                    code="ConnectionError",
                ) from exc
            if not chunk:
                if chunks:
                    raise RemoteError(
                        f"connection to {self.host}:{self.port} closed mid-frame",
                        code="ConnectionError",
                    )
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> Optional[dict]:
        header = self._read_exact(HEADER.size)
        if header is None:
            return None
        return decode_body(self._read_exact(frame_length(header)))

    # -- requests ----------------------------------------------------------------------
    def request(
        self, payload: dict, on_notice: Optional[Callable[[str], None]] = None
    ) -> StatementResult:
        """Send one request and consume its response stream.

        ``rows`` frames accumulate into the result; ``notice`` frames are
        collected (and passed to ``on_notice`` when given); an ``error``
        frame raises :class:`RemoteError` with the server's message.
        """
        self._send(payload)
        result = StatementResult()
        while True:
            frame = self._read_frame()
            if frame is None:
                raise RemoteError(
                    f"server {self.host}:{self.port} closed the connection "
                    "before answering",
                    code="ConnectionError",
                )
            kind = frame.get("type")
            if kind == "rows":
                result.rows.extend(frame.get("rows", []))
            elif kind == "notice":
                message = frame.get("message", "")
                result.notices.append(message)
                if on_notice is not None:
                    on_notice(message)
            elif kind == "done":
                result.done = frame
                return result
            elif kind == "error":
                raise RemoteError(
                    frame.get("error", "unknown server error"),
                    code=frame.get("code", "ReproError"),
                    query_id=frame.get("query_id"),
                )
            elif kind == "goodbye":
                raise RemoteError(
                    f"server {self.host}:{self.port} is shutting down: "
                    f"{frame.get('reason', '')}",
                    code="ServerShutdown",
                )
            else:
                raise RemoteError(f"unexpected frame type {kind!r} from server")

    # -- convenience ops ---------------------------------------------------------------
    def statement(
        self,
        text: str,
        executor: Optional[str] = None,
        mode: str = "full",
        pushdown: bool = True,
        batch_size: Optional[int] = None,
        explain: bool = False,
        trace: bool = False,
        query_id: Optional[str] = None,
        on_notice: Optional[Callable[[str], None]] = None,
    ) -> StatementResult:
        """Run one statement; ``executor=None`` leaves the choice to the server."""
        payload = {
            "op": "statement",
            "text": text,
            "mode": mode,
            "pushdown": pushdown,
        }
        if executor is not None:
            payload["executor"] = executor
        if explain:
            payload["explain"] = True
        if trace:
            payload["trace"] = True
        if query_id is not None:
            payload["query_id"] = query_id
        if batch_size is not None:
            payload["batch_size"] = batch_size
        return self.request(payload, on_notice=on_notice)

    def explain(self, text: str, executor: Optional[str] = None) -> str:
        payload = {"op": "explain", "text": text}
        if executor is not None:
            payload["executor"] = executor
        return self.request(payload).done["text"]

    def create_dataset(
        self,
        name: str,
        layout: str = "amax",
        primary_key_field: Optional[str] = None,
    ) -> None:
        self.request(
            {
                "op": "create_dataset",
                "name": name,
                "layout": layout,
                "primary_key_field": primary_key_field,
            }
        )

    def insert(self, dataset: str, documents: List[dict]) -> StatementResult:
        return self.request(
            {"op": "insert", "dataset": dataset, "documents": documents}
        )

    def delete(self, dataset: str, key) -> StatementResult:
        return self.request({"op": "delete", "dataset": dataset, "key": key})

    def lookup(self, dataset: str, key, fields: Optional[List[str]] = None):
        result = self.request(
            {"op": "lookup", "dataset": dataset, "key": key, "fields": fields}
        )
        return result.done.get("document")

    def count(self, dataset: str) -> int:
        return self.request({"op": "count", "dataset": dataset}).done["count"]

    def list_datasets(self) -> List[dict]:
        return self.request({"op": "list_datasets"}).rows

    def checkpoint(self) -> None:
        self.request({"op": "checkpoint"})

    def recovery_info(self) -> Optional[dict]:
        return self.request({"op": "recovery_info"}).done.get("recovery")

    def metrics(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self.request({"op": "metrics"}).done.get("text", "")

    def ping(self) -> None:
        self.request({"op": "ping"})

    def shutdown(self) -> None:
        """Ask the server to shut down gracefully (drain, rollback, close)."""
        self.request({"op": "shutdown"})

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
