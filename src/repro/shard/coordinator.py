"""Shard coordinator: hash routing, scatter-gather, and cluster management.

:class:`ShardedDatastore` is the client-side coordinator.  It holds a small
pool of wire connections per shard and provides the store surface the wire
session (:mod:`repro.net.session`, :mod:`repro.net.server`) drives on a
single :class:`~repro.store.datastore.Datastore` — so ``python -m
repro.server --shards N`` serves the *sharded* store through the very same
handler and protocol a single engine speaks.  Two things are its own:

* *who owns a key* — :meth:`ShardedDatastore.dataset` returns a
  :class:`RoutedDataset`, which sends point operations (insert, delete,
  lookup) to the owning shard by :func:`shard_for_key` — the same stable
  CRC-32 hash the engine uses for intra-store partitioning, just modulo the
  shard count instead of the partition count;
* *who runs a compiled SELECT* — :meth:`ShardedDatastore.run` executes it as
  scatter-gather: every shard runs the same shard-local fragment
  (:func:`repro.shard.partial.split_query`), their partial rows stream back
  concurrently, and the coordinator merges
  (:func:`repro.shard.partial.merge_rows`) and finishes the plan.  What a
  statement moved is on its span tree, not on the store: ``merge`` carries
  ``kind`` / ``rows_in`` (rows that crossed the wire) / ``rows_out``,
  ``scatter`` carries ``shards``.

:class:`ShardCluster` is the process manager: it spawns one ``python -m
repro.server`` engine per shard, each with its own storage directory
(independent manifests and WAL — per-shard recovery is the ordinary
single-store open path), and supports killing and restarting individual
shards for fault-injection tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..lsm.keys import stable_key_hash
from ..model.errors import DatasetError, TransactionError
from ..net.client import DEFAULT_TIMEOUT, RemoteError, StatementResult, WireClient
from ..net.protocol import WireError
from ..obs import (
    MetricsRegistry,
    QueryTrace,
    Span,
    activate,
    annotate,
    current_trace,
    render_trace,
    span,
)
from ..query.executor import resolve_executor, run_breakers
from ..storage.stats import IOStats
from .partial import SplitPlan, compile_split, merge_rows

#: Alias used when fetching whole datasets for coordinator-side execution.
_FETCH_ALIAS = "doc"

#: Error codes after which a pooled connection cannot be reused (the
#: response stream may be desynchronized or the peer is gone).
_POISON_CODES = ("ConnectionError", "ServerShutdown", "WireError")

#: Documents per insert request when bulk-loading through the coordinator.
INSERT_CHUNK = 500


def shard_for_key(key, num_shards: int) -> int:
    """The shard owning ``key``: stable CRC-32 key hash modulo shard count."""
    return stable_key_hash(key) % num_shards


class _ClientPool:
    """A bounded pool of wire clients to one shard.

    Checkout blocks when ``capacity`` clients are in flight; connections that
    hit transport-level errors are discarded instead of returned, so a shard
    restart naturally cycles in fresh connections.
    """

    def __init__(
        self,
        host: str,
        port: int,
        capacity: int = 4,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port
        self.capacity = capacity
        self.timeout = timeout
        self._idle: List[WireClient] = []
        self._created = 0
        self._closed = False
        self._lock = threading.Condition()

    @contextmanager
    def connection(self):
        client = self._checkout()
        try:
            yield client
        except RemoteError as error:
            if error.code in _POISON_CODES:
                self._discard(client)
            else:
                # A clean server-side statement error: the stream is intact.
                self._checkin(client)
            raise
        except BaseException:
            self._discard(client)
            raise
        else:
            self._checkin(client)

    def _checkout(self) -> WireClient:
        with self._lock:
            while True:
                if self._closed:
                    raise RemoteError(
                        f"connection pool for {self.host}:{self.port} is closed",
                        code="ConnectionError",
                    )
                if self._idle:
                    return self._idle.pop()
                if self._created < self.capacity:
                    self._created += 1
                    break
                self._lock.wait()
        try:
            return WireClient(self.host, self.port, timeout=self.timeout)
        except BaseException as error:
            with self._lock:
                self._created -= 1
                self._lock.notify()
            if isinstance(error, OSError):
                raise RemoteError(
                    f"cannot connect to shard at {self.host}:{self.port}: {error}",
                    code="ConnectionError",
                ) from error
            raise

    def _checkin(self, client: WireClient) -> None:
        with self._lock:
            if self._closed:
                self._created -= 1
            else:
                self._idle.append(client)
            self._lock.notify()
        if self._closed:
            client.close()

    def _discard(self, client: WireClient) -> None:
        client.close()
        with self._lock:
            self._created -= 1
            self._lock.notify()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            self._lock.notify_all()
        for client in idle:
            client.close()


class RoutedDataset:
    """One dataset of a :class:`ShardedDatastore`: keyed operations, routed.

    The counterpart of :class:`repro.store.dataset.Dataset` for the wire
    session — same method names, but every call goes to the shard owning the
    key (:func:`shard_for_key`), or to all of them for :meth:`count`.
    """

    def __init__(self, store: "ShardedDatastore", name: str) -> None:
        self.store = store
        self.name = name

    @property
    def primary_key_field(self) -> str:
        return self.store._primary_key(self.name)

    def _owner(self, document: dict, pk: str) -> int:
        try:
            return shard_for_key(document[pk], self.store.num_shards)
        except (TypeError, KeyError):
            raise DatasetError(
                f"document is missing the primary key field {pk!r}"
            ) from None

    def insert(self, document: dict) -> Optional[int]:
        """Insert one document on its owning shard; returns that shard's
        commit sequence (sequences are per-shard, like per-process)."""
        result = self.store._request(
            self._owner(document, self.primary_key_field),
            {"op": "insert", "dataset": self.name, "documents": [document]},
        )
        return result.done.get("sequence")

    def insert_many(self, documents: Sequence[dict]) -> int:
        """Bulk insert: group by owning shard, load all shards concurrently."""
        pk = self.primary_key_field
        by_shard: Dict[int, List[dict]] = {}
        for document in documents:
            by_shard.setdefault(self._owner(document, pk), []).append(document)
        futures = [
            self.store._gather.submit(
                self.store._request,
                shard,
                {
                    "op": "insert",
                    "dataset": self.name,
                    "documents": docs[start : start + INSERT_CHUNK],
                },
            )
            for shard, docs in by_shard.items()
            for start in range(0, len(docs), INSERT_CHUNK)
        ]
        return sum(future.result().done["count"] for future in futures)

    def delete(self, key) -> Optional[int]:
        result = self.store._request(
            shard_for_key(key, self.store.num_shards),
            {"op": "delete", "dataset": self.name, "key": key},
        )
        return result.done.get("sequence")

    def point_lookup(self, key, fields: Optional[List[str]] = None):
        result = self.store._request(
            shard_for_key(key, self.store.num_shards),
            {"op": "lookup", "dataset": self.name, "key": key, "fields": fields},
        )
        return result.done.get("document")

    def count(self) -> int:
        results = self.store._scatter({"op": "count", "dataset": self.name})
        return sum(result.done["count"] for result in results)


class ShardedDatastore:
    """Client-side coordinator over N engine-server shards.

    Provides the single-process :class:`~repro.store.datastore.Datastore`
    surface the wire session and the differential tests drive — ``query`` /
    ``run`` / ``explain``, ``dataset(name)``, ``create_dataset``,
    ``list_datasets``, ``checkpoint``, ``recovery_info``,
    ``traced_statement`` — so the same workload runs against both;
    ``io_snapshot()`` accumulates the per-request I/O the shards report in
    their done frames.
    """

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        pool_capacity: int = 4,
        timeout: float = DEFAULT_TIMEOUT,
        gather_workers: Optional[int] = None,
        observability: bool = True,
    ) -> None:
        if not addresses:
            raise ValueError("at least one shard address is required")
        self.addresses: List[Tuple[str, int]] = [
            (host, int(port)) for host, port in addresses
        ]
        self.num_shards = len(self.addresses)
        #: Reported on every statement ``done`` frame (see Datastore.topology).
        self.topology = {"shards": self.num_shards}
        self._pool_capacity = pool_capacity
        self._timeout = timeout
        self._pools = [
            _ClientPool(host, port, pool_capacity, timeout)
            for host, port in self.addresses
        ]
        self._gather = ThreadPoolExecutor(
            max_workers=gather_workers or max(4, 2 * self.num_shards),
            thread_name_prefix="gather",
        )
        self._io = IOStats()
        self._pk_fields: Dict[str, str] = {}
        #: Coordinator-side metrics: per-shard request/row-transfer counters
        #: (plus wire counters when this registry backs a WireServer).
        self.metrics = MetricsRegistry(enabled=observability)
        self._m_shard_requests = self.metrics.counter("repro_shard_requests_total")
        self._m_shard_rows = self.metrics.counter(
            "repro_shard_rows_transferred_total"
        )
        #: Stitched span tree of the most recent traced statement *on this
        #: store* — shared by every connection, so a debugging surface only:
        #: whoever answers a request uses the trace ``traced_statement``
        #: yielded to it.
        self.last_trace: Optional[QueryTrace] = None

    # -- plumbing ----------------------------------------------------------------------
    def io_snapshot(self) -> IOStats:
        return self._io.snapshot()

    def _request(self, shard: int, payload: dict) -> StatementResult:
        pool = self._pools[shard]
        self._m_shard_requests.labels(shard=str(shard)).inc()
        try:
            with pool.connection() as client:
                result = client.request(payload)
        except RemoteError as error:
            if error.code in _POISON_CODES:
                raise RemoteError(
                    f"shard {shard} ({pool.host}:{pool.port}): {error}",
                    code=error.code,
                    query_id=error.query_id,
                ) from error
            raise
        io = result.io
        if io:
            self._io.add(IOStats.from_dict(io))
        if result.rows:
            self._m_shard_rows.labels(shard=str(shard)).inc(len(result.rows))
        return result

    def _scatter(self, payload: dict) -> List[StatementResult]:
        """Send one request to every shard concurrently; results in shard order."""
        futures = [
            self._gather.submit(self._request, shard, dict(payload))
            for shard in range(self.num_shards)
        ]
        return [future.result() for future in futures]

    # -- observability -----------------------------------------------------------------
    @contextmanager
    def traced_statement(self, text: str, executor: Optional[str] = None,
                         query_id: Optional[str] = None,
                         started: Optional[float] = None):
        """Trace one coordinator statement (the distributed counterpart of
        :meth:`repro.store.datastore.Datastore.traced_statement`).

        Yields None when observability is off; re-yields the active trace
        when called reentrantly.  On exit records the query counter/latency
        histogram and publishes ``self.last_trace``.  An unknown ``executor``
        is rejected here, before anything is sent to a shard.
        """
        executor = resolve_executor(executor)  # also the metrics label
        if not self.metrics.enabled:
            yield None
            return
        existing = current_trace()
        if existing is not None:
            yield existing
            return
        trace = QueryTrace(query_id=query_id, text=text)
        try:
            with activate(trace, started):
                yield trace
        finally:
            trace.root.attrs.setdefault("executor", executor)
            trace.root.attrs.setdefault("shards", self.num_shards)
            self.metrics.counter("repro_queries_total").labels(
                executor=executor
            ).inc()
            self.metrics.histogram("repro_query_seconds").labels(
                executor=executor
            ).observe(trace.root.duration_s)
            self.last_trace = trace

    def metrics_text(self) -> str:
        """The coordinator's metrics in Prometheus text exposition format."""
        return self.metrics.render_text()

    @staticmethod
    def _stitch_shard_trace(scatter_span, shard: int, done: dict) -> None:
        """Attach one shard's serialized span tree under the scatter span."""
        if scatter_span is None:
            return
        trace_dict = done.get("trace")
        if not trace_dict:
            return
        shard_span = Span.from_dict(trace_dict.get("root") or {"name": "statement"})
        shard_span.name = "shard"
        shard_span.attrs["shard"] = shard
        scatter_span.add_child(shard_span)

    # -- queries -----------------------------------------------------------------------
    def query(
        self,
        text: str,
        executor: Optional[str] = None,
        pushdown: bool = True,
        batch_size: Optional[int] = None,
        query_id: Optional[str] = None,
    ) -> list:
        """Run one SQL++ SELECT: compile here, then :meth:`run` it traced."""
        from ..sqlpp import compile_query

        with self.traced_statement(text, executor=executor, query_id=query_id):
            return self.run(
                compile_query(text),
                executor=executor,
                pushdown=pushdown,
                batch_size=batch_size,
            )

    @staticmethod
    def _refuse_fragment(partial: bool) -> None:
        if partial:
            raise WireError(
                "partial mode is shard-side only; the coordinator runs the merge"
            )

    def run(
        self,
        compiled,
        executor: Optional[str] = None,
        pushdown: bool = True,
        batch_size: Optional[int] = None,
        partial: bool = False,
    ) -> list:
        """Execute a compiled SELECT as scatter-gather with partial-agg pushdown.

        Called inside :meth:`traced_statement` (by :meth:`query` or the wire
        session) the whole statement becomes one tree: the shards' span trees
        (returned inside their done frames) are stitched under ``scatter``
        (attr ``shards``), and the merge fragment's breakers are recorded
        under ``merge`` with the split ``kind``, ``rows_in`` — the rows that
        crossed the wire — and ``rows_out``.
        """
        self._refuse_fragment(partial)
        if compiled.query is None:
            # FROM-less: evaluated locally, no shard touches a dataset.
            with span("merge", kind="local", rows_in=0):
                rows = compiled.execute(None, executor=executor)
                annotate(rows_out=len(rows))
            return rows
        with span("optimize", distributed=True):
            _, split = compile_split(compiled, self._primary_key)
        if split.kind == "fetch":
            return self._fetch_and_execute(
                compiled, split, executor, pushdown, batch_size
            )
        payload = {
            "op": "statement",
            "text": compiled.text,
            "mode": "partial",
            "executor": executor,
            "pushdown": pushdown,
        }
        trace = current_trace()
        if trace is not None:
            payload["query_id"] = trace.query_id
        if batch_size is not None:
            payload["batch_size"] = batch_size
        with span("scatter", shards=self.num_shards) as scatter_span:
            results = self._scatter(payload)
            for shard, result in enumerate(results):
                self._stitch_shard_trace(scatter_span, shard, result.done)
        shard_rows = [result.rows for result in results]
        with span(
            "merge", kind=split.kind, rows_in=sum(len(rows) for rows in shard_rows)
        ):
            merged = merge_rows(split, shard_rows)
            rows = run_breakers(iter(merged), split.post_breakers)
            if compiled.select_value:
                rows = [row[compiled.value_column] for row in rows]
            annotate(rows_out=len(rows))
        return rows

    def _fetch_and_execute(
        self, compiled, split: SplitPlan, executor, pushdown, batch_size
    ) -> list:
        """Run a join/subquery query at the coordinator over fetched data.

        Every referenced dataset is pulled whole from all shards into a
        temporary local datastore, then the unmodified compiled query runs
        there — correctness first; ``merge``'s ``rows_in`` exposes the cost.
        """
        from ..store.datastore import Datastore

        transferred = 0
        temp = Datastore()
        try:
            with span("scatter", shards=self.num_shards):
                for dataset in split.fetch_datasets:
                    temp.create_dataset(
                        dataset, primary_key_field=self._primary_key(dataset)
                    )
                    results = self._scatter(
                        {
                            "op": "statement",
                            "text": (
                                f"SELECT VALUE {_FETCH_ALIAS} "
                                f"FROM {dataset} AS {_FETCH_ALIAS};"
                            ),
                            "executor": executor,
                        }
                    )
                    documents = [row for result in results for row in result.rows]
                    transferred += len(documents)
                    if documents:
                        temp.dataset(dataset).insert_many(documents)
            with span("merge", kind="fetch", rows_in=transferred):
                rows = temp.run(
                    compiled,
                    executor=executor,
                    pushdown=pushdown,
                    batch_size=batch_size,
                )
                annotate(rows_out=len(rows))
        finally:
            temp.close()
        return rows

    def explain(
        self,
        text,
        executor: Optional[str] = None,
        analyze: bool = False,
        partial: bool = False,
    ) -> str:
        """Render the distributed plan: merge fragment + one shard's fragment.

        ``text`` is SQL++ text or its compiled form.
        """
        self._refuse_fragment(partial)
        compiled, split = compile_split(text, self._primary_key)
        if split is None:
            return compiled.explain(None)
        lines = [
            f"DISTRIBUTED SCATTER-GATHER over {self.num_shards} shards "
            f"(kind={split.kind})",
            "MERGE FRAGMENT (coordinator):",
        ]
        lines.extend("  " + line for line in split.describe().splitlines())
        if split.kind == "fetch":
            lines.append("COORDINATOR PLAN (over the fetched datasets):")
            lines.extend("  " + line for line in compiled.explain(None).splitlines())
            return "\n".join(lines)
        # With observability on, ANALYZE runs the real scatter-gather below
        # and renders its stitched trace — the shard fragment is then shown
        # without its own per-shard analyze run.
        stitch = analyze and self.metrics.enabled
        shard_plan = self._request(
            0,
            {
                "op": "explain",
                "text": compiled.text,
                "mode": "partial",
                "executor": executor,
                "analyze": analyze and not stitch,
            },
        ).done["text"]
        lines.append("SHARD FRAGMENT (every shard; shard 0 shown):")
        lines.extend("  " + line for line in shard_plan.splitlines())
        if stitch:
            with self.traced_statement(compiled.text, executor=executor) as trace:
                self.run(compiled, executor=executor)
            lines.extend(["", "ANALYZE TRACE:", *render_trace(trace).splitlines()])
        return "\n".join(lines)

    def split_for(self, text) -> Optional[SplitPlan]:
        """The split this coordinator would use for ``text`` (None = FROM-less)."""
        return compile_split(text, self._primary_key)[1]

    # -- transactions ------------------------------------------------------------------
    def begin(self):
        """Refused: a transaction lives on one engine's commit table, and
        nothing yet routes a session's BEGIN…COMMIT to the one shard that
        would own it.  (The wire session adds the statement position.)"""
        raise TransactionError(
            "transactions are not supported through the shard coordinator "
            "(writes auto-commit per shard; connect to the owning shard "
            "for multi-statement transactions)"
        )

    # -- DDL / routing -----------------------------------------------------------------
    def create_dataset(
        self,
        name: str,
        layout: str = "amax",
        primary_key_field: Optional[str] = None,
    ) -> None:
        """Create the dataset on every shard (same name, layout, and key)."""
        self._scatter(
            {
                "op": "create_dataset",
                "name": name,
                "layout": layout,
                "primary_key_field": primary_key_field,
            }
        )
        self._pk_fields[name] = primary_key_field or "id"

    def _primary_key(self, dataset: str) -> str:
        cached = self._pk_fields.get(dataset)
        if cached is not None:
            return cached
        for row in self.list_datasets():  # refreshes the cache as a side effect
            if row["name"] == dataset:
                return row.get("primary_key", "id")
        raise DatasetError(f"unknown dataset {dataset!r}")

    def dataset(self, name: str) -> RoutedDataset:
        """The routing view of one dataset (keyed operations live there).

        Nothing is checked here: an unknown name fails at the shard — or at
        the first use of its primary key — with the engine's own error.
        """
        return RoutedDataset(self, name)

    def list_datasets(self) -> List[dict]:
        """Union of every shard's datasets, record counts summed across shards."""
        results = self._scatter({"op": "list_datasets"})
        merged: Dict[str, dict] = {}
        order: List[str] = []
        for result in results:
            for row in result.rows:
                name = row["name"]
                if name in merged:
                    merged[name]["records"] += row.get("records", 0)
                else:
                    merged[name] = dict(row)
                    order.append(name)
                self._pk_fields.setdefault(name, row.get("primary_key", "id"))
        return [merged[name] for name in order]

    def checkpoint(self) -> None:
        self._scatter({"op": "checkpoint"})

    def recovery_info(self, shard: int = 0) -> Optional[dict]:
        return self._request(shard, {"op": "recovery_info"}).done.get("recovery")

    def ping(self) -> None:
        self._scatter({"op": "ping"})

    # -- topology ----------------------------------------------------------------------
    def reconnect_shard(
        self, shard: int, address: Optional[Tuple[str, int]] = None
    ) -> None:
        """Drop the shard's pooled connections (e.g. after a restart).

        Pass ``address`` when the restarted shard came up on a new port.
        """
        if address is not None:
            self.addresses[shard] = (address[0], int(address[1]))
        old = self._pools[shard]
        host, port = self.addresses[shard]
        self._pools[shard] = _ClientPool(
            host, port, self._pool_capacity, self._timeout
        )
        old.close()

    def shutdown_shards(self) -> None:
        """Ask every shard server to shut down gracefully over the wire."""
        for shard in range(self.num_shards):
            try:
                self._request(shard, {"op": "shutdown"})
            except RemoteError:
                pass  # already down, or closed the socket mid-goodbye

    def close(self) -> None:
        self._gather.shutdown(wait=True)
        for pool in self._pools:
            pool.close()

    def __enter__(self) -> "ShardedDatastore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ShardCluster:
    """Spawn and manage N engine-server shard processes.

    Each shard gets its own directory under ``data_root`` (``shard-0``,
    ``shard-1``, ...) holding its manifests and WAL; a killed shard restarts
    from that directory through the ordinary single-store recovery path.
    Startup uses a ready-file handshake: the server binds port 0 and writes
    ``{"host", "port", "pid"}`` once it is accepting connections.
    """

    def __init__(
        self,
        num_shards: int,
        data_root,
        host: str = "127.0.0.1",
        server_args: Sequence[str] = (),
        startup_timeout: float = 60.0,
    ) -> None:
        if num_shards < 1:
            raise ValueError("at least one shard is required")
        self.num_shards = num_shards
        self.data_root = Path(data_root)
        self.host = host
        self.server_args = list(server_args)
        self.startup_timeout = startup_timeout
        self.processes: List[Optional[subprocess.Popen]] = [None] * num_shards
        self.addresses: List[Optional[Tuple[str, int]]] = [None] * num_shards
        self._env = dict(os.environ)
        # Shard subprocesses must import this very checkout of the package.
        import repro as _repro

        source_root = str(Path(_repro.__file__).resolve().parents[1])
        existing = self._env.get("PYTHONPATH")
        self._env["PYTHONPATH"] = (
            source_root if not existing else source_root + os.pathsep + existing
        )
        self.data_root.mkdir(parents=True, exist_ok=True)
        try:
            for shard in range(num_shards):
                self._spawn(shard)
        except BaseException:
            self.terminate()
            raise

    def shard_dir(self, shard: int) -> Path:
        return self.data_root / f"shard-{shard}"

    def _ready_file(self, shard: int) -> Path:
        return self.data_root / f"shard-{shard}.ready.json"

    def _spawn(self, shard: int) -> None:
        ready = self._ready_file(shard)
        if ready.exists():
            ready.unlink()
        argv = [
            sys.executable,
            "-m",
            "repro.server",
            "--host",
            self.host,
            "--port",
            "0",
            "--store",
            str(self.shard_dir(shard)),
            "--ready-file",
            str(ready),
            *self.server_args,
        ]
        process = subprocess.Popen(argv, env=self._env)
        deadline = time.monotonic() + self.startup_timeout
        while True:
            if process.poll() is not None:
                raise RuntimeError(
                    f"shard {shard} exited with status {process.returncode} "
                    "during startup"
                )
            if ready.exists():
                try:
                    payload = json.loads(ready.read_text())
                except (ValueError, OSError):
                    payload = None  # written but not yet complete
                if payload:
                    self.processes[shard] = process
                    self.addresses[shard] = (payload["host"], payload["port"])
                    return
            if time.monotonic() > deadline:
                process.kill()
                process.wait()
                raise RuntimeError(
                    f"shard {shard} did not become ready within "
                    f"{self.startup_timeout}s"
                )
            time.sleep(0.02)

    def live_addresses(self) -> List[Tuple[str, int]]:
        return [address for address in self.addresses if address is not None]

    def connect(self, **kwargs) -> ShardedDatastore:
        """A coordinator over this cluster's current shard addresses."""
        return ShardedDatastore(self.live_addresses(), **kwargs)

    def kill_shard(self, shard: int) -> None:
        """SIGKILL a shard (crash injection — no drain, no checkpoint)."""
        process = self.processes[shard]
        if process is None:
            return
        process.kill()
        process.wait()
        self.processes[shard] = None
        self.addresses[shard] = None

    def terminate_shard(self, shard: int) -> None:
        """SIGTERM a shard and wait for its graceful drain-and-checkpoint."""
        process = self.processes[shard]
        if process is None:
            return
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        self.processes[shard] = None
        self.addresses[shard] = None

    def restart_shard(self, shard: int) -> Tuple[str, int]:
        """Start a killed shard again from its directory (WAL replay etc.)."""
        if self.processes[shard] is not None:
            self.terminate_shard(shard)
        self._spawn(shard)
        return self.addresses[shard]

    def terminate(self, timeout: float = 30.0) -> None:
        """Gracefully stop every shard (SIGTERM, then SIGKILL stragglers)."""
        for process in self.processes:
            if process is not None and process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + timeout
        for shard, process in enumerate(self.processes):
            if process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            self.processes[shard] = None
            self.addresses[shard] = None

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate()
