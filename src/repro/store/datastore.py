"""The datastore façade: nodes, partitions, buffer cache, datasets, recovery.

A :class:`Datastore` plays the role of a (single-process) AsterixDB cluster:
it owns the storage device, the per-node buffer caches and transaction logs,
and the datasets created on top of them.  The query engine
(:mod:`repro.query`) executes against a datastore.

With ``StoreConfig.storage_directory`` set the store is *durable*: every
page and WAL record is written through to the directory, dataset manifests
track the live component stacks, and :meth:`Datastore.open` rebuilds the
whole store after a clean :meth:`close` **or** a crash — manifests restore
the on-disk state, then the WAL tail is replayed into the memtables (see
:mod:`repro.store.manifest` and ``docs/DURABILITY.md``).
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterator, List, Optional

from ..lsm.scheduler import BackgroundScheduler
from ..lsm.wal import AUTO_COMMIT, CommitRecord, LogManager
from ..model.errors import DatasetError, QueryError
from ..obs import (
    MetricsRegistry,
    QueryTrace,
    SlowQueryLog,
    activate,
    current_trace,
    render_trace,
)
from ..storage.buffer_cache import BufferCache
from ..storage.device import StorageDevice
from ..storage.stats import IOStats
from . import manifest as manifest_io
from .config import StoreConfig
from .dataset import Dataset
from .txn import CommitTable, Transaction

#: Environment variable: when set (to a directory), in-memory datastores are
#: transparently given a fresh tmpdir-backed ``storage_directory`` under it.
#: This is how CI runs the whole test suite against on-disk storage.
STORAGE_ROOT_ENV = "REPRO_STORAGE_ROOT"


@dataclass
class RecoveryInfo:
    """What :meth:`Datastore.open` found and did."""

    datasets_recovered: int = 0
    components_loaded: int = 0
    wal_records_seen: int = 0
    wal_records_replayed: int = 0
    wal_records_skipped_durable: int = 0
    wal_records_skipped_unknown: int = 0
    #: Transaction commit records found in the log tail.
    wal_commit_records: int = 0
    #: Transactional write records dropped because their transaction's
    #: commit record never made it to disk (all-or-nothing replay).
    wal_records_skipped_uncommitted: int = 0


class Datastore:
    """A single-process document store with pluggable component layouts."""

    #: What statement ``done`` frames report about the store's shape: nothing
    #: for one engine; a shard coordinator reports ``{"shards": N}``.
    topology: Dict[str, int] = {}

    def __init__(self, config: Optional[StoreConfig] = None) -> None:
        config = config or StoreConfig()
        storage_root = os.environ.get(STORAGE_ROOT_ENV)
        if config.storage_directory is None and storage_root:
            config = replace(
                config,
                storage_directory=tempfile.mkdtemp(prefix="store-", dir=storage_root),
            )
        self.config = config
        self.config.validate()
        #: Engine-wide metrics registry (see docs/OBSERVABILITY.md); disabled
        #: instruments are no-ops when ``config.observability`` is off.
        self.metrics = MetricsRegistry(enabled=self.config.observability)
        self.device = StorageDevice(
            page_size=self.config.page_size,
            directory=self.config.storage_directory,
            metrics=self.metrics,
        )
        self.buffer_cache = BufferCache(capacity_pages=self.config.buffer_cache_pages)
        self._register_storage_metrics()
        #: Background flush/merge pool shared by every dataset; None keeps
        #: the engine fully synchronous (the default).
        self.scheduler: Optional[BackgroundScheduler] = None
        if self.config.background_workers > 0:
            self.scheduler = BackgroundScheduler(
                workers=self.config.background_workers,
                queue_capacity=self.config.flush_queue_capacity,
            )
        if self.config.observability and self.scheduler is not None:
            # Absorb the scheduler's live counters without touching its hot
            # paths: the registry reads them through callbacks at render time.
            scheduler = self.scheduler
            self.metrics.register_callback(
                "repro_background_queue_depth", lambda: scheduler.in_flight
            )
            for event in ("submitted", "completed", "deduplicated",
                          "rejected", "failed"):
                self.metrics.register_callback(
                    "repro_background_tasks_total",
                    (lambda attr: lambda: getattr(scheduler, attr))(
                        f"tasks_{event}"
                    ),
                    event=event,
                )
        self.log_manager = LogManager(
            num_nodes=self.config.num_nodes,
            partitions_per_node=self.config.partitions_per_node,
            device=self.device if self.is_durable else None,
        )
        self.datasets: Dict[str, Dataset] = {}
        #: Last committed sequence per (dataset, key): what transaction
        #: commits validate first-write-wins against (see repro.store.txn).
        self.commits = CommitTable()
        #: Serializes transaction commits, and synchronizes begin() with
        #: them: a snapshot is pinned either before a commit's first apply or
        #: after its last, never in between.  Auto-committed single-document
        #: writes take it too (apply + commit-table stamp as one step), so a
        #: write can never land inside a commit's validate→apply window and
        #: be silently overwritten.  Outermost in the lock order
        #: (commit lock > per-key stripe locks > tree locks).
        self._commit_lock = threading.RLock()
        self._txn_handles = itertools.count(1)
        #: Populated by :meth:`open`; None for a freshly created store.
        self.last_recovery: Optional[RecoveryInfo] = None
        #: Structured slow-query log (see docs/OBSERVABILITY.md).
        self.slow_log = SlowQueryLog(
            threshold_s=self.config.slow_query_log_s,
            path=self.config.slow_query_log_path,
        )
        #: Span tree of the most recent traced statement (QueryTrace or None).
        self.last_trace: Optional[QueryTrace] = None
        if self.is_durable and not os.path.exists(self._root_manifest_path()):
            self._persist_root_manifest()

    # -- durability --------------------------------------------------------------------
    @property
    def is_durable(self) -> bool:
        return self.config.storage_directory is not None

    def _root_manifest_path(self) -> str:
        return os.path.join(
            self.config.storage_directory, manifest_io.DATASTORE_MANIFEST
        )

    def _dataset_manifest_path(self, name: str) -> Optional[str]:
        if not self.is_durable:
            return None
        return os.path.join(
            self.config.storage_directory,
            manifest_io.dataset_manifest_filename(name),
        )

    def _persist_root_manifest(self) -> None:
        if not self.is_durable:
            return
        manifest_io.write_json_atomic(
            self._root_manifest_path(),
            manifest_io.build_datastore_manifest(self.config, self.datasets),
        )

    @classmethod
    def open(cls, directory: str) -> "Datastore":
        """Reopen a durable datastore from its directory (crash-safe).

        Sequence: read the root manifest (configuration + dataset list),
        rebuild every dataset from its manifest (component files are reopened
        and verified against their page checksums and footers), then replay
        the WAL tail — every record whose LSN exceeds its partition's durable
        LSN — through the normal index-maintenance and memtable path.
        """
        root = manifest_io.read_datastore_manifest(directory)
        config = StoreConfig.from_dict(root["config"])
        config.storage_directory = directory
        store = cls(config)
        info = RecoveryInfo()
        for name in root["datasets"]:
            manifest_path = store._dataset_manifest_path(name)
            dataset = manifest_io.restore_dataset(
                manifest_io.read_json(manifest_path),
                store.config,
                store.device,
                store.buffer_cache,
                store.log_manager,
                manifest_path,
                scheduler=store.scheduler,
            )
            dataset.commit_table = store.commits
            dataset.commit_lock = store._commit_lock
            store.datasets[name] = dataset
            info.datasets_recovered += 1
            info.components_loaded += dataset.num_components()
        durable_floor = 1
        for dataset in store.datasets.values():
            for tree in dataset.partitions:
                durable_floor = max(durable_floor, tree.durable_lsn + 1)
        records = store.log_manager.iter_records()
        # Pass 1: which multi-statement transactions actually committed?  A
        # write record tagged with a transaction id is applied only when its
        # commit record survived the crash — all-or-nothing replay.
        committed_txns = {
            record.txn_id for record in records if isinstance(record, CommitRecord)
        }
        for record in records:
            info.wal_records_seen += 1
            if isinstance(record, CommitRecord):
                info.wal_commit_records += 1
                continue
            if record.txn_id != AUTO_COMMIT and record.txn_id not in committed_txns:
                info.wal_records_skipped_uncommitted += 1
                continue
            dataset = store.datasets.get(record.dataset)
            if (
                dataset is None
                or record.partition_id >= len(dataset.partitions)
                or record.lsn < dataset.created_lsn
            ):
                # A dropped (or dropped-and-recreated) dataset's old records.
                info.wal_records_skipped_unknown += 1
                continue
            tree = dataset.partitions[record.partition_id]
            if record.lsn <= tree.durable_lsn:
                # Already captured by a flushed component; only the tail
                # beyond the checkpoint is re-applied.
                info.wal_records_skipped_durable += 1
                continue
            dataset.apply_wal_record(record)
            info.wal_records_replayed += 1
        store.log_manager.advance_lsn(durable_floor)
        store.last_recovery = info
        return store

    def checkpoint(self) -> None:
        """Flush everything, persist the manifests, and truncate the WAL.

        After a checkpoint every logged operation lives in a disk component
        (memtables are empty), so the log carries no information the
        manifests do not — it is safe to drop, and recovery after a
        subsequent crash replays only operations logged after this point.
        Requires quiesced writers (as before the concurrency subsystem);
        in-flight background flushes and merges are drained first, and any
        exception raised on a worker resurfaces here.
        """
        self.drain_background()
        for dataset in self.datasets.values():
            dataset.flush_all()
        self._persist_root_manifest()
        self.log_manager.truncate()

    def recovery_info(self, shard: int = 0) -> Optional[dict]:
        """:attr:`last_recovery` as a plain dict (None for a fresh store).

        ``shard`` is what a shard coordinator selects by; a single store is
        its own only shard and ignores it.
        """
        del shard
        return None if self.last_recovery is None else asdict(self.last_recovery)

    def drain_background(self) -> None:
        """Wait for every queued/running background flush and merge."""
        if self.scheduler is not None:
            self.scheduler.drain()

    def kill_background(self) -> None:
        """Crash-test hook: abandon background work like a dying process.

        Queued flushes/merges never run and the workers stop without waiting
        — afterwards the process-level objects can be dropped and the
        directory reopened with :meth:`open`, which replays the WAL tail
        exactly as after a real crash with in-flight background work.
        """
        if self.scheduler is not None:
            self.scheduler.kill()

    def close(self) -> None:
        """Checkpoint (when durable), stop the background pool, release files.

        A closed store reopens via :meth:`open` with empty logs; a killed
        one reopens the same way, paying WAL replay for the tail instead.
        The pool and file handles are torn down even when the checkpoint
        (or a background task error it surfaces) raises — the first error
        still propagates to the caller.
        """
        try:
            if self.is_durable:
                self.checkpoint()
        finally:
            try:
                if self.scheduler is not None:
                    self.scheduler.shutdown(wait=True)
            finally:
                self.device.close()

    def __enter__(self) -> "Datastore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transactions ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """Start a multi-statement transaction (snapshot reads, atomic commit).

        Pins every dataset's snapshot and reads the commit sequence under the
        commit lock, so the transaction's view is one commit-consistent point
        in time: it can never straddle another transaction's apply step, and
        every commit it missed is guaranteed to fail its first-write-wins
        validation.  See :class:`repro.store.txn.Transaction` and
        ``docs/ARCHITECTURE.md``.
        """
        with self._commit_lock:
            txn = Transaction(self, next(self._txn_handles), self.commits.current_seq())
            for name, dataset in self.datasets.items():
                txn._pin_dataset(name, dataset)
        return txn

    # -- dataset management ------------------------------------------------------------
    def create_dataset(
        self,
        name: str,
        layout: str = "amax",
        primary_key_field: Optional[str] = None,
    ) -> Dataset:
        """Create a dataset stored under the given layout (open/vector/apax/amax)."""
        if name in self.datasets:
            raise DatasetError(f"dataset {name!r} already exists")
        dataset = Dataset(
            name=name,
            layout=layout,
            config=self.config,
            device=self.device,
            buffer_cache=self.buffer_cache,
            log_manager=self.log_manager,
            primary_key_field=primary_key_field,
            manifest_path=self._dataset_manifest_path(name),
            created_lsn=self.log_manager.next_lsn,
            scheduler=self.scheduler,
        )
        dataset.commit_table = self.commits
        dataset.commit_lock = self._commit_lock
        self.datasets[name] = dataset
        dataset.persist_manifest()
        self._persist_root_manifest()
        return dataset

    def dataset(self, name: str) -> Dataset:
        try:
            return self.datasets[name]
        except KeyError as exc:
            raise DatasetError(f"unknown dataset {name!r}") from exc

    def list_datasets(self) -> List[dict]:
        """One row per dataset, by name: layout, record count, primary key."""
        return [
            {
                "name": name,
                "layout": dataset.layout,
                "records": dataset.count(),
                "primary_key": dataset.primary_key_field,
            }
            for name, dataset in sorted(self.datasets.items())
        ]

    def drop_dataset(self, name: str) -> None:
        dataset = self.datasets.pop(name, None)
        if dataset is None:
            return
        # A background flush/merge of this dataset racing the file deletions
        # below would rebuild or resurrect components; let it finish first.
        self.drain_background()
        # Unlist the dataset durably first: after this write a crash only
        # orphans its files.  Deleting files before the root manifest stopped
        # referencing the dataset would make the next open() fail.
        self._persist_root_manifest()
        if dataset.manifest_path is not None and os.path.exists(dataset.manifest_path):
            os.remove(dataset.manifest_path)
        for partition in dataset.partitions:
            for component in partition.components:
                component.destroy()
        for index in dataset.secondary_indexes.values():
            index.destroy()
        if dataset.primary_key_index is not None:
            dataset.primary_key_index.destroy()

    # -- observability -------------------------------------------------------------------
    def _register_storage_metrics(self) -> None:
        """Render the storage series from the counts the device and the buffer
        cache own: each event is counted once, in storage, and the registry
        reads the count at render time (nothing is registered when
        observability is off, but the counts keep running)."""
        register = self.metrics.register_callback
        device, cache = self.device, self.buffer_cache
        for source, stats in device.stats_by_source.items():
            for op, suffix in (("read", "read"), ("write", "written")):
                register("repro_io_pages_total",
                         lambda s=stats, f=f"pages_{suffix}": getattr(s, f),
                         op=op, source=source)
                register("repro_io_bytes_total",
                         lambda s=stats, f=f"bytes_{suffix}": getattr(s, f),
                         op=op, source=source)
        register("repro_wal_appends_total", lambda: device.stats.wal_appends)
        register("repro_wal_bytes_total", lambda: device.stats.wal_bytes_written)
        # Every on-disk append is flushed to the OS (not fsync(2)'d).
        register("repro_wal_fsyncs_total",
                 lambda: device.stats.wal_appends
                 if device.directory is not None else 0)
        register("repro_cache_requests_total", lambda: cache.hits, result="hit")
        register("repro_cache_requests_total", lambda: cache.misses, result="miss")
        register("repro_cache_evictions_total", lambda: cache.evictions)

    @contextmanager
    def traced_statement(
        self,
        text: str,
        executor: Optional[str] = None,
        query_id: Optional[str] = None,
        started: Optional[float] = None,
    ) -> Iterator[Optional[QueryTrace]]:
        """Trace one statement: activates a fresh :class:`QueryTrace` on the
        calling thread, then records latency/IO metrics, the slow-query log,
        and ``self.last_trace`` when the statement finishes.

        Yields None (and does nothing) when observability is off; re-yields
        the already-active trace when called reentrantly, so nested execution
        layers never double-count a statement.  An unknown ``executor`` is
        rejected here, before the statement starts.  ``started`` backdates
        the statement to a ``perf_counter`` reading — the wire session parses
        before it knows the statement is one to trace.
        """
        from ..query.executor import resolve_executor

        executor = resolve_executor(executor)  # also the metrics label
        if not self.config.observability:
            yield None
            return
        existing = current_trace()
        if existing is not None:
            yield existing
            return
        trace = QueryTrace(query_id=query_id, text=text)
        query_io = self.device.stats_by_source["query"]
        before = query_io.snapshot()
        try:
            with activate(trace, started):
                yield trace
        finally:
            duration = trace.root.duration_s
            delta = query_io.delta_since(before)
            io_attribution = {
                "pages_read": delta.pages_read,
                "pages_written": delta.pages_written,
            }
            trace.root.attrs.setdefault("executor", executor)
            trace.root.attrs["io"] = io_attribution
            self.metrics.counter("repro_queries_total").labels(
                executor=executor
            ).inc()
            self.metrics.histogram("repro_query_seconds").labels(
                executor=executor
            ).observe(duration)
            if self.slow_log.should_log(duration):
                self.metrics.counter("repro_slow_queries_total").inc()
                self.slow_log.record({
                    "query_id": trace.query_id,
                    "text": text,
                    "duration_s": round(duration, 6),
                    "executor": executor,
                    "io": io_attribution,
                    "trace": trace.root.to_dict(),
                })
            self.last_trace = trace

    def metrics_text(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return self.metrics.render_text()

    # -- SQL++ ---------------------------------------------------------------------------
    def query(
        self,
        text: str,
        executor: Optional[str] = None,
        pushdown: bool = True,
        optimize: Optional[bool] = None,
        batch_size: Optional[int] = None,
    ) -> list:
        """Run a SQL++ statement against this store and return its rows.

        The text is parsed, bound, and lowered onto the same plan nodes the
        fluent :class:`~repro.query.plan.Query` builder produces, so the
        cost-based optimizer, scan pushdown, and both executors apply
        unchanged (see :mod:`repro.sqlpp` and ``docs/QUERY_LANGUAGE.md``).

        Args:
            text: One SQL++ SELECT statement (a trailing ``;`` is optional).
            executor: ``"batch"`` (vectorized column batches; what None
                means) or ``"interpreted"`` (row-at-a-time oracle).
            pushdown: Disable to keep the assemble-then-filter baseline.
            optimize: Skip/force cost-based access-path selection
                (default: follows ``pushdown``).
            batch_size: Rows per column batch for the batch executor.

        Returns:
            Result rows as dicts — or bare values for ``SELECT VALUE``.

        Example:
            >>> from repro.store import Datastore, StoreConfig
            >>> store = Datastore(StoreConfig(partitions_per_node=1))
            >>> d = store.create_dataset("d", layout="amax")
            >>> _ = d.insert_many([{"id": 1, "a": 2}, {"id": 2, "a": 5}])
            >>> store.query("SELECT COUNT(*) FROM d AS t WHERE t.a > 3;")
            [{'count': 1}]
        """
        from ..sqlpp import compile_query

        with self.traced_statement(text, executor=executor):
            return self.run(
                compile_query(text),
                executor=executor,
                pushdown=pushdown,
                optimize=optimize,
                batch_size=batch_size,
            )

    def run(
        self,
        compiled,
        executor: Optional[str] = None,
        pushdown: bool = True,
        optimize: Optional[bool] = None,
        batch_size: Optional[int] = None,
        partial: bool = False,
    ) -> list:
        """Execute a compiled SELECT (:func:`repro.sqlpp.compile_query`) here.

        This is the store's half of a statement: :meth:`query` and the
        statement session (:mod:`repro.net.session`) parse and bind, then
        hand the compiled query to whichever store they sit on.  With
        ``partial`` only this store's fragment of the scatter-gather split
        runs, and its rows are the partials the coordinator merges.
        """
        if partial:
            compiled = self._fragment(compiled)
            if compiled is None:
                raise QueryError(
                    "joins and subqueries run at the coordinator over fetched "
                    "datasets; this shard cannot execute a partial fragment"
                )
        return compiled.execute(
            self,
            executor=executor,
            pushdown=pushdown,
            optimize=optimize,
            batch_size=batch_size,
        )

    def _fragment(self, statement):
        """What a shard runs of ``statement``: the local query of its split
        (the statement itself when FROM-less — answering those here keeps the
        op total; None for a fetch split, which has no shard fragment).

        Coordinator and shard derive the same split from the same text
        (:func:`repro.shard.partial.compile_split`), so no plan crosses the
        wire — only SQL++ text and partial rows.
        """
        from ..shard.partial import compile_split

        compiled, split = compile_split(
            statement, lambda name: self.dataset(name).primary_key_field
        )
        return compiled if split is None else split.local_query

    def explain(
        self,
        text,
        pushdown: bool = True,
        analyze: bool = False,
        executor: Optional[str] = None,
        partial: bool = False,
    ) -> str:
        """Explain a SQL++ statement: plan, chosen access path, alternatives.

        Args:
            text: One SQL++ SELECT statement (or its compiled form).
            pushdown: Attach the scan-pushdown spec before explaining.
            analyze: Also execute every candidate access path and report
                estimated vs. actual row counts.
            executor: Which executor the final EXECUTOR line describes.
            partial: Render this store's fragment of the scatter-gather
                split (the coordinator glues on the merge fragment).

        Returns:
            A multi-line plan rendering (see :meth:`repro.query.plan.Query.explain`).
        """
        from ..sqlpp import compile_query

        # Compiled (and, under ANALYZE, probed) untraced; the statement then
        # runs once through the real executor inside its own trace, so the
        # appended span tree shows one clean execution — every operator
        # exactly once, with actual row counts.
        compiled = self._fragment(text) if partial else compile_query(text)
        if compiled is None:
            return "FETCH (executed at the coordinator; no shard fragment)"
        rendering = compiled.explain(
            self, pushdown=pushdown, analyze=analyze, executor=executor
        )
        if analyze and self.config.observability and not partial:
            with self.traced_statement(compiled.text, executor=executor) as trace:
                self.run(compiled, executor=executor, pushdown=pushdown)
            rendering += "\n\nANALYZE TRACE:\n" + render_trace(trace)
        return rendering

    # -- statistics ----------------------------------------------------------------------
    def io_snapshot(self) -> IOStats:
        """This store's I/O so far: the device's page and log counts of every
        source, plus the buffer cache's hits and misses."""
        snapshot = self.device.stats
        snapshot.cache_hits = self.buffer_cache.hits
        snapshot.cache_misses = self.buffer_cache.misses
        return snapshot

    def total_storage_bytes(self) -> int:
        return sum(dataset.storage_size_bytes() for dataset in self.datasets.values())
