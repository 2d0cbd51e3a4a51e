"""Datasets: hash-partitioned collections backed by per-partition LSM trees.

A dataset owns one primary LSM index per data partition (records are
hash-partitioned by primary key, §2.1.1), an optional primary-key index, and
any number of secondary indexes.  The dataset is the unit queried by the query
engine and measured by the benchmarks (storage size, ingestion time, scans).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.schema import Schema
from ..index import PrimaryKeyIndex, SecondaryIndex
from ..lsm import LSMTree, MergeScheduler, TieringMergePolicy
from ..lsm.component import ALL_LAYOUTS
from ..lsm.keys import stable_key_hash
from ..lsm.scheduler import BackgroundScheduler
from ..lsm.wal import LogManager, WALRecord
from ..model.errors import DatasetError
from ..storage.buffer_cache import BufferCache
from ..storage.device import StorageDevice
from . import manifest as manifest_io
from .config import StoreConfig


class Dataset:
    """A named collection of documents stored under one layout."""

    def __init__(
        self,
        name: str,
        layout: str,
        config: StoreConfig,
        device: StorageDevice,
        buffer_cache: BufferCache,
        log_manager: Optional[LogManager] = None,
        primary_key_field: Optional[str] = None,
        manifest_path: Optional[str] = None,
        created_lsn: int = 0,
        scheduler: Optional[BackgroundScheduler] = None,
    ) -> None:
        if layout not in ALL_LAYOUTS:
            raise DatasetError(
                f"unknown layout {layout!r}; expected one of {ALL_LAYOUTS}"
            )
        self.name = name
        self.layout = layout
        self.config = config
        self.device = device
        self.buffer_cache = buffer_cache
        self.primary_key_field = primary_key_field or config.primary_key_field
        self.log_manager = log_manager
        #: Where this dataset's manifest lives (None = transient dataset).
        self.manifest_path = manifest_path
        #: Global LSN at creation time; WAL records below it belong to an
        #: earlier, dropped incarnation of a same-named dataset.
        self.created_lsn = created_lsn
        #: Shared background flush/merge pool (None = synchronous engine).
        self.scheduler = scheduler
        merge_scheduler = MergeScheduler(
            max_concurrent_merges=config.concurrent_merge_limit()
        )
        self.partitions: List[LSMTree] = []
        for partition_id in range(config.total_partitions):
            schema = Schema(primary_key_field=self.primary_key_field)
            log = (
                log_manager.log_for_partition(partition_id)
                if log_manager is not None
                else None
            )
            self.partitions.append(
                LSMTree(
                    name=f"{name}-p{partition_id}",
                    layout=layout,
                    schema=schema,
                    device=device,
                    buffer_cache=buffer_cache,
                    memory_budget_bytes=config.memory_component_budget,
                    compression=config.compression,
                    merge_policy=TieringMergePolicy(
                        size_ratio=config.merge_size_ratio,
                        max_tolerable_components=config.max_tolerable_components,
                    ),
                    merge_scheduler=merge_scheduler,
                    transaction_log=log,
                    amax_max_records_per_leaf=config.amax_max_records_per_leaf,
                    amax_empty_page_tolerance=config.amax_empty_page_tolerance,
                    dataset_name=name,
                    partition_id=partition_id,
                    on_disk_state_changed=self._on_partition_state_changed,
                    scheduler=scheduler,
                    max_frozen_memtables=config.max_frozen_memtables,
                )
            )
        self.secondary_indexes: Dict[str, SecondaryIndex] = {}
        self.primary_key_index: Optional[PrimaryKeyIndex] = None
        #: The datastore's :class:`~repro.store.txn.CommitTable` (set by the
        #: owning Datastore); single-document writes stamp their key here so
        #: open transactions can detect first-write-wins conflicts against
        #: them.  None for standalone datasets — transactions need a store.
        self.commit_table = None
        #: The datastore's commit lock (set together with ``commit_table``).
        #: Auto-committed writes hold it across apply + stamp so they are
        #: atomic with respect to transaction validation — see
        #: :meth:`_autocommit_guard`.
        self.commit_lock: Optional[threading.RLock] = None
        self.records_ingested = 0
        self.point_lookups_performed = 0
        #: Highest LSN the persisted ``records_ingested`` already covers
        #: (recovery replays WAL records without re-counting those).
        self.ingest_watermark_lsn = 0
        #: Per-partition durable LSN at the last index-buffer spill; lets the
        #: flush/merge callback spill only when durability actually advanced.
        self._spilled_durable_lsns: Dict[int, int] = {}
        #: (version, DatasetStatistics) cache for :meth:`statistics`.
        self._statistics_cache = None
        #: Striped per-key locks make the fetch-old → index-fixup →
        #: primary-insert sequence atomic per key across concurrent writers
        #: (without them, two updates of the same key could both see the same
        #: old document and leave a stale index entry behind).  Striping by
        #: the stable key hash keeps writers of *different* keys parallel —
        #: the indexes themselves are internally locked — while all ops on
        #: one key serialize.  Taken only when the dataset has indexes.
        self._key_locks = [threading.RLock() for _ in range(16)]
        #: Guards ingestion counters shared across writer threads.
        self._counter_lock = threading.Lock()
        #: Serializes the flush/merge callback (index spill + manifest
        #: rewrite) across partitions whose background tasks finish together.
        self._durability_lock = threading.Lock()

    # -- indexes -----------------------------------------------------------------------
    def create_secondary_index(self, name: str, path: str) -> SecondaryIndex:
        if name in self.secondary_indexes:
            raise DatasetError(f"secondary index {name!r} already exists")
        index = SecondaryIndex(f"{self.name}-{name}", path, self.device)
        self.secondary_indexes[name] = index
        self.persist_manifest()
        return index

    def create_primary_key_index(self) -> PrimaryKeyIndex:
        if self.primary_key_index is None:
            self.primary_key_index = PrimaryKeyIndex(f"{self.name}-pkidx", self.device)
            self.persist_manifest()
        return self.primary_key_index

    # -- durability ---------------------------------------------------------------------
    def persist_manifest(self) -> None:
        """Atomically rewrite this dataset's manifest (no-op when transient)."""
        if self.manifest_path is None:
            return
        manifest_io.write_json_atomic(
            self.manifest_path, manifest_io.build_dataset_manifest(self)
        )

    def _has_indexes(self) -> bool:
        return bool(self.secondary_indexes) or self.primary_key_index is not None

    def _lock_for_key(self, key) -> threading.RLock:
        return self._key_locks[stable_key_hash(key) % len(self._key_locks)]

    def _autocommit_guard(self):
        """The datastore's commit lock, when transactions are possible.

        An auto-committed write applies to the partition and stamps the
        :class:`~repro.store.txn.CommitTable` inside one critical section
        with transaction commits: without it, the write could land between a
        committing transaction's ``find_conflict`` and its apply of the same
        key, and the transaction would silently overwrite the just-committed
        write with no conflict raised (a lost update, breaking
        first-write-wins).  Standalone datasets (no commit table, so no
        transactions to race) skip the lock entirely.
        """
        return self.commit_lock if self.commit_lock is not None else nullcontext()

    @contextmanager
    def _all_key_locks(self):
        """Hold every key stripe (fixed order, so concurrent holders cannot
        deadlock); writers hold exactly one stripe, never while waiting on
        the durability lock, so this always makes progress."""
        for lock in self._key_locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._key_locks):
                lock.release()

    def _on_partition_state_changed(self, tree: LSMTree) -> None:
        """After a flush/merge: make the matching index state durable too.

        A flush advances the partition's durable LSN, which excludes the
        flushed records from WAL replay — so any index-buffer entries those
        records produced must be spilled to runs *before* the manifest that
        carries the new durable LSN is written.  Merges leave the durable
        LSN untouched, so they only rewrite the manifest (spilling there
        would just pile up tiny runs that slow every index search).  Crash
        ordering is safe either way: a spill without a manifest only
        orphans run files.
        """
        if self.manifest_path is None:
            return
        with self._durability_lock:
            # Exclude in-flight indexed writes while spilling + persisting:
            # an insert appends its index-buffer entry and its WAL record
            # inside one per-key stripe lock, so holding every stripe here
            # guarantees no spilled run ever contains an entry whose
            # operation was not yet logged (a crash right after this spill
            # would otherwise leave a phantom index entry with no WAL record
            # to justify it).
            with self._all_key_locks():
                if tree.durable_lsn > self._spilled_durable_lsns.get(
                    tree.partition_id, 0
                ):
                    self._spilled_durable_lsns[tree.partition_id] = tree.durable_lsn
                    for index in self.secondary_indexes.values():
                        index.flush()
                    if self.primary_key_index is not None:
                        self.primary_key_index.flush()
                self.persist_manifest()

    def apply_wal_record(self, record: WALRecord) -> None:
        """Replay one recovered WAL operation (recovery only).

        Re-runs the same index maintenance as the original ingestion (the
        buffered index entries died with the process) and applies the
        operation to the partition's memtable without re-logging it.
        """
        tree = self.partitions[record.partition_id]
        if record.antimatter:
            if self.secondary_indexes:
                old_document = self._fetch_old_document(record.key)
                for index in self.secondary_indexes.values():
                    index.delete(index.extract(old_document), record.key)
            tree.apply_replayed(record.key, None, True, record.lsn)
        else:
            self._maintain_secondary_indexes(record.key, record.document)
            tree.apply_replayed(record.key, record.document, False, record.lsn)
            if record.lsn > self.ingest_watermark_lsn:
                # Records at or below the watermark were already counted by
                # the recovered ``records_ingested``.
                self.records_ingested += 1
        if tree.needs_flush:
            tree.flush()

    # -- ingestion ----------------------------------------------------------------------
    def _partition_for(self, key) -> LSMTree:
        # Routing must be stable across processes: the builtin ``hash`` is
        # salted per process for strings, which would scatter keys to the
        # wrong partitions after a reopen.
        return self.partitions[stable_key_hash(key) % len(self.partitions)]

    def _key_of(self, document: dict):
        try:
            return document[self.primary_key_field]
        except (KeyError, TypeError) as exc:
            raise DatasetError(
                f"document is missing the primary key field {self.primary_key_field!r}"
            ) from exc

    def insert(self, document: dict, auto_flush: bool = True) -> Optional[int]:
        """Insert or upsert one document (newest version wins at query time).

        Thread-safe: each partition serializes its own writers; when the
        dataset maintains indexes, the old-value fetch, the index fixup, and
        the primary insert additionally execute as one atomic step so
        concurrent updates of the same key cannot strand stale index entries.
        With a background scheduler attached, a full memtable is rotated and
        flushed on a worker instead of stalling this call.

        Returns:
            The commit-table sequence stamped for this auto-committed write
            (None when the dataset is not attached to a commit table) — the
            wire server reports it so clients can record write histories.
        """
        key = self._key_of(document)
        partition = self._partition_for(key)
        sequence: Optional[int] = None
        with self._autocommit_guard():
            if self._has_indexes():
                with self._lock_for_key(key):
                    self._maintain_secondary_indexes(key, document)
                    partition.insert(key, document)
            else:
                partition.insert(key, document)
            if self.commit_table is not None:
                # Stamp after the write is visible, inside the same commit-lock
                # critical section: a transaction whose snapshot missed this
                # write is guaranteed to see a version above its start sequence
                # and abort, never to overwrite it silently.
                sequence = self.commit_table.record_write(self.name, key)
        with self._counter_lock:
            self.records_ingested += 1
        if auto_flush and partition.needs_flush:
            partition.request_flush()
        return sequence

    def insert_many(self, documents: Iterable[dict], auto_flush: bool = True) -> int:
        count = 0
        for document in documents:
            self.insert(document, auto_flush=auto_flush)
            count += 1
        return count

    def delete(self, key) -> Optional[int]:
        """Delete by primary key (adds anti-matter); returns the commit sequence."""
        partition = self._partition_for(key)
        sequence: Optional[int] = None
        with self._autocommit_guard():
            if self.secondary_indexes:
                with self._lock_for_key(key):
                    old_document = self._fetch_old_document(key)
                    for index in self.secondary_indexes.values():
                        index.delete(index.extract(old_document), key)
                    partition.delete(key)
            else:
                partition.delete(key)
            if self.commit_table is not None:
                sequence = self.commit_table.record_write(self.name, key)
        return sequence

    def apply_committed_write(
        self, key, document: Optional[dict], antimatter: bool, lsn: int
    ) -> None:
        """Apply one validated transactional write (commit path).

        The caller (:meth:`repro.store.txn.Transaction.commit`) already
        appended this operation's WAL record and the transaction's commit
        record, so the write is applied through
        :meth:`~repro.lsm.LSMTree.apply_replayed` — the same
        index-maintenance + memtable path as ingestion, minus the logging.
        The commit-table stamp for the whole transaction is published by the
        caller in one step, after every write is applied.
        """
        partition = self._partition_for(key)
        if antimatter:
            if self.secondary_indexes:
                with self._lock_for_key(key):
                    old_document = self._fetch_old_document(key)
                    for index in self.secondary_indexes.values():
                        index.delete(index.extract(old_document), key)
                    partition.apply_replayed(key, None, True, lsn)
            else:
                partition.apply_replayed(key, None, True, lsn)
        else:
            if self._has_indexes():
                with self._lock_for_key(key):
                    self._maintain_secondary_indexes(key, document)
                    partition.apply_replayed(key, document, False, lsn)
            else:
                partition.apply_replayed(key, document, False, lsn)
            with self._counter_lock:
                self.records_ingested += 1
        if partition.needs_flush:
            partition.request_flush()

    def _maintain_secondary_indexes(self, key, document: dict) -> None:
        if not self.secondary_indexes:
            if self.primary_key_index is not None:
                self.primary_key_index.insert(key)
            return
        may_exist = True
        if self.primary_key_index is not None:
            may_exist = key in self.primary_key_index
            self.primary_key_index.insert(key)
        old_document = self._fetch_old_document(key) if may_exist else None
        for index in self.secondary_indexes.values():
            if old_document is not None:
                # Clean out the stale entry before inserting the new one (§4.6).
                index.delete(index.extract(old_document), key)
            index.insert(index.extract(document), key)

    def _fetch_old_document(self, key) -> Optional[dict]:
        self.point_lookups_performed += 1
        return self._partition_for(key).point_lookup(key)

    # -- maintenance -----------------------------------------------------------------------
    def flush_all(self) -> None:
        """Flush every partition's in-memory component (and the index buffers).

        Synchronous even with a background scheduler attached: each
        partition's flush runs inline (serializing with any in-flight
        background work for that partition), so when this returns every
        ingested record sits in a disk component.
        """
        for partition in self.partitions:
            partition.flush()
        with self._durability_lock:
            with self._all_key_locks():  # same spill/WAL atomicity as the callback
                for index in self.secondary_indexes.values():
                    index.flush()
                if self.primary_key_index is not None:
                    self.primary_key_index.flush()
                self.persist_manifest()

    # -- reads -------------------------------------------------------------------------------
    def scan(
        self, fields: Optional[Sequence[str]] = None, pushdown=None
    ) -> Iterator[Tuple[object, dict]]:
        """Reconciled scan over every partition (keys are not globally ordered).

        Every partition's snapshot is pinned *when scan() is called* — not
        when its turn in the iteration comes — so a scan started before a
        flush or merge reads the pre-flush/pre-merge state of every
        partition, however long the caller takes to consume it.

        ``pushdown`` carries the query's projection paths and pushed
        predicates down to the columnar component cursors (see
        :mod:`repro.query.pushdown`); row layouts ignore it.
        """
        scans = [
            partition.scan(fields, pushdown=pushdown) for partition in self.partitions
        ]
        return itertools.chain.from_iterable(scans)

    def scan_batches(
        self,
        variable: str,
        fields: Optional[Sequence[str]] = None,
        pushdown=None,
        batch_size: int = 1024,
        direct: bool = False,
        report=None,
    ) -> Iterator:
        """Scan every partition as column batches for the batch executor.

        Every partition's snapshot is pinned up front, exactly like
        :meth:`scan`.  With ``direct=True``, partitions whose pinned
        components are all columnar and serve the pruned paths exactly (see
        :func:`repro.query.batch_executor.partition_batches`) emit
        assembly-free path-column batches straight from the pruned column
        streams — newest-wins decided by key membership, not by a merge: each
        component drops the records whose key a newer source holds (memtable
        entries, newer overlapping components; anti-matter included), and the
        live memtable records follow as row-backed overlay batches.  Such a
        partition also performs the spec's pushed UNNEST on its component
        batches, if it has one, and marks them ``unnested``.  The other
        partitions fall back to the reconciled row scan, batched row-wise.

        Within a partition, batches arrive component by component and then
        the overlay — not in key order across components; row order is the
        caller's business (ORDER BY).  ``report`` (a
        :class:`repro.query.batch_executor.ScanReport`) receives each
        fallback's reason — complete when this method returns: every
        partition chooses up front — and, as each direct partition ends, its
        overlay and shadowed row counts.
        """
        from ..query.batch_executor import partition_batches

        snapshots = [partition.pin_snapshot() for partition in self.partitions]
        partition_iters = [
            partition_batches(
                partition,
                snapshot,
                variable,
                fields,
                pushdown,
                batch_size,
                allow_direct=direct,
                report=report,
            )
            for partition, snapshot in zip(self.partitions, snapshots)
        ]
        return itertools.chain.from_iterable(partition_iters)

    def count(self) -> int:
        return sum(partition.count() for partition in self.partitions)

    def point_lookup(self, key, fields: Optional[Sequence[str]] = None) -> Optional[dict]:
        """Newest version of ``key`` (None when absent/deleted).

        ``fields`` optionally projects the lookup: columnar layouts then
        decode only the needed columns of the leaf holding the key.
        """
        return self._partition_for(key).point_lookup(key, fields)

    def fetch_many(self, keys: Sequence, fields: Optional[Sequence[str]] = None) -> List[dict]:
        """Sorted, batched point lookups (§4.6).

        Keys are sorted first so consecutive lookups hit the same leaf pages
        through the buffer cache; each lookup itself still pays the per-leaf
        key search and (projected) column decode — the cost the optimizer's
        index-fetch plans are charged for.
        """
        documents = []
        for key in sorted(keys):
            document = self.point_lookup(key, fields)
            if document is not None:
                documents.append(document)
        return documents

    # -- statistics -----------------------------------------------------------------------------
    def statistics(self):
        """Dataset-level statistics for the cost-based optimizer.

        Aggregates the per-component column statistics (collected at
        flush/merge time) across every partition, plus record/group/page
        counts and secondary-index entry counts.  The result is cached and
        recomputed only when a flush, merge, or index spill changes the
        on-disk state — never per insert, and never by reading data pages.
        Memtable and index-buffer counts in the snapshot may therefore lag
        behind by up to one memory component; the optimizer only consumes
        them as estimates.

        Returns:
            A :class:`repro.query.stats.DatasetStatistics`.
        """
        # Imported lazily: the store layer otherwise stays independent of the
        # query layer (same pattern as Query.build_plan's pushdown import).
        from ..query.stats import collect_dataset_statistics

        version = (
            tuple((p.flush_count, p.merge_count) for p in self.partitions),
            tuple(sorted(
                (name, index.run_count)
                for name, index in self.secondary_indexes.items()
            )),
        )
        cached = self._statistics_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        statistics = collect_dataset_statistics(self)
        self._statistics_cache = (version, statistics)
        return statistics

    def storage_size_bytes(self, include_indexes: bool = True) -> int:
        total = sum(partition.storage_size_bytes() for partition in self.partitions)
        if include_indexes:
            total += sum(index.size_bytes for index in self.secondary_indexes.values())
            if self.primary_key_index is not None:
                total += self.primary_key_index.size_bytes
        return total

    def storage_payload_bytes(self, include_indexes: bool = True) -> int:
        total = sum(partition.storage_payload_bytes() for partition in self.partitions)
        if include_indexes:
            total += sum(index.size_bytes for index in self.secondary_indexes.values())
            if self.primary_key_index is not None:
                total += self.primary_key_index.size_bytes
        return total

    def num_components(self) -> int:
        return sum(partition.num_components for partition in self.partitions)

    def inferred_column_count(self) -> int:
        """Number of inferred columns (union of all partitions' schemas)."""
        return max(partition.schema.num_columns for partition in self.partitions)

    @property
    def schemas(self) -> List[Schema]:
        return [partition.schema for partition in self.partitions]
