"""The write-ahead log (transaction log).

Every ingested record appends a commit entry to its node's transaction log
*before* it is applied to the in-memory component, which is what makes a
memtable recoverable: after a crash, replaying the log tail (the records whose
LSN exceeds the per-partition durable LSN recorded in the dataset manifest)
rebuilds exactly the un-flushed state.

The durable format: :class:`WALRecord` and its codec serialize insert/delete
operations (reusing :func:`repro.rowformats.vector_format.encode_document`
with a record-local field-name dictionary so every record is
self-contained), and :class:`TransactionLog` appends the framed records to a
per-node :class:`~repro.storage.device.LogFile` that flushes on every
append.  LSNs are allocated from one :class:`LogManager`-wide counter so
that replay has a total order even across node logs.  Appends are counted
once, by the device (``wal_appends`` / ``wal_bytes_written``).

The paper's ``cell`` experiment (§6.3.1) finds the shared log buffer to be
the ingestion bottleneck when many partitions share one node; this log does
not model that contention, it only does the real encoding and file work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..encoding.varint import decode_uvarint, encode_uvarint
from ..model.errors import StorageError
from ..rowformats.vector_format import (
    FieldNameDictionary,
    decode_document,
    encode_document,
)
from ..storage.device import LogFile, StorageDevice
from .keys import decode_key, encode_key

#: Operation tags inside a WAL record.
OP_INSERT = 0
OP_DELETE = 1
OP_COMMIT = 2

#: First byte of every encoded record.  0x00 can never begin a legacy
#: (unversioned) record — those start with the uvarint of an LSN ≥ 1 — so a
#: log written before record versioning is detected deterministically
#: instead of being misdecoded into garbage.
WAL_FORMAT_MAGIC = 0x00
#: Second byte; bump on any incompatible change to the record layout.
#: Version 2 = txn-id field + commit records (the pre-transaction layout is
#: retroactively version 1, which never wrote a header).
WAL_FORMAT_VERSION = 2

#: ``txn_id`` of records logged outside any multi-statement transaction.
AUTO_COMMIT = 0


@dataclass
class WALRecord:
    """One logged operation: an insert/upsert or a delete (anti-matter).

    ``txn_id`` is :data:`AUTO_COMMIT` (0) for single-document operations,
    which are applied unconditionally on replay; a non-zero id marks the
    record as part of a multi-statement transaction, applied on replay only
    when a matching :class:`CommitRecord` follows it in the log.
    """

    lsn: int
    dataset: str
    partition_id: int
    antimatter: bool
    key: object
    document: Optional[dict] = None
    txn_id: int = AUTO_COMMIT


@dataclass
class CommitRecord:
    """The atomic commit point of a multi-statement transaction.

    Appended strictly *after* every one of the transaction's write records
    (each log append flushes before returning), so the presence of this
    record guarantees all ``write_count`` writes are durable too — replay is
    all-or-nothing: either the commit record survived the crash and every
    write is applied, or it did not and every write is skipped.
    """

    lsn: int
    txn_id: int
    write_count: int


def encode_wal_record(record) -> bytes:
    """Serialize one WAL record (self-contained, no shared dictionary state).

    Layout (all integers uvarint unless noted)::

        magic byte 0x00 + format-version byte (see WAL_FORMAT_VERSION)
        lsn
        txn id (0 = auto-commit)
        op byte (0 = insert, 1 = delete, 2 = commit)
        commits only:
          write count
        inserts and deletes:
          dataset-name length + UTF-8 bytes
          partition id
          primary key (repro.lsm.keys codec)
        inserts only:
          field-name count, then per name: length + UTF-8 bytes
          VB document length + VB document bytes

    The document is encoded with :mod:`repro.rowformats.vector_format`
    against a record-local field-name dictionary whose names are embedded in
    the record, so replay never depends on in-memory dictionary state that
    died with the process.
    """
    out = bytearray((WAL_FORMAT_MAGIC, WAL_FORMAT_VERSION))
    encode_uvarint(record.lsn, out)
    encode_uvarint(record.txn_id, out)
    if isinstance(record, CommitRecord):
        out.append(OP_COMMIT)
        encode_uvarint(record.write_count, out)
        return bytes(out)
    out.append(OP_DELETE if record.antimatter else OP_INSERT)
    name = record.dataset.encode("utf-8")
    encode_uvarint(len(name), out)
    out.extend(name)
    encode_uvarint(record.partition_id, out)
    encode_key(record.key, out)
    if not record.antimatter:
        dictionary = FieldNameDictionary()
        payload = encode_document(record.document, dictionary)
        names = dictionary.to_dict()["names"]
        encode_uvarint(len(names), out)
        for field_name in names:
            raw = field_name.encode("utf-8")
            encode_uvarint(len(raw), out)
            out.extend(raw)
        encode_uvarint(len(payload), out)
        out.extend(payload)
    return bytes(out)


def decode_wal_record(data: bytes):
    """Inverse of :func:`encode_wal_record` (a WALRecord or a CommitRecord).

    Raises:
        StorageError: The record carries no version header (log written by a
            pre-versioning build) or a version this build does not read.
    """
    if len(data) < 2 or data[0] != WAL_FORMAT_MAGIC:
        raise StorageError(
            "incompatible WAL format: record has no version header — this "
            "wal-node*.log was written by an older build; reopen it with "
            "that build and checkpoint (which truncates the log) before "
            "upgrading"
        )
    if data[1] != WAL_FORMAT_VERSION:
        raise StorageError(
            f"incompatible WAL format version {data[1]}: this build reads "
            f"version {WAL_FORMAT_VERSION}"
        )
    lsn, offset = decode_uvarint(data, 2)
    txn_id, offset = decode_uvarint(data, offset)
    op = data[offset]
    offset += 1
    if op == OP_COMMIT:
        write_count, offset = decode_uvarint(data, offset)
        return CommitRecord(lsn, txn_id, write_count)
    if op not in (OP_INSERT, OP_DELETE):
        raise StorageError(f"unknown WAL operation tag {op}")
    length, offset = decode_uvarint(data, offset)
    dataset = data[offset:offset + length].decode("utf-8")
    offset += length
    partition_id, offset = decode_uvarint(data, offset)
    key, offset = decode_key(data, offset)
    if op == OP_DELETE:
        return WALRecord(lsn, dataset, partition_id, True, key, txn_id=txn_id)
    name_count, offset = decode_uvarint(data, offset)
    dictionary = FieldNameDictionary()
    for _ in range(name_count):
        length, offset = decode_uvarint(data, offset)
        dictionary.intern(data[offset:offset + length].decode("utf-8"))
        offset += length
    length, offset = decode_uvarint(data, offset)
    document = decode_document(data[offset:offset + length], dictionary)
    return WALRecord(lsn, dataset, partition_id, False, key, document, txn_id=txn_id)


@dataclass
class TransactionLog:
    """A per-node transaction log.

    :meth:`log_record` serializes one operation and appends it to the backing
    :class:`~repro.storage.device.LogFile` when one is attached.
    """

    node_id: int = 0
    #: Backing file; None writes no log (in-memory datastores lose nothing by
    #: not writing a log they could never replay).  Records are encoded
    #: either way, so both kinds of store accept the same documents.
    log_file: Optional[LogFile] = None
    #: Global LSN allocator (shared across a LogManager's logs); None falls
    #: back to a log-local counter.
    lsn_allocator: Optional[Callable[[], int]] = None
    _local_lsn: int = 0
    #: Serializes LSN allocation + file append: one node log is shared by
    #: several partitions, whose writer threads may commit concurrently.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _allocate_lsn(self) -> int:
        if self.lsn_allocator is not None:
            return self.lsn_allocator()
        self._local_lsn += 1
        return self._local_lsn

    def log_record(
        self,
        dataset: str,
        partition_id: int,
        key,
        document: Optional[dict],
        antimatter: bool,
        txn_id: int = AUTO_COMMIT,
    ) -> int:
        """Serialize and append one operation; returns its LSN."""
        with self._lock:
            lsn = self._allocate_lsn()
            payload = encode_wal_record(
                WALRecord(
                    lsn, dataset, partition_id, antimatter, key, document,
                    txn_id=txn_id,
                )
            )
            if self.log_file is not None:
                self.log_file.append_record(payload)
            return lsn

    def log_commit(self, txn_id: int, write_count: int) -> int:
        """Append a transaction's atomic commit record; returns its LSN.

        Called strictly after every one of the transaction's write records
        was appended (and therefore flushed): the commit record's durability
        implies the durability of everything it commits.
        """
        with self._lock:
            lsn = self._allocate_lsn()
            payload = encode_wal_record(CommitRecord(lsn, txn_id, write_count))
            if self.log_file is not None:
                self.log_file.append_record(payload)
            return lsn

    def iter_records(self) -> Iterator[WALRecord]:
        if self.log_file is None:
            return
        for payload in self.log_file.records:
            yield decode_wal_record(payload)

    def truncate(self) -> None:
        if self.log_file is not None:
            self.log_file.truncate()


@dataclass
class LogManager:
    """One transaction log per node; partitions are assigned round-robin.

    When a :class:`~repro.storage.device.StorageDevice` with a backing
    directory is attached, each node's log writes through to
    ``wal-node<id>.log`` in that directory and LSNs come from one shared
    monotonic counter, giving replay a total order across nodes.
    """

    num_nodes: int = 1
    partitions_per_node: int = 8
    device: Optional[StorageDevice] = None
    logs: Dict[int, TransactionLog] = field(default_factory=dict)
    _next_lsn: int = 1
    #: Guards the global LSN counter (shared by every node log).
    _lsn_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for node_id in range(self.num_nodes):
            log_file = None
            if self.device is not None and self.device.directory is not None:
                log_file = self.device.open_log_file(f"wal-node{node_id}.log")
            self.logs[node_id] = TransactionLog(
                node_id=node_id,
                log_file=log_file,
                lsn_allocator=self._allocate_lsn,
            )

    # -- LSNs ---------------------------------------------------------------------
    def _allocate_lsn(self) -> int:
        with self._lsn_lock:
            lsn = self._next_lsn
            self._next_lsn += 1
            return lsn

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def advance_lsn(self, minimum_next: int) -> None:
        """Ensure future LSNs exceed everything seen before a restart."""
        with self._lsn_lock:
            self._next_lsn = max(self._next_lsn, minimum_next)

    def allocate_txn_id(self) -> int:
        """A transaction id drawn from the LSN space.

        Recovery advances the LSN counter past every persisted record, so an
        id allocated after a restart can never collide with the id of a
        transaction whose uncommitted write records survived a crash — a
        reused id would make replay resurrect those orphaned writes.
        """
        return self._allocate_lsn()

    def log_commit_record(self, txn_id: int, write_count: int) -> int:
        """Append a transaction's commit record (to node 0's log).

        The transaction's write records may be spread across several node
        logs; every append flushes before returning, so by the time this
        record is durable all of them are, and replay (which merges the node
        logs in LSN order) sees the commit record last.
        """
        return self.logs[0].log_commit(txn_id, write_count)

    # -- routing -------------------------------------------------------------------
    def log_for_partition(self, partition_id: int) -> TransactionLog:
        node_id = partition_id // max(1, self.partitions_per_node)
        return self.logs.get(node_id % max(1, self.num_nodes), self.logs[0])

    # -- recovery ------------------------------------------------------------------
    def iter_records(self) -> List[WALRecord]:
        """Every persisted record across all node logs, in global LSN order."""
        records: List[WALRecord] = []
        for log in self.logs.values():
            records.extend(log.iter_records())
        records.sort(key=lambda record: record.lsn)
        self.advance_lsn(records[-1].lsn + 1 if records else 1)
        return records

    def truncate(self) -> None:
        """Checkpoint: drop every node log (callers flushed everything first)."""
        for log in self.logs.values():
            log.truncate()
