"""The LSM B+-tree primary index.

One :class:`LSMTree` manages a single data partition's primary index: the
in-memory component, the stack of immutable on-disk components (newest first),
flushing, merging (vertical merges for the columnar layouts), reconciling
scans, and point lookups.  The on-disk layout — ``open``, ``vector``,
``apax``, or ``amax`` — is chosen per dataset and fixed at creation time.

Concurrency model (see ``docs/ARCHITECTURE.md`` for the full picture): every
mutation of the tree's published state (memtable, frozen memtables, component
stack, counters) happens under a per-tree lock and replaces lists instead of
mutating them; readers *pin* an immutable snapshot of that state and never
block writers.  When a :class:`~repro.lsm.scheduler.BackgroundScheduler` is
attached, a full memtable is *rotated* (swapped for a fresh one, O(1)) and
flushed on a worker thread; merges run on the pool too.  Component building —
the expensive part — always happens outside the tree lock.  Per tree, at most
one background flush-or-merge runs at a time (``_maintenance_lock``), which
keeps the component stack, the durable-LSN publication order, and the
inferred schema single-writer.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.columns import ShreddedColumn
from ..core.schema import Schema
from ..columnar.amax import AmaxComponentBuilder
from ..columnar.apax import ApaxComponentBuilder
from ..columnar.base import ColumnarComponent
from ..model.errors import StorageError
from ..obs.metrics import maintenance_io
from ..rowformats.vector_format import FieldNameDictionary
from ..storage.buffer_cache import BufferCache
from ..storage.device import StorageDevice
from .component import (
    COLUMNAR_LAYOUTS,
    LAYOUT_AMAX,
    LAYOUT_APAX,
    LAYOUT_OPEN,
    LAYOUT_VECTOR,
    ROW_LAYOUTS,
    ComponentCursor,
    DiskComponent,
    FlushEntry,
    RowComponent,
    RowComponentBuilder,
)
from .memtable import FrozenMemtable, ImmutableMemtable, MemEntry, MemTable
from .merge_policy import MergeScheduler, TieringMergePolicy
from .scheduler import BackgroundScheduler
from .wal import TransactionLog

#: Sentinel yielded by :func:`_reconciled` for live records whose newest
#: version failed the pushed-down scan predicates: the key is consumed (it
#: still shadows older versions) but no document is assembled for it.
FILTERED = object()

#: How long a rotation waits for a background flush to free a frozen-memtable
#: slot before proceeding anyway (soft backpressure; avoids deadlocking when
#: the pool is paused or wedged).
ROTATION_STALL_TIMEOUT_S = 2.0


class _MemtableCursor(ComponentCursor):
    """Cursor adapter over an in-memory component's sorted entries."""

    def __init__(self, entries: List[FlushEntry]) -> None:
        self._entries = entries
        self._position = -1

    def advance(self) -> bool:
        self._position += 1
        return self._position < len(self._entries)

    @property
    def key(self):
        return self._entries[self._position][0]

    @property
    def is_antimatter(self) -> bool:
        return self._entries[self._position][1]

    def document(self) -> Optional[dict]:
        return self._entries[self._position][2]


class TreeSnapshot:
    """A pinned, immutable view of one partition's component stack.

    Holds the in-memory entry sources (current-memtable copy plus any frozen
    memtables, newest first) and the disk components that were live at pin
    time.  The disk components stay pinned — a merge that retires them defers
    their destruction — until :meth:`close` releases the pins, so a long scan
    never observes a torn or half-deleted stack.
    """

    def __init__(
        self,
        tree: "LSMTree",
        memtable_sources: List[ImmutableMemtable],
        components: Tuple[DiskComponent, ...],
    ) -> None:
        self._tree = tree
        #: In-memory sources newest → oldest: the pinned copy of the mutable
        #: memtable (when it was non-empty), then the frozen memtables.
        self.memtable_sources = memtable_sources
        self.components = components
        self._closed = False

    def cursors(
        self,
        fields: Optional[Sequence[str]] = None,
        pushdown=None,
        include_memtables: bool = True,
    ) -> List[ComponentCursor]:
        """Cursors over every source, newest first (reconciliation order)."""
        cursors: List[ComponentCursor] = []
        if include_memtables:
            for source in self.memtable_sources:
                if not source.is_empty:
                    cursors.append(_MemtableCursor(source.entries))
        for component in self.components:
            cursors.append(component.cursor(fields, pushdown))
        return cursors

    def point_lookup(self, key, fields: Optional[Sequence[str]] = None) -> Optional[dict]:
        """Newest version of ``key`` *as of the pin* (None when absent/deleted).

        The same newest-first resolution as :meth:`LSMTree.point_lookup`, but
        against the pinned sources only — inserts, rotations, flushes, and
        merges that happened after the pin are invisible.  This is the read
        path of multi-statement transactions (see :mod:`repro.store.txn`).
        """
        for source in self.memtable_sources:
            entry = source.get(key)
            if entry is not None:
                antimatter, document = entry
                return None if antimatter else document
        for component in self.components:
            found = component.point_lookup(key, fields)
            if found is not None:
                antimatter, document = found
                return None if antimatter else document
        return None

    def memtable_winners(self) -> Dict[object, MemEntry]:
        """The newest in-memory version of every key: key → (antimatter, document).

        Newest-wins across the in-memory sources by dict membership — no sort,
        no merge.  Every key in the result (anti-matter ones included) hides
        that key in every disk component; the non-anti-matter documents are
        the live in-memory records.  Unordered and read-only: with a single
        non-empty source it is that source's own mapping.
        """
        sources = [s for s in self.memtable_sources if not s.is_empty]
        if len(sources) == 1:
            return sources[0].by_key
        winners: Dict[object, MemEntry] = {}
        for source in reversed(sources):  # oldest first, newer overwrite
            winners.update(source.by_key)
        return winners

    def close(self) -> None:
        """Release the component pins (idempotent)."""
        if not self._closed:
            self._closed = True
            self._tree._unpin_components(self.components)

    def __del__(self) -> None:
        # Safety net for abandoned scans: a generator that was never started
        # runs none of its body on close/GC (PEP 342), so the scan's
        # ``finally`` cannot be the only unpin path — without this, a
        # peek-one-row-and-drop caller would pin retired components forever.
        self.close()

    def __enter__(self) -> "TreeSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LSMTree:
    """A single partition's primary LSM index."""

    def __init__(
        self,
        name: str,
        layout: str,
        schema: Schema,
        device: StorageDevice,
        buffer_cache: BufferCache,
        memory_budget_bytes: int = 8 * 1024 * 1024,
        compression: str = "snappy",
        merge_policy: Optional[TieringMergePolicy] = None,
        merge_scheduler: Optional[MergeScheduler] = None,
        transaction_log: Optional[TransactionLog] = None,
        amax_max_records_per_leaf: int = 15000,
        amax_empty_page_tolerance: float = 0.15,
        dataset_name: Optional[str] = None,
        partition_id: int = 0,
        on_disk_state_changed=None,
        scheduler: Optional[BackgroundScheduler] = None,
        max_frozen_memtables: int = 4,
    ) -> None:
        if layout not in ROW_LAYOUTS + COLUMNAR_LAYOUTS:
            raise StorageError(f"unknown layout {layout!r}")
        self.name = name
        self.layout = layout
        self.schema = schema
        self.device = device
        self.buffer_cache = buffer_cache
        self.compression = compression
        self.memtable = MemTable(memory_budget_bytes)
        self.components: List[DiskComponent] = []  # newest first, never mutated in place
        self.merge_policy = merge_policy or TieringMergePolicy()
        self.merge_scheduler = merge_scheduler or MergeScheduler()
        self.transaction_log = transaction_log
        self.field_dictionary = FieldNameDictionary()
        self.amax_max_records_per_leaf = amax_max_records_per_leaf
        self.amax_empty_page_tolerance = amax_empty_page_tolerance
        #: WAL routing identity: records are addressed (dataset, partition).
        self.dataset_name = dataset_name or name
        self.partition_id = partition_id
        #: LSN of the newest operation this partition logged (0 = none).
        self.last_logged_lsn = 0
        #: LSN up to which this partition's operations live in disk
        #: components; replay after a crash starts just above it.
        self.durable_lsn = 0
        #: Callback fired after every flush/merge (the dataset uses it to
        #: re-persist its manifest atomically); None for transient trees.
        self.on_disk_state_changed = on_disk_state_changed
        #: Background pool for flushes/merges; None = fully synchronous.
        self.scheduler = scheduler
        self.max_frozen_memtables = max_frozen_memtables
        self._component_counter = 0
        self.flush_count = 0
        self.merge_count = 0
        #: Guards every published-state transition (memtable swap, component
        #: stack replacement, counters, pins).  Held only for O(stack) work.
        self._lock = threading.RLock()
        #: Signalled whenever a frozen memtable drains (rotation backpressure).
        self._stack_changed = threading.Condition(self._lock)
        #: Serializes flush/merge *execution* per tree (component building,
        #: schema inference); never held while ingesting or reading.
        self._maintenance_lock = threading.Lock()
        #: Rotated memtables awaiting flush, oldest first.
        self._frozen: List[FrozenMemtable] = []
        #: id(component) -> number of snapshots pinning it.
        self._pins: Dict[int, int] = {}
        #: id(component) -> merged-away component awaiting its last unpin.
        self._retired: Dict[int, DiskComponent] = {}
        #: Schema / field-dictionary snapshots as of the last completed
        #: flush/merge — what the manifest persists (never a torn mid-build
        #: inference state).
        self._durable_schema = schema.to_dict()
        self._durable_field_names = self.field_dictionary.to_dict()
        # Metric children, resolved once per tree.  A device without an
        # enabled registry hands out no-op instruments, so these stay cheap.
        metrics = device.metrics
        self._m_rotations = metrics.counter(
            "repro_memtable_rotations_total"
        ).labels(dataset=self.dataset_name)
        self._m_stalls = metrics.counter(
            "repro_backpressure_stalls_total"
        ).labels(dataset=self.dataset_name)
        self._m_flush_s = metrics.histogram("repro_flush_seconds").labels(
            dataset=self.dataset_name, layout=self.layout
        )
        self._m_merge_s = metrics.histogram("repro_merge_seconds").labels(
            dataset=self.dataset_name, layout=self.layout
        )

    # -- ingestion --------------------------------------------------------------------
    def insert(self, key, document: dict) -> None:
        """Insert (or blindly overwrite) a record in the in-memory component."""
        with self._lock:
            self._log(key, document, antimatter=False)
            self.memtable.put(key, document)

    upsert = insert

    def delete(self, key) -> None:
        """Delete a record by adding an anti-matter entry."""
        with self._lock:
            self._log(key, None, antimatter=True)
            self.memtable.delete(key)

    def _log(self, key, document: Optional[dict], antimatter: bool) -> None:
        if self.transaction_log is None:
            return
        self.last_logged_lsn = self.transaction_log.log_record(
            self.dataset_name, self.partition_id, key, document, antimatter
        )

    def apply_replayed(self, key, document: Optional[dict], antimatter: bool, lsn: int) -> None:
        """Apply one already-logged operation without re-logging it.

        Two callers: WAL replay during recovery, and transaction commit
        (which logged all of its write records plus a commit record before
        applying any of them).
        """
        with self._lock:
            if antimatter:
                self.memtable.delete(key)
            else:
                self.memtable.put(key, document)
            self.last_logged_lsn = max(self.last_logged_lsn, lsn)

    @property
    def needs_flush(self) -> bool:
        return self.memtable.is_full

    # -- flush -----------------------------------------------------------------------
    def flush(self, force: bool = True) -> Optional[DiskComponent]:
        """Flush the in-memory component into a new on-disk component.

        Synchronous: rotates the current memtable (if non-empty) and drains
        every frozen memtable inline, returning the newest component built
        (None when there was nothing to flush).  Safe to call while a
        background scheduler is attached — execution serializes with any
        in-flight background flush/merge of this tree.
        """
        with self._lock:
            if self.memtable.is_empty and not self._frozen:
                return None
            if not force and not self.memtable.is_full and not self._frozen:
                return None
            if not self.memtable.is_empty:
                self._rotate_locked()
        return self._drain_frozen()

    def request_flush(self) -> None:
        """Rotate the memtable and flush it in the background (sync fallback).

        This is the ingestion path's flush trigger: with a scheduler attached
        the caller only pays the O(1) rotation — the component build and its
        I/O happen on a worker — and rotation applies soft backpressure when
        too many frozen memtables are already waiting.
        """
        if self.scheduler is None:
            self.flush(force=True)
            return
        with self._lock:
            if self.memtable.is_empty:
                return
            self._rotate_locked()
        submitted = self.scheduler.submit(
            self._drain_frozen,
            label=f"flush:{self.name}",
            key=("flush", self.name),
            best_effort=True,
            # Bounded, like the rotation backpressure: a wedged pool with a
            # full queue must stall ingestion at most briefly, never forever.
            timeout=ROTATION_STALL_TIMEOUT_S,
        )
        if not submitted and self.scheduler.is_stopped:
            # The pool is gone (clean shutdown): degrade to the synchronous
            # engine rather than letting frozen memtables pile up unflushed.
            self._drain_frozen()
        # Any other False is benign: either an identical flush request is
        # already queued (dedup) and will drain every frozen memtable, or
        # the bounded wait timed out — the frozen list is capped by rotation
        # backpressure and the next successful flush (or flush_all) drains
        # the backlog.

    def _rotate_locked(self) -> FrozenMemtable:
        """Swap in a fresh memtable; the old one becomes a frozen source."""
        while (
            self.scheduler is not None
            and not self.scheduler.is_stopped
            and len(self._frozen) >= self.max_frozen_memtables
        ):
            # Writer backpressure: wait for a background flush to drain a
            # slot, but never indefinitely (a paused/wedged pool must not
            # deadlock ingestion — memory overshoot beats a hang).
            self._m_stalls.inc()
            if not self._stack_changed.wait(timeout=ROTATION_STALL_TIMEOUT_S):
                break
        self._m_rotations.inc()
        frozen = FrozenMemtable(self.memtable, self.last_logged_lsn)
        self._frozen = self._frozen + [frozen]
        self.memtable = MemTable(self.memtable.budget_bytes)
        return frozen

    def _drain_frozen(self) -> Optional[DiskComponent]:
        """Build a disk component from every frozen memtable, oldest first.

        Runs under the per-tree maintenance lock (one flush/merge at a time
        per tree), so frozen memtables flush in rotation order and the
        durable LSN only ever advances to an LSN whose every predecessor is
        already on disk.  The component build happens outside the tree lock —
        ingestion and reads proceed concurrently.
        """
        built: Optional[DiskComponent] = None
        with self._maintenance_lock:
            while True:
                with self._lock:
                    if not self._frozen:
                        break
                    frozen = self._frozen[0]
                # Flush I/O is maintenance work: its reads/writes must never
                # be attributed to a query racing this drain.
                flush_started = time.perf_counter()
                with maintenance_io():
                    component = self._build_component(frozen.entries)
                self._m_flush_s.observe(time.perf_counter() - flush_started)
                with self._lock:
                    self._frozen = self._frozen[1:]
                    self.components = [component] + self.components
                    # Everything logged up to the rotation point is now in a
                    # disk component; after a crash, replay starts above it.
                    self.durable_lsn = max(self.durable_lsn, frozen.rotated_lsn)
                    self.flush_count += 1
                    self._refresh_durable_state_locked()
                    self._stack_changed.notify_all()
                built = component
        if built is not None:
            self.maybe_merge()
            self._notify_disk_state_changed()
        return built

    def _notify_disk_state_changed(self) -> None:
        if self.on_disk_state_changed is not None:
            self.on_disk_state_changed(self)

    def _refresh_durable_state_locked(self) -> None:
        """Re-snapshot the schema/field dictionary for manifest writes.

        Called at the end of every flush/merge while the maintenance lock is
        held: the schema is only ever mutated by component builds, so this
        snapshot can never capture a torn mid-inference state.
        """
        self._durable_schema = self.schema.to_dict()
        self._durable_field_names = self.field_dictionary.to_dict()

    # -- recovery ----------------------------------------------------------------------
    def restore_state(
        self,
        components: List[DiskComponent],
        component_counter: int,
        flush_count: int,
        merge_count: int,
        durable_lsn: int,
    ) -> None:
        """Adopt recovered on-disk state (components newest first)."""
        with self._lock:
            self.components = list(components)
            self._component_counter = component_counter
            self.flush_count = flush_count
            self.merge_count = merge_count
            self.durable_lsn = durable_lsn
            self.last_logged_lsn = durable_lsn
            self._refresh_durable_state_locked()

    def durable_state(self) -> dict:
        """A consistent snapshot of the manifest-relevant state.

        Component stack, counters, and the durable LSN are read together
        under the tree lock, so a manifest written concurrently with a
        background flush always describes a stack that actually existed —
        and its durable LSN never runs ahead of the components that carry
        those operations.
        """
        with self._lock:
            return {
                "partition_id": self.partition_id,
                "component_counter": self._component_counter,
                "flush_count": self.flush_count,
                "merge_count": self.merge_count,
                "durable_lsn": self.durable_lsn,
                "last_logged_lsn": self.last_logged_lsn,
                "components": [component.file.name for component in self.components],
                "schema": self._durable_schema,
                "field_names": self._durable_field_names,
            }

    def _next_component_id(self) -> str:
        with self._lock:
            self._component_counter += 1
            return f"{self.name}-c{self._component_counter}"

    def _build_component(self, entries: Sequence[FlushEntry]) -> DiskComponent:
        component_id = self._next_component_id()
        if self.layout in ROW_LAYOUTS:
            builder = RowComponentBuilder(
                self.layout,
                component_id,
                self.device,
                self.buffer_cache,
                self.field_dictionary,
            )
            return builder.build(entries)
        builder = self._columnar_builder(component_id)
        return builder.build(entries)

    def _columnar_builder(self, component_id: str):
        if self.layout == LAYOUT_APAX:
            return ApaxComponentBuilder(
                component_id,
                self.device,
                self.buffer_cache,
                self.schema,
                compression=self.compression,
            )
        return AmaxComponentBuilder(
            component_id,
            self.device,
            self.buffer_cache,
            self.schema,
            compression=self.compression,
            max_records_per_leaf=self.amax_max_records_per_leaf,
            empty_page_tolerance=self.amax_empty_page_tolerance,
        )

    # -- merge ------------------------------------------------------------------------
    def maybe_merge(self) -> bool:
        """Apply the merge policy; run (or schedule) at most one merge."""
        if self.scheduler is not None:
            with self._lock:
                sizes = [component.size_bytes for component in self.components]
            if not self.merge_policy.select(sizes):
                return False
            # One pending merge request per tree: duplicates are deduplicated
            # by the pool; the running task re-evaluates the policy itself.
            # Best-effort: a request racing a clean shutdown is simply
            # dropped (the next flush re-evaluates the policy anyway).
            return self.scheduler.submit(
                self._background_merge,
                label=f"merge:{self.name}",
                key=("merge", self.name),
                best_effort=True,
            )
        sizes = [component.size_bytes for component in self.components]
        window = self.merge_policy.select(sizes)
        if not window:
            return False
        if not self.merge_scheduler.try_start():
            return False
        try:
            self._merge(window)
        finally:
            self.merge_scheduler.finish()
        return True

    def _background_merge(self) -> None:
        """One background merge pass; re-queues itself while the policy asks."""
        with self._maintenance_lock:
            # Re-evaluate under the maintenance lock: the stack may have
            # changed since the request was queued (and only maintenance —
            # which we now are — changes it further).
            with self._lock:
                sizes = [component.size_bytes for component in self.components]
            window = self.merge_policy.select(sizes)
            if not window:
                return
            if not self.merge_scheduler.try_start():
                return  # over the concurrent-merge cap; the next flush retries
            try:
                self._merge(window)
            finally:
                self.merge_scheduler.finish()
        # Chain: merging may leave the stack still over policy (e.g. a burst
        # of flushes landed meanwhile); submit a fresh deduplicated request.
        self.maybe_merge()

    def _merge(self, window: List[int]) -> None:
        """Merge the components at the given stack indexes into one.

        Callers must ensure the stack cannot change underneath the window:
        either the tree is synchronous (single-threaded callers) or the
        per-tree maintenance lock is held (background path).  Readers are
        unaffected throughout — they hold pinned snapshots, and merged-away
        components are only destroyed once every pin is released.
        """
        merging = [self.components[index] for index in window]
        keep_antimatter = len(window) < len(self.components)
        merge_started = time.perf_counter()
        with maintenance_io():
            if self.layout in COLUMNAR_LAYOUTS:
                merged = self._merge_columnar(merging, keep_antimatter)
            else:
                merged = self._merge_rows(merging, keep_antimatter)
        self._m_merge_s.observe(time.perf_counter() - merge_started)
        with self._lock:
            survivors = [
                component
                for index, component in enumerate(self.components)
                if index not in set(window)
            ]
            position = min(window)
            survivors.insert(position, merged)
            self.components = survivors
            self.merge_count += 1
            self._refresh_durable_state_locked()
        # Persist the manifest that references the merged component *before*
        # deleting the inputs: a crash in between only orphans the old files,
        # whereas the reverse order would leave the last durable manifest
        # pointing at deleted components and the store unopenable.
        self._notify_disk_state_changed()
        self._retire_components(merging)

    def _merge_rows(
        self, merging: Sequence[DiskComponent], keep_antimatter: bool
    ) -> DiskComponent:
        entries: List[FlushEntry] = []
        for key, antimatter, document in _reconciled(
            [component.cursor() for component in merging]
        ):
            if antimatter and not keep_antimatter:
                continue
            entries.append((key, antimatter, document))
        builder = RowComponentBuilder(
            self.layout,
            self._next_component_id(),
            self.device,
            self.buffer_cache,
            self.field_dictionary,
        )
        return builder.build(entries)

    def _merge_columnar(
        self, merging: Sequence[ColumnarComponent], keep_antimatter: bool
    ) -> DiskComponent:
        """Vertical merge (§4.5.3): keys first, then one column at a time."""
        # Step 1: merge the primary keys, recording which component supplies
        # each output record (the "sequence of component IDs").
        sequence: List[Tuple[int, bool]] = []  # (component index, taken)
        picks: List[Tuple[object, bool]] = []  # (key, antimatter) for taken rows
        iterators = [component.iter_key_entries() for component in merging]
        heads: List[Optional[Tuple[object, bool]]] = [next(it, None) for it in iterators]
        while any(head is not None for head in heads):
            smallest = min(
                (head[0] for head in heads if head is not None),
            )
            winner = None
            for index, head in enumerate(heads):
                if head is not None and head[0] == smallest:
                    if winner is None:
                        winner = index
            for index, head in enumerate(heads):
                if head is not None and head[0] == smallest:
                    taken = index == winner
                    sequence.append((index, taken))
                    if taken:
                        key, antimatter = head
                        if not (antimatter and not keep_antimatter):
                            picks.append((key, antimatter))
                        else:
                            # Annihilated: the record disappears entirely.
                            sequence[-1] = (index, False)
                    heads[index] = next(iterators[index], None)

        # Step 2: build the output columns one column at a time, replaying the
        # recorded sequence against each component's column cursor.
        columns: Dict[int, ShreddedColumn] = {}
        pk_column = self.schema.pk_column
        pk_out = ShreddedColumn(pk_column)
        for key, antimatter in picks:
            pk_out.add_value(0 if antimatter else 1, key)
        columns[pk_column.column_id] = pk_out

        for column in self.schema.value_columns():
            out = ShreddedColumn(column)
            cursors = [component.column_record_cursor(column) for component in merging]
            for component_index, taken in sequence:
                entries = cursors[component_index].next_record()
                if not taken:
                    continue
                for definition_level, value, is_delimiter in entries:
                    out.defs.append(definition_level)
                    if (
                        not is_delimiter
                        and definition_level == column.max_def
                        and column.type_tag != "null"
                    ):
                        out.values.append(value)
            columns[column.column_id] = out

        builder = self._columnar_builder(self._next_component_id())
        return builder.build_from_columns(columns, len(picks))

    # -- snapshot pinning ---------------------------------------------------------------
    def pin_snapshot(self, include_memtables: bool = True) -> TreeSnapshot:
        """Pin the current component stack and capture the in-memory sources.

        The returned snapshot is immutable: subsequent inserts, rotations,
        flushes, and merges do not affect it, and components it references
        survive (undestroyed) until :meth:`TreeSnapshot.close`.
        """
        with self._lock:
            components = tuple(self.components)
            for component in components:
                cid = id(component)
                self._pins[cid] = self._pins.get(cid, 0) + 1
            memtable_sources: List[ImmutableMemtable] = []
            if include_memtables:
                if not self.memtable.is_empty:
                    # Only the O(n) copy of the mutable memtable needs the
                    # lock.  Like the frozen memtables, the copy sorts lazily:
                    # point lookups and the batch overlay never ask for order.
                    memtable_sources.append(
                        ImmutableMemtable(self.memtable.entries_snapshot())
                    )
                memtable_sources.extend(reversed(self._frozen))  # newest first
        return TreeSnapshot(self, memtable_sources, components)

    def _unpin_components(self, components: Sequence[DiskComponent]) -> None:
        to_destroy: List[DiskComponent] = []
        with self._lock:
            for component in components:
                cid = id(component)
                remaining = self._pins.get(cid, 0) - 1
                if remaining > 0:
                    self._pins[cid] = remaining
                else:
                    self._pins.pop(cid, None)
                    retired = self._retired.pop(cid, None)
                    if retired is not None:
                        to_destroy.append(retired)
        for component in to_destroy:
            component.destroy()

    def _retire_components(self, components: Sequence[DiskComponent]) -> None:
        """Destroy merged-away components now, or once their last pin drops."""
        to_destroy: List[DiskComponent] = []
        with self._lock:
            for component in components:
                cid = id(component)
                if self._pins.get(cid, 0) > 0:
                    self._retired[cid] = component
                else:
                    to_destroy.append(component)
        for component in to_destroy:
            component.destroy()

    @property
    def retired_component_count(self) -> int:
        """Merged-away components kept alive by reader pins (observability)."""
        with self._lock:
            return len(self._retired)

    # -- reads -------------------------------------------------------------------------
    def scan(
        self,
        fields: Optional[Sequence[str]] = None,
        include_memtable: bool = True,
        pushdown=None,
    ) -> Iterator[Tuple[object, dict]]:
        """Reconciled scan over every component, newest first wins.

        The snapshot is pinned *when scan() is called* (not at first
        iteration), so the caller sees exactly the records live at that
        moment, however long the iteration takes and whatever flushes or
        merges happen meanwhile.

        ``pushdown`` (a :class:`~repro.query.pushdown.PushdownSpec`) lets the
        columnar components prune columns and pre-filter leaf groups; rows
        whose *winning* version fails a pushed predicate are dropped here
        without ever being assembled.  Memtable rows and row-layout components
        ignore the spec and flow through to the engine's residual filter.
        """
        snapshot = self.pin_snapshot(include_memtables=include_memtable)
        return self._scan_snapshot(snapshot, fields, pushdown)

    def _scan_snapshot(
        self, snapshot: TreeSnapshot, fields, pushdown
    ) -> Iterator[Tuple[object, dict]]:
        try:
            cursors = snapshot.cursors(fields, pushdown)
            for key, antimatter, document in _reconciled(cursors):
                if antimatter or document is FILTERED:
                    continue
                yield key, document
        finally:
            snapshot.close()

    def count(self) -> int:
        """Number of live records (reconciled, but without decoding values)."""
        total = 0
        with self.pin_snapshot() as snapshot:
            cursors = snapshot.cursors([])
            for _, antimatter, _ in _reconciled(cursors, decode_documents=False):
                if not antimatter:
                    total += 1
        return total

    def point_lookup(self, key, fields: Optional[Sequence[str]] = None) -> Optional[dict]:
        """Find the newest version of ``key`` (None when absent or deleted).

        Args:
            key: The primary key.
            fields: Optional top-level projection, forwarded to the component
                lookup so columnar components decode only the needed columns.
                Sources that cannot project (memtable, row layouts) may return
                more fields than requested — projection is an optimization,
                never a semantic contract.
        """
        with self._lock:
            entry = self.memtable.get(key)
            if entry is None:
                for frozen in reversed(self._frozen):  # newest rotation first
                    entry = frozen.get(key)
                    if entry is not None:
                        break
            if entry is not None:
                antimatter, document = entry
                return None if antimatter else document
            components = tuple(self.components)
            for component in components:
                cid = id(component)
                self._pins[cid] = self._pins.get(cid, 0) + 1
        try:
            for component in components:
                found = component.point_lookup(key, fields)
                if found is not None:
                    antimatter, document = found
                    return None if antimatter else document
            return None
        finally:
            self._unpin_components(components)

    def contains(self, key) -> bool:
        return self.point_lookup(key) is not None

    # -- statistics ---------------------------------------------------------------------
    @property
    def num_components(self) -> int:
        return len(self.components)

    def storage_size_bytes(self) -> int:
        return sum(component.size_bytes for component in self.components)

    def storage_payload_bytes(self) -> int:
        return sum(component.file.payload_bytes for component in self.components)

    def record_count_on_disk(self) -> int:
        return sum(component.record_count for component in self.components)


def _reconciled(
    cursors: Sequence[ComponentCursor], decode_documents: bool = True
) -> Iterator[Tuple[object, bool, Optional[dict]]]:
    """K-way merge over cursors ordered newest → oldest with newest-wins semantics."""
    heap: List[Tuple[object, int]] = []
    active: List[Optional[ComponentCursor]] = list(cursors)
    for rank, cursor in enumerate(active):
        if cursor.advance():
            heapq.heappush(heap, (cursor.key, rank))
        else:
            active[rank] = None
    while heap:
        key, rank = heapq.heappop(heap)
        same_key_ranks = [rank]
        while heap and heap[0][0] == key:
            same_key_ranks.append(heapq.heappop(heap)[1])
        winner_rank = min(same_key_ranks)
        winner = active[winner_rank]
        antimatter = winner.is_antimatter
        document = None
        if decode_documents and not antimatter:
            # Pushed predicates are consulted only *after* newest-wins
            # reconciliation picked the winner, so a failing new version can
            # never resurrect an older passing one.
            document = winner.document() if winner.passes_pushdown else FILTERED
        yield key, antimatter, document
        for advancing_rank in same_key_ranks:
            cursor = active[advancing_rank]
            if cursor.advance():
                heapq.heappush(heap, (cursor.key, advancing_rank))
            else:
                active[advancing_rank] = None
