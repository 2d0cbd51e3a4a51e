"""The LSM in-memory component.

Newly ingested records live here (in the Vector-Based format conceptually —
we keep the Python dict plus its VB-encoded size for budget accounting) until
the component fills up and is flushed to disk (§2.1.1).  Updates overwrite in
place; deletes leave an anti-matter marker so the flush writes a tombstone.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..model.errors import StorageError
from ..model.values import estimate_json_size
from .component import FlushEntry

#: One memtable entry: (antimatter flag, document-or-None).
MemEntry = Tuple[bool, Optional[dict]]


def _in_key_order(by_key: Dict[object, MemEntry]) -> List[FlushEntry]:
    return [
        (key, antimatter, document)
        for key, (antimatter, document) in sorted(by_key.items())
    ]


class MemTable:
    """In-memory component with approximate byte-budget accounting."""

    def __init__(self, budget_bytes: int = 8 * 1024 * 1024) -> None:
        if budget_bytes <= 0:
            raise StorageError("memtable budget must be positive")
        self.budget_bytes = budget_bytes
        self._entries: Dict[object, MemEntry] = {}
        self._approximate_bytes = 0

    # -- mutation -----------------------------------------------------------------
    def put(self, key, document: dict) -> None:
        """Insert or overwrite a record."""
        self._account_removal(key)
        self._entries[key] = (False, document)
        self._approximate_bytes += estimate_json_size(document) + 16

    def delete(self, key) -> None:
        """Record an anti-matter entry for ``key``."""
        self._account_removal(key)
        self._entries[key] = (True, None)
        self._approximate_bytes += 24

    def _account_removal(self, key) -> None:
        existing = self._entries.get(key)
        if existing is None:
            return
        antimatter, document = existing
        if antimatter:
            self._approximate_bytes -= 24
        else:
            self._approximate_bytes -= estimate_json_size(document) + 16

    # -- inspection ----------------------------------------------------------------
    def get(self, key) -> Optional[MemEntry]:
        return self._entries.get(key)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def approximate_bytes(self) -> int:
        return max(self._approximate_bytes, 0)

    @property
    def is_full(self) -> bool:
        return self.approximate_bytes >= self.budget_bytes

    def sorted_entries(self) -> List[FlushEntry]:
        """Entries as ``(key, antimatter, document)`` in key order (flush order)."""
        return _in_key_order(self._entries)

    def entries_snapshot(self) -> Dict[object, MemEntry]:
        """An unordered O(n) copy of the raw entries.

        For readers that must copy under a lock but can afford to sort
        outside it (snapshot pinning): the copy is the only part that needs
        the entries to hold still.
        """
        return dict(self._entries)


class ImmutableMemtable:
    """A read-only view of memtable entries that no longer change.

    The interface every pinned in-memory source offers a reader: O(1)
    ``get``, the raw ``by_key`` mapping for membership-based reconciliation
    (the batch executor's overlay), and ``entries`` in flush order for the
    k-way merge — sorted once, lazily, by whoever needs the order first.
    A snapshot pins the mutable memtable as one of these (over
    :meth:`MemTable.entries_snapshot`); :class:`FrozenMemtable` is the
    rotated-out flavour.
    """

    def __init__(self, by_key: Dict[object, MemEntry]) -> None:
        #: key -> (antimatter, document), unordered.  Never mutate.
        self.by_key = by_key
        self._entries: Optional[List[FlushEntry]] = None
        self._entries_lock = threading.Lock()

    def get(self, key) -> Optional[MemEntry]:
        return self.by_key.get(key)

    @property
    def is_empty(self) -> bool:
        return not self.by_key

    def __len__(self) -> int:
        return len(self.by_key)

    @property
    def entries(self) -> List[FlushEntry]:
        """``(key, antimatter, document)`` in key order (computed once, cached)."""
        if self._entries is None:
            with self._entries_lock:
                if self._entries is None:
                    self._entries = _in_key_order(self.by_key)
        return self._entries


class FrozenMemtable(ImmutableMemtable):
    """An immutable, rotated-out memtable awaiting its background flush.

    When the writer rotates (swaps in a fresh mutable memtable so ingestion
    never waits on flush I/O), the old memtable is wrapped here together with
    the partition's ``last_logged_lsn`` at rotation time: once this memtable's
    flush completes, every logged operation up to ``rotated_lsn`` lives in a
    disk component, so that LSN becomes the partition's durable LSN.

    Readers treat a frozen memtable exactly like the mutable one (it is newer
    than every disk component, older than the current memtable); the sorted
    entry list is computed once, lazily, by whoever needs it first — the flush
    worker or a pinned-snapshot scan.
    """

    def __init__(self, memtable: MemTable, rotated_lsn: int) -> None:
        # No copy: nothing writes to a memtable once it has been rotated out.
        super().__init__(memtable._entries)
        self.rotated_lsn = rotated_lsn
        self.approximate_bytes = memtable.approximate_bytes
