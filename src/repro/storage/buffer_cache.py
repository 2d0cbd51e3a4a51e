"""Buffer cache: an LRU page cache shared by every component of a node.

The cache serves two roles in the reproduction, mirroring §2.1.1 and §4.5.2:

* queries read component pages through it (hits avoid device reads, which is
  why the ``sensors`` dataset's APAX/AMAX queries become CPU-bound once the
  whole dataset fits in the 10 GB cache of the paper's setup);
* the AMAX writer *confiscates* pages from it to buffer growing megapages
  instead of using a dedicated memory budget (§4.5.2) — modelled here by the
  :meth:`confiscate` / :meth:`return_confiscated` budget accounting.

The cache is shared by concurrent reader threads and background flush/merge
workers, so every structural operation takes
the internal lock (an ``OrderedDict`` cannot survive concurrent
``move_to_end`` / eviction).  Page *contents* are immutable bytes, safe to
hand out without copying.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Tuple

from ..model.errors import StorageError
from .device import ComponentFile


class BufferCache:
    """A simple LRU cache of ``(file name, page id) -> page bytes``."""

    def __init__(self, capacity_pages: int = 1024) -> None:
        if capacity_pages <= 0:
            raise StorageError("buffer cache needs at least one page")
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
        self._confiscated = 0
        self._lock = threading.Lock()
        #: The one count of this cache's requests and evictions, taken under
        #: ``_lock``; the metrics registry renders them through callbacks.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- reads ------------------------------------------------------------------
    def read_page(self, component_file: ComponentFile, page_id: int) -> bytes:
        """Read a page through the cache, recording hit/miss statistics."""
        key = (component_file.name, page_id)
        with self._lock:
            cached = self._pages.get(key)
            if cached is not None:
                self._pages.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        # The device read happens outside the lock, so the cache lock never
        # nests the device's counter lock; a racing reader of the same page
        # just performs a duplicate (counted) read and the second insert wins.
        data = component_file.read_page(page_id)
        with self._lock:
            self._insert_locked(key, data)
        return data

    def invalidate_file(self, name: str) -> None:
        """Drop every cached page of a deleted component."""
        with self._lock:
            stale = [key for key in self._pages if key[0] == name]
            for key in stale:
                del self._pages[key]

    def _insert_locked(self, key: Tuple[str, int], data: bytes) -> None:
        self._pages[key] = data
        self._pages.move_to_end(key)
        while len(self._pages) + self._confiscated > self.capacity_pages and self._pages:
            self._pages.popitem(last=False)
            self.evictions += 1

    # -- confiscation (AMAX temporary buffers, §4.5.2) ------------------------------
    def confiscate(self, pages: int = 1) -> None:
        """Reserve cache pages as temporary write buffers."""
        if pages < 0:
            raise StorageError("cannot confiscate a negative number of pages")
        with self._lock:
            self._confiscated += pages
            while (
                len(self._pages) + self._confiscated > self.capacity_pages
                and self._pages
            ):
                self._pages.popitem(last=False)
                self.evictions += 1

    def return_confiscated(self, pages: int = 1) -> None:
        """Give confiscated pages back to the cache."""
        with self._lock:
            self._confiscated = max(0, self._confiscated - pages)

    @property
    def confiscated_pages(self) -> int:
        return self._confiscated

    @property
    def cached_pages(self) -> int:
        return len(self._pages)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
