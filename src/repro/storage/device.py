"""Page-oriented storage device, component files, and append-only log files.

On-disk LSM components are sequences of fixed-size pages.  The
:class:`StorageDevice` manages *component files* (one per LSM component or
secondary-index run) and *log files* (one write-ahead log per node).  Files
can be held in memory (the default — fast and fully deterministic for
benchmarks) or backed by real files on disk.

When a backing directory is configured every page append/rewrite is written
through to disk immediately and flushed to the OS, so a process crash loses
nothing that was acknowledged.  The on-disk representation of a component
file is *slotted*: each page occupies a fixed-stride slot of
``page_size + 8`` bytes, prefixed by an 8-byte header carrying the payload
length and a CRC-32 checksum, so that exact page payloads survive a
round trip and torn writes are detected on reopen.  Log files are a plain
record stream with the same ``[length][crc32][payload]`` framing; recovery
reads the longest valid prefix and discards a torn tail.

Every page read or write and every log append is counted once, here, in the
:class:`~repro.storage.stats.IOStats` of the calling thread's I/O source
(``StorageDevice.stats_by_source``); the metrics registry only renders those
counts.  Nothing here models a device: the counts are the engine's real page
and log traffic, and wall-clock time is whatever the host's files cost.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Dict, List, Optional
from urllib.parse import quote, unquote

from ..model.errors import StorageError
from ..obs.metrics import IO_SOURCES, MetricsRegistry, current_io_source
from .stats import IOStats

#: Per-page / per-record on-disk header: uint32 payload length + uint32 CRC-32.
_HEADER = struct.Struct("<II")

#: Suffix distinguishing component files from manifests and WAL files.
COMPONENT_FILE_SUFFIX = ".comp"


def encode_component_filename(name: str) -> str:
    """Collision-free, filesystem-safe encoding of a component name.

    Percent-encoding is a bijection (every byte outside ``[A-Za-z0-9_.-]`` is
    escaped), so two distinct component names can never map to the same path —
    unlike the old ``name.replace("/", "_")`` scheme where ``"a/b"`` and
    ``"a_b"`` collided.
    """
    return quote(name, safe="") + COMPONENT_FILE_SUFFIX


def decode_component_filename(filename: str) -> str:
    """Inverse of :func:`encode_component_filename`."""
    if not filename.endswith(COMPONENT_FILE_SUFFIX):
        raise StorageError(f"{filename!r} is not a component file name")
    return unquote(filename[: -len(COMPONENT_FILE_SUFFIX)])


class ComponentFile:
    """An append-only sequence of pages belonging to one LSM component."""

    def __init__(self, device: "StorageDevice", name: str) -> None:
        self.device = device
        self.name = name
        self._pages: List[bytes] = []
        self._deleted = False
        self._handle = None
        self._on_disk_path: Optional[str] = None
        if device.directory is not None:
            self._on_disk_path = os.path.join(
                device.directory, encode_component_filename(name)
            )

    # -- writing ---------------------------------------------------------------
    def append_page(self, data: bytes) -> int:
        """Append one page and return its page id (position in the file)."""
        self._check_alive()
        if len(data) > self.device.page_size:
            raise StorageError(
                f"page of {len(data)} bytes exceeds the page size "
                f"({self.device.page_size} bytes)"
            )
        page_id = len(self._pages)
        self._pages.append(bytes(data))
        self._write_slot(page_id, data)
        self.device._counters().record_write(self.device.page_size)
        return page_id

    def rewrite_page(self, page_id: int, data: bytes) -> None:
        """Overwrite a previously reserved page (used for AMAX Page 0 fix-ups)."""
        self._check_alive()
        if page_id < 0 or page_id >= len(self._pages):
            raise StorageError(f"page {page_id} out of range for rewrite")
        if len(data) > self.device.page_size:
            raise StorageError(
                f"page of {len(data)} bytes exceeds the page size "
                f"({self.device.page_size} bytes)"
            )
        self._pages[page_id] = bytes(data)
        self._write_slot(page_id, data)
        self.device._counters().record_write(self.device.page_size)

    @property
    def _slot_stride(self) -> int:
        return self.device.page_size + _HEADER.size

    def _ensure_handle(self):
        if self._handle is None:
            mode = "r+b" if os.path.exists(self._on_disk_path) else "w+b"
            self._handle = open(self._on_disk_path, mode)
        return self._handle

    def _write_slot(self, page_id: int, data: bytes) -> None:
        """Write one page slot through to disk (no-op for in-memory devices)."""
        if self._on_disk_path is None:
            return
        handle = self._ensure_handle()
        handle.seek(page_id * self._slot_stride)
        handle.write(_HEADER.pack(len(data), zlib.crc32(data)))
        handle.write(data)
        handle.flush()

    # -- loading ---------------------------------------------------------------
    def load_from_disk(self) -> None:
        """Populate the in-memory page list from the backing file (recovery)."""
        if self._on_disk_path is None:
            raise StorageError(
                f"component file {self.name!r} has no backing directory"
            )
        pages: List[bytes] = []
        with open(self._on_disk_path, "rb") as handle:
            raw = handle.read()
        stride = self._slot_stride
        offset = 0
        while offset < len(raw):
            header = raw[offset:offset + _HEADER.size]
            if len(header) < _HEADER.size:
                raise StorageError(
                    f"component file {self.name!r} has a truncated page header"
                )
            length, checksum = _HEADER.unpack(header)
            payload = raw[offset + _HEADER.size:offset + _HEADER.size + length]
            if len(payload) < length or zlib.crc32(payload) != checksum:
                raise StorageError(
                    f"component file {self.name!r} page "
                    f"{offset // stride} failed its checksum"
                )
            pages.append(bytes(payload))
            self.device._counters().record_read(self.device.page_size)
            offset += stride
        self._pages = pages

    # -- reading ---------------------------------------------------------------
    def read_page(self, page_id: int) -> bytes:
        """Read one page, bypassing the buffer cache (callers usually go via the cache)."""
        self._check_alive()
        if page_id < 0 or page_id >= len(self._pages):
            raise StorageError(
                f"page {page_id} out of range for component {self.name!r} "
                f"({len(self._pages)} pages)"
            )
        self.device._counters().record_read(self.device.page_size)
        return self._pages[page_id]

    # -- metadata ---------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        """On-disk footprint: every page occupies a full device page."""
        return len(self._pages) * self.device.page_size

    @property
    def payload_bytes(self) -> int:
        """Bytes actually used inside the pages (before padding)."""
        return sum(len(page) for page in self._pages)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        self._deleted = True
        self._pages.clear()
        self.close()
        if self._on_disk_path is not None and os.path.exists(self._on_disk_path):
            os.remove(self._on_disk_path)

    def _check_alive(self) -> None:
        if self._deleted:
            raise StorageError(f"component file {self.name!r} has been deleted")


class LogFile:
    """An append-only stream of checksummed records (the write-ahead log).

    Unlike component files, a log file is not page-oriented: records of
    arbitrary size are framed as ``[uint32 length][uint32 crc32][payload]``
    and flushed to the OS on every append, so every acknowledged record
    survives a process crash.  On reopen the longest valid prefix is loaded
    and a torn tail (a record cut short by the crash, or failing its
    checksum) is discarded and truncated away.
    """

    def __init__(self, device: "StorageDevice", name: str) -> None:
        self.device = device
        self.name = name
        self._records: List[bytes] = []
        self._handle = None
        self._on_disk_path: Optional[str] = None
        if device.directory is not None:
            self._on_disk_path = os.path.join(device.directory, quote(name, safe=""))

    # -- writing ---------------------------------------------------------------
    def append_record(self, payload: bytes) -> None:
        self._records.append(bytes(payload))
        self.device._counters().record_wal_append(len(payload) + _HEADER.size)
        if self._on_disk_path is None:
            return
        if self._handle is None:
            self._handle = open(self._on_disk_path, "ab")
        self._handle.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._handle.write(payload)
        self._handle.flush()

    def truncate(self) -> None:
        """Discard every record (checkpoint: the log's tail is now durable)."""
        self._records = []
        if self._on_disk_path is None:
            return
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        with open(self._on_disk_path, "wb"):
            pass

    # -- loading ---------------------------------------------------------------
    def load_from_disk(self) -> int:
        """Load the valid record prefix; returns how many tail bytes were torn."""
        if self._on_disk_path is None or not os.path.exists(self._on_disk_path):
            return 0
        with open(self._on_disk_path, "rb") as handle:
            raw = handle.read()
        records: List[bytes] = []
        offset = 0
        while offset + _HEADER.size <= len(raw):
            length, checksum = _HEADER.unpack(raw[offset:offset + _HEADER.size])
            payload = raw[offset + _HEADER.size:offset + _HEADER.size + length]
            if len(payload) < length or zlib.crc32(payload) != checksum:
                break
            records.append(bytes(payload))
            offset += _HEADER.size + length
        torn_bytes = len(raw) - offset
        if torn_bytes:
            # Drop the torn tail so later appends continue from a clean state.
            with open(self._on_disk_path, "r+b") as handle:
                handle.truncate(offset)
        self._records = records
        return torn_bytes

    # -- reading ---------------------------------------------------------------
    @property
    def records(self) -> List[bytes]:
        return list(self._records)

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def size_bytes(self) -> int:
        return sum(len(record) + _HEADER.size for record in self._records)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        self._records = []
        self.close()
        if self._on_disk_path is not None and os.path.exists(self._on_disk_path):
            os.remove(self._on_disk_path)


class StorageDevice:
    """A collection of component files sharing one page size and one I/O count."""

    def __init__(
        self,
        page_size: int = 128 * 1024,
        directory: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if page_size <= 0:
            raise StorageError("page size must be positive")
        self.page_size = page_size
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        #: The one count of this device's page I/O and log appends, per I/O
        #: source (see :func:`repro.obs.metrics.current_io_source`).
        self.stats_by_source: Dict[str, IOStats] = {
            source: IOStats() for source in IO_SOURCES
        }
        #: The registry LSM trees reach through the device; storage counts are
        #: rendered into it by callbacks (see ``Datastore``), never incremented.
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=False
        )
        self._files: Dict[str, ComponentFile] = {}
        self._log_files: Dict[str, LogFile] = {}
        self._disk_paths: Dict[str, str] = {}  # on-disk path -> component name
        self._name_counter = 0
        #: Guards the file registries: background flush/merge workers create
        #: and delete component files concurrently with readers and writers.
        self._lock = threading.Lock()

    # -- I/O accounting ----------------------------------------------------------
    def _counters(self) -> IOStats:
        """The counters the calling thread's I/O is charged to (its I/O source)."""
        return self.stats_by_source[current_io_source()]

    @property
    def stats(self) -> IOStats:
        """Read-only sum of every source's counters."""
        return IOStats.total(self.stats_by_source.values())

    def create_file(self, name: Optional[str] = None) -> ComponentFile:
        with self._lock:
            if name is None:
                name = f"component-{self._name_counter}"
                self._name_counter += 1
            if name in self._files:
                raise StorageError(f"component file {name!r} already exists")
            handle = ComponentFile(self, name)
            self._register_locked(handle)
        # A fresh component must not inherit a stale on-disk file (e.g. an
        # orphan left behind by a crash between a spill and its manifest).
        if handle._on_disk_path is not None and os.path.exists(handle._on_disk_path):
            os.remove(handle._on_disk_path)
        return handle

    def open_file(self, name: str) -> ComponentFile:
        """Open an existing on-disk component file and load its pages (recovery)."""
        with self._lock:
            if name in self._files:
                return self._files[name]
            if self.directory is None:
                raise StorageError(
                    f"cannot open component file {name!r}: device has no directory"
                )
            handle = ComponentFile(self, name)
            handle.load_from_disk()
            self._register_locked(handle)
            return handle

    def _register_locked(self, handle: ComponentFile) -> None:
        if handle._on_disk_path is not None:
            owner = self._disk_paths.get(handle._on_disk_path)
            if owner is not None and owner != handle.name:
                # Unreachable while encode_component_filename stays bijective;
                # kept as a hard guard against future encoding regressions.
                raise StorageError(
                    f"component files {owner!r} and {handle.name!r} would "
                    f"share the on-disk path {handle._on_disk_path!r}"
                )
            self._disk_paths[handle._on_disk_path] = handle.name
        self._files[handle.name] = handle

    def get_file(self, name: str) -> ComponentFile:
        try:
            return self._files[name]
        except KeyError as exc:
            raise StorageError(f"unknown component file {name!r}") from exc

    def delete_file(self, name: str) -> None:
        with self._lock:
            handle = self._files.pop(name, None)
            if handle is not None and handle._on_disk_path is not None:
                self._disk_paths.pop(handle._on_disk_path, None)
        if handle is not None:
            handle.delete()

    # -- log files --------------------------------------------------------------
    def open_log_file(self, name: str) -> LogFile:
        """Create-or-open an append-only log file (loads any persisted prefix)."""
        with self._lock:
            existing = self._log_files.get(name)
            if existing is not None:
                return existing
            log_file = LogFile(self, name)
            log_file.load_from_disk()
            self._log_files[name] = log_file
            return log_file

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Close every OS file handle (pages already reached the OS on write)."""
        with self._lock:
            handles = list(self._files.values())
            log_files = list(self._log_files.values())
        for handle in handles:
            handle.close()
        for log_file in log_files:
            log_file.close()

    def list_disk_component_names(self) -> List[str]:
        """Names of component files present in the backing directory."""
        if self.directory is None:
            return []
        names = []
        for filename in os.listdir(self.directory):
            if filename.endswith(COMPONENT_FILE_SUFFIX):
                names.append(decode_component_filename(filename))
        return sorted(names)
