"""Datastore configuration.

Defaults follow the paper's experiment setup (§6) scaled down to laptop-sized
synthetic datasets: 128 KB on-disk pages, Snappy-style page compression, a
tiering merge policy with ratio 1.2 and at most 5 components, and a cap on
concurrent merges for the columnar layouts.  The paper's NVMe device is not
modelled: every count and timing a store reports is work it did on the host.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

from ..encoding.compression import get_codec
from ..model.errors import EncodingError


@dataclass
class StoreConfig:
    """Tunable parameters of a :class:`~repro.store.datastore.Datastore`."""

    #: On-disk page size in bytes (the paper uses 128 KB).
    page_size: int = 128 * 1024
    #: In-memory component budget per partition, in bytes.
    memory_component_budget: int = 4 * 1024 * 1024
    #: Buffer cache capacity in pages (shared by all partitions of a node).
    buffer_cache_pages: int = 2048
    #: Page compression codec: "snappy", "zlib", "none", or any name added
    #: with :func:`repro.encoding.compression.register_codec`.
    compression: str = "snappy"
    #: Number of node controllers (NCs).
    num_nodes: int = 1
    #: Data partitions per node.
    partitions_per_node: int = 2
    #: Tiering merge policy parameters (§6.3).
    merge_size_ratio: float = 1.2
    max_tolerable_components: int = 5
    #: Concurrent-merge cap; None means "half the partitions" (§4.5.3).
    max_concurrent_merges: Optional[int] = None
    #: AMAX: maximum records per mega leaf (Page 0 key count limit, §4.5.2).
    amax_max_records_per_leaf: int = 15000
    #: AMAX: fraction of a physical page that may stay empty so the next
    #: column starts on a fresh page (§4.3).
    amax_empty_page_tolerance: float = 0.15
    #: Optional directory for persisting component pages (None = in memory).
    storage_directory: Optional[str] = None
    #: Default primary key field name.
    primary_key_field: str = "id"
    #: Background flush/merge worker threads; 0 (the default) preserves the
    #: fully synchronous engine — flushes and merges run inline on the
    #: caller's thread, exactly as before the concurrency subsystem existed.
    background_workers: int = 0
    #: Bounded background task queue (writer backpressure past this depth).
    flush_queue_capacity: int = 64
    #: Rotated-but-unflushed memtables a partition may accumulate before the
    #: writer blocks waiting for a background flush (memory backpressure).
    max_frozen_memtables: int = 4
    #: Observability master switch: the metrics registry and per-statement
    #: tracing (repro/obs).  Off turns every instrument into a no-op, which
    #: is what bench_observability.py compares against.
    observability: bool = True
    #: Statements at least this slow (seconds) are recorded in the structured
    #: slow-query log; None disables the log entirely.
    slow_query_log_s: Optional[float] = None
    #: Optional JSONL file the slow-query log appends to (None keeps entries
    #: in memory only, readable via ``Datastore.slow_log.entries()``).
    slow_query_log_path: Optional[str] = None

    @property
    def total_partitions(self) -> int:
        return self.num_nodes * self.partitions_per_node

    def concurrent_merge_limit(self) -> int:
        if self.max_concurrent_merges is not None:
            return self.max_concurrent_merges
        return max(1, self.total_partitions // 2)

    def validate(self) -> None:
        if self.page_size < 4096:
            raise ValueError("page_size must be at least 4 KiB")
        if self.total_partitions < 1:
            raise ValueError("at least one partition is required")
        if not 0.0 <= self.amax_empty_page_tolerance < 1.0:
            raise ValueError("amax_empty_page_tolerance must be in [0, 1)")
        try:
            get_codec(self.compression)
        except EncodingError as exc:
            raise ValueError(str(exc)) from None
        if self.max_tolerable_components < 1:
            raise ValueError("max_tolerable_components must be >= 1")
        if self.max_concurrent_merges is not None and self.max_concurrent_merges < 1:
            raise ValueError("max_concurrent_merges must be >= 1 (or None)")
        if self.background_workers < 0:
            raise ValueError("background_workers must be >= 0")
        if self.flush_queue_capacity < 1:
            raise ValueError("flush_queue_capacity must be >= 1")
        if self.max_frozen_memtables < 1:
            raise ValueError("max_frozen_memtables must be >= 1")
        if self.slow_query_log_s is not None and self.slow_query_log_s < 0:
            raise ValueError("slow_query_log_s must be >= 0")
        if self.slow_query_log_path is not None and self.slow_query_log_s is None:
            raise ValueError(
                "slow_query_log_path requires slow_query_log_s to be set"
            )

    # -- serialization (the datastore root manifest) -------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "StoreConfig":
        """Rebuild a config persisted by :meth:`to_dict`.

        Unknown keys are ignored so a datastore written by a newer version
        (with extra tunables) still opens; missing keys keep their defaults.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})
