"""I/O accounting and data statistics primitives.

Two kinds of statistics live here:

* **I/O accounting** — every page read or written anywhere in the engine flows
  through an :class:`IOStats` instance.  The benchmark harness reports these
  counters next to wall-clock time because the paper's query-performance story
  is primarily a "how many bytes did we have to touch" story.
* **Data statistics** — the per-column summaries collected when a component is
  written (flush or merge) and consumed by the cost-based optimizer
  (:mod:`repro.query.optimizer`): value counts, min/max, an equi-width
  :class:`EquiWidthHistogram` over numeric values, and a
  :class:`DistinctCountSketch` for distinct-value estimation.  They live in
  the storage layer because they are part of a component's metadata page
  (:class:`~repro.lsm.component.ComponentMetadata`), below every consumer.
"""

from __future__ import annotations

import math
import operator
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


@dataclass
class IOStats:
    """Counters for page-level I/O, buffer-cache requests and log appends.

    The device keeps one instance per I/O source, shared by every thread
    charged to that source (writers, readers, background flush/merge
    workers), so the increments are taken under a lock — Python's
    ``+=`` on an attribute is a read-modify-write that loses updates under
    contention.  The cache fields are filled from the buffer cache's own
    counts by ``Datastore.io_snapshot``.
    """

    pages_read: int = 0
    pages_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wal_appends: int = 0
    wal_bytes_written: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_read(self, num_bytes: int) -> None:
        with self._lock:
            self.pages_read += 1
            self.bytes_read += num_bytes

    def record_write(self, num_bytes: int) -> None:
        with self._lock:
            self.pages_written += 1
            self.bytes_written += num_bytes

    def record_wal_append(self, num_bytes: int) -> None:
        """Account one write-ahead-log record append (not page-oriented)."""
        with self._lock:
            self.wal_appends += 1
            self.wal_bytes_written += num_bytes

    def snapshot(self) -> "IOStats":
        return IOStats(*_counts(self))

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since an earlier snapshot."""
        return IOStats(*map(operator.sub, _counts(self), _counts(earlier)))

    @classmethod
    def total(cls, parts: Iterable["IOStats"]) -> "IOStats":
        """A new instance holding the sum of ``parts``' counters."""
        columns = zip(*(_counts(part) for part in parts))
        return cls(*(sum(column) for column in columns))

    def add(self, other: "IOStats") -> None:
        """Fold another instance's counters into this one (thread-safe).

        This is how the shard coordinator aggregates the per-statement I/O
        deltas reported by remote engine processes into one cluster-wide
        view (``ShardedDatastore.io_snapshot()``).
        """
        counts = _counts(other)
        with self._lock:
            for name, value in zip(_COUNTERS, counts):
                setattr(self, name, getattr(self, name) + value)

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "IOStats":
        """Rebuild counters from :meth:`as_dict` output (wire deserialization)."""
        return cls(**{name: int(payload.get(name, 0)) for name in _COUNTERS})

    def as_dict(self) -> Dict[str, int]:
        return dict(zip(_COUNTERS, _counts(self)))


#: The counter fields of :class:`IOStats`, in declaration (= positional) order.
_COUNTERS = tuple(name for name in IOStats.__dataclass_fields__ if name != "_lock")
_counts = operator.attrgetter(*_COUNTERS)


# ======================================================================================
# Data statistics (per-column summaries collected at flush/merge time)
# ======================================================================================

#: Default number of histogram buckets per numeric column.
HISTOGRAM_BUCKETS = 32

#: Bitmap size (in bits) of the linear-counting distinct sketch.  512 bits
#: keep the estimate within a few percent up to a few hundred distinct values
#: per component — plenty for equality-selectivity estimation — while the
#: serialized form stays ≤128 hex chars on the metadata page (statistics are
#: charged to the component's on-disk size, so they must stay small).
SKETCH_BITS = 512


class EquiWidthHistogram:
    """An equi-width histogram over numeric values.

    Built in one pass over a component's decoded column values at flush/merge
    time; queried by the optimizer to estimate what fraction of a column's
    values fall inside a predicate's ``[low, high]`` range.

    Example:
        >>> h = EquiWidthHistogram.build([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], buckets=5)
        >>> round(h.range_fraction(1, 10), 2)
        1.0
        >>> round(h.range_fraction(None, 5), 2)   # values <= 5, interpolated
        0.44
    """

    __slots__ = ("low", "high", "counts", "total")

    def __init__(self, low: float, high: float, counts: List[int]) -> None:
        self.low = low
        self.high = high
        self.counts = counts
        self.total = sum(counts)

    @classmethod
    def build(
        cls, values: Sequence[float], buckets: int = HISTOGRAM_BUCKETS
    ) -> Optional["EquiWidthHistogram"]:
        """Build a histogram from raw values (None when there are no values)."""
        if not values:
            return None
        low = min(values)
        high = max(values)
        if low == high:
            return cls(low, high, [len(values)])
        counts = [0] * buckets
        width = (high - low) / buckets
        for value in values:
            index = min(int((value - low) / width), buckets - 1)
            counts[index] += 1
        return cls(low, high, counts)

    # -- estimation --------------------------------------------------------------------
    def range_fraction(self, low: Optional[float], high: Optional[float]) -> float:
        """Estimated fraction of values in the inclusive range ``[low, high]``.

        Partial bucket overlap is interpolated linearly (the standard
        equi-width assumption of uniformity within a bucket).
        """
        if self.total == 0:
            return 0.0
        query_low = self.low if low is None else low
        query_high = self.high if high is None else high
        if query_high < self.low or query_low > self.high:
            return 0.0
        if self.low == self.high:
            return 1.0 if query_low <= self.low <= query_high else 0.0
        width = (self.high - self.low) / len(self.counts)
        covered = 0.0
        for index, count in enumerate(self.counts):
            bucket_low = self.low + index * width
            bucket_high = bucket_low + width
            overlap_low = max(bucket_low, query_low)
            overlap_high = min(bucket_high, query_high)
            if overlap_high <= overlap_low:
                continue
            covered += count * (overlap_high - overlap_low) / width
        return min(1.0, covered / self.total)

    def merge(self, other: "EquiWidthHistogram") -> "EquiWidthHistogram":
        """Combine two histograms by re-bucketing over the union of bounds.

        Counts are spread uniformly across the target buckets each source
        bucket overlaps — approximate, but the merged histogram is only used
        for selectivity estimation, never for correctness.
        """
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        buckets = max(len(self.counts), len(other.counts))
        if low == high:
            return EquiWidthHistogram(low, high, [self.total + other.total])
        counts = [0.0] * buckets
        width = (high - low) / buckets
        for source in (self, other):
            source_width = (
                (source.high - source.low) / len(source.counts)
                if source.high > source.low
                else 0.0
            )
            for index, count in enumerate(source.counts):
                if not count:
                    continue
                if source_width == 0.0:
                    target = min(int((source.low - low) / width), buckets - 1)
                    counts[target] += count
                    continue
                bucket_low = source.low + index * source_width
                bucket_high = bucket_low + source_width
                first = min(int((bucket_low - low) / width), buckets - 1)
                last = min(int((bucket_high - low) / width - 1e-12), buckets - 1)
                span = max(1, last - first + 1)
                for target in range(first, first + span):
                    counts[target] += count / span
        return EquiWidthHistogram(low, high, [int(round(c)) for c in counts])

    # -- serialization ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {"low": self.low, "high": self.high, "counts": self.counts}

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> Optional["EquiWidthHistogram"]:
        if not payload:
            return None
        return cls(payload["low"], payload["high"], list(payload["counts"]))


class DistinctCountSketch:
    """Linear-counting sketch estimating the number of distinct values.

    Each value hashes (seeded CRC-32, deterministic across processes) to one
    bit of a fixed bitmap; the distinct-count estimate is the classic linear
    counting formula ``-m * ln(z / m)`` where ``z`` is the number of zero bits.
    Sketches merge by OR-ing bitmaps, which is what lets per-component
    statistics aggregate into dataset-level statistics without rescanning.

    Example:
        >>> sketch = DistinctCountSketch()
        >>> for value in ["a", "b", "c", "a", "a", "b"]:
        ...     sketch.add(value)
        >>> round(sketch.estimate())
        3
    """

    __slots__ = ("bits", "bitmap")

    def __init__(self, bits: int = SKETCH_BITS, bitmap: int = 0) -> None:
        self.bits = bits
        self.bitmap = bitmap

    def add(self, value) -> None:
        """Hash one value into the bitmap (any value with a stable ``repr``)."""
        digest = zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))
        # Knuth multiplicative mix: CRC-32's low bits cluster for similar
        # inputs, and ``% bits`` with a power-of-two size keeps only those.
        mixed = (digest * 2654435761) & 0xFFFFFFFF
        self.bitmap |= 1 << (mixed >> 23) % self.bits

    def estimate(self) -> float:
        """The linear-counting distinct estimate (0.0 for an empty sketch)."""
        ones = bin(self.bitmap).count("1")
        zeros = self.bits - ones
        if zeros == 0:
            return float(self.bits)
        if ones == 0:
            return 0.0
        return -self.bits * math.log(zeros / self.bits)

    def merge(self, other: "DistinctCountSketch") -> "DistinctCountSketch":
        if self.bits != other.bits:
            raise ValueError("cannot merge sketches of different sizes")
        return DistinctCountSketch(self.bits, self.bitmap | other.bitmap)

    def as_dict(self) -> dict:
        return {"bits": self.bits, "bitmap": format(self.bitmap, "x")}

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> "DistinctCountSketch":
        if not payload:
            return cls()
        return cls(payload["bits"], int(payload["bitmap"], 16))


@dataclass
class ColumnStatistics:
    """Summary statistics for one (array-free) column path of a component.

    Collected once when the component is written — from the shredded column
    values on the columnar flush/merge path, from the documents themselves on
    the row-layout path — and merged across components/partitions on demand by
    :func:`repro.query.stats.collect_dataset_statistics`.

    Attributes:
        path: Dotted field path ("user.name"), array steps never included.
        count: Number of records with a present atomic value at the path.
        numeric_count: How many of those values were ints/floats.
        string_count: How many were strings.
        bool_count: How many were booleans.
        null_count: How many were NULL.
        min_value / max_value: Bounds over the numeric values.
        histogram: Equi-width histogram over the numeric values (None when the
            column held no numeric values).
        distinct: Distinct-count sketch over every present value.
    """

    path: str
    count: int = 0
    numeric_count: int = 0
    string_count: int = 0
    bool_count: int = 0
    null_count: int = 0
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    histogram: Optional[EquiWidthHistogram] = None
    distinct: DistinctCountSketch = field(default_factory=DistinctCountSketch)

    # -- estimation ---------------------------------------------------------------------
    def distinct_estimate(self) -> float:
        return max(1.0, self.distinct.estimate())

    def value_fraction(self, op: str, value, record_count: int) -> float:
        """Estimated fraction of *records* whose value at the path passes ``op value``.

        Follows the SQL++ comparison semantics the pushdown layer enforces:
        MISSING/NULL and non-atomic values never pass ``==``/``<``/``<=``/
        ``>``/``>=``; ``!=`` passes for any present value other than the
        literal.  Records without a collected value therefore contribute 0.
        """
        if record_count <= 0:
            return 0.0
        present = min(1.0, self.count / record_count)
        if op == "!=":
            return present * (1.0 - self._equality_fraction(value))
        if op == "==":
            return present * self._equality_fraction(value)
        return present * self._range_fraction(op, value)

    def _equality_fraction(self, value) -> float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if self.count == 0 or self.numeric_count == 0:
                return 0.0
            if self.min_value is not None and not (
                self.min_value <= value <= self.max_value
            ):
                return 0.0
        elif isinstance(value, str) and self.string_count == 0:
            return 0.0
        return min(1.0, 1.0 / self.distinct_estimate())

    def _range_fraction(self, op: str, value) -> float:
        if op in ("<", "<="):
            return self._numeric_range_share(None, value)
        return self._numeric_range_share(value, None)

    def _numeric_range_share(self, low, high) -> float:
        """Fraction of *present* values inside the numeric range [low, high]."""
        for bound in (low, high):
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, (int, float))
            ):
                # String/bool ranges: no ordering statistics are kept; fall
                # back to a fixed guess (a third of present values).
                return 1.0 / 3.0
        if self.numeric_count == 0 or self.count == 0:
            return 0.0
        numeric_share = self.numeric_count / self.count
        if self.histogram is None:
            return numeric_share / 3.0
        return numeric_share * self.histogram.range_fraction(low, high)

    def range_selectivity(self, low, high, record_count: int) -> float:
        """Estimated fraction of records with a value in the inclusive range.

        This is the *combined* estimate for a conjunction of range predicates
        on one column — intersecting the bounds first avoids the independence
        error of multiplying ``P(x >= low)`` by ``P(x <= high)``.
        """
        if record_count <= 0:
            return 0.0
        present = min(1.0, self.count / record_count)
        return present * self._numeric_range_share(low, high)

    # -- merging -----------------------------------------------------------------------
    def merge(self, other: "ColumnStatistics") -> "ColumnStatistics":
        merged = ColumnStatistics(
            path=self.path,
            count=self.count + other.count,
            numeric_count=self.numeric_count + other.numeric_count,
            string_count=self.string_count + other.string_count,
            bool_count=self.bool_count + other.bool_count,
            null_count=self.null_count + other.null_count,
            distinct=self.distinct.merge(other.distinct),
        )
        lows = [v for v in (self.min_value, other.min_value) if v is not None]
        highs = [v for v in (self.max_value, other.max_value) if v is not None]
        merged.min_value = min(lows) if lows else None
        merged.max_value = max(highs) if highs else None
        if self.histogram is not None and other.histogram is not None:
            merged.histogram = self.histogram.merge(other.histogram)
        else:
            merged.histogram = self.histogram or other.histogram
        return merged

    # -- serialization -----------------------------------------------------------------
    def as_dict(self) -> dict:
        """Compact serialized form (zero/None fields omitted — these live on
        the metadata page of every component, so bytes matter)."""
        payload = {"path": self.path, "count": self.count}
        for name in ("numeric_count", "string_count", "bool_count", "null_count"):
            value = getattr(self, name)
            if value:
                payload[name] = value
        if self.min_value is not None:
            payload["min_value"] = self.min_value
            payload["max_value"] = self.max_value
        if self.histogram is not None:
            payload["histogram"] = self.histogram.as_dict()
        if self.distinct.bitmap:
            payload["distinct"] = self.distinct.as_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ColumnStatistics":
        return cls(
            path=payload["path"],
            count=payload.get("count", 0),
            numeric_count=payload.get("numeric_count", 0),
            string_count=payload.get("string_count", 0),
            bool_count=payload.get("bool_count", 0),
            null_count=payload.get("null_count", 0),
            min_value=payload.get("min_value"),
            max_value=payload.get("max_value"),
            histogram=EquiWidthHistogram.from_dict(payload.get("histogram")),
            distinct=DistinctCountSketch.from_dict(payload.get("distinct")),
        )


class ColumnStatisticsBuilder:
    """Accumulates one column's values during a component build.

    Numeric values are buffered so the equi-width histogram can be built with
    exact bounds in :meth:`finish`; strings and booleans update counters and
    the distinct sketch immediately.
    """

    __slots__ = ("path", "stats", "_numeric_values")

    def __init__(self, path: str) -> None:
        self.path = path
        self.stats = ColumnStatistics(path=path)
        self._numeric_values: List[float] = []

    def observe(self, value) -> None:
        """Record one present value (callers never pass MISSING or containers)."""
        stats = self.stats
        if value is None:
            stats.count += 1
            stats.null_count += 1
            return
        stats.count += 1
        stats.distinct.add(value)
        if isinstance(value, bool):
            stats.bool_count += 1
        elif isinstance(value, (int, float)):
            stats.numeric_count += 1
            # NaN/inf would poison histogram bounds; they still count toward
            # numeric_count and the distinct sketch above.
            if isinstance(value, int) or math.isfinite(value):
                self._numeric_values.append(value)
        elif isinstance(value, str):
            stats.string_count += 1

    def finish(self) -> ColumnStatistics:
        """Finalize: build the histogram and return the statistics."""
        if self._numeric_values:
            self.stats.min_value = min(self._numeric_values)
            self.stats.max_value = max(self._numeric_values)
            self.stats.histogram = EquiWidthHistogram.build(self._numeric_values)
            self._numeric_values = []
        return self.stats


def collect_document_statistics(
    builders: Dict[str, ColumnStatisticsBuilder], document: dict, prefix: str = ""
) -> None:
    """Fold one document's atomic, array-free field values into ``builders``.

    Used by the row-layout component builders (the columnar builders read the
    shredded column buffers directly).  Arrays are skipped entirely so that
    row- and column-collected statistics describe the same population: the
    array-free paths the pushdown/optimizer layers can use.
    """
    for name, value in document.items():
        path = f"{prefix}{name}" if prefix else name
        if isinstance(value, dict):
            collect_document_statistics(builders, value, f"{path}.")
        elif isinstance(value, (list, tuple)):
            continue
        else:
            builder = builders.get(path)
            if builder is None:
                builder = builders[path] = ColumnStatisticsBuilder(path)
            builder.observe(value)
