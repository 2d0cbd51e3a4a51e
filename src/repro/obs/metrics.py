"""Thread-safe metrics registry with Prometheus text exposition.

Three instrument kinds, all declared in :mod:`repro.obs.catalog` and
validated against it at creation time:

- **counters** — monotonically increasing floats,
- **gauges** — set/inc/dec, or *callback* gauges that read a live value
  (e.g. the background scheduler's queue depth) at render time,
- **histograms** — fixed-bucket distributions with ``p50``/``p99`` helpers.

A family is addressed by metric name; labeled children are obtained with
``family.labels(dataset="tweets")`` and cached, so hot paths resolve their
child once and pay a single lock-protected addition per event.  A registry
constructed with ``enabled=False`` hands out no-op instruments, which is how
``StoreConfig.observability = False`` turns the whole subsystem off.

The module also owns the *I/O source* thread-local used to attribute device
I/O: background flush/merge work runs inside ``maintenance_io()`` so its
reads and writes land under ``source="maintenance"`` and are never claimed
by a racing query (``source="query"``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..model.errors import ReproError
from .catalog import METRIC_CATALOG, MetricSpec


class MetricsError(ReproError):
    """A metric was used in a way its catalog declaration does not allow."""


# ======================================================================================
# I/O source attribution (query vs maintenance)
# ======================================================================================

_IO_SOURCE = threading.local()

#: Valid values of the ``source`` label on device I/O metrics.
IO_SOURCES = ("query", "maintenance")


def current_io_source() -> str:
    """The I/O attribution source for the calling thread (default: query)."""
    return getattr(_IO_SOURCE, "value", "query")


@contextmanager
def io_source(value: str) -> Iterator[None]:
    """Attribute device I/O issued by this thread to ``value`` while active."""
    previous = getattr(_IO_SOURCE, "value", "query")
    _IO_SOURCE.value = value
    try:
        yield
    finally:
        _IO_SOURCE.value = previous


def maintenance_io() -> "contextmanager":
    """Context manager attributing this thread's I/O to background maintenance."""
    return io_source("maintenance")


# ======================================================================================
# Instruments
# ======================================================================================


class _Instrument:
    """One child of a family: a (name, label values) time series."""

    __slots__ = ("_lock", "labels")

    def __init__(self, labels: Tuple[Tuple[str, str], ...]) -> None:
        self._lock = threading.Lock()
        self.labels = labels


class Counter(_Instrument):
    __slots__ = ("_value", "_fn")

    def __init__(self, labels=()):
        super().__init__(labels)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value


class Gauge(_Instrument):
    __slots__ = ("_value", "_fn")

    def __init__(self, labels=(), fn: Optional[Callable[[], float]] = None):
        super().__init__(labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value


class Histogram(_Instrument):
    __slots__ = ("buckets", "bucket_counts", "_sum", "_count")

    def __init__(self, labels=(), buckets: Tuple[float, ...] = ()):
        super().__init__(labels)
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket boundaries (upper bound of the
        bucket containing the q-th observation; 0.0 when empty)."""
        with self._lock:
            total = self._count
            counts = list(self.bucket_counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for i, count in enumerate(counts):
            cumulative += count
            if cumulative >= rank and count:
                if i < len(self.buckets):
                    return self.buckets[i]
                return float("inf")
        return float("inf")

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


class _Noop:
    """Instrument and family stand-in handed out by a disabled registry."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0
    p50 = 0.0
    p99 = 0.0

    def labels(self, **_labels) -> "_Noop":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NOOP = _Noop()


# ======================================================================================
# Families
# ======================================================================================


class Family:
    """All children of one metric name; also acts as the child when unlabeled."""

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Instrument] = {}
        if not spec.labels:
            self._children[()] = self._make(())

    def _make(self, label_items: Tuple[Tuple[str, str], ...]) -> _Instrument:
        if self.spec.kind == "counter":
            return Counter(label_items)
        if self.spec.kind == "gauge":
            return Gauge(label_items)
        return Histogram(label_items, buckets=self.spec.buckets)

    def labels(self, **labels: str) -> _Instrument:
        if tuple(sorted(labels)) != tuple(sorted(self.spec.labels)):
            raise MetricsError(
                f"metric {self.spec.name!r} takes labels "
                f"{sorted(self.spec.labels)}, got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.spec.labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                items = tuple(zip(self.spec.labels, key))
                child = self._make(items)
                self._children[key] = child
            return child

    def _unlabeled(self) -> _Instrument:
        if self.spec.labels:
            raise MetricsError(
                f"metric {self.spec.name!r} requires labels "
                f"{sorted(self.spec.labels)}"
            )
        return self._children[()]

    # Unlabeled convenience: the family forwards to its single child.
    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabeled().dec(amount)

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)

    @property
    def value(self) -> float:
        return self._unlabeled().value

    def children(self) -> List[_Instrument]:
        with self._lock:
            return [self._children[key] for key in sorted(self._children)]


# ======================================================================================
# Registry
# ======================================================================================


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, bool):
        return str(int(value))
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(items: Tuple[Tuple[str, str], ...]) -> str:
    if not items:
        return ""
    escaped = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in items
    )
    return "{%s}" % escaped


class MetricsRegistry:
    """Owns every metric family of one engine instance."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: Dict[str, Family] = {}

    # -- instrument creation ---------------------------------------------------
    def _family(self, name: str, kind: str):
        if not self.enabled:
            return _NOOP
        spec = METRIC_CATALOG.get(name)
        if spec is None:
            raise MetricsError(
                f"metric {name!r} is not declared in repro.obs.catalog"
            )
        if spec.kind != kind:
            raise MetricsError(
                f"metric {name!r} is declared as a {spec.kind}, not a {kind}"
            )
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(spec)
                self._families[name] = family
            return family

    def counter(self, name: str) -> Family:
        return self._family(name, "counter")

    def gauge(self, name: str) -> Family:
        return self._family(name, "gauge")

    def histogram(self, name: str) -> Family:
        return self._family(name, "histogram")

    def register_callback(self, name: str, fn: Callable[[], float],
                          **labels: str) -> None:
        """A counter/gauge whose value is read from ``fn`` at render time —
        used to absorb pre-existing live counters (e.g. the background
        scheduler's queue depth and task totals) without touching their
        increment sites."""
        if not self.enabled:
            return
        spec = METRIC_CATALOG.get(name)
        if spec is None:
            raise MetricsError(
                f"metric {name!r} is not declared in repro.obs.catalog"
            )
        if spec.kind == "histogram":
            raise MetricsError("histograms cannot be callback-backed")
        family = self._family(name, spec.kind)
        if labels:
            child = family.labels(**labels)
        else:
            child = family._unlabeled()
        child._fn = fn

    # -- reading ---------------------------------------------------------------
    def get_value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge child (0.0 if never emitted)."""
        if not self.enabled:
            return 0.0
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return 0.0
        try:
            child = family.labels(**labels) if labels else family._unlabeled()
        except MetricsError:
            return 0.0
        return child.value

    # -- Prometheus text exposition ---------------------------------------------
    def render_text(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        if not self.enabled:
            return "# observability disabled\n"
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        lines: List[str] = []
        for family in families:
            spec = family.spec
            lines.append(f"# HELP {spec.name} {spec.help}")
            lines.append(f"# TYPE {spec.name} {spec.kind}")
            for child in family.children():
                if isinstance(child, Histogram):
                    with child._lock:
                        counts = list(child.bucket_counts)
                        total = child._count
                        value_sum = child._sum
                    cumulative = 0
                    for bound, count in zip(
                        tuple(child.buckets) + (float("inf"),), counts
                    ):
                        cumulative += count
                        items = child.labels + (("le", _format_value(bound)),)
                        lines.append(
                            f"{spec.name}_bucket{_format_labels(items)} "
                            f"{cumulative}"
                        )
                    label_text = _format_labels(child.labels)
                    lines.append(
                        f"{spec.name}_sum{label_text} {_format_value(value_sum)}"
                    )
                    lines.append(f"{spec.name}_count{label_text} {total}")
                else:
                    lines.append(
                        f"{spec.name}{_format_labels(child.labels)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"
