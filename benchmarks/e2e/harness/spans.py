"""Benchmark-side spans, and the split of a statement's latency into layers.

The recorder keeps spans in memory (name, start, end, parent, request id) and
writes them out once, when the run ends.  Client calls, scrapes and probe
calls are recorded by the benchmark; a traced statement's server-side span
tree — which carries durations only, no start offsets — is grafted under its
client span.

:func:`attribute` charges every microsecond of a traced statement's
client-observed latency to one of the repo's packages.  A span's self time is
its duration minus what its children cover.  The operator spans under
``execute`` are siblings in the tree but nested in time (each pulls from the
one before it), so the scan is charged its own span and everything else under
``execute`` goes to the query layer.  What no single layer owns is reported
as ``unattributed``, never folded away.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Layers a statement's latency is split into (the repo's package names).
STATEMENT_LAYERS = ("net", "shard", "sqlpp", "query", "scan")


class SpanRecorder:
    """In-memory span log; ``add`` is safe from several client threads
    (``list.append`` is atomic) because parents are passed explicitly."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._open: Dict[int, dict] = {}

    def add(
        self,
        name: str,
        start: float,
        end: Optional[float],
        parent: Optional[int] = None,
        request: Optional[str] = None,
        **attrs,
    ) -> int:
        span = {
            "id": next(self._ids),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
        }
        if request is not None:
            span["request"] = request
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)
        return span["id"]

    def begin(self, name: str, parent: Optional[int] = None) -> int:
        """Open a span that encloses others (a phase); ``finish`` stamps its end."""
        span_id = self.add(name, time.perf_counter(), None, parent)
        self._open[span_id] = self.spans[-1]
        return span_id

    def finish(self, span_id: int) -> None:
        self._open.pop(span_id)["end"] = time.perf_counter()

    def graft(self, parent: int, request: Optional[str], tree: dict) -> None:
        """Attach a server span tree (durations only) under a client span."""
        span = {
            "id": next(self._ids),
            "name": "server:" + str(tree.get("name", "?")),
            "start": None,
            "end": None,
            "duration_s": tree.get("duration_s", 0.0),
            "parent": parent,
        }
        if request is not None:
            span["request"] = request
        if tree.get("attrs"):
            span["attrs"] = tree["attrs"]
        self.spans.append(span)
        for child in tree.get("children") or ():
            self.graft(span["id"], request, child)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


# -- attribution -----------------------------------------------------------------------


def _children(span: dict, name: str) -> List[dict]:
    return [child for child in span.get("children") or () if child.get("name") == name]


def _duration(spans: List[dict]) -> float:
    return sum(float(span.get("duration_s", 0.0)) for span in spans)


def attribute(client_s: float, root: dict) -> Dict[str, float]:
    """Split one traced statement's client latency (seconds) by layer.

    Returns the :data:`STATEMENT_LAYERS` shares plus ``unattributed`` — they
    sum to ``client_s`` — and the named span durations the per-layer metrics
    are medians of.  Only the slowest shard is charged: the coordinator waits
    for it, the others finish in its shadow.
    """
    server_s = float(root.get("duration_s", 0.0))
    parse_bind = _duration(_children(root, "parse") + _children(root, "bind"))
    optimize = _duration(_children(root, "optimize"))
    scatter = _children(root, "scatter")
    scatter_s = _duration(scatter)
    merge = _duration(_children(root, "merge"))
    shards = [shard for span in scatter for shard in _children(span, "shard")]
    by_duration = sorted(shards, key=lambda shard: float(shard.get("duration_s", 0.0)))
    slowest = by_duration[-1] if by_duration else {}
    slowest_s = float(slowest.get("duration_s", 0.0))
    straggler_gap = slowest_s - float(by_duration[0].get("duration_s", 0.0)) if shards else 0.0

    shard_parse_bind = _duration(_children(slowest, "parse") + _children(slowest, "bind"))
    shard_optimize = _duration(_children(slowest, "optimize"))
    execute_s = _duration(_children(slowest, "execute"))
    scan_s = sum(
        _duration(_children(execute, "DataScanNode"))
        for execute in _children(slowest, "execute")
    )
    rows_scanned = sum(
        int((scan.get("attrs") or {}).get("rows_out", 0))
        for shard in shards
        for execute in _children(shard, "execute")
        for scan in _children(execute, "DataScanNode")
    )

    # Coordinator time outside any child span is the coordinator's own code.
    coordinator_self = max(0.0, server_s - parse_bind - optimize - scatter_s - merge)
    scatter_overhead = max(0.0, scatter_s - slowest_s)
    layers = {
        "net": max(0.0, client_s - server_s),
        "shard": coordinator_self + scatter_overhead + merge,
        "sqlpp": parse_bind + shard_parse_bind,
        # Everything under execute that is not the scan: kernels, group-by,
        # sort, and the executor's own glue.
        "query": optimize + shard_optimize + max(0.0, execute_s - scan_s),
        "scan": scan_s,
    }
    return {
        **layers,
        # What is left is the slowest shard's time outside its child spans
        # (split derivation, result materialisation): no single owner.
        "unattributed": max(0.0, client_s - sum(layers.values())),
        "client": client_s,
        "coordinator_self": coordinator_self,
        "scatter_overhead": scatter_overhead,
        "merge": merge,
        "straggler_gap": straggler_gap,
        "parse_bind": parse_bind,
        "shard_parse_bind": shard_parse_bind,
        "optimize": optimize + shard_optimize,
        "execute": execute_s,
        "scan_span": scan_s,
        "breaker_self": max(0.0, execute_s - scan_s),
        "compiles": float(_count(root, "parse")),
        "rows_scanned": float(rows_scanned),
    }


def _count(span: dict, name: str) -> int:
    own = 1 if span.get("name") == name else 0
    return own + sum(_count(child, name) for child in span.get("children") or ())
