"""In-process probe: time direct calls into each layer's public functions.

The wire run says how long a statement took; the probe says what one call of
each layer costs on the same workload's own inputs — frames the client
really sent, documents it really loaded, texts it really ran — so a later
change to one layer has a number of its own to move.  Probes run after the
cluster is gone, on an otherwise idle host, and are recorded as spans too.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional

from repro import Datastore, StoreConfig
from repro.columnar import encode_column_chunk
from repro.core import ColumnCursor, RecordAssembler, Schema, shred_batch
from repro.datasets import make_generator
from repro.encoding import get_codec
from repro.model.path import FieldPath
from repro.net.protocol import HEADER, decode_body, encode_frame
from repro.query.pushdown import PushdownSpec
from repro.rowformats import open_format
from repro.shard.coordinator import shard_for_key
from repro.shard.partial import merge_rows, split_query
from repro.sqlpp import compile_query

from .inputs import Statement
from .spans import SpanRecorder

#: Documents per dataset the probe works on (a slice of the workload's own).
PROBE_DOCUMENTS = 1000
INDEX_DOCUMENTS = 1000


def run_probe(
    documents: Dict[str, List[dict]],
    statements: List[Statement],
    scan_fields: Dict[str, str],
    store_config: dict,
    frames: List[dict],
    seed: int,
    recorder: Optional[SpanRecorder] = None,
    parent: Optional[int] = None,
) -> Dict[str, float]:
    """Per-layer costs on ``documents`` (dataset → docs), ``statements`` and
    ``frames`` (request payloads the client sent).  Returns metric → value."""
    sample = {name: docs[:PROBE_DOCUMENTS] for name, docs in documents.items() if docs}
    total_docs = sum(len(docs) for docs in sample.values())
    config = {
        key: store_config[key]
        for key in ("page_size", "compression", "memory_component_budget")
    }

    def timed(name: str, call: Callable[[], object]) -> float:
        start = time.perf_counter()
        call()
        end = time.perf_counter()
        if recorder is not None:
            recorder.add(f"probe:{name}", start, end, parent)
        return end - start

    out: Dict[str, float] = {}

    # -- net: the codec on the client's own frames ---------------------------------
    encoded = [encode_frame(frame) for frame in frames]
    kilobytes = sum(len(data) for data in encoded) / 1024.0
    out["net.encode_us_per_kb"] = (
        timed("net.encode", lambda: [encode_frame(frame) for frame in frames])
        * 1e6 / kilobytes
    )
    out["net.decode_us_per_kb"] = (
        timed("net.decode", lambda: [decode_body(data[HEADER.size:]) for data in encoded])
        * 1e6 / kilobytes
    )

    # -- sqlpp: parse + bind + lower, per statement text ----------------------------
    compile_s = [
        timed("sqlpp.compile", lambda text=statement.text: compile_query(text))
        for statement in statements
        for _ in range(5)
    ]
    out["sqlpp.compile_us_p50"] = statistics.median(compile_s) * 1e6

    # -- stores: the workload's documents under both layouts ------------------------
    stores = {
        layout: Datastore(StoreConfig(partitions_per_node=1, observability=False, **config))
        for layout in ("amax", "open")
    }
    try:
        for layout, store in stores.items():
            for name, docs in sample.items():
                dataset = store.create_dataset(name, layout=layout)
                dataset.insert_many(docs)
                dataset.flush_all()

        # columnar: assembly-free batches (direct) vs reconciled + assembled rows.
        def scan_direct() -> None:
            for name in sample:
                path = scan_fields[name]
                spec = PushdownSpec(fields=[path], paths=[FieldPath.parse(path)])
                for batch in stores["amax"].dataset(name).scan_batches(
                    "t", fields=[path], pushdown=spec, direct=True
                ):
                    batch.length

        def scan_rows() -> None:
            for name in sample:
                for _ in stores["amax"].dataset(name).scan():
                    pass

        out["columnar.scan_batches_us_per_row"] = (
            timed("columnar.scan_batches", scan_direct) * 1e6 / total_docs
        )
        out["columnar.scan_rows_us_per_row"] = (
            timed("columnar.scan_rows", scan_rows) * 1e6 / total_docs
        )

        # store: point lookups of full documents, spread over the key range.
        for layout, store in stores.items():
            lookups = []
            for name, docs in sample.items():
                dataset = store.dataset(name)
                for document in docs[:: max(1, len(docs) // 10)][:10]:
                    key = document["id"]
                    lookups.append(
                        timed(f"store.point_lookup.{layout}",
                              lambda: dataset.point_lookup(key))
                    )
            out[f"store.point_lookup_{layout}_us_p50"] = statistics.median(lookups) * 1e6

        # shard: merging two shards' partial rows, per statement.
        halves = [
            Datastore(StoreConfig(partitions_per_node=1, observability=False))
            for _ in range(2)
        ]
        try:
            for name, docs in sample.items():
                for index, half in enumerate(halves):
                    half.create_dataset(name, layout="open").insert_many(
                        [d for d in docs if shard_for_key(d["id"], len(halves)) == index]
                    )
            merge_s = 0.0
            merged_rows = 0
            for statement in statements:
                if statement.dataset not in sample:
                    continue
                split = split_query(compile_query(statement.text).query)
                partials = [split.local_query.execute(half) for half in halves]
                merged_rows += sum(len(rows) for rows in partials)
                merge_s += timed(
                    "shard.merge_rows", lambda: merge_rows(split, partials)
                )
            out["shard.merge_rows_us_per_row"] = merge_s * 1e6 / max(1, merged_rows)
        finally:
            for half in halves:
                half.close()
    finally:
        for store in stores.values():
            store.close()

    # -- core / encoding / rowformats: one flush worth of documents -----------------
    shredded = {}
    schemas = {}

    def shred() -> None:
        for name, docs in sample.items():
            schemas[name] = Schema(primary_key_field="id")
            shredded[name] = shred_batch(
                schemas[name], [(d["id"], d, False) for d in docs]
            )

    out["core.shred_us_per_doc"] = timed("core.shred", shred) * 1e6 / total_docs

    def assemble() -> None:
        for name, columns in shredded.items():
            cursors = [ColumnCursor(c.column, c.defs, c.values) for c in columns.values()]
            for _ in RecordAssembler(schemas[name], cursors):
                pass

    out["core.assemble_us_per_doc"] = timed("core.assemble", assemble) * 1e6 / total_docs

    codec = get_codec(store_config["compression"])
    chunks = [
        encode_column_chunk(column)
        for columns in shredded.values()
        for column in columns.values()
    ]
    megabytes = sum(len(chunk) for chunk in chunks) / 1e6
    compressed: List[bytes] = []
    out["encoding.compress_mb_per_s"] = megabytes / timed(
        "encoding.compress", lambda: compressed.extend(codec.compress(c) for c in chunks)
    )
    out["encoding.decompress_mb_per_s"] = megabytes / timed(
        "encoding.decompress", lambda: [codec.decompress(c) for c in compressed]
    )

    rows: List[bytes] = []
    flat = [d for docs in sample.values() for d in docs]
    out["rowformats.encode_us_per_doc"] = (
        timed("rowformats.encode",
              lambda: rows.extend(open_format.encode_document(d) for d in flat))
        * 1e6 / total_docs
    )
    out["rowformats.decode_us_per_doc"] = (
        timed("rowformats.decode",
              lambda: [open_format.decode_document(r) for r in rows])
        * 1e6 / total_docs
    )

    # -- index: tweet_2 + timestamp index, 50 % updates (Figure 15) -----------------
    # No wire op creates an index, so no workload exercises one; this is the
    # baseline for the change that exposes them.
    tweets = make_generator("tweet_2", INDEX_DOCUMENTS, seed=seed).documents()
    store = Datastore(StoreConfig(partitions_per_node=1, observability=False, **config))
    try:
        plain = store.create_dataset("plain", layout="amax")
        indexed = store.create_dataset("indexed", layout="amax")
        index = indexed.create_secondary_index("ts", "timestamp")
        updates = [dict(d, timestamp=d["timestamp"] + 500) for d in tweets[::2]]
        plain_s = timed("index.baseline", lambda: plain.insert_many(tweets + updates))
        indexed_s = timed("index.maintain", lambda: indexed.insert_many(tweets + updates))
        out["index.maintain_us_per_doc"] = (
            max(0.0, indexed_s - plain_s) * 1e6 / (len(tweets) + len(updates))
        )
        low = tweets[0]["timestamp"]
        searches = [
            timed("index.search_range",
                  lambda lo=low + offset * 1000: index.search_range(lo, lo + 20_000))
            for offset in range(0, INDEX_DOCUMENTS, INDEX_DOCUMENTS // 25)
        ]
        out["index.search_range_us_p50"] = statistics.median(searches) * 1e6
    finally:
        store.close()
    return out
