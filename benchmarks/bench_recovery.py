"""Durability overhead and recovery-time benchmarks.

Two questions the durable storage engine must answer:

* **What does the WAL cost on ingest?**  Every insert serializes a
  self-contained log record and flushes it to the per-node log file, so
  ingestion pays one small sequential write per record on top of the
  in-memory path.
* **How fast is recovery, and how does it scale with the log tail?**
  Reopening a datastore loads manifests and component footers (cheap,
  independent of history) and replays the WAL tail (linear in the number of
  un-checkpointed records).
"""

from __future__ import annotations

import random
import time

from repro import Datastore, StoreConfig
from repro.bench.reporting import print_figure

NUM_RECORDS = 4000
TAIL_LENGTHS = [0, 500, 2000]


def _document(rng: random.Random, key: int) -> dict:
    return {
        "id": key,
        "name": f"user-{key % 100}",
        "metrics": {"score": round(rng.uniform(0, 100), 3), "visits": key % 997},
        "tags": [f"t{key % 7}", f"t{(key + 3) % 7}"],
    }


def _config(directory=None) -> StoreConfig:
    return StoreConfig(
        storage_directory=None if directory is None else str(directory),
        page_size=32 * 1024,
        memory_component_budget=256 * 1024,
        partitions_per_node=2,
    )


def _ingest(store: Datastore, count: int) -> float:
    rng = random.Random(42)
    dataset = store.create_dataset("docs", layout="amax")
    start = time.perf_counter()
    for key in range(count):
        dataset.insert(_document(rng, key))
    return time.perf_counter() - start


def test_wal_append_overhead_on_ingest(benchmark, tmp_path):
    """Ingestion with the file-backed WAL vs the in-memory cost model only."""

    def run():
        memory_store = Datastore(_config(None))
        memory_seconds = _ingest(memory_store, NUM_RECORDS)
        durable_store = Datastore(_config(tmp_path / "durable"))
        durable_seconds = _ingest(durable_store, NUM_RECORDS)
        stats = durable_store.io_snapshot()
        durable_store.close()
        return memory_seconds, durable_seconds, stats

    memory_seconds, durable_seconds, stats = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    overhead = durable_seconds / memory_seconds
    print_figure(
        "WAL append overhead — ingest of "
        f"{NUM_RECORDS} records (amax, 2 partitions)",
        ["store", "seconds", "records/s", "wal appends", "wal MB"],
        [
            ["in-memory", round(memory_seconds, 3),
             int(NUM_RECORDS / memory_seconds), 0, 0.0],
            ["durable", round(durable_seconds, 3),
             int(NUM_RECORDS / durable_seconds), stats.wal_appends,
             round(stats.wal_bytes_written / 1e6, 2)],
        ],
    )
    assert stats.wal_appends == NUM_RECORDS  # one log record per insert
    # The WAL costs real I/O but must stay the same order of magnitude.
    assert overhead < 10, f"WAL overhead factor {overhead:.1f}x"


def test_recovery_time_vs_log_length(benchmark, tmp_path):
    """Reopen time is flat in history size and linear in the WAL tail."""

    def build(directory, tail: int) -> None:
        store = Datastore(_config(directory))
        _ingest(store, NUM_RECORDS)
        store.checkpoint()
        dataset = store.dataset("docs")
        rng = random.Random(7)
        for key in range(100_000, 100_000 + tail):
            dataset.insert(_document(rng, key), auto_flush=False)
        store.device.close()  # crash: WAL tail left behind, no checkpoint

    def run():
        rows = []
        for tail in TAIL_LENGTHS:
            directory = tmp_path / f"tail-{tail}"
            build(directory, tail)
            start = time.perf_counter()
            store = Datastore.open(str(directory))
            seconds = time.perf_counter() - start
            info = store.last_recovery
            assert info.wal_records_replayed == tail
            assert store.dataset("docs").count() == NUM_RECORDS + tail
            rows.append([tail, round(seconds, 3), info.components_loaded])
            store.device.close()
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        f"Recovery time vs WAL tail length (base: {NUM_RECORDS} records, checkpointed)",
        ["wal tail records", "reopen seconds", "components loaded"],
        rows,
    )
