"""Concurrency benchmark: does background flushing remove ingest stalls?

With the synchronous engine every Nth insert pays the full component build
and its page writes inline (the stall the paper's AsterixDB avoids with
background flushes); with workers attached the writer only rotates the
memtable.  The p99/max per-insert latency is the stall metric — the mean
barely moves because the same work happens either way, just off the
critical path.  The store is on disk, so the flush's page writes are real
file writes; nothing sleeps to model a device.

Parallel multi-partition scans return the same rows as a sequential scan
(``tests/test_concurrency.py``); their wall-clock speedup is not benchmarked
here, because this pure-Python engine's scans are CPU-bound under the GIL.
"""

from __future__ import annotations

import random
import time

from repro import Datastore, StoreConfig
from repro.bench.reporting import print_figure

INGEST_RECORDS = 3000


def _document(rng: random.Random, key: int) -> dict:
    return {
        "id": key,
        "name": f"user-{key % 100}",
        "metrics": {"score": round(rng.uniform(0, 100), 3), "visits": key % 997},
        "tags": [f"t{key % 7}", f"t{(key + 3) % 7}"],
    }


def _config(**overrides) -> StoreConfig:
    settings = dict(
        page_size=32 * 1024,
        memory_component_budget=128 * 1024,
        partitions_per_node=2,
        buffer_cache_pages=64,
    )
    settings.update(overrides)
    return StoreConfig(**settings)


def _percentile(sorted_values, fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(len(sorted_values) * fraction))
    return sorted_values[index]


def _ingest_latencies(store: Datastore) -> dict:
    rng = random.Random(42)
    dataset = store.create_dataset("docs", layout="amax")
    latencies = []
    start = time.perf_counter()
    for key in range(INGEST_RECORDS):
        t0 = time.perf_counter()
        dataset.insert(_document(rng, key))
        latencies.append(time.perf_counter() - t0)
    total = time.perf_counter() - start
    store.drain_background()
    flush_count = sum(p.flush_count for p in dataset.partitions)
    store.close()
    latencies.sort()
    return {
        "total_s": total,
        "p50_us": _percentile(latencies, 0.50) * 1e6,
        "p99_us": _percentile(latencies, 0.99) * 1e6,
        "max_us": latencies[-1] * 1e6,
        "flushes": flush_count,
    }


def test_background_flush_removes_ingest_stalls(benchmark, tmp_path):
    """p99/max insert latency: synchronous flushing vs the background pool."""

    def run():
        # A small memtable budget makes flushes frequent (~2% of inserts), so
        # the p99 captures the stall behaviour rather than WAL append noise.
        stats = {}
        for mode, workers in (("sync", 0), ("background", 2)):
            stats[mode] = _ingest_latencies(
                Datastore(
                    _config(
                        background_workers=workers,
                        memory_component_budget=8 * 1024,
                        storage_directory=str(tmp_path / mode),
                    )
                )
            )
        return stats["sync"], stats["background"]

    sync_stats, background_stats = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["sync", round(sync_stats["total_s"], 3), round(sync_stats["p50_us"], 1),
         round(sync_stats["p99_us"], 1), round(sync_stats["max_us"], 1),
         sync_stats["flushes"]],
        ["background", round(background_stats["total_s"], 3),
         round(background_stats["p50_us"], 1), round(background_stats["p99_us"], 1),
         round(background_stats["max_us"], 1), background_stats["flushes"]],
    ]
    print_figure(
        f"Ingest stalls — {INGEST_RECORDS} inserts (amax, 2 partitions, "
        "on-disk store)",
        ["mode", "total s", "p50 µs", "p99 µs", "max µs", "flushes"],
        rows,
    )
    # The stall metric: the worst inserts no longer carry a component build.
    assert background_stats["p99_us"] < sync_stats["p99_us"], (
        "background flushing should remove the inline-flush latency spike "
        f"(p99 {background_stats['p99_us']:.0f}µs vs sync "
        f"{sync_stats['p99_us']:.0f}µs)"
    )
    assert background_stats["max_us"] < sync_stats["max_us"]
