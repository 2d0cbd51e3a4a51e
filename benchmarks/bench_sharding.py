"""Sharding benchmarks: scatter-gather scaling and wire-frontend concurrency.

Two claims the distribution layer must back up:

* **Do aggregate queries scale with shards?**  Each shard runs the pushed-down
  partial-aggregate fragment over its own slice of the data, so a cluster
  of N engine *processes* overlaps N slices of real page reads and decode
  work — overlap that needs as many free cores as shards.
* **Does the asyncio frontend sustain 100+ concurrent clients?**  One
  in-process server multiplexes 100 blocking clients, each running a small
  insert/aggregate mix; the bench records throughput and tail latency and
  requires zero transport or statement errors.

Timings land in ``BENCH_shard_scaling.json`` (one section per shard count,
plus ``client_scaling``), each annotated with the ``shards``/``clients`` it
was measured under.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from repro.bench.reporting import print_figure, write_bench_json
from repro.datasets.generators import make_generator
from repro.net.client import WireClient
from repro.net.server import SessionHandler, WireServer
from repro.shard.coordinator import ShardCluster
from repro.store import Datastore, StoreConfig

SHARD_COUNTS = [1, 2, 4]
SHARD_RECORDS = 3000
QUERY_ROUNDS = 4

#: Per-shard store settings: small pages + a tiny cache make the aggregate
#: scan touch many pages.
SHARD_STORE_CONFIG = {
    "page_size": 4096,
    "buffer_cache_pages": 16,
    "compression": "none",
    "partitions_per_node": 1,
    "memory_component_budget": 256 * 1024,
}

#: Figure 11-style aggregates: a full-scan AVG/MAX and a filtered COUNT —
#: all fully pushed down, so shards ship one partial row each.
SHARD_QUERIES = [
    "SELECT AVG(c.duration) AS avg_duration, MAX(c.signal) AS max_signal "
    "FROM calls AS c;",
    "SELECT COUNT(*) AS n FROM calls AS c WHERE c.duration >= 600;",
]

CLIENTS = 100
STATEMENTS_PER_CLIENT = 6


def _percentile(sorted_values, fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(len(sorted_values) * fraction))
    return sorted_values[index]


# ======================================================================================
# Scatter-gather scaling over 1 / 2 / 4 shard processes
# ======================================================================================


def _run_cluster(num_shards: int, data_root: str, documents) -> dict:
    server_args = ["--config-json", json.dumps(SHARD_STORE_CONFIG)]
    with ShardCluster(num_shards, data_root, server_args=server_args) as cluster:
        with cluster.connect() as sharded:
            sharded.create_dataset("calls", layout="amax")
            start = time.perf_counter()
            inserted = sharded.dataset("calls").insert_many(documents)
            sharded.checkpoint()  # flush so queries scan real pages
            load_s = time.perf_counter() - start
            assert inserted == len(documents)

            for text in SHARD_QUERIES:  # warm the buffer caches once
                sharded.query(text)
            answers = []
            transferred = 0
            start = time.perf_counter()
            for _ in range(QUERY_ROUNDS):
                answers = [sharded.query(text) for text in SHARD_QUERIES]
                # Rows the round's last query moved: its merge span's rows_in.
                transferred += sharded.last_trace.find("merge").attrs["rows_in"]
            query_s = time.perf_counter() - start
    return {
        "load_s": load_s,
        "query_s": query_s,
        "queries": QUERY_ROUNDS * len(SHARD_QUERIES),
        "rows_transferred_per_round": transferred // QUERY_ROUNDS,
        "answers": answers,
    }


def test_scatter_gather_scales_with_shards(benchmark, tmp_path):
    """Ingest + aggregate-query wall time over 1, 2, and 4 shard processes."""
    documents = list(make_generator("cell", SHARD_RECORDS, seed=13))

    def run():
        return {
            num: _run_cluster(num, str(tmp_path / f"cluster-{num}"), documents)
            for num in SHARD_COUNTS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    base = results[SHARD_COUNTS[0]]
    rows = []
    for num, stats in results.items():
        rows.append(
            [
                num,
                round(stats["load_s"], 3),
                round(base["load_s"] / stats["load_s"], 2),
                round(stats["query_s"], 3),
                round(base["query_s"] / stats["query_s"], 2),
                stats["rows_transferred_per_round"],
            ]
        )
        write_bench_json(
            "shard_scaling",
            f"shards_{num}",
            {
                "load_s": stats["load_s"],
                "query_s": stats["query_s"],
                "queries": stats["queries"],
                "queries_per_s": stats["queries"] / stats["query_s"],
                "rows_transferred_per_round": stats["rows_transferred_per_round"],
                "records": SHARD_RECORDS,
            },
            shards=num,
        )
    print_figure(
        f"Shard scaling — {SHARD_RECORDS} cell records, "
        f"{QUERY_ROUNDS}×{len(SHARD_QUERIES)} pushed-down aggregates "
        "(amax, on-disk shards)",
        ["shards", "load s", "load ×", "query s", "query ×", "rows moved/round"],
        rows,
    )

    # Every shard count computes the same answers (pushdown is semantics-free).
    for num in SHARD_COUNTS[1:]:
        assert results[num]["answers"] == base["answers"], (
            f"{num}-shard answers diverged from single-shard"
        )
    # The headline claim: ≥2× aggregate throughput at 4 shards vs 1.
    speedup = base["query_s"] / results[4]["query_s"]
    assert speedup >= 2.0, (
        f"4-shard query phase should be ≥2× the single shard, got {speedup:.2f}×"
    )
    assert results[4]["load_s"] < base["load_s"], (
        "sharded ingest should beat the single shard "
        f"({results[4]['load_s']:.3f}s vs {base['load_s']:.3f}s)"
    )


# ======================================================================================
# Wire frontend under 100 concurrent clients
# ======================================================================================


class _ServerThread:
    """A wire server on a daemon thread (same harness as the net tests)."""

    def __init__(self, store: Datastore) -> None:
        self.server = WireServer(
            lambda: SessionHandler(store), backend_close=store.close
        )
        started = threading.Event()

        def run() -> None:
            async def main() -> None:
                await self.server.start()
                started.set()
                await self.server.wait_closed()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "server did not start"

    @property
    def address(self):
        return self.server.bound_host, self.server.bound_port

    def stop(self) -> None:
        self.server.request_shutdown("bench teardown")
        self.thread.join(30)
        assert not self.thread.is_alive(), "server did not shut down"


def test_wire_frontend_sustains_concurrent_clients(benchmark):
    """100 clients × 6 statements against one in-process asyncio server."""
    store = Datastore(StoreConfig(partitions_per_node=2))
    store.create_dataset("events", layout="amax")
    server = _ServerThread(store)

    def client_worker(base: int, latencies: list, errors: list) -> None:
        try:
            with WireClient(*server.address) as client:
                for i in range(STATEMENTS_PER_CLIENT):
                    if i % 2 == 0:
                        text = (
                            f"INSERT INTO events {{'id': {base + i}, "
                            f"'kind': 'k{i}', 'weight': {i * 1.5}}};"
                        )
                    else:
                        text = "SELECT COUNT(*) AS n FROM events AS e;"
                    t0 = time.perf_counter()
                    client.statement(text)
                    latencies.append(time.perf_counter() - t0)
        except Exception as error:  # noqa: BLE001 - surfaced by the assert
            errors.append(error)

    def run():
        latencies: list = []
        errors: list = []
        threads = [
            threading.Thread(
                target=client_worker, args=(1000 * t, latencies, errors)
            )
            for t in range(CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        total = time.perf_counter() - start
        return latencies, errors, total

    try:
        latencies, errors, total = benchmark.pedantic(run, rounds=1, iterations=1)
        assert not errors, f"{len(errors)} clients failed: {errors[:3]}"
        inserts = CLIENTS * ((STATEMENTS_PER_CLIENT + 1) // 2)
        with WireClient(*server.address) as client:
            rows = client.statement("SELECT COUNT(*) AS n FROM events AS e;").rows
            assert rows == [{"n": inserts}], "lost inserts under concurrency"
    finally:
        if server.thread.is_alive():
            server.stop()

    expected = CLIENTS * STATEMENTS_PER_CLIENT
    assert len(latencies) == expected
    latencies.sort()
    stats = {
        "statements": expected,
        "total_s": total,
        "statements_per_s": expected / total,
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "max_ms": latencies[-1] * 1e3,
        "inserts": inserts,
    }
    write_bench_json("shard_scaling", "client_scaling", stats, clients=CLIENTS)
    print_figure(
        f"Wire frontend — {CLIENTS} concurrent clients, "
        f"{STATEMENTS_PER_CLIENT} statements each (in-memory amax store)",
        ["statements", "total s", "stmt/s", "p50 ms", "p99 ms", "max ms"],
        [
            [
                stats["statements"],
                round(stats["total_s"], 3),
                round(stats["statements_per_s"], 1),
                round(stats["p50_ms"], 2),
                round(stats["p99_ms"], 2),
                round(stats["max_ms"], 2),
            ]
        ],
    )
