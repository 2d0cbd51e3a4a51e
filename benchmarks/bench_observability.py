"""Observability overhead: metrics + tracing must cost under 5%.

The obs layer is on by default, so its cost is part of every number this
suite reports.  Two workloads bracket the exposure:

* **Engine queries** — the Figure-14 aggregate suite (COUNT(*), filtered
  COUNT) over the cell dataset, run through ``Datastore.query`` in three
  modes: observability off, metrics-only (plan executed outside a traced
  statement, so spans no-op but device/cache counters tick), and fully
  traced (per-operator span tree recorded).
* **Sharded ingest + scatter-gather** — two in-process shard servers behind
  a coordinator, bulk insert plus distributed aggregates, observability on
  (wire counters, per-shard counters, stitched traces) vs. off end to end.

Timings are best-of-``ROUNDS`` over a multi-repetition inner loop, so the
<5% bar is compared on stable numbers; a small absolute slack absorbs
scheduler jitter at these millisecond scales.  Results land in
``BENCH_observability.json``.
"""

from __future__ import annotations

import threading
import time

from repro.bench.reporting import print_figure, write_bench_json
from repro.datasets.generators import make_generator
from repro.net.server import SessionHandler, WireServer
from repro.query.executor import DEFAULT_EXECUTOR
from repro.shard.coordinator import ShardedDatastore
from repro.store import Datastore, StoreConfig

RECORDS = 4000
ROUNDS = 5
REPETITIONS = 3

#: The Figure-14 aggregate suite as SQL++ text, so both the traced
#: (``Datastore.query``) and untraced (``Query.execute``) paths run the
#: exact same statements.
AGGREGATE_SQL = (
    "SELECT COUNT(*) AS n FROM cell AS c;",
    "SELECT COUNT(*) AS n FROM cell AS c WHERE c.duration >= 600;",
    # Q2's top-k group-by keeps the suite from degenerating into metadata
    # shortcuts (COUNT(*) under AMAX reads only Page 0), so the fixed
    # per-statement tracing cost is measured against real execution time.
    "SELECT c.caller AS caller, MAX(c.duration) AS m FROM cell AS c "
    "GROUP BY c.caller ORDER BY m DESC LIMIT 10;",
)

#: Generous bar: ratio under 1.05 (the <5% promise) with one millisecond of
#: absolute slack per measured suite so sub-ms scheduler noise cannot flake
#: the assertion at these scales.
MAX_OVERHEAD_RATIO = 1.05
ABS_SLACK_S = 0.001


def _load_store(observability: bool) -> Datastore:
    config = StoreConfig(
        partitions_per_node=1,
        compression="none",
        observability=observability,
    )
    store = Datastore(config)
    dataset = store.create_dataset("cell", layout="amax")
    dataset.insert_many(make_generator("cell", RECORDS, seed=13))
    dataset.flush_all()
    return store


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(REPETITIONS):
            fn()
        best = min(best, (time.perf_counter() - start) / REPETITIONS)
    return best


# ======================================================================================
# Engine queries: off vs metrics-only vs fully traced
# ======================================================================================


def test_query_overhead_under_5_percent(benchmark):
    from repro.sqlpp import compile_query

    store_off = _load_store(observability=False)
    store_on = _load_store(observability=True)
    compiled = [compile_query(text) for text in AGGREGATE_SQL]

    def suite_off():
        for text in AGGREGATE_SQL:
            store_off.query(text)

    def suite_metrics_only():
        # Straight plan execution: device/cache counters tick, spans no-op.
        for query in compiled:
            query.execute(store_on)

    def suite_traced():
        for text in AGGREGATE_SQL:
            store_on.query(text)

    def run():
        for suite in (suite_off, suite_metrics_only, suite_traced):
            suite()  # warm-up: caches, lazy imports
        return {
            "off_s": _best_of(suite_off),
            "metrics_only_s": _best_of(suite_metrics_only),
            "traced_s": _best_of(suite_traced),
        }

    try:
        results = benchmark.pedantic(run, rounds=1, iterations=1)
        # Sanity: the traced runs actually recorded a full span tree.
        assert store_on.last_trace is not None
        rendered = store_on.last_trace.render()
        assert "DataScanNode" in rendered
        assert store_on.metrics.get_value(
            "repro_queries_total", executor=DEFAULT_EXECUTOR
        ) > 0
        assert store_off.metrics_text() == "# observability disabled\n"
    finally:
        store_on.close()
        store_off.close()

    overhead = {
        mode: results[f"{mode}_s"] / results["off_s"]
        for mode in ("metrics_only", "traced")
    }
    print_figure(
        "Observability overhead — Figure-14 aggregate suite (default executor)",
        ["mode", "suite seconds", "vs off"],
        [
            ["off", round(results["off_s"], 5), 1.0],
            ["metrics only", round(results["metrics_only_s"], 5),
             round(overhead["metrics_only"], 3)],
            ["traced", round(results["traced_s"], 5),
             round(overhead["traced"], 3)],
        ],
    )
    write_bench_json(
        "observability",
        "engine_queries",
        {
            **{key: round(value, 6) for key, value in results.items()},
            "overhead_ratio": {
                mode: round(ratio, 4) for mode, ratio in overhead.items()
            },
            "records": RECORDS,
            "queries": list(AGGREGATE_SQL),
        },
    )
    bar = results["off_s"] * MAX_OVERHEAD_RATIO + ABS_SLACK_S
    assert results["metrics_only_s"] <= bar, (results, overhead)
    assert results["traced_s"] <= bar, (results, overhead)


# ======================================================================================
# Sharded ingest + scatter-gather: observability on vs off, end to end
# ======================================================================================


class _ServerThread:
    """One in-process engine shard on a daemon thread."""

    def __init__(self, store: Datastore) -> None:
        import asyncio

        self.server = WireServer(
            lambda: SessionHandler(store), metrics=store.metrics
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
        assert started.wait(10)

    @property
    def address(self):
        return self.server.bound_host, self.server.bound_port

    def stop(self) -> None:
        self.server.request_shutdown("bench teardown")
        self.thread.join(20)


def _run_sharded(observability: bool, documents) -> dict:
    stores = [
        Datastore(
            StoreConfig(
                partitions_per_node=1,
                compression="none",
                observability=observability,
            )
        )
        for _ in range(2)
    ]
    servers = [_ServerThread(store) for store in stores]
    sharded = ShardedDatastore(
        [server.address for server in servers], observability=observability
    )
    try:
        sharded.create_dataset("cell", layout="amax", primary_key_field="id")
        start = time.perf_counter()
        inserted = sharded.dataset("cell").insert_many(documents)
        load_s = time.perf_counter() - start
        assert inserted == len(documents)
        for text in AGGREGATE_SQL:  # warm-up
            sharded.query(text)
        query_s = _best_of(
            lambda: [sharded.query(text) for text in AGGREGATE_SQL]
        )
        if observability:
            assert sharded.last_trace is not None
            assert "repro_shard_requests_total" in sharded.metrics_text()
        return {"load_s": load_s, "query_s": query_s}
    finally:
        sharded.close()
        for server in servers:
            server.stop()
        for store in stores:
            store.close()


def test_sharded_overhead_under_5_percent(benchmark):
    documents = [
        dict(document, id=i)
        for i, document in enumerate(make_generator("cell", RECORDS, seed=13))
    ]

    def run():
        return {
            "off": _run_sharded(False, documents),
            "on": _run_sharded(True, documents),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    ratios = {
        phase: results["on"][f"{phase}_s"] / results["off"][f"{phase}_s"]
        for phase in ("load", "query")
    }
    print_figure(
        "Observability overhead — 2-shard ingest + scatter-gather",
        ["mode", "load (s)", "query suite (s)"],
        [
            ["off", round(results["off"]["load_s"], 4),
             round(results["off"]["query_s"], 5)],
            ["on", round(results["on"]["load_s"], 4),
             round(results["on"]["query_s"], 5)],
            ["ratio", round(ratios["load"], 3), round(ratios["query"], 3)],
        ],
    )
    write_bench_json(
        "observability",
        "sharded_ingest",
        {
            "off": {key: round(value, 6) for key, value in results["off"].items()},
            "on": {key: round(value, 6) for key, value in results["on"].items()},
            "overhead_ratio": {
                phase: round(ratio, 4) for phase, ratio in ratios.items()
            },
            "records": RECORDS,
        },
        shards=2,
    )
    # Bulk load crosses the wire thousands of times; give the one-shot load
    # phase the same 5% bar but a proportionally larger absolute slack, and
    # hold the repeated-measure query phase to the tight bar.
    assert results["on"]["load_s"] <= (
        results["off"]["load_s"] * MAX_OVERHEAD_RATIO + 0.25
    ), results
    assert results["on"]["query_s"] <= (
        results["off"]["query_s"] * MAX_OVERHEAD_RATIO + ABS_SLACK_S
    ), results
