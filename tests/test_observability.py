"""Observability suite: the metrics registry, per-query tracing, the
slow-query log, and the wire/shard propagation of both.

Covers the invariants the layer promises:

* the registry is exact under concurrent increments (scaled by
  ``REPRO_STRESS_OPS``) and renders valid Prometheus text exposition;
* every executed plan node appears in the span tree exactly once, with real
  per-operator timings, for both executors;
* background flush/merge I/O is attributed to ``source="maintenance"`` and
  never claimed by a query's I/O attribution;
* the slow-query log triggers on threshold and writes parseable JSON lines;
* ``query_id`` rides wire done/error frames, and a coordinator stitches 1/2/4
  shards' span trees into one tree under its scatter span.

The shard tests run real in-process wire servers (one per shard, each with
its own datastore) rather than subprocesses — stitching is a protocol
property, not a process-isolation one, and this keeps the suite fast.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.net.client import RemoteError
from repro.net.server import SessionHandler
from repro.obs import (
    METRIC_CATALOG,
    MetricsError,
    MetricsRegistry,
    QueryTrace,
    SlowQueryLog,
    activate,
    annotate,
    current_io_source,
    current_trace,
    io_source,
    maintenance_io,
    record_span,
    render_trace,
    render_trace_dict,
    span,
)
from repro.store import Datastore, StoreConfig

from conftest import ServerThread, ShardRig

STRESS_OPS = int(os.environ.get("REPRO_STRESS_OPS", "250"))

DOCS = [{"id": i, "g": i % 4, "v": float(i)} for i in range(160)]

GROUP_QUERY = (
    "SELECT t.g AS g, COUNT(*) AS n FROM d AS t "
    "WHERE t.v >= 0 GROUP BY t.g ORDER BY g LIMIT 3;"
)


def make_store(**overrides) -> Datastore:
    config = StoreConfig(partitions_per_node=1, **overrides)
    store = Datastore(config)
    store.create_dataset("d", layout="amax", primary_key_field="id")
    store.dataset("d").insert_many(DOCS)
    return store


# ======================================================================================
# Metrics registry
# ======================================================================================


def test_counter_inc_and_get_value():
    registry = MetricsRegistry()
    family = registry.counter("repro_wal_appends_total")
    family.inc()
    family.inc(4)
    assert registry.get_value("repro_wal_appends_total") == 5


def test_labeled_counter_children_are_independent():
    registry = MetricsRegistry()
    family = registry.counter("repro_cache_requests_total")
    family.labels(result="hit").inc(3)
    family.labels(result="miss").inc()
    assert registry.get_value("repro_cache_requests_total", result="hit") == 3
    assert registry.get_value("repro_cache_requests_total", result="miss") == 1


def test_histogram_buckets_sum_count_and_quantiles():
    registry = MetricsRegistry()
    hist = registry.histogram("repro_query_seconds").labels(executor="batch")
    for value in (0.0001, 0.002, 0.002, 0.3, 20.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.sum == pytest.approx(20.3041)
    # Per-bucket counts: 0.0001 lands in the first bucket, 20.0 in +Inf.
    assert hist.bucket_counts[0] == 1
    assert hist.bucket_counts[-1] == 1
    assert sum(hist.bucket_counts) == 5
    assert hist.p50 <= hist.p99


def test_undeclared_metric_name_rejected():
    registry = MetricsRegistry()
    with pytest.raises(MetricsError):
        registry.counter("repro_not_in_catalog_total")


def test_metric_kind_mismatch_rejected():
    registry = MetricsRegistry()
    with pytest.raises(MetricsError):
        registry.gauge("repro_wal_appends_total")  # declared as a counter


def test_wrong_label_names_rejected():
    registry = MetricsRegistry()
    with pytest.raises(MetricsError):
        registry.counter("repro_cache_requests_total").labels(outcome="hit")
    with pytest.raises(MetricsError):
        registry.counter("repro_cache_requests_total")._unlabeled()


def test_disabled_registry_is_inert():
    registry = MetricsRegistry(enabled=False)
    noop = registry.counter("repro_wal_appends_total")
    noop.inc()  # no catalog check, no state
    assert registry.counter("anything_goes").labels(x="y") is not None
    assert registry.get_value("repro_wal_appends_total") == 0.0
    assert registry.render_text() == "# observability disabled\n"


def test_callback_instruments_read_live_values():
    registry = MetricsRegistry()
    depth = {"value": 0}
    registry.register_callback(
        "repro_background_queue_depth", lambda: depth["value"]
    )
    assert registry.get_value("repro_background_queue_depth") == 0
    depth["value"] = 7
    assert registry.get_value("repro_background_queue_depth") == 7
    assert "repro_background_queue_depth 7" in registry.render_text()


def test_registry_exact_under_concurrent_increments():
    registry = MetricsRegistry()
    counter = registry.counter("repro_wal_appends_total")
    pages = registry.counter("repro_io_pages_total")
    hist = registry.histogram("repro_query_seconds")
    workers = 8
    barrier = threading.Barrier(workers)

    def work() -> None:
        barrier.wait()
        for i in range(STRESS_OPS):
            counter.inc()
            pages.labels(
                op="read" if i % 2 else "write",
                source="query" if i % 3 else "maintenance",
            ).inc(2)
            hist.labels(executor="batch").observe(0.001 * (i % 5))

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.get_value("repro_wal_appends_total") == workers * STRESS_OPS
    total_pages = sum(
        registry.get_value("repro_io_pages_total", op=op, source=source)
        for op in ("read", "write")
        for source in ("query", "maintenance")
    )
    assert total_pages == 2 * workers * STRESS_OPS
    assert (
        registry.histogram("repro_query_seconds").labels(executor="batch").count
        == workers * STRESS_OPS
    )


def test_prometheus_text_exposition_format():
    registry = MetricsRegistry()
    registry.counter("repro_wal_appends_total").inc(3)
    registry.counter("repro_cache_requests_total").labels(result="hit").inc(2)
    registry.gauge("repro_background_queue_depth").set(1)
    registry.histogram("repro_flush_seconds").labels(
        dataset="d", layout="amax"
    ).observe(0.003)
    text = registry.render_text()
    lines = text.splitlines()
    # HELP/TYPE headers precede samples, families render in sorted order.
    for name in (
        "repro_background_queue_depth",
        "repro_cache_requests_total",
        "repro_flush_seconds",
        "repro_wal_appends_total",
    ):
        assert f"# HELP {name} {METRIC_CATALOG[name].help}" in lines
        assert any(line.startswith(f"# TYPE {name} ") for line in lines)
    assert "repro_wal_appends_total 3" in lines
    assert 'repro_cache_requests_total{result="hit"} 2' in lines
    assert "repro_background_queue_depth 1" in lines
    # Histogram exposition: cumulative buckets up to +Inf, then sum/count.
    assert (
        'repro_flush_seconds_bucket{dataset="d",layout="amax",le="0.005"} 1'
        in lines
    )
    assert (
        'repro_flush_seconds_bucket{dataset="d",layout="amax",le="+Inf"} 1'
        in lines
    )
    assert 'repro_flush_seconds_count{dataset="d",layout="amax"} 1' in lines
    assert text.index("# HELP repro_background_queue_depth") < text.index(
        "# HELP repro_wal_appends_total"
    )


# ======================================================================================
# Tracing
# ======================================================================================


def _span_names(node, out=None):
    out = out if out is not None else []
    out.append(node.name)
    for child in node.children:
        _span_names(child, out)
    return out


def _find_spans(node, name, out=None):
    out = out if out is not None else []
    if node.name == name:
        out.append(node)
    for child in node.children:
        _find_spans(child, name, out)
    return out


@pytest.mark.parametrize("executor", ["interpreted", "batch"])
def test_span_tree_covers_every_plan_node_exactly_once(executor):
    store = make_store()
    try:
        rows = store.query(GROUP_QUERY, executor=executor)
        assert len(rows) == 3
        trace = store.last_trace
        assert trace is not None
        names = _span_names(trace.root)
        # The statement phases, each exactly once.
        for phase in ("statement", "parse", "bind", "optimize", "execute",
                      "prepare"):
            assert names.count(phase) == 1, (executor, phase, names)
        # Every plan node exactly once: scan, filter, group, order, limit.
        for node_name in ("DataScanNode", "FilterNode", "GroupByNode",
                          "OrderByNode", "LimitNode"):
            assert names.count(node_name) == 1, (executor, node_name, names)
        (scan,) = _find_spans(trace.root, "DataScanNode")
        assert scan.attrs["rows_out"] == len(DOCS)
        (group,) = _find_spans(trace.root, "GroupByNode")
        assert group.attrs["rows_out"] == 4
        (limit,) = _find_spans(trace.root, "LimitNode")
        assert limit.attrs["rows_out"] == 3
        (execute,) = _find_spans(trace.root, "execute")
        assert execute.attrs["executor"] == executor
        assert execute.attrs["rows_out"] == 3
        # Pipeline operators are timed for real: no zero-duration markers.
        (filter_span,) = _find_spans(trace.root, "FilterNode")
        assert filter_span.duration_s > 0
        assert "fused" not in json.dumps(trace.to_dict())
    finally:
        store.close()


def test_scan_span_says_what_the_batch_scan_did(monkeypatch):
    from repro.query import batch_executor

    store = Datastore(StoreConfig(partitions_per_node=3))
    try:
        dataset = store.create_dataset("d", layout="amax")
        dataset.insert_many(DOCS)
        dataset.flush_all()
        dataset.insert({"id": 3, "g": 3, "v": 3.5})  # upsert of a flushed key
        dataset.insert({"id": 1000, "g": 0, "v": 1.0})
        text = "SELECT COUNT(*) AS n, MAX(t.v) AS hi FROM d AS t WHERE t.v >= 0;"
        assert store.query(text) == [{"n": len(DOCS) + 1, "hi": 159.0}]
        (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
        assert scan.attrs["scan_mode"] == "direct"
        assert (scan.attrs["overlay_rows"], scan.attrs["shadowed_rows"]) == (2, 1)
        assert "fallback_reason" not in scan.attrs

        # Every distinct per-partition reason, sorted — not just the first.
        verdicts = iter([(None, "schema"), ([], None), (None, "layout")])
        monkeypatch.setattr(
            batch_executor, "_direct_components", lambda snapshot, spec: next(verdicts)
        )
        store.query(text)
        (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
        assert scan.attrs["scan_mode"] == "reconciled"
        assert scan.attrs["fallback_reason"] == "layout,schema"
        assert "overlay_rows" not in scan.attrs
    finally:
        store.close()


def test_trace_roundtrips_through_dict_and_renders():
    store = make_store()
    try:
        store.query(GROUP_QUERY)
        trace = store.last_trace
        rehydrated = QueryTrace.from_dict(trace.to_dict())
        assert rehydrated.query_id == trace.query_id
        assert _span_names(rehydrated.root) == _span_names(trace.root)
        rendering = render_trace(trace)
        assert rendering.startswith(f"TRACE {trace.query_id}")
        assert "execute" in rendering and "DataScanNode" in rendering
        assert render_trace_dict(trace.to_dict()) == rendering
    finally:
        store.close()


def test_traced_statement_is_reentrant():
    store = make_store()
    try:
        with store.traced_statement("outer") as outer:
            with store.traced_statement("inner") as inner:
                assert inner is outer
            assert current_trace() is outer
    finally:
        store.close()


def test_span_helpers_are_noops_without_active_trace():
    assert current_trace() is None
    with span("orphan") as node:
        assert node is None
    assert record_span("orphan", 1.0) is None
    annotate(rows_out=1)  # must not raise


def test_explain_analyze_appends_trace():
    store = make_store()
    try:
        rendering = store.explain(GROUP_QUERY, analyze=True)
        assert "ANALYZE TRACE:" in rendering
        assert "DataScanNode" in rendering.split("ANALYZE TRACE:")[1]
    finally:
        store.close()


def test_observability_off_disables_tracing_and_metrics():
    store = make_store(observability=False)
    try:
        with store.traced_statement("SELECT 1;") as trace:
            assert trace is None
        store.query(GROUP_QUERY)
        assert store.last_trace is None
        assert store.metrics_text() == "# observability disabled\n"
    finally:
        store.close()


# ======================================================================================
# I/O source attribution
# ======================================================================================


def test_io_source_context_nests_and_restores():
    assert current_io_source() == "query"
    with maintenance_io():
        assert current_io_source() == "maintenance"
        with io_source("query"):
            assert current_io_source() == "query"
        assert current_io_source() == "maintenance"
    assert current_io_source() == "query"


def test_flush_and_merge_io_is_maintenance_not_query():
    store = make_store()
    try:
        store.dataset("d").flush_all()
        metrics = store.metrics
        assert (
            metrics.get_value(
                "repro_io_pages_total", op="write", source="maintenance"
            )
            > 0
        )
        # Queries never claim background-build I/O.
        assert (
            metrics.get_value("repro_io_pages_total", op="write", source="query")
            == 0
        )
        read_before = metrics.get_value(
            "repro_io_pages_total", op="read", source="query"
        )
        maintenance_reads = metrics.get_value(
            "repro_io_pages_total", op="read", source="maintenance"
        )
        store.query("SELECT COUNT(*) AS n FROM d AS t WHERE t.v >= 0;")
        assert (
            metrics.get_value("repro_io_pages_total", op="read", source="query")
            > read_before
        )
        assert (
            metrics.get_value(
                "repro_io_pages_total", op="read", source="maintenance"
            )
            == maintenance_reads
        )
        io_attribution = store.last_trace.root.attrs["io"]
        assert io_attribution["pages_read"] > 0
    finally:
        store.close()


def test_wal_metrics_count_durable_appends(tmp_path):
    store = Datastore(
        StoreConfig(partitions_per_node=1, storage_directory=str(tmp_path))
    )
    try:
        store.create_dataset("d", layout="amax", primary_key_field="id")
        store.dataset("d").insert_many(DOCS[:20])
        text = store.metrics_text()
        appends = store.metrics.get_value("repro_wal_appends_total")
        assert appends >= 20
        assert store.metrics.get_value("repro_wal_bytes_total") > 0
        assert f"repro_wal_appends_total {int(appends)}" in text
    finally:
        store.close()


def _rendered_samples(text: str) -> dict:
    """``{"name{labels}": value}`` for every sample line of an exposition."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            assert series not in samples, series  # each series rendered once
            samples[series] = float(value)
    return samples


def _storage_owners(store: Datastore) -> dict:
    """Each storage series the registry renders, and the count that owns it."""
    owners = {}
    for source, stats in store.device.stats_by_source.items():
        for op, suffix in (("read", "read"), ("write", "written")):
            labels = f'{{op="{op}",source="{source}"}}'
            owners["repro_io_pages_total" + labels] = getattr(stats, f"pages_{suffix}")
            owners["repro_io_bytes_total" + labels] = getattr(stats, f"bytes_{suffix}")
    io = store.io_snapshot()
    owners["repro_wal_appends_total"] = io.wal_appends
    owners["repro_wal_bytes_total"] = io.wal_bytes_written
    # On-disk logs flush every append to the OS.
    owners["repro_wal_fsyncs_total"] = io.wal_appends
    cache = store.buffer_cache
    owners['repro_cache_requests_total{result="hit"}'] = cache.hits
    owners['repro_cache_requests_total{result="miss"}'] = cache.misses
    owners["repro_cache_evictions_total"] = cache.evictions
    return owners


def test_storage_series_render_the_counts_storage_owns(tmp_path):
    store = Datastore(StoreConfig(
        partitions_per_node=2,
        page_size=4096,
        memory_component_budget=8 * 1024,
        max_tolerable_components=2,
        buffer_cache_pages=2,
        background_workers=1,
        storage_directory=str(tmp_path),
    ))
    try:
        store.create_dataset("d", layout="amax", primary_key_field="id")
        dataset = store.dataset("d")
        dataset.insert_many(
            {"id": i, "g": i % 4, "v": float(i), "s": "x" * (i % 50)}
            for i in range(1500)
        )
        dataset.flush_all()
        store.drain_background()
        assert sum(tree.merge_count for tree in dataset.partitions) > 0
        for _ in range(2):
            store.query(GROUP_QUERY)
            store.query("SELECT COUNT(*) AS n FROM d AS t WHERE t.v >= 10;")
        for key in (1, 700, 1499, 5000):
            dataset.point_lookup(key)
        store.drain_background()

        samples = _rendered_samples(store.metrics_text())
        owners = _storage_owners(store)
        assert len(owners) == 14
        for series, count in owners.items():
            assert samples[series] == count, series
        rendered = {
            series for series in samples
            if series.startswith(("repro_io_", "repro_wal_", "repro_cache_"))
        }
        assert rendered == set(owners)
        # Every kind of event happened, so the equalities above are not 0 == 0.
        by_source = store.device.stats_by_source
        assert by_source["maintenance"].pages_written > 0
        assert by_source["maintenance"].pages_read > 0  # merges read components
        assert by_source["query"].pages_read > 0
        cache = store.buffer_cache
        assert cache.hits > 0 and cache.misses > 0 and cache.evictions > 0
        # The store surface sums the same counts.
        io = store.io_snapshot()
        assert io.pages_read == sum(s.pages_read for s in by_source.values())
        assert io.pages_written == sum(s.pages_written for s in by_source.values())
        assert (io.cache_hits, io.cache_misses) == (cache.hits, cache.misses)
        assert io.wal_appends >= 1500
    finally:
        store.close()


def test_storage_counts_keep_running_with_observability_off():
    store = make_store(observability=False)
    try:
        before = store.io_snapshot()
        store.dataset("d").flush_all()
        store.query("SELECT COUNT(*) AS n FROM d AS t WHERE t.v >= 0;")
        delta = store.io_snapshot().delta_since(before)
        assert delta.pages_written > 0
        assert delta.pages_read + delta.cache_hits > 0
        text = store.explain(
            "SELECT t.id AS id FROM d AS t WHERE t.v >= 100;", analyze=True
        )
        pages = [
            int(line.split(":")[1])
            for line in text.splitlines()
            if "actual pages read:" in line
        ]
        assert pages and max(pages) > 0
        assert store.metrics_text() == "# observability disabled\n"
    finally:
        store.close()


def test_engine_metrics_text_exposes_every_subsystem():
    # Background workers so the scheduler's callback gauges are registered.
    store = make_store(background_workers=1)
    try:
        store.dataset("d").flush_all()
        store.query(GROUP_QUERY)
        text = store.metrics_text()
        for name in (
            "repro_wal_appends_total",
            "repro_io_pages_total",
            "repro_cache_requests_total",
            "repro_memtable_rotations_total",
            "repro_flush_seconds",
            "repro_background_queue_depth",
            "repro_background_tasks_total",
            "repro_queries_total",
            "repro_query_seconds",
        ):
            assert name in text, name
        assert 'repro_queries_total{executor="batch"} 1' in text
    finally:
        store.close()


# ======================================================================================
# Slow-query log
# ======================================================================================


def test_slow_query_log_triggers_and_writes_json_lines(tmp_path):
    path = tmp_path / "slow.jsonl"
    store = make_store(slow_query_log_s=0.0, slow_query_log_path=str(path))
    try:
        store.query(GROUP_QUERY)
        store.query("SELECT COUNT(*) AS n FROM d AS t;")
        entries = store.slow_log.entries()
        assert len(entries) == 2
        assert store.metrics.get_value("repro_slow_queries_total") == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line, entry in zip(lines, entries):
            decoded = json.loads(line)
            assert decoded == entry
            assert decoded["query_id"]
            assert set(decoded) >= {
                "query_id", "text", "duration_s", "executor", "io", "trace",
            }
            assert decoded["trace"]["name"] == "statement"
        assert entries[0]["text"] == GROUP_QUERY
    finally:
        store.close()


def test_slow_query_log_respects_threshold():
    store = make_store(slow_query_log_s=30.0)
    try:
        store.query(GROUP_QUERY)
        assert store.slow_log.entries() == []
        assert store.metrics.get_value("repro_slow_queries_total") == 0
    finally:
        store.close()


def test_slow_query_log_disabled_without_threshold():
    log = SlowQueryLog(threshold_s=None)
    assert not log.should_log(999.0)
    log = SlowQueryLog(threshold_s=0.5)
    assert log.should_log(0.5) and not log.should_log(0.4)


def test_slow_query_log_capacity_bounds_memory():
    log = SlowQueryLog(threshold_s=0.0, capacity=3)
    for i in range(10):
        log.record({"i": i})
    kept = log.entries()
    assert [entry["i"] for entry in kept] == [7, 8, 9]


def test_config_rejects_bad_slow_query_settings():
    with pytest.raises(ValueError):
        StoreConfig(slow_query_log_s=-1.0).validate()
    with pytest.raises(ValueError):
        StoreConfig(slow_query_log_path="/tmp/x.jsonl").validate()


# ======================================================================================
# Wire propagation (in-process server harness)
# ======================================================================================


@pytest.fixture()
def engine_server():
    store = make_store()
    server = ServerThread(store, backend_close=store.close, metrics=store.metrics)
    yield server
    if server.thread.is_alive():
        server.stop()


def test_done_frame_carries_query_id(engine_server):
    with engine_server.connect() as client:
        result = client.statement("SELECT COUNT(*) AS n FROM d AS t;")
        assert result.query_id  # server-minted
        result = client.statement(
            "SELECT COUNT(*) AS n FROM d AS t;", query_id="cafe0123beef"
        )
        assert result.query_id == "cafe0123beef"


def test_trace_rides_done_frame_on_request(engine_server):
    with engine_server.connect() as client:
        untraced = client.statement("SELECT COUNT(*) AS n FROM d AS t;")
        assert untraced.trace is None
        traced = client.statement(
            GROUP_QUERY, trace=True, query_id="cafe0123beef"
        )
        assert traced.trace is not None
        assert traced.trace["query_id"] == "cafe0123beef"
        names = []

        def walk(node):
            names.append(node["name"])
            for child in node.get("children", ()):
                walk(child)

        walk(traced.trace["root"])
        for expected in ("statement", "parse", "bind", "optimize", "execute",
                         "DataScanNode", "GroupByNode"):
            assert expected in names


def test_error_frame_carries_query_id(engine_server):
    with engine_server.connect() as client:
        with pytest.raises(RemoteError) as excinfo:
            client.statement(
                "SELECT * FROM nosuch AS t;", query_id="deadbeef0000"
            )
        assert excinfo.value.query_id == "deadbeef0000"
        assert excinfo.value.code != "ConnectionError"


def test_metrics_op_returns_prometheus_text_with_wire_counters(engine_server):
    with engine_server.connect() as client:
        client.statement("SELECT COUNT(*) AS n FROM d AS t;")
        text = client.metrics()
        assert '# TYPE repro_wire_frames_total counter' in text
        assert 'repro_wire_frames_total{direction="in"}' in text
        assert 'repro_wire_bytes_total{direction="out"}' in text
        assert "repro_queries_total" in text


# ======================================================================================
# Cross-shard stitching
# ======================================================================================


@pytest.fixture(params=[1, 2, 4], ids=["1shard", "2shards", "4shards"])
def shard_rig(request):
    rig = ShardRig(request.param)
    try:
        rig.sharded.create_dataset("d", layout="amax", primary_key_field="id")
        rig.sharded.dataset("d").insert_many(DOCS)
        yield request.param, rig
    finally:
        rig.close()


def test_coordinator_stitches_one_tree_across_shards(shard_rig):
    num_shards, rig = shard_rig
    rows = rig.sharded.query(
        "SELECT t.g AS g, COUNT(*) AS n FROM d AS t GROUP BY t.g ORDER BY g;"
    )
    assert len(rows) == 4 and sum(row["n"] for row in rows) == len(DOCS)
    trace = rig.sharded.last_trace
    assert trace is not None
    (scatter,) = _find_spans(trace.root, "scatter")
    shard_spans = _find_spans(scatter, "shard")
    assert len(shard_spans) == num_shards
    assert sorted(node.attrs["shard"] for node in shard_spans) == list(
        range(num_shards)
    )
    # Every shard's subtree holds its execute span with per-operator counts.
    executes = _find_spans(scatter, "execute")
    assert len(executes) == num_shards
    scans = _find_spans(scatter, "DataScanNode")
    assert sum(node.attrs["rows_out"] for node in scans) == len(DOCS)
    (merge,) = _find_spans(trace.root, "merge")
    assert merge.attrs["rows_out"] == 4
    assert merge.attrs["rows_in"] == sum(
        node.attrs["rows_out"] for node in _find_spans(scatter, "GroupByNode")
    )
    # One tree: shard statement roots share the coordinator's query_id.
    assert _span_names(trace.root).count("statement") == 1


def test_distributed_explain_analyze_renders_stitched_tree(shard_rig):
    num_shards, rig = shard_rig
    rendering = rig.sharded.explain(
        "SELECT t.g AS g, COUNT(*) AS n FROM d AS t GROUP BY t.g ORDER BY g;",
        analyze=True,
    )
    assert "ANALYZE TRACE:" in rendering
    stitched = rendering.split("ANALYZE TRACE:")[1]
    assert stitched.count("shard  ") == num_shards
    assert stitched.count("execute ") == num_shards
    assert stitched.count("DataScanNode") == num_shards
    assert "merge" in stitched
    assert "rows_out=4" in stitched


def test_coordinator_metrics_count_per_shard_transfers(shard_rig):
    num_shards, rig = shard_rig
    rig.sharded.query("SELECT t.g AS g, COUNT(*) AS n FROM d AS t GROUP BY t.g;")
    text = rig.sharded.metrics_text()
    for shard in range(num_shards):
        assert f'repro_shard_requests_total{{shard="{shard}"}}' in text
        assert (
            rig.sharded.metrics.get_value(
                "repro_shard_rows_transferred_total", shard=str(shard)
            )
            >= 1  # at least the shard's partial-aggregate rows
        )
    assert 'repro_queries_total{executor="batch"} 1' in text


def test_coordinator_handler_propagates_query_id_and_trace(shard_rig):
    _, rig = shard_rig
    handler = SessionHandler(rig.sharded)
    rows, done = handler.handle(
        {
            "op": "statement",
            "text": "SELECT COUNT(*) AS n FROM d AS t;",
            "trace": True,
            "query_id": "beadfeed0123",
        }
    )
    assert rows == [{"n": len(DOCS)}]
    assert done["query_id"] == "beadfeed0123"
    assert done["trace"]["query_id"] == "beadfeed0123"
    assert done["trace"]["root"]["name"] == "statement"
    _, metrics_done = handler.handle({"op": "metrics"})
    assert "repro_shard_requests_total" in metrics_done["text"]


def test_shard_query_ids_propagate_from_coordinator(shard_rig):
    num_shards, rig = shard_rig
    rig.sharded.query(
        "SELECT COUNT(*) AS n FROM d AS t;", query_id="feedface5678"
    )
    assert rig.sharded.last_trace.query_id == "feedface5678"
    # Every shard's slowest path — its own last_trace — carries the same id.
    for store in rig.stores:
        assert store.last_trace is not None
        assert store.last_trace.query_id == "feedface5678"
