"""The four wire-level workloads and the lifecycle they share.

Every workload runs the same life of a store — start, load, serve, crash,
recover, checkpoint — so every end-to-end metric has a value on every
workload; what differs is which phase is the timed one (``--seconds``) and
therefore which layers do the work:

* ``analytics_amax`` / ``analytics_open``: the 14 Figure-14 queries in
  rounds, over columnar vs row-major datasets;
* ``ingest_feed``: closed-loop inserts into an empty columnar dataset;
* ``mixed_serving``: a paced writer beside a closed-loop reader.

One client process, at most two ``WireClient`` connections, every call under
a timeout, every answer checked.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.errors import ReproError
from repro.net.client import StatementResult, WireClient
from repro.shard.coordinator import shard_for_key

from . import inputs, oracle, scrape, stats
from .cluster import Cluster
from .probe import run_probe
from .spans import STATEMENT_LAYERS, SpanRecorder, attribute

SHARDS = 2
#: Common store settings; every other ``StoreConfig`` field keeps the
#: program's default, and the effective config is read back and recorded.
#: ``buffer_cache_pages`` × ``page_size`` (1.5 MiB per shard) sits between the
#: analytics working sets: the pages the 14 queries touch are ~0.9 MiB per
#: shard on the columnar layout (only the columns they need) and ~6 MiB per
#: shard row-major (every page of every dataset).
STORE_CONFIG = {
    "partitions_per_node": 2,
    "page_size": 32768,
    "memory_component_budget": 512 * 1024,
    "compression": "snappy",
    "buffer_cache_pages": 48,
}
CLIENT_TIMEOUT_S = 60.0
#: A run sets up this many times and reports the median as ``setup_s``.
SETUP_REPEATS = 2
#: ``kill -9`` → recovered, this many times; ``recovery_s`` is the median.
RECOVERY_REPEATS = 5

now = time.perf_counter


@dataclass
class Options:
    seed: int
    seconds: float
    traced: bool
    smoke: bool
    work_dir: Path
    source_root: Path
    keep: bool = False
    regen_golden: bool = False


class Ops:
    """Operations attempted and failed (errors, timeouts, wrong answers)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(f"wrong answer: {what}")
        return ok


class Conn:
    """One client connection.  A failed call is a counted failed operation,
    never an exception or a hang: the socket has a timeout, and a connection
    whose stream can no longer be trusted is dropped and reopened lazily."""

    def __init__(self, address: Tuple[str, int], ops: Ops) -> None:
        self.address = address
        self.ops = ops
        self._client: Optional[WireClient] = None

    def request(self, payload: dict) -> Optional[StatementResult]:
        self.ops.attempt()
        try:
            if self._client is None:
                self._client = WireClient(*self.address, timeout=CLIENT_TIMEOUT_S)
            return self._client.request(payload)
        except (ReproError, OSError) as error:
            self.ops.fail(f"{payload.get('op')}: {type(error).__name__}: {error}")
            if getattr(error, "code", "ConnectionError") in (
                "ConnectionError", "ServerShutdown", "WireError",
            ):
                self.close()
            return None

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


class Workload:
    """The shared lifecycle; subclasses fill in the phases."""

    #: Do the workload's statements run inside the timed (scraped) phase?
    timed_statements = True

    def __init__(self, options: Options) -> None:
        self.options = options
        self.ops = Ops()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.recorder = SpanRecorder() if options.traced else None
        self.statements: List[inputs.Statement] = []
        self.expected: Dict[str, dict] = {}
        self.attributions: Dict[str, List[Dict[str, float]]] = defaultdict(list)
        self.first_exec: Dict[str, float] = {}
        self.trace_bytes: List[int] = []
        self.rows_returned = 0
        self.traced_rows = 0
        self.doc_gen_s = 0.0
        self.digest = ""
        # Ingest and statement throughput: set by the phase that measures them.
        self.ingest_docs = 0
        self.ingest_wall = 0.0
        self.sent_user_bytes = 0
        self.statement_count = 0
        self.statement_wall = 0.0
        self.timed_wall = 0.0
        self.timed_ops = 0
        self.timed_rows = 0
        self.writer_lateness: List[float] = []
        # Filled in by run().
        self.server_cpu: Dict[str, float] = {}
        self.metrics_delta: scrape.Samples = {}
        self.replayed_records = 0
        self.disk_bytes = 0
        self.rss_peak_mb = 0.0
        self.client_cpu_fraction = 0.0
        self.probe: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self._rng = random.Random(options.seed * 104729 + 7)
        self._phase: Optional[int] = None  # enclosing span of the calls being made

    # -- subclass API ------------------------------------------------------------------
    def build_inputs(self) -> None:
        raise NotImplementedError

    def load(self, conn: Conn) -> None:
        """Create, preload, checkpoint and warm up: everything ``setup_s`` covers."""
        raise NotImplementedError

    def timed_phase(self, cluster: Cluster, conn: Conn) -> None:
        raise NotImplementedError

    def after_timed(self, conn: Conn) -> None:
        """Measurements on the still-running store that are not the timed phase."""

    def expected_counts(self) -> Dict[str, int]:
        raise NotImplementedError

    def verify_recovered(self, conn: Conn) -> None:
        raise NotImplementedError

    def live_user_bytes(self) -> int:
        raise NotImplementedError

    def probe_inputs(self) -> Tuple[Dict[str, List[dict]], Dict[str, str], List[dict]]:
        """(documents by dataset, scan field by dataset, request frames sent)."""
        raise NotImplementedError

    def check_pinned(self, key: str) -> None:
        self.info["inputs_pin"] = key
        if not self.options.regen_golden:
            inputs.check_pinned(key, self.digest, self.options.seed)

    # -- client calls ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Client calls made inside are recorded as children of this span."""
        if self.recorder is None:
            yield
            return
        outer, self._phase = self._phase, self.recorder.begin(name, self._phase)
        try:
            yield
        finally:
            self.recorder.finish(self._phase)
            self._phase = outer

    def call(self, conn: Conn, kind: Optional[str], payload: dict,
             **attrs) -> Optional[StatementResult]:
        """One timed client call; its latency is sampled under ``kind``."""
        start = now()
        result = conn.request(payload)
        end = now()
        if result is not None and kind is not None:
            self.samples[kind].append(end - start)
        if self.recorder is not None:
            span = self.recorder.add(
                f"client:{payload['op']}", start, end, self._phase,
                request=result.query_id if result is not None else None, **attrs,
            )
            if result is not None and result.trace:
                self.recorder.graft(span, result.query_id, result.trace["root"])
        return result

    def run_statement(self, conn: Conn, statement: inputs.Statement, traced: bool = False,
                      sample: bool = True) -> Optional[list]:
        """Send one SQL++ text — naming no executor, so the program's default
        runs — time it, split it by layer when traced, and check its rows."""
        payload = {"op": "statement", "text": statement.text}
        if traced:
            payload["trace"] = True
        kind = ("traced:" if traced else "stmt:") + statement.name
        before = len(self.samples[kind])
        result = self.call(conn, kind, payload, statement=statement.name)
        if result is None:
            return None
        latency = self.samples[kind][-1]
        self.first_exec.setdefault(statement.name, latency)
        if not sample:
            del self.samples[kind][before:]
        elif traced and result.trace:
            self.attributions[statement.name].append(
                attribute(latency, result.trace["root"])
            )
            self.trace_bytes.append(len(json.dumps(result.trace)))
            self.traced_rows += len(result.rows)
        self.rows_returned += len(result.rows)
        wanted = self.expected.get(statement.name)
        if wanted is not None:
            self.ops.check(oracle.check_rows(wanted, result.rows), statement.name)
        return result.rows

    def insert(self, conn: Conn, dataset: str, documents: List[dict],
               kind: Optional[str] = "insert") -> bool:
        result = self.call(
            conn, kind, {"op": "insert", "dataset": dataset, "documents": documents}
        )
        if result is None:
            return False
        return self.ops.check(
            result.done.get("count") == len(documents), f"insert ack on {dataset}"
        )

    def lookup(self, conn: Conn, dataset: str, document: dict,
               field: Optional[str], sample: bool = True) -> None:
        """Point lookup of ``document``'s key: one projected field, or (with
        ``field=None``) the whole document, compared to what was sent."""
        key = document["id"]
        fields = None if field is None else [field]
        kind = "lookup" if field is not None else "full_lookup"
        result = self.call(
            conn, kind if sample else None,
            {"op": "lookup", "dataset": dataset, "key": key, "fields": fields},
        )
        if result is None:
            return
        found = result.done.get("document")
        if field is None:
            ok = oracle.values_equal(found, document)
        else:
            # ``fields`` is a hint: rows and memtable hits come back whole.
            # Whatever comes back must hold the field and agree with what was sent.
            ok = isinstance(found, dict) and {"id", field} <= found.keys() and all(
                name in document and oracle.values_equal(value, document[name])
                for name, value in found.items()
            )
        self.ops.check(ok, f"lookup {dataset}[{key}]")

    def sample_lookups(self, conn: Conn, dataset: str, documents: List[dict],
                       projected: int, full: int) -> None:
        for document in self._rng.sample(documents, min(projected, len(documents))):
            self.lookup(conn, dataset, document, inputs.LOOKUP_FIELD[dataset])
        for document in self._rng.sample(documents, min(full, len(documents))):
            self.lookup(conn, dataset, document, None)

    def preload(self, conn: Conn, dataset: str, layout: str, documents: List[dict],
                kind: Optional[str]) -> float:
        """Create ``dataset`` and insert ``documents``; returns the insert wall."""
        self.call(conn, None, {"op": "create_dataset", "name": dataset, "layout": layout})
        start = now()
        for offset in range(0, len(documents), inputs.PRELOAD_BATCH):
            self.insert(conn, dataset, documents[offset: offset + inputs.PRELOAD_BATCH], kind)
        return now() - start

    def check_counts(self, conn: Conn) -> None:
        for dataset, count in self.expected_counts().items():
            result = self.call(conn, None, {"op": "count", "dataset": dataset})
            if result is not None:
                found = result.done.get("count")
                self.ops.check(
                    found == count, f"count({dataset}) = {found}, expected {count}"
                )

    def scrape(self, cluster: Cluster) -> scrape.Samples:
        """``metrics`` of the coordinator and of every shard, summed."""
        scrapes = []
        for role, address in sorted(cluster.addresses.items()):
            conn = Conn(address, self.ops)
            try:
                result = self.call(conn, "scrape", {"op": "metrics"}, role=role)
            finally:
                conn.close()
            if result is not None:
                scrapes.append(scrape.parse_prometheus(result.done.get("text", "")))
        return scrape.merge(scrapes)

    # -- lifecycle ---------------------------------------------------------------------
    def run(self) -> None:
        wall_start, cpu_start = now(), time.process_time()
        self.build_inputs()
        options = self.options
        repeats = 1 if options.smoke else SETUP_REPEATS
        cluster: Optional[Cluster] = None
        conn: Optional[Conn] = None
        try:
            for attempt in range(repeats):
                if cluster is not None:
                    # A throw-away set-up: only its duration is kept.
                    conn.close()
                    cluster.crash()
                    cluster.stop()
                    shutil.rmtree(cluster.root, ignore_errors=True)
                self.first_exec.clear()
                cluster = Cluster(
                    options.work_dir / f"cluster-{attempt}", options.source_root,
                    STORE_CONFIG, shards=SHARDS,
                )
                start = now()
                with self.phase("setup"):
                    cluster.start()
                    conn = Conn(cluster.addresses["coordinator"], self.ops)
                    self.load(conn)
                self.samples["setup"].append(now() - start)
            self.info["effective_config"] = cluster.effective_config()
            for _ in range(20):
                self.call(conn, "ping", {"op": "ping"})

            metrics_before = self.scrape(cluster)
            # Without evictions, misses so far are the distinct pages set-up touched.
            self.info["setup_cache_misses"] = scrape.total(
                metrics_before, "repro_cache_requests_total", result="miss"
            )
            cpu_before = cluster.cpu_seconds()
            ops_before, rows_before = self.ops.attempted, self.rows_returned
            start = now()
            with self.phase("timed"):
                self.timed_phase(cluster, conn)
            self.timed_wall = now() - start
            self.timed_ops = self.ops.attempted - ops_before
            self.timed_rows = self.rows_returned - rows_before
            self.server_cpu = {
                role: used - cpu_before.get(role, 0.0)
                for role, used in cluster.cpu_seconds().items()
            }
            self.metrics_delta = scrape.delta(metrics_before, self.scrape(cluster))
            with self.phase("after_timed"):
                self.after_timed(conn)

            for _ in range(1 if options.smoke else RECOVERY_REPEATS):
                conn.close()
                start = now()
                with self.phase("recovery"):
                    cluster.crash()
                    restart = now()
                    cluster.start()
                    self.samples["open"].append(now() - restart)
                    conn = Conn(cluster.addresses["coordinator"], self.ops)
                    self.check_counts(conn)
                self.samples["recovery"].append(now() - start)
            for shard in range(SHARDS):
                result = self.call(conn, None, {"op": "recovery_info", "shard": shard})
                recovery = (result.done.get("recovery") if result is not None else None) or {}
                self.replayed_records += int(recovery.get("wal_records_replayed", 0))
            with self.phase("verify_recovered"):
                self.verify_recovered(conn)
                self.call(conn, "checkpoint", {"op": "checkpoint"})
            self.disk_bytes = cluster.disk_bytes()
            self.rss_peak_mb = cluster.peak_rss_mb()
        finally:
            if conn is not None:
                conn.close()
            if cluster is not None:
                cluster.stop()
            if not options.keep:
                shutil.rmtree(options.work_dir, ignore_errors=True)
        self.client_cpu_fraction = (time.process_time() - cpu_start) / (now() - wall_start)
        if options.traced:
            documents, scan_fields, frames = self.probe_inputs()
            start = now()
            with self.phase("probe"):
                self.probe = run_probe(
                    documents, self.statements, scan_fields, STORE_CONFIG, frames,
                    options.seed, self.recorder, self._phase,
                )
            self.info["probe_s"] = now() - start

    # -- metrics -----------------------------------------------------------------------
    def statement_samples(self, prefix: str = "stmt:") -> Dict[str, List[float]]:
        return {
            kind[len(prefix):]: values
            for kind, values in self.samples.items()
            if kind.startswith(prefix) and values
        }

    def end_to_end(self) -> Dict[str, float]:
        by_statement = self.statement_samples()
        medians = [stats.median(values) for values in by_statement.values()]
        inserts, lookups = self.samples["insert"], self.samples["lookup"]
        self.info["samples"] = {
            kind: len(values) for kind, values in sorted(self.samples.items())
        }
        return {
            "setup_s": stats.median(self.samples["setup"]),
            "query_geomean_ms": stats.geomean(medians) * 1e3,
            "suite_round_s": sum(medians),
            "queries_per_s": self.statement_count / self.statement_wall,
            "ingest_docs_per_s": self.ingest_docs / self.ingest_wall,
            "ingest_batch_p50_ms": stats.median(inserts) * 1e3,
            "lookup_p50_ms": stats.median(lookups) * 1e3,
            "recovery_s": stats.median(self.samples["recovery"]),
            "storage_bytes_per_user_byte": self.disk_bytes / self.live_user_bytes(),
            "server_rss_peak_mb": self.rss_peak_mb,
        }

    def per_layer(self) -> Dict[str, float]:
        """Per-layer numbers of a traced run; see the README for sources."""
        flat = [a for values in self.attributions.values() for a in values]
        traced = len(flat)

        def span_ms(key: str) -> float:
            return stats.median([a[key] for a in flat]) * 1e3

        delta = self.metrics_delta
        count = lambda name, **labels: scrape.total(delta, name, **labels)  # noqa: E731
        # Statements inside the scraped window (ingest_feed's run after it).
        statements = self.statement_count if self.timed_statements else 0

        def per_user_byte(amount: float) -> float:
            return amount / self.sent_user_bytes if self.sent_user_bytes else 0.0

        wire_in = count("repro_wire_bytes_total", direction="in")
        shard_requests = count("repro_shard_requests_total")
        shard_rows = count("repro_shard_rows_transferred_total")
        query_reads = count("repro_io_pages_total", op="read", source="query")
        hits = count("repro_cache_requests_total", result="hit")
        misses = count("repro_cache_requests_total", result="miss")
        flush_s = count("repro_flush_seconds_sum")
        merge_s = count("repro_merge_seconds_sum")
        wal_bytes = count("repro_wal_bytes_total")
        written = count("repro_io_bytes_total", op="write")
        client_s = sum(a["client"] for a in flat) or 1.0
        untraced = self.statement_samples("stmt:")
        traced_samples = self.statement_samples("traced:")
        paired = [name for name in traced_samples if name in untraced]

        out = {
            # net
            "net.wire_overhead_ms_p50": span_ms("net"),
            "net.ping_rtt_ms_p50": stats.median(self.samples["ping"]) * 1e3,
            "net.bytes_in": wire_in,
            "net.bytes_out": count("repro_wire_bytes_total", direction="out"),
            "net.frames_in": count("repro_wire_frames_total", direction="in"),
            "net.frames_out": count("repro_wire_frames_total", direction="out"),
            "net.bytes_per_user_byte": per_user_byte(wire_in),
            # shard
            "shard.coordinator_self_ms_p50": span_ms("coordinator_self"),
            "shard.scatter_overhead_ms_p50": span_ms("scatter_overhead"),
            "shard.merge_ms_p50": span_ms("merge"),
            "shard.straggler_gap_ms_p50": span_ms("straggler_gap"),
            "shard.requests": shard_requests,
            "shard.requests_per_client_op": shard_requests / max(1, self.timed_ops),
            "shard.rows_transferred": shard_rows,
            "shard.rows_transferred_per_row_returned": shard_rows / max(1, self.timed_rows),
            "shard.coordinator_cpu_s": self.server_cpu.get("coordinator", 0.0),
            "shard.shards_cpu_s": sum(
                used for role, used in self.server_cpu.items() if role != "coordinator"
            ),
            # sqlpp
            "sqlpp.parse_bind_ms_p50": span_ms("parse_bind"),
            "sqlpp.shard_parse_bind_ms_p50": span_ms("shard_parse_bind"),
            "sqlpp.compiles_per_statement": (
                sum(a["compiles"] for a in flat) / traced if traced else 0.0
            ),
            # query
            "query.optimize_ms_p50": span_ms("optimize"),
            "query.execute_ms_p50": span_ms("execute"),
            "query.scan_ms_p50": span_ms("scan_span"),
            "query.breaker_self_ms_p50": span_ms("breaker_self"),
            "query.rows_scanned_per_row_returned": (
                sum(a["rows_scanned"] for a in flat) / max(1, self.traced_rows)
            ),
            "query.first_exec_ms": sum(self.first_exec.values()) * 1e3,
            # lsm
            "lsm.flush_count": count("repro_flush_seconds_count"),
            "lsm.flush_s_sum": flush_s,
            "lsm.merge_count": count("repro_merge_seconds_count"),
            "lsm.merge_s_sum": merge_s,
            "lsm.memtable_rotations": count("repro_memtable_rotations_total"),
            "lsm.backpressure_stalls": count("repro_backpressure_stalls_total"),
            "lsm.wal_appends": count("repro_wal_appends_total"),
            "lsm.wal_bytes": wal_bytes,
            "lsm.wal_fsyncs": count("repro_wal_fsyncs_total"),
            "lsm.wal_bytes_per_user_byte": per_user_byte(wal_bytes),
            "lsm.maintenance_time_fraction": (flush_s + merge_s) / (self.timed_wall * SHARDS),
            # storage
            "storage.pages_read_query": query_reads,
            "storage.pages_read_maintenance": count(
                "repro_io_pages_total", op="read", source="maintenance"),
            "storage.pages_written": count("repro_io_pages_total", op="write"),
            "storage.bytes_read": count("repro_io_bytes_total", op="read"),
            "storage.bytes_written": written,
            "storage.write_amplification": per_user_byte(written + wal_bytes),
            "storage.pages_read_per_query": query_reads / statements if statements else 0.0,
            "storage.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "storage.cache_evictions": count("repro_cache_evictions_total"),
            "storage.bytes_on_disk": float(self.disk_bytes),
            # store
            "store.checkpoint_s": stats.median(self.samples["checkpoint"]),
            "store.open_s": stats.median(self.samples["open"]),
            "store.recovery_replayed_records": float(self.replayed_records),
            "store.full_lookup_ms_p50": stats.median(self.samples["full_lookup"]) * 1e3,
            # obs
            "obs.trace_overhead_ratio": (
                sum(stats.median(traced_samples[name]) for name in paired)
                / sum(stats.median(untraced[name]) for name in paired)
                if paired else 0.0
            ),
            "obs.metrics_scrape_ms": stats.median(self.samples["scrape"]) * 1e3,
            "obs.trace_bytes_per_statement": (
                sum(self.trace_bytes) / len(self.trace_bytes) if self.trace_bytes else 0.0
            ),
            "trace.attributed_fraction": (
                1.0 - sum(a["unattributed"] for a in flat) / client_s if flat else 0.0
            ),
            "trace.unattributed_ms_p50": span_ms("unattributed"),
            "trace.net_shard_sqlpp_fraction": (
                sum(a["net"] + a["shard"] + a["sqlpp"] for a in flat) / client_s
            ),
            # tails: too few samples in one run to carry a bound, so reported here
            "latency.query_norm_p95": stats.percentile(stats.normalised(untraced), 0.95),
            "latency.ingest_batch_p95_ms": stats.percentile(self.samples["insert"], 0.95) * 1e3,
            "latency.lookup_p95_ms": stats.percentile(self.samples["lookup"], 0.95) * 1e3,
            # bench
            "bench.client_cpu_fraction": self.client_cpu_fraction,
            "bench.writer_lateness_p95_ms": stats.percentile(self.writer_lateness, 0.95) * 1e3,
            "bench.doc_gen_s": self.doc_gen_s,
            "bench.failed_fraction": self.ops.failed / max(1, self.ops.attempted),
        }
        for statement in inputs.analytics_statements():
            out[f"query.{statement.name}_ms"] = (
                stats.median(untraced.get(statement.name, [])) * 1e3
            )
        out.update(self.probe)
        self.info["attribution_ms"] = {
            name: {
                key: stats.median([a[key] for a in values]) * 1e3
                for key in (*STATEMENT_LAYERS, "unattributed", "client")
            }
            for name, values in self.attributions.items()
        }
        return out


class Analytics(Workload):
    """Rounds of the 14 Figure-14 queries over one layout (1 connection)."""

    def __init__(self, options: Options, layout: str) -> None:
        super().__init__(options)
        self.layout = layout
        self.documents: Dict[str, List[dict]] = {}

    def build_inputs(self) -> None:
        start = now()
        self.documents = inputs.analytics_documents(self.options.seed, self.options.smoke)
        self.doc_gen_s = now() - start
        self.statements = inputs.analytics_statements()
        digest = inputs.InputDigest()
        for dataset, documents in self.documents.items():
            digest.add_documents(dataset, documents)
        digest.add_statements(self.statements)
        self.digest, self.user_bytes = digest.hexdigest(), digest.user_bytes
        self.check_pinned("analytics" + ("-smoke" if self.options.smoke else ""))
        self.expected = oracle.load_or_compute(
            self.digest, self.documents, self.statements, self.options.regen_golden
        )

    def load(self, conn: Conn) -> None:
        for dataset, documents in self.documents.items():
            # Batch latencies are sampled on the largest dataset only: a median
            # over four document shapes would sit on a boundary between them.
            kind = "insert" if dataset == "cell" else "preload"
            self.ingest_wall += self.preload(conn, dataset, self.layout, documents, kind)
            self.ingest_docs += len(documents)
        self.call(conn, None, {"op": "checkpoint"})
        for statement in self.statements:  # warm-up: caches fill, codegen compiles
            self.run_statement(conn, statement, sample=False)

    def timed_phase(self, cluster: Cluster, conn: Conn) -> None:
        deadline = now() + self.options.seconds
        start = now()
        rounds = 0
        # Whole rounds only, so every statement has the same sample count; in
        # a traced run odd rounds are traced and even ones are their control.
        while rounds < 2 or now() < deadline:
            traced = self.options.traced and rounds % 2 == 1
            for statement in self.statements:
                self.run_statement(conn, statement, traced=traced)
            rounds += 1
        self.statement_wall = now() - start
        self.statement_count = rounds * len(self.statements)
        self.info["rounds"] = rounds

    def after_timed(self, conn: Conn) -> None:
        # Latencies are sampled on one dataset, so the median is of one
        # population; the others get full-document checks only.
        for dataset, documents in self.documents.items():
            self.sample_lookups(
                conn, dataset, documents, projected=300 if dataset == "cell" else 0, full=2
            )

    def expected_counts(self) -> Dict[str, int]:
        return {dataset: len(documents) for dataset, documents in self.documents.items()}

    def verify_recovered(self, conn: Conn) -> None:
        for statement in self.statements:
            self.run_statement(conn, statement, sample=False)

    def live_user_bytes(self) -> int:
        return self.user_bytes

    def probe_inputs(self):
        frames = [
            {"op": "insert", "dataset": dataset, "documents": documents[: inputs.PRELOAD_BATCH]}
            for dataset, documents in self.documents.items()
        ] + [{"op": "statement", "text": s.text} for s in self.statements]
        scan_fields = {"cell": "duration", "sensors": "battery",
                       "tweet_1": "retweet_count", "wos": "id"}
        return self.documents, scan_fields, frames


class IngestFeed(Workload):
    """Closed-loop inserts into an empty columnar dataset, then read-back,
    ``kill -9`` and the durability check (1 connection)."""

    timed_statements = False
    READ_BACK_ROUNDS = 5

    def build_inputs(self) -> None:
        self.statements = inputs.feed_statements()
        # The stream's length depends on how fast the program ingests, so the
        # digest covers a fixed prefix (20 batches, two of them upserts).
        prefix, digest = inputs.FeedStream(self.options.seed), inputs.InputDigest()
        for _ in range(20):
            digest.add_documents("feed", prefix.next_batch())
        digest.add_statements(self.statements)
        self.digest = digest.hexdigest()
        self.check_pinned("ingest_feed")

    def load(self, conn: Conn) -> None:
        self.call(conn, None, {"op": "create_dataset", "name": "feed", "layout": "amax"})
        # Each set-up gets a fresh stream: the timed feed must not depend on
        # how many throw-away set-ups came before it.
        self.stream = inputs.FeedStream(self.options.seed)
        primer = self.stream.primer(
            inputs.FEED_PRIMER_DOCS, lambda key: shard_for_key(key, SHARDS) == 0
        )
        self.insert(conn, "feed", primer, kind=None)

    def timed_phase(self, cluster: Cluster, conn: Conn) -> None:
        # Fixed work sized by --seconds (see FEED_DOCS_PER_BUDGET_SECOND).  One
        # connection and synchronous maintenance: the time the program spends
        # is the sum of the batch latencies; generating the next batch is the
        # client's think time and is kept out of the rate.
        batches = max(
            2 * inputs.FEED_UPSERT_EVERY,
            int(self.options.seconds * inputs.FEED_DOCS_PER_BUDGET_SECOND) // inputs.FEED_BATCH,
        )
        for _ in range(batches):
            start = now()
            batch = self.stream.next_batch()
            self.doc_gen_s += now() - start
            before = len(self.samples["insert"])
            if self.insert(conn, "feed", batch):
                self.ingest_docs += len(batch)
            self.ingest_wall += sum(self.samples["insert"][before:])
        self.sent_user_bytes = self.stream.sent_bytes
        self.info["feed_batches"] = batches

    def _read_back(self, conn: Conn, traced: bool, sample: bool) -> None:
        for statement in self.statements:
            self.run_statement(conn, statement, traced=traced, sample=sample)

    def after_timed(self, conn: Conn) -> None:
        latest = self.stream.latest
        expected = inputs.feed_expected(latest)
        self.expected = {
            s.name: (
                oracle.topk_expected(s, expected[s.name])
                if s.order_key is not None
                else {"rows": expected[s.name]}
            )
            for s in self.statements
        }
        self.check_counts(conn)
        # Memtables are non-empty: these scans take the reconciling path.
        self._read_back(conn, traced=False, sample=False)
        start = now()
        for index in range(self.READ_BACK_ROUNDS * (2 if self.options.traced else 1)):
            self._read_back(conn, traced=self.options.traced and index % 2 == 1, sample=True)
            self.statement_count += len(self.statements)
        self.statement_wall = now() - start
        self.sample_lookups(conn, "feed", list(latest.values()), projected=200, full=3)

    def expected_counts(self) -> Dict[str, int]:
        return {"feed": len(self.stream.latest)}

    def verify_recovered(self, conn: Conn) -> None:
        """Every acknowledged document, newest version, after the last kill."""
        self._read_back(conn, traced=False, sample=False)
        documents = list(self.stream.latest.values())
        for document in self._rng.sample(documents, min(100, len(documents))):
            self.lookup(conn, "feed", document, inputs.LOOKUP_FIELD["feed"], sample=False)
        for document in self._rng.sample(documents, min(2, len(documents))):
            self.lookup(conn, "feed", document, None, sample=False)

    def live_user_bytes(self) -> int:
        return sum(len(inputs.canonical_bytes(d)) for d in self.stream.latest.values())

    def probe_inputs(self):
        documents = list(self.stream.latest.values())
        frames = [
            {"op": "insert", "dataset": "feed", "documents": documents[i: i + inputs.FEED_BATCH]}
            for i in range(0, 10 * inputs.FEED_BATCH, inputs.FEED_BATCH)
        ] + [{"op": "statement", "text": s.text} for s in self.statements]
        return {"feed": documents}, {"feed": "retweet_count"}, frames


class MixedServing(Workload):
    """An open-loop paced writer (connection A) beside a closed-loop reader
    (connection B) on a preloaded columnar dataset."""


    def build_inputs(self) -> None:
        start = now()
        self.preloaded, self.writer_documents = inputs.mixed_documents(
            self.options.seed, self.options.smoke, self.options.seconds
        )
        self.doc_gen_s = now() - start
        self.statements = inputs.mixed_statements(len(self.preloaded))
        digest = inputs.InputDigest()
        self.preload_bytes = digest.add_documents("cell", self.preloaded)
        digest.add_documents("writer", self.writer_documents[: inputs.MIXED_DIGEST_WRITER_DOCS])
        digest.add_statements(self.statements)
        self.digest = digest.hexdigest()
        self.check_pinned("mixed_serving" + ("-smoke" if self.options.smoke else ""))
        # Only the filtered statement has a fixed answer; COUNT(*) is
        # range-checked against what the writer has sent so far.
        self.expected = oracle.load_or_compute(
            self.digest, {"cell": self.preloaded}, self.statements[1:],
            self.options.regen_golden,
        )
        self.acked = 0
        self.sent = 0

    def load(self, conn: Conn) -> None:
        self.preload(conn, "cell", "amax", self.preloaded, "preload")
        self.call(conn, None, {"op": "checkpoint"})
        self._reader_cycle(conn, self.preloaded[0], traced=False, sample=False)

    def _reader_cycle(self, conn: Conn, document: dict, traced: bool, sample: bool) -> None:
        if sample:
            for _ in range(inputs.MIXED_LOOKUPS_PER_CYCLE):
                self.lookup(conn, "cell", document, inputs.LOOKUP_FIELD["cell"])
                document = self.preloaded[self._rng.randrange(len(self.preloaded))]
        count, filtered = self.statements
        low = len(self.preloaded) + self.acked
        rows = self.run_statement(conn, count, traced=traced, sample=sample)
        high = len(self.preloaded) + self.sent
        if rows is not None:
            found = rows[0].get("count") if len(rows) == 1 else None
            self.ops.check(
                isinstance(found, int) and low <= found <= high,
                f"COUNT(*) = {found} outside [{low}, {high}]",
            )
        self.run_statement(conn, filtered, traced=traced, sample=sample)

    def _writer(self, address: Tuple[str, int], start: float, deadline: float) -> None:
        conn = Conn(address, self.ops)
        interval = inputs.MIXED_WRITER_BATCH / inputs.MIXED_WRITER_DOCS_PER_S
        try:
            for index in range(0, len(self.writer_documents), inputs.MIXED_WRITER_BATCH):
                due = start + (index // inputs.MIXED_WRITER_BATCH) * interval
                if due >= deadline:
                    break
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                batch = self.writer_documents[index: index + inputs.MIXED_WRITER_BATCH]
                self.writer_lateness.append(max(0.0, now() - due))
                self.sent += len(batch)
                if self.insert(conn, "cell", batch, kind=None):
                    # Open loop: latency runs from when the batch was due.
                    self.samples["insert"].append(now() - due)
                    self.acked += len(batch)
                    self.sent_user_bytes += sum(
                        len(inputs.canonical_bytes(d)) for d in batch
                    )
        finally:
            conn.close()

    def timed_phase(self, cluster: Cluster, conn: Conn) -> None:
        start = now()
        deadline = start + self.options.seconds
        writer = threading.Thread(
            target=self._writer,
            args=(cluster.addresses["coordinator"], start, deadline),
            name="writer",
        )
        writer.start()
        try:
            cycles = 0
            while now() < deadline:
                document = self.preloaded[self._rng.randrange(len(self.preloaded))]
                self._reader_cycle(
                    conn, document, traced=self.options.traced and cycles % 2 == 1,
                    sample=True,
                )
                cycles += 1
        finally:
            writer.join(timeout=CLIENT_TIMEOUT_S + 5.0)
        self.ops.check(not writer.is_alive(), "writer thread finished")
        self.statement_wall = self.ingest_wall = now() - start
        self.statement_count = cycles * len(self.statements)
        self.ingest_docs = self.acked
        self.info["reader_cycles"] = cycles

    def expected_counts(self) -> Dict[str, int]:
        return {"cell": len(self.preloaded) + self.acked}

    def verify_recovered(self, conn: Conn) -> None:
        self.run_statement(conn, self.statements[1], sample=False)
        field = inputs.LOOKUP_FIELD["cell"]
        written = self.writer_documents[: self.acked]
        checks = self._rng.sample(self.preloaded, min(40, len(self.preloaded)))
        checks += self._rng.sample(written, min(40, len(written)))
        for document in checks:
            self.lookup(conn, "cell", document, field, sample=False)
        for document in checks[:2] + checks[-2:]:
            self.lookup(conn, "cell", document, None)

    def live_user_bytes(self) -> int:
        return self.preload_bytes + self.sent_user_bytes

    def probe_inputs(self):
        frames = [
            {"op": "insert", "dataset": "cell",
             "documents": self.writer_documents[: inputs.MIXED_WRITER_BATCH]},
            {"op": "lookup", "dataset": "cell", "key": 1, "fields": ["duration"]},
        ] + [{"op": "statement", "text": s.text} for s in self.statements]
        return {"cell": self.preloaded}, {"cell": "duration"}, frames


def make_workload(name: str, options: Options) -> Workload:
    if name == "analytics_amax":
        return Analytics(options, "amax")
    if name == "analytics_open":
        return Analytics(options, "open")
    if name == "ingest_feed":
        return IngestFeed(options)
    if name == "mixed_serving":
        return MixedServing(options)
    raise ValueError(f"unknown workload {name!r}")
