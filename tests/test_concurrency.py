"""Randomized concurrent-workload stress suite and snapshot-isolation tests.

The stress tests run N writer threads and M reader/query threads against one
datastore with background flushing/merging enabled, then verify the final
state *post-hoc* against a single-threaded oracle — the same
differential-oracle pattern as ``tests/test_recovery.py``.
Writers own disjoint key ranges (key ``% N == writer id``), so the union of
the per-writer journals is a well-defined oracle even though the thread
interleaving is not.

While the workload runs, readers continuously scan, count, point-look-up, and
execute queries; they assert only *invariants* (every observed document is a
version some writer actually produced, iteration never crashes, counts are
sane).  Linearizable equality is checked once, after the writers join and the
background pool drains.

The snapshot-isolation tests pin a scan before flushes/merges rewrite the
component stack and assert the scan still returns exactly the pinned state —
and that merged-away components stay alive until the last reader unpins.

Iteration counts scale with ``REPRO_STRESS_OPS`` (per writer; default keeps
the suite fast — CI's stress job raises it).
"""

from __future__ import annotations

import os
import random
import tempfile
import threading

import pytest

from conftest import derive_seed, resolve_seed, seeded_rng
from repro import Datastore, StoreConfig
from repro.lsm.component import ALL_LAYOUTS
from repro.model.errors import TransactionConflictError
from repro.query import Field, Query, Var
from repro.verify import HistoryRecorder, check_history

from test_repeated_direct_scan import _find_spans

#: Operations per writer thread (CI's stress job raises this via the env).
STRESS_OPS = int(os.environ.get("REPRO_STRESS_OPS", "250"))
NUM_WRITERS = 3
NUM_READERS = 2
KEYS_PER_WRITER = 40
INDEX_PATH = "metrics.score"

#: Where the transactional stress tests dump their recorded histories (CI's
#: txn-verify job sets this and re-checks the files with python -m repro.verify).
HISTORY_DIR_ENV = "REPRO_HISTORY_DIR"


def make_config(**overrides) -> StoreConfig:
    settings = dict(
        page_size=8192,
        memory_component_budget=6000,  # a handful of records per flush
        partitions_per_node=2,
        amax_max_records_per_leaf=64,
        buffer_cache_pages=128,
        background_workers=2,
        max_frozen_memtables=4,
    )
    settings.update(overrides)
    return StoreConfig(**settings)


def make_document(rng: random.Random, key: int, version: int) -> dict:
    document = {
        "id": key,
        "version": version,
        "name": f"user-{rng.randrange(50)}",
    }
    if rng.random() < 0.85:
        document["metrics"] = {
            "score": round(rng.uniform(0, 100), 3),
            "visits": rng.randrange(1000),
        }
    if rng.random() < 0.6:
        document["tags"] = [f"t{rng.randrange(8)}" for _ in range(rng.randrange(4))]
    if rng.random() < 0.3:
        document["flag"] = rng.choice([True, False, None, "maybe", 7])
    return document


class WriterJournal:
    """One writer's deterministic record of what it did to its own keys."""

    def __init__(self, writer_id: int, seed: int) -> None:
        self.writer_id = writer_id
        self.rng = random.Random(seed)
        self.oracle: dict = {}  # key -> last written document (or absent)
        self.error: BaseException | None = None

    def keys(self):
        return [
            self.writer_id + NUM_WRITERS * slot for slot in range(KEYS_PER_WRITER)
        ]

    def run(self, dataset, produced_versions: dict) -> None:
        try:
            version = 0
            keys = self.keys()
            for _ in range(STRESS_OPS):
                action = self.rng.random()
                key = self.rng.choice(keys)
                if action < 0.8 or key not in self.oracle:
                    version += 1
                    document = make_document(self.rng, key, version)
                    # Register the version *before* inserting so a racing
                    # reader can never observe an unregistered document.
                    produced_versions[key].add(version)
                    dataset.insert(document)
                    self.oracle[key] = document
                else:
                    dataset.delete(key)
                    self.oracle.pop(key, None)
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc


class ReaderWorker:
    """Continuously reads while writers run; checks invariants only."""

    def __init__(self, reader_id: int, seed: int, produced_versions: dict) -> None:
        self.reader_id = reader_id
        self.rng = random.Random(seed)
        self.produced_versions = produced_versions
        self.stop = threading.Event()
        self.error: BaseException | None = None
        self.scans = 0

    def run(self, store, dataset) -> None:
        try:
            while not self.stop.is_set():
                choice = self.rng.random()
                if choice < 0.4:
                    for key, document in dataset.scan():
                        assert document["id"] == key
                        assert document["version"] in self.produced_versions[key], (
                            f"scan observed version {document['version']} of key "
                            f"{key} that no writer produced"
                        )
                elif choice < 0.6:
                    count = dataset.count()
                    assert 0 <= count <= NUM_WRITERS * KEYS_PER_WRITER
                elif choice < 0.8:
                    key = self.rng.randrange(NUM_WRITERS * KEYS_PER_WRITER)
                    document = dataset.point_lookup(key)
                    if document is not None:
                        assert document["version"] in self.produced_versions[key]
                else:
                    rows = (
                        Query("docs", "d")
                        .where(Field(Var("d"), "metrics.score") > 50)
                        .count()
                        .execute(store)
                    )
                    assert rows[0]["count"] >= 0
                self.scans += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc


def verify_against_oracle(dataset, oracle: dict, rng: random.Random) -> None:
    assert dataset.count() == len(oracle)
    assert dict(dataset.scan()) == oracle
    for key in rng.sample(range(-3, NUM_WRITERS * KEYS_PER_WRITER + 3), 25):
        assert dataset.point_lookup(key) == oracle.get(key)
    index = dataset.secondary_indexes["score"]
    for _ in range(5):
        low = rng.uniform(0, 80)
        high = low + rng.uniform(0, 40)
        expected = sorted(
            key
            for key, document in oracle.items()
            if isinstance(document.get("metrics", {}).get("score"), (int, float))
            and not isinstance(document.get("metrics", {}).get("score"), bool)
            and low <= document["metrics"]["score"] <= high
        )
        assert sorted(index.search_range(low, high)) == expected


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_concurrent_writers_and_readers_match_oracle(layout):
    """N writers + M readers against one store; post-hoc oracle equality."""
    store = Datastore(make_config())
    dataset = store.create_dataset("docs", layout=layout)
    dataset.create_secondary_index("score", INDEX_PATH)
    produced_versions = {
        key: set() for key in range(NUM_WRITERS * KEYS_PER_WRITER)
    }
    base_seed = resolve_seed(17)
    writers = [
        WriterJournal(writer_id, seed=derive_seed(base_seed, 1000 + writer_id))
        for writer_id in range(NUM_WRITERS)
    ]
    readers = [
        ReaderWorker(
            reader_id,
            seed=derive_seed(base_seed, 2000 + reader_id),
            produced_versions=produced_versions,
        )
        for reader_id in range(NUM_READERS)
    ]
    writer_threads = [
        threading.Thread(target=writer.run, args=(dataset, produced_versions))
        for writer in writers
    ]
    reader_threads = [
        threading.Thread(target=reader.run, args=(store, dataset))
        for reader in readers
    ]
    for thread in writer_threads + reader_threads:
        thread.start()
    for thread in writer_threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "writer thread hung"
    for reader in readers:
        reader.stop.set()
    for thread in reader_threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "reader thread hung"
    for worker in writers + readers:
        if worker.error is not None:
            raise worker.error

    # Quiesce the background pool; any worker exception surfaces here.
    store.drain_background()

    oracle: dict = {}
    for writer in writers:
        oracle.update(writer.oracle)  # key ranges are disjoint by construction
    rng = random.Random(derive_seed(base_seed, 7))
    verify_against_oracle(dataset, oracle, rng)
    assert all(reader.scans > 0 for reader in readers)

    # The engine keeps working single-threaded afterwards.
    dataset.insert({"id": 10_000, "version": 1, "metrics": {"score": 55.5}})
    assert dataset.point_lookup(10_000)["version"] == 1
    store.close()


def test_stress_survives_checkpoint_and_reopen_when_durable(tmp_path):
    """Concurrent ingest, then checkpoint + reopen equals the oracle."""
    store = Datastore(make_config(storage_directory=str(tmp_path)))
    dataset = store.create_dataset("docs", layout="amax")
    dataset.create_secondary_index("score", INDEX_PATH)
    produced_versions = {key: set() for key in range(NUM_WRITERS * KEYS_PER_WRITER)}
    base_seed = resolve_seed(31)
    writers = [
        WriterJournal(i, seed=derive_seed(base_seed, 3000 + i))
        for i in range(NUM_WRITERS)
    ]
    threads = [
        threading.Thread(target=w.run, args=(dataset, produced_versions))
        for w in writers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for writer in writers:
        if writer.error is not None:
            raise writer.error
    store.close()

    oracle: dict = {}
    for writer in writers:
        oracle.update(writer.oracle)
    reopened = Datastore.open(str(tmp_path))
    verify_against_oracle(
        reopened.dataset("docs"), oracle, random.Random(derive_seed(base_seed, 11))
    )
    reopened.close()


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_scan_pinned_before_flush_and_merge_sees_consistent_snapshot(layout):
    """A long scan pinned before flush/merge returns exactly the pinned state."""
    store = Datastore(make_config(background_workers=0))
    dataset = store.create_dataset("docs", layout=layout)
    rng = seeded_rng(5)
    oracle_at_pin: dict = {}
    for key in range(150):
        document = make_document(rng, key, version=1)
        dataset.insert(document)
        oracle_at_pin[key] = document
    dataset.flush_all()

    # Pin the snapshot, consume a few rows, then rewrite the world under it.
    scan = dataset.scan()
    consumed = [next(scan) for _ in range(10)]

    for key in range(150):
        if key % 3 == 0:
            dataset.delete(key)
        else:
            dataset.insert(make_document(rng, key, version=2))
    dataset.flush_all()
    # Force merges until every partition is down to one component: the
    # components the scan pinned are all merged away (retired).
    for partition in dataset.partitions:
        while partition.num_components > 1:
            partition._merge(list(range(partition.num_components)))
    retained = sum(p.retired_component_count for p in dataset.partitions)
    assert retained > 0, "the pinned scan should be keeping retired components alive"

    observed = dict(consumed)
    observed.update(dict(scan))  # drain the rest of the pinned scan
    assert observed == oracle_at_pin

    # Closing the scan released the pins: retired components are destroyed.
    assert sum(p.retired_component_count for p in dataset.partitions) == 0
    # And a fresh scan sees the new world.
    fresh = dict(dataset.scan())
    assert len(fresh) == 100
    assert all(document["version"] == 2 for document in fresh.values())
    store.close()


def test_abandoned_scan_does_not_leak_pins():
    """Dropping a scan before reaching every partition must release all pins.

    Dataset.scan pins every partition eagerly, but a generator that is never
    started runs none of its body on GC — so unpinning cannot rely on the
    scan's ``finally`` alone (TreeSnapshot.__del__ backstops it).
    """
    import gc

    store = Datastore(make_config(background_workers=0))
    dataset = store.create_dataset("docs", layout="vector")
    rng = seeded_rng(13)
    for version in (1, 2):
        for key in range(100):
            dataset.insert(make_document(rng, key, version))
        dataset.flush_all()

    scan = dataset.scan()
    next(scan)  # start partition 0's generator only; the rest never run
    del scan
    gc.collect()

    assert all(not partition._pins for partition in dataset.partitions)
    for partition in dataset.partitions:
        while partition.num_components > 1:
            partition._merge(list(range(partition.num_components)))
    # With no leaked pins, merged-away inputs were destroyed immediately.
    assert sum(p.retired_component_count for p in dataset.partitions) == 0
    store.close()


def test_scan_pinned_across_background_flushes(tmp_path):
    """A scan pinned while background flushes land still reads its snapshot."""
    store = Datastore(make_config(storage_directory=str(tmp_path)))
    dataset = store.create_dataset("docs", layout="vector")
    rng = seeded_rng(9)
    oracle_at_pin: dict = {}
    for key in range(120):
        document = make_document(rng, key, version=1)
        dataset.insert(document)
        oracle_at_pin[key] = document
    store.drain_background()

    scan = dataset.scan()  # pins all partitions now
    for key in range(120):
        dataset.insert(make_document(rng, key, version=2))  # triggers rotations
    store.drain_background()

    assert dict(scan) == oracle_at_pin
    assert all(
        document["version"] == 2 for _, document in dataset.scan()
    )
    store.close()


@pytest.mark.parametrize("layout", ("apax", "amax"))
def test_direct_scan_counts_beside_a_writer_with_background_flush_and_merge(layout):
    """The batch executor's direct scan beside a live writer: every record is
    counted exactly once, wherever it is at pin time.

    The writer appends new keys and upserts old ones while rotations, flushes
    and merges run on the pool, so a pinned state has a mutable memtable,
    frozen memtables and overlapping components at once.  Counts (total, and
    filtered on a per-key constant) never decrease and never exceed the keys
    sent — a record counted both in a frozen memtable and in the component its
    flush just published, or in neither, would break one or the other — and
    once the writer stops, both executors agree with the journal.
    """
    store = Datastore(make_config())
    dataset = store.create_dataset("docs", layout=layout)
    rng = seeded_rng(23, salt=ALL_LAYOUTS.index(layout) + 1)
    count_text = "SELECT COUNT(*) AS c FROM docs AS d;"
    filtered_text = (
        "SELECT COUNT(*) AS c, MAX(d.version) AS newest FROM docs AS d "
        "WHERE d.bucket >= 2;"
    )
    sent = [0]  # keys handed to insert so far (bumped *before* the insert)
    versions: dict = {}
    stop = threading.Event()
    reader_round = threading.Event()
    errors: list = []

    def write() -> None:
        try:
            for step in range(STRESS_OPS * 3):
                if step % 25 == 24 and not errors:
                    # Let the reader in: a burst of inserts must not outrun it.
                    reader_round.wait(timeout=5)
                    reader_round.clear()
                if versions and rng.random() < 0.3:
                    key = rng.randrange(len(versions))  # upsert: count unchanged
                else:
                    key = len(versions)
                    sent[0] = key + 1
                versions[key] = versions.get(key, 0) + 1
                dataset.insert(
                    {"id": key, "bucket": key % 4, "version": versions[key]}
                )
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(exc)
        finally:
            stop.set()

    observed = []

    def read() -> None:
        try:
            floor = {count_text: 0, filtered_text: 0}
            while not stop.is_set():
                for text in (count_text, filtered_text):
                    (row,) = store.query(text, executor="batch")
                    ceiling = sent[0]
                    assert floor[text] <= row["c"] <= ceiling, (text, row, floor)
                    floor[text] = row["c"]
                    (scan,) = _find_spans(store.last_trace.root, "DataScanNode")
                    observed.append(
                        (scan.attrs["scan_mode"], scan.attrs.get("overlay_rows", 0))
                    )
                reader_round.set()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            reader_round.set()

    threads = [threading.Thread(target=write), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "thread hung"
    if errors:
        raise errors[0]
    assert observed and {mode for mode, _ in observed} == {"direct"}
    assert any(overlay for _, overlay in observed)

    expected_count = [{"c": len(versions)}]
    passing = [key for key in versions if key % 4 >= 2]
    expected_filtered = [
        {"c": len(passing), "newest": max(versions[key] for key in passing)}
    ]
    # Twice: while the pool may still be flushing/merging, then drained.
    for drained in (False, True):
        if drained:
            store.drain_background()
        for executor in ("batch", "interpreted"):
            assert store.query(count_text, executor=executor) == expected_count
            assert store.query(filtered_text, executor=executor) == expected_filtered
    assert sum(partition.flush_count for partition in dataset.partitions) > 2
    store.close()


# -- transactional stress: recorded histories checked for isolation ------------------

TXN_KEYS = 24
TXN_WRITERS = 3
TXN_READERS = 2
TXN_OPS = max(25, STRESS_OPS // 5)  # transactions per writer session


def _history_key(key: int) -> str:
    return f"accounts/{key}"


def dump_history(history, name: str):
    """Save the history to $REPRO_HISTORY_DIR (None when the env is unset)."""
    directory = os.environ.get(HISTORY_DIR_ENV)
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    history.save(path)
    return path


def assert_certified(history, level: str) -> None:
    """Check the history, archiving it next to a useful message on failure."""
    result = check_history(history, level=level)
    if not result.ok:
        path = dump_history(history, f"violation-{history.name}")
        if path is None:
            path = os.path.join(
                tempfile.mkdtemp(prefix="repro-history-"), f"{history.name}.json"
            )
            history.save(path)
        pytest.fail(
            f"isolation violation at {level} (history saved to {path}):\n"
            + result.describe()
        )


class TxnWriter:
    """One session of randomized multi-key read-modify-write transactions.

    Every written value is globally unique (``w<id>-<counter>``), which is
    what lets the checker infer the write-read relation exactly.
    """

    def __init__(self, worker_id: int, seed: int, recorder: HistoryRecorder) -> None:
        self.worker_id = worker_id
        self.rng = random.Random(seed)
        self.session = recorder.session(f"txn-writer-{worker_id}")
        self.error: BaseException | None = None
        self.commits = 0
        self.conflicts = 0

    def run(self, store) -> None:
        try:
            counter = 0
            for _ in range(TXN_OPS):
                txn = store.begin()
                record = self.session.begin()
                try:
                    read_keys = self.rng.sample(
                        range(TXN_KEYS), self.rng.randint(1, 3)
                    )
                    for key in read_keys:
                        document = txn.get("accounts", key)
                        record.read(
                            _history_key(key),
                            None if document is None else document["val"],
                        )
                    for key in self.rng.sample(
                        range(TXN_KEYS), self.rng.randint(1, 2)
                    ):
                        counter += 1
                        value = f"w{self.worker_id}-{counter}"
                        txn.insert("accounts", {"id": key, "val": value})
                        record.write(_history_key(key), value)
                    record.committed(txn.commit())
                    self.commits += 1
                except TransactionConflictError:
                    record.aborted()
                    self.conflicts += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc


class TxnReader:
    """Concurrent readers: snapshot (transactional) and plain point reads."""

    def __init__(self, reader_id: int, seed: int, recorder: HistoryRecorder) -> None:
        self.rng = random.Random(seed)
        self.session = recorder.session(f"txn-reader-{reader_id}")
        self.stop = threading.Event()
        self.error: BaseException | None = None
        self.reads = 0

    def run(self, store, dataset) -> None:
        try:
            while not self.stop.is_set():
                if self.rng.random() < 0.7:
                    # A read-only transaction: multi-key snapshot read.
                    with store.begin() as txn:
                        record = self.session.begin()
                        for key in self.rng.sample(
                            range(TXN_KEYS), self.rng.randint(2, 4)
                        ):
                            document = txn.get("accounts", key)
                            record.read(
                                _history_key(key),
                                None if document is None else document["val"],
                            )
                        record.committed(txn.commit())
                else:
                    # A plain (non-transactional) read: read committed.  One
                    # read per recorded transaction can never fracture, so it
                    # is safe to certify alongside the snapshot sessions.
                    key = self.rng.randrange(TXN_KEYS)
                    document = dataset.point_lookup(key)
                    self.session.auto_read(
                        _history_key(key),
                        None if document is None else document["val"],
                    )
                self.reads += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            self.error = exc


def test_transactional_stress_history_certifies_snapshot_isolation():
    """Concurrent multi-key transactions; the recorded history must certify.

    This is the AWDIT posture: instead of trusting an oracle replay, record
    what every client actually observed and *check* the history against the
    claimed isolation level (snapshot: consistent reads + no lost updates),
    failing with a minimal counterexample cycle if the engine ever lied.
    """
    base_seed = resolve_seed(29)
    store = Datastore(make_config())
    dataset = store.create_dataset("accounts", layout="amax")
    recorder = HistoryRecorder("txn-stress")

    # Seed the keys through recorded single-document writes (single-threaded,
    # so the commit-table sequence read right after each insert is exact).
    init = recorder.session("init")
    for key in range(TXN_KEYS):
        value = f"init-{key}"
        dataset.insert({"id": key, "val": value})
        init.auto_write(_history_key(key), value, store.commits.current_seq())

    writers = [
        TxnWriter(i, derive_seed(base_seed, 100 + i), recorder)
        for i in range(TXN_WRITERS)
    ]
    readers = [
        TxnReader(i, derive_seed(base_seed, 200 + i), recorder)
        for i in range(TXN_READERS)
    ]
    writer_threads = [
        threading.Thread(target=writer.run, args=(store,)) for writer in writers
    ]
    reader_threads = [
        threading.Thread(target=reader.run, args=(store, dataset))
        for reader in readers
    ]
    for thread in writer_threads + reader_threads:
        thread.start()
    for thread in writer_threads:
        thread.join(timeout=180)
        assert not thread.is_alive(), "transaction writer hung"
    for reader in readers:
        reader.stop.set()
    for thread in reader_threads:
        thread.join(timeout=180)
        assert not thread.is_alive(), "transaction reader hung"
    for worker in writers + readers:
        if worker.error is not None:
            raise worker.error
    store.drain_background()

    assert sum(writer.commits for writer in writers) > 0
    history = recorder.history()
    dump_history(history, "txn-stress")
    assert_certified(history, "snapshot")

    # Differential closure: the store's final state must equal the history's
    # newest committed version of every key (aborted writes never applied).
    final_versions: dict = {}
    for txn in history.transactions():
        if txn.status != "committed" or txn.commit_seq is None:
            continue
        for key, op in txn.final_writes().items():
            seq, _ = final_versions.get(key, (-1, None))
            if txn.commit_seq > seq:
                final_versions[key] = (txn.commit_seq, op.value)
    for key in range(TXN_KEYS):
        document = dataset.point_lookup(key)
        _, expected = final_versions[_history_key(key)]
        assert document is not None and document["val"] == expected
    store.close()


def test_background_flush_error_surfaces_to_caller():
    """An exception on a flush worker is raised at the next drain, not lost."""
    store = Datastore(make_config())
    dataset = store.create_dataset("docs", layout="open")
    tree = dataset.partitions[0]
    original = tree._build_component

    def broken_build(entries):
        raise RuntimeError("injected flush failure")

    tree._build_component = broken_build
    try:
        rng = seeded_rng(1)
        for key in range(0, 400, 2):  # all keys route somewhere; enough hit p0
            dataset.insert(make_document(rng, key, version=1))
        with pytest.raises(Exception, match="injected flush failure"):
            store.drain_background()
    finally:
        tree._build_component = original
        store.kill_background()
