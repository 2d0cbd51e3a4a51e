"""Differential fault-injection tests for crash recovery.

Each test runs a randomized insert/delete/flush/checkpoint workload against a
durable datastore *and* an in-memory oracle (a plain dict), simulates a crash
at a random point by abandoning the process-level objects while keeping the
storage directory, reopens the store with :meth:`Datastore.open`, and checks
that scans, counts, point lookups, and secondary-index searches all match the
oracle — across all four component layouts.

The workloads force plenty of flushes and merges (tiny memtable budgets), so
recovery exercises every durable artifact: component footers, dataset
manifests, WAL replay, secondary-index runs, and the primary-key index.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import RETIRED_CONFIG, derive_seed, resolve_seed, seeded_rng

from repro import Datastore, StoreConfig
from repro.lsm.component import ALL_LAYOUTS
from repro.lsm.keys import stable_key_hash
from repro.model.errors import TransactionConflictError
from repro.store.manifest import DATASTORE_MANIFEST

#: Random workload seeds; every (layout, seed) pair is an independent test.
SEEDS = [11, 23]

KEY_SPACE = 70  # small, so updates and deletes hit existing keys often
INDEX_PATH = "metrics.score"


def make_config(tmp_path, **overrides) -> StoreConfig:
    settings = dict(
        storage_directory=str(tmp_path),
        page_size=8192,
        memory_component_budget=6000,  # a handful of records per flush
        partitions_per_node=2,
        amax_max_records_per_leaf=64,
        buffer_cache_pages=128,
    )
    settings.update(overrides)
    return StoreConfig(**settings)


def random_document(rng: random.Random, key) -> dict:
    """A document with nested objects, arrays (sometimes empty), and unions."""
    document = {
        "id": key,
        "version": rng.randrange(1_000_000),
        "name": f"user-{rng.randrange(50)}",
    }
    if rng.random() < 0.85:
        document["metrics"] = {
            "score": round(rng.uniform(0, 100), 3),
            "visits": rng.randrange(1000),
        }
    if rng.random() < 0.7:
        document["tags"] = [
            f"t{rng.randrange(8)}" for _ in range(rng.randrange(4))
        ]  # may be empty
    if rng.random() < 0.3:
        document["flag"] = rng.choice([True, False, None, "maybe", 7])  # union
    if rng.random() < 0.2:
        document["events"] = [
            {"kind": rng.choice(["x", "y"]), "value": rng.randrange(-50, 50)}
            for _ in range(rng.randrange(3))
        ]
    return document


def run_workload(dataset, oracle: dict, rng: random.Random, operations: int) -> None:
    """Apply random inserts/updates/deletes to the dataset and the oracle."""
    for _ in range(operations):
        action = rng.random()
        if action < 0.70 or not oracle:
            key = rng.randrange(KEY_SPACE)
            document = random_document(rng, key)
            dataset.insert(document)
            oracle[key] = document
        elif action < 0.85:
            key = rng.choice(list(oracle))  # update an existing record
            document = random_document(rng, key)
            dataset.insert(document)
            oracle[key] = document
        else:
            key = rng.choice(list(oracle))
            dataset.delete(key)
            del oracle[key]
        if rng.random() < 0.02:
            dataset.flush_all()


def expected_index_keys(oracle: dict, low: float, high: float) -> list:
    out = []
    for key, document in oracle.items():
        score = document.get("metrics", {}).get("score")
        if isinstance(score, (int, float)) and not isinstance(score, bool):
            if low <= score <= high:
                out.append(key)
    return sorted(out)


def verify_against_oracle(dataset, oracle: dict, rng: random.Random) -> None:
    assert dataset.count() == len(oracle)
    assert dict(dataset.scan()) == oracle
    # Point lookups: present, deleted, and never-seen keys.
    for key in rng.sample(range(-5, KEY_SPACE + 5), 25):
        assert dataset.point_lookup(key) == oracle.get(key)
    # Secondary-index range searches at a few random selectivities.
    index = dataset.secondary_indexes["score"]
    for _ in range(5):
        low = rng.uniform(0, 80)
        high = low + rng.uniform(0, 40)
        assert sorted(index.search_range(low, high)) == expected_index_keys(
            oracle, low, high
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_kill_and_reopen_round_trip(tmp_path, layout, seed):
    """Crash at a random point; the reopened store must equal the oracle."""
    rng = random.Random(derive_seed(resolve_seed(seed), stable_key_hash(layout) % 97))
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout=layout)
    dataset.create_secondary_index("score", INDEX_PATH)
    dataset.create_primary_key_index()
    oracle: dict = {}

    run_workload(dataset, oracle, rng, operations=rng.randrange(150, 300))
    if rng.random() < 0.5:
        store.checkpoint()
        run_workload(dataset, oracle, rng, operations=rng.randrange(20, 80))
    del store, dataset  # crash: no close(), directory survives

    reopened = Datastore.open(str(tmp_path))
    recovered = reopened.dataset("docs")
    assert reopened.last_recovery is not None
    verify_against_oracle(recovered, oracle, rng)

    # The reopened store keeps working: more writes, another crash, reopen.
    run_workload(recovered, oracle, rng, operations=60)
    verify_against_oracle(recovered, oracle, rng)
    del reopened, recovered

    final = Datastore.open(str(tmp_path))
    verify_against_oracle(final.dataset("docs"), oracle, rng)


@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_wal_replay_only_covers_the_unflushed_tail(tmp_path, layout):
    """After a checkpoint, recovery re-applies only post-checkpoint records."""
    rng = seeded_rng(7)
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout=layout)
    dataset.create_secondary_index("score", INDEX_PATH)
    oracle: dict = {}
    run_workload(dataset, oracle, rng, operations=120)
    store.checkpoint()

    tail_operations = 17
    for i in range(tail_operations):
        key = 1000 + i  # fresh keys: every tail op is one WAL record
        document = random_document(rng, key)
        dataset.insert(document, auto_flush=False)
        oracle[key] = document
    del store, dataset

    reopened = Datastore.open(str(tmp_path))
    info = reopened.last_recovery
    assert info.wal_records_seen == tail_operations
    assert info.wal_records_replayed == tail_operations
    assert info.wal_records_skipped_durable == 0
    verify_against_oracle(reopened.dataset("docs"), oracle, rng)


def test_clean_close_leaves_no_wal_tail(tmp_path):
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="amax")
    dataset.create_secondary_index("score", INDEX_PATH)
    rng = seeded_rng(3)
    oracle: dict = {}
    run_workload(dataset, oracle, rng, operations=80)
    store.close()

    reopened = Datastore.open(str(tmp_path))
    assert reopened.last_recovery.wal_records_seen == 0  # checkpointed away
    verify_against_oracle(reopened.dataset("docs"), oracle, rng)
    reopened.close()


def test_manifest_with_retired_config_keys_still_opens(tmp_path):
    """A root manifest naming config fields this build no longer has opens.

    Manifests written while ``StoreConfig`` carried the device-latency knobs
    or the scan pool size still hold those keys (``RETIRED_CONFIG``);
    ``StoreConfig.from_dict``
    ignores them, recovery restores every document (components and WAL
    tail), and the next manifest write drops them.
    """
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="amax")
    dataset.create_secondary_index("score", INDEX_PATH)
    rng = seeded_rng(5)
    oracle: dict = {}
    run_workload(dataset, oracle, rng, operations=80)
    store.checkpoint()
    run_workload(dataset, oracle, rng, operations=20)  # an unflushed WAL tail
    del store, dataset

    path = tmp_path / DATASTORE_MANIFEST
    manifest = json.loads(path.read_text())
    manifest["config"].update(RETIRED_CONFIG)
    path.write_text(json.dumps(manifest))

    reopened = Datastore.open(str(tmp_path))
    assert reopened.last_recovery.wal_records_replayed > 0
    verify_against_oracle(reopened.dataset("docs"), oracle, rng)
    reopened.checkpoint()
    config = json.loads(path.read_text())["config"]
    assert not set(RETIRED_CONFIG) & set(config)
    reopened.close()


def test_string_keys_route_identically_after_reopen(tmp_path):
    """String keys must land on the same partition in a fresh process.

    The real cross-process property cannot be tested in-process (PYTHONHASHSEED
    is fixed per interpreter), so this pins the routing function itself: CRC-32
    golden values and a reopen round trip with string keys.
    """
    assert stable_key_hash("user-42") == 690092174
    assert stable_key_hash(42) == 2394909232

    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="vector", primary_key_field="id")
    oracle = {}
    for i in range(120):
        document = {"id": f"user-{i}", "rank": i}
        dataset.insert(document)
        oracle[f"user-{i}"] = document
    del store, dataset

    reopened = Datastore.open(str(tmp_path)).dataset("docs")
    assert dict(reopened.scan()) == oracle
    for key in ("user-0", "user-77", "user-119", "user-999"):
        assert reopened.point_lookup(key) == oracle.get(key)


def test_drop_and_recreate_skips_old_wal_records(tmp_path):
    store = Datastore(make_config(tmp_path))
    old = store.create_dataset("docs", layout="open")
    for i in range(30):
        old.insert({"id": i, "generation": "old"})
    store.drop_dataset("docs")
    fresh = store.create_dataset("docs", layout="open")
    fresh.insert({"id": 1, "generation": "new"})
    del store, old, fresh

    reopened = Datastore.open(str(tmp_path))
    recovered = reopened.dataset("docs")
    # The 30 pre-drop records are still in the WAL but belong to the dropped
    # incarnation; replay must not resurrect them.
    assert reopened.last_recovery.wal_records_skipped_unknown == 30
    assert dict(recovered.scan()) == {1: {"id": 1, "generation": "new"}}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layout", ALL_LAYOUTS)
def test_crash_with_in_flight_background_work(tmp_path, layout, seed):
    """Kill while the scheduler holds queued flushes/merges; replay recovers.

    Phase 1 runs a workload with the background pool live (flushes and merges
    complete and publish durable LSNs through their manifests).  Phase 2
    pauses the pool — rotations and merge requests queue up but never
    execute — and then "crashes" (kills the pool, abandons the objects).
    The queued work is lost exactly like a process death would lose it; the
    WAL tail above each partition's *published* durable LSN must rebuild the
    oracle state.  A durable LSN published before its component (or its
    manifest) were safely on disk would lose the rotated records here.
    """
    rng = random.Random(derive_seed(resolve_seed(seed), 677 + stable_key_hash(layout) % 89))
    store = Datastore(
        make_config(
            tmp_path,
            background_workers=2,
            # Rotations must never block on the paused pool: the test relies
            # on piling up frozen memtables the "crash" then throws away.
            max_frozen_memtables=1000,
        )
    )
    dataset = store.create_dataset("docs", layout=layout)
    dataset.create_secondary_index("score", INDEX_PATH)
    dataset.create_primary_key_index()
    oracle: dict = {}

    # Phase 1: background flushing/merging actually runs and publishes.
    run_workload(dataset, oracle, rng, operations=rng.randrange(120, 220))
    store.drain_background()

    # Phase 2: the pool is wedged; new flush/merge work queues but never runs.
    store.scheduler.pause()
    run_workload(dataset, oracle, rng, operations=rng.randrange(40, 90))
    for i in range(250):  # burst of fresh keys forces rotations onto the queue
        key = 5000 + i
        document = random_document(rng, key)
        dataset.insert(document)
        oracle[key] = document
    for partition in dataset.partitions:
        partition.maybe_merge()  # queue merge requests too (never executed)
    assert store.scheduler.in_flight > 0, "the crash must lose in-flight work"

    store.kill_background()  # the process "dies" with background work queued
    del store, dataset

    reopened = Datastore.open(str(tmp_path))
    info = reopened.last_recovery
    assert info.wal_records_replayed > 0  # the lost rotations came back
    recovered = reopened.dataset("docs")
    verify_against_oracle(recovered, oracle, rng)

    # The reopened store has its own live pool: keep writing, crash again.
    run_workload(recovered, oracle, rng, operations=50)
    reopened.drain_background()
    verify_against_oracle(recovered, oracle, rng)
    reopened.kill_background()
    del reopened, recovered

    final = Datastore.open(str(tmp_path))
    verify_against_oracle(final.dataset("docs"), oracle, rng)
    final.close()


def test_records_ingested_not_double_counted_by_replay(tmp_path):
    """The manifest counter already covers the unflushed tail it snapshots."""
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="vector")
    for i in range(40):
        dataset.insert({"id": i, "v": i}, auto_flush=False)
    dataset.partitions[0].flush()  # persists a manifest; p1 stays unflushed
    for i in range(40, 50):
        dataset.insert({"id": i, "v": i}, auto_flush=False)
    assert dataset.records_ingested == 50
    del store, dataset

    recovered = Datastore.open(str(tmp_path)).dataset("docs")
    assert recovered.count() == 50
    assert recovered.records_ingested == 50


# -- transaction commit atomicity under crashes ----------------------------------------


class SimulatedCrash(BaseException):
    """Raised from a transaction's fault hook to model dying mid-commit.

    A ``BaseException`` so no library code accidentally swallows it.
    """


def crash_during_commit(txn, stage: str, index: int) -> None:
    """Arrange for ``txn.commit()`` to die right after (stage, index)."""

    def fault(at_stage: str, at_index: int) -> None:
        if (at_stage, at_index) == (stage, index):
            raise SimulatedCrash(f"crashed after {stage}[{index}]")

    txn.testing_fault = fault


#: Commit-path crash points for a three-write transaction: before the commit
#: record (nothing may survive) and after it (everything must survive).
CRASH_POINTS = [
    ("write-logged", 0, False),
    ("write-logged", 2, False),
    ("commit-logged", 0, True),
    ("applied", 0, True),
    ("applied", 1, True),
]


@pytest.mark.parametrize("stage,index,must_survive", CRASH_POINTS)
def test_crash_mid_commit_is_all_or_nothing(tmp_path, stage, index, must_survive):
    """A reopened store never exposes part of a transaction.

    The commit record is the atomic point: crashes anywhere before it (even
    with every write record already in the WAL) must recover none of the
    transaction's writes; crashes anywhere after it (even before a single
    write was applied in memory) must recover all three.
    """
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="amax")
    dataset.create_secondary_index("score", INDEX_PATH)
    for key in range(3):
        dataset.insert({"id": key, "generation": "old", "metrics": {"score": 1.0 + key}})

    txn = store.begin()
    for key in range(3):
        txn.insert(
            "docs", {"id": key, "generation": "new", "metrics": {"score": 50.0 + key}}
        )
    crash_during_commit(txn, stage, index)
    with pytest.raises(SimulatedCrash):
        txn.commit()
    del store, dataset, txn  # the process "dies"; the directory survives

    reopened = Datastore.open(str(tmp_path))
    info = reopened.last_recovery
    recovered = reopened.dataset("docs")
    expected_generation = "new" if must_survive else "old"
    for key in range(3):
        document = recovered.point_lookup(key)
        assert document["generation"] == expected_generation, (
            f"crash after {stage}[{index}]: partial transaction exposed"
        )
    # The secondary index agrees with the surviving generation.
    index_keys = sorted(recovered.secondary_indexes["score"].search_range(0.0, 100.0))
    assert index_keys == [0, 1, 2]
    assert sorted(recovered.secondary_indexes["score"].search_range(50.0, 53.0)) == (
        [0, 1, 2] if must_survive else []
    )
    if must_survive:
        assert info.wal_commit_records == 1
        assert info.wal_records_skipped_uncommitted == 0
    else:
        assert info.wal_commit_records == 0
        # Whatever write records made it to the log were orphaned and skipped.
        assert info.wal_records_skipped_uncommitted == index + 1
    reopened.close()


def test_crash_after_commit_record_survives_even_with_flushed_neighbors(tmp_path):
    """Replayed transaction writes coexist with checkpointed auto-commits."""
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="vector")
    for key in range(20):
        dataset.insert({"id": key, "v": "base"})
    store.checkpoint()  # the base generation is durable without the WAL

    txn = store.begin()
    txn.insert("docs", {"id": 5, "v": "txn"})
    txn.insert("docs", {"id": 50, "v": "txn"})
    crash_during_commit(txn, "commit-logged", 0)
    with pytest.raises(SimulatedCrash):
        txn.commit()
    del store, dataset, txn

    reopened = Datastore.open(str(tmp_path))
    recovered = reopened.dataset("docs")
    assert recovered.point_lookup(5) == {"id": 5, "v": "txn"}
    assert recovered.point_lookup(50) == {"id": 50, "v": "txn"}
    assert recovered.point_lookup(6) == {"id": 6, "v": "base"}
    assert recovered.count() == 21
    reopened.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_crash_mid_commit_differential(tmp_path, seed):
    """Random workloads + a transaction crashing at a random commit stage.

    The oracle applies the transaction's writes exactly when the crash point
    lies at-or-after the commit record; recovery must match the oracle on
    every probe, run after run (the reopened store hosts the next round).
    """
    base_seed = resolve_seed(seed)
    rng = random.Random(derive_seed(base_seed, 5000))
    oracle: dict = {}
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="amax")
    dataset.create_secondary_index("score", INDEX_PATH)
    dataset.create_primary_key_index()

    for round_index in range(6):
        run_workload(dataset, oracle, rng, operations=rng.randrange(30, 90))

        txn = store.begin()
        staged = {}
        for _ in range(rng.randint(1, 5)):
            key = rng.randrange(KEY_SPACE)
            if rng.random() < 0.85:
                document = random_document(rng, key)
                txn.insert("docs", document)
                staged[key] = document
            else:
                txn.delete("docs", key)
                staged[key] = None
        stage, index = rng.choice(
            [
                ("write-logged", rng.randrange(len(staged))),
                ("commit-logged", 0),
                ("applied", rng.randrange(len(staged))),
            ]
        )
        crash_during_commit(txn, stage, index)
        with pytest.raises(SimulatedCrash):
            txn.commit()
        if stage != "write-logged":  # the commit record made it out
            for key, document in staged.items():
                if document is None:
                    oracle.pop(key, None)
                else:
                    oracle[key] = document
        del store, dataset, txn

        store = Datastore.open(str(tmp_path))
        dataset = store.dataset("docs")
        verify_against_oracle(dataset, oracle, rng)
    store.close()


def test_conflicting_commit_leaves_no_wal_residue(tmp_path):
    """A validation failure aborts before logging: replay sees nothing."""
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="open")
    dataset.insert({"id": 1, "v": "first"})
    txn = store.begin()
    txn.insert("docs", {"id": 1, "v": "loser"})
    dataset.insert({"id": 1, "v": "winner"})  # invalidates the transaction
    with pytest.raises(TransactionConflictError):
        txn.commit()
    del store, dataset, txn

    reopened = Datastore.open(str(tmp_path))
    assert reopened.last_recovery.wal_records_skipped_uncommitted == 0
    assert reopened.last_recovery.wal_commit_records == 0
    assert reopened.dataset("docs").point_lookup(1) == {"id": 1, "v": "winner"}
    reopened.close()


def test_reopen_preserves_statistics_and_schema(tmp_path):
    """Recovered components still feed the cost-based optimizer."""
    store = Datastore(make_config(tmp_path))
    dataset = store.create_dataset("docs", layout="amax")
    for i in range(200):
        dataset.insert({"id": i, "metrics": {"score": float(i % 100)}})
    dataset.flush_all()
    expected_columns = dataset.inferred_column_count()
    del store, dataset

    recovered = Datastore.open(str(tmp_path)).dataset("docs")
    assert recovered.inferred_column_count() == expected_columns
    statistics = recovered.statistics()
    column = statistics.columns[INDEX_PATH]
    assert column.count == 200
    assert column.min_value == 0.0 and column.max_value == 99.0
    assert column.histogram is not None
