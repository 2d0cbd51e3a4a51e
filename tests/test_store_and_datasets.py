"""Tests for the datastore façade, dataset generators, Dremel baseline, and harness."""

from __future__ import annotations

import pytest

from repro import Datastore, StoreConfig
from repro.bench import load_dataset, run_query
from repro.bench.queries import QUERY_SUITES
from repro.core import DremelShredder, Schema
from repro.datasets import DEFAULT_BENCH_SIZES, GENERATORS, make_generator
from repro.encoding import compression
from repro.index import PrimaryKeyIndex, SecondaryIndex
from repro.model.errors import DatasetError
from repro.storage import StorageDevice


class TestStoreConfig:
    def test_defaults_valid(self):
        config = StoreConfig()
        config.validate()
        assert config.total_partitions == 2
        assert config.concurrent_merge_limit() == 1

    def test_explicit_merge_limit(self):
        config = StoreConfig(max_concurrent_merges=3)
        assert config.concurrent_merge_limit() == 3

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            StoreConfig(page_size=100).validate()

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            StoreConfig(amax_empty_page_tolerance=1.0).validate()

    def test_unknown_codec_rejected(self, monkeypatch):
        # Otherwise accepted, and a columnar flush fails after acknowledged writes.
        with pytest.raises(ValueError, match="lz4"):
            StoreConfig(compression="lz4").validate()
        # A codec added through register_codec is valid by its name.
        monkeypatch.setattr(compression, "_CODECS", dict(compression._CODECS))
        lz4 = compression.NoopCodec()
        lz4.name = "lz4"
        compression.register_codec(lz4)
        StoreConfig(compression="lz4").validate()

    def test_zero_tolerable_components_rejected(self):
        # Otherwise the merge policy picks components [0, 1] with only one.
        with pytest.raises(ValueError, match="max_tolerable_components"):
            StoreConfig(max_tolerable_components=0).validate()

    def test_zero_concurrent_merges_rejected(self):
        # Otherwise merging silently stops; None (half the partitions) stays valid.
        with pytest.raises(ValueError, match="max_concurrent_merges"):
            StoreConfig(max_concurrent_merges=0).validate()
        StoreConfig(max_concurrent_merges=None).validate()


class TestDatastore:
    def test_create_and_drop_dataset(self):
        store = Datastore(StoreConfig(partitions_per_node=1))
        dataset = store.create_dataset("d", layout="apax")
        dataset.insert({"id": 1, "x": 1})
        dataset.flush_all()
        assert store.total_storage_bytes() > 0
        with pytest.raises(DatasetError):
            store.create_dataset("d")
        store.drop_dataset("d")
        with pytest.raises(DatasetError):
            store.dataset("d")

    def test_unknown_layout_rejected(self):
        store = Datastore()
        with pytest.raises(DatasetError):
            store.create_dataset("bad", layout="parquet")

    def test_missing_primary_key_rejected(self):
        store = Datastore()
        dataset = store.create_dataset("d", layout="vector")
        with pytest.raises(DatasetError):
            dataset.insert({"name": "no key"})

    def test_custom_primary_key_field(self):
        store = Datastore(StoreConfig(partitions_per_node=1))
        dataset = store.create_dataset("users", layout="amax", primary_key_field="user_id")
        dataset.insert({"user_id": "u1", "name": "Ann"})
        dataset.flush_all()
        assert dataset.point_lookup("u1")["name"] == "Ann"

    def test_scan_reconciles_memtable_and_disk(self):
        store = Datastore(StoreConfig(partitions_per_node=1))
        dataset = store.create_dataset("d", layout="amax")
        dataset.insert({"id": 1, "v": "old"})
        dataset.flush_all()
        dataset.insert({"id": 1, "v": "new"})  # still in the memtable
        assert dict(dataset.scan())[1]["v"] == "new"


class TestSecondaryIndexes:
    def test_search_and_reconcile(self):
        device = StorageDevice(page_size=8 * 1024)
        index = SecondaryIndex("idx", "ts", device, buffer_limit=10)
        for i in range(30):
            index.insert(1000 + i, i)
        index.delete(1005, 5)
        index.flush()
        keys = index.search_range(1000, 1009)
        assert sorted(keys) == [0, 1, 2, 3, 4, 6, 7, 8, 9]
        assert index.size_bytes > 0
        assert index.entry_count >= 30
        index.destroy()
        assert index.size_bytes == 0

    def test_extract_handles_missing_and_nested(self):
        device = StorageDevice(page_size=8 * 1024)
        index = SecondaryIndex("idx", "user.name", device)
        assert index.extract({"user": {"name": "Ann"}}) == "Ann"
        assert index.extract({"user": {}}) is None
        assert index.extract(None) is None
        assert index.extract({"user": {"name": ["not", "atomic"]}}) is None

    def test_primary_key_index(self):
        device = StorageDevice(page_size=8 * 1024)
        index = PrimaryKeyIndex("pk", device, buffer_limit=5)
        for key in range(12):
            index.insert(key)
        index.flush()
        assert 3 in index and 99 not in index
        assert index.key_count == 12
        assert index.size_bytes > 0

    def test_index_maintenance_uses_point_lookups_only_for_existing_keys(self):
        store = Datastore(StoreConfig(partitions_per_node=1))
        dataset = store.create_dataset("d", layout="amax")
        dataset.create_primary_key_index()
        dataset.create_secondary_index("ts", "ts")
        for i in range(50):
            dataset.insert({"id": i, "ts": i})
        assert dataset.point_lookups_performed == 0  # all keys were new
        dataset.flush_all()
        for i in range(10):
            dataset.insert({"id": i, "ts": 1000 + i})
        assert dataset.point_lookups_performed == 10  # updates require lookups
        dataset.flush_all()
        assert sorted(dataset.secondary_indexes["ts"].search_range(1000, 1009)) == list(range(10))


class TestDatasetGenerators:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_deterministic_and_keyed(self, name):
        first = list(make_generator(name, 20, seed=3))
        second = list(make_generator(name, 20, seed=3))
        assert first == second
        assert [doc["id"] for doc in first] == list(range(20))

    def test_default_sizes_cover_all_datasets(self):
        assert set(DEFAULT_BENCH_SIZES) == set(GENERATORS)

    def test_wos_heterogeneous_addresses(self):
        docs = list(make_generator("wos", 60, seed=1))
        kinds = {
            type(doc["static_data"]["fullrecord_metadata"]["addresses"]["address_name"])
            for doc in docs
        }
        assert dict in kinds and list in kinds  # the union-type trigger

    def test_tweet2_timestamps_monotone(self):
        docs = list(make_generator("tweet_2", 50))
        timestamps = [doc["timestamp"] for doc in docs]
        assert timestamps == sorted(timestamps)

    def test_tweet1_is_wide(self):
        schema = Schema()
        for doc in make_generator("tweet_1", 200):
            schema.observe(doc)
        assert schema.num_columns > 50

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            make_generator("imdb")


class TestClassicDremel:
    def test_figure4_levels(self):
        gamers = [
            {"id": 0, "games": [{"title": "NFL"}]},
            {"id": 1, "name": {"last": "Brown"}, "games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}]},
            {
                "id": 2,
                "name": {"first": "John", "last": "Smith"},
                "games": [
                    {"title": "NBA", "consoles": ["PS4", "PC"]},
                    {"title": "NFL", "consoles": ["XBOX"]},
                ],
            },
            {"id": 3},
        ]
        schema = Schema()
        for record in gamers:
            schema.observe(record)
        shredder = DremelShredder(schema)
        for record in gamers:
            shredder.shred(record["id"], record)
        by_path = {
            column.column.dotted_path: column for column in shredder.columns.values()
        }
        titles = by_path["games.[*].title"]
        # Figure 4b: (r, d, value) triplets for games[*].title.
        assert [(r, d) for r, d, _ in titles.triplets] == [(0, 3), (0, 3), (0, 3), (1, 3), (0, 0)]
        consoles = by_path["games.[*].consoles.[*]"]
        assert [(r, d) for r, d, _ in consoles.triplets] == [
            (0, 2), (0, 4), (2, 4), (0, 4), (2, 4), (1, 4), (0, 0),
        ]
        assert titles.level_bytes() > 0
        assert shredder.total_level_bytes() > 0


class TestHarness:
    def test_load_and_query_smoke(self):
        fixture = load_dataset("amax", "cell", num_records=300)
        assert fixture.load.records == 300
        assert fixture.load.storage_bytes > 0
        result = run_query(fixture, QUERY_SUITES["cell"][0])
        assert result.rows == [{"count": 300}]
        assert result.seconds >= 0
