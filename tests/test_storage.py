"""Tests for the storage substrate: device, component files, buffer cache, WAL."""

from __future__ import annotations

import pytest

from repro.lsm.merge_policy import MergeScheduler, NoMergePolicy, TieringMergePolicy
from repro.lsm.wal import (
    LogManager,
    WALRecord,
    decode_wal_record,
    encode_wal_record,
)
from repro.model.errors import StorageError
from repro.obs import maintenance_io
from repro.storage import BufferCache, IOStats, StorageDevice


class TestStorageDevice:
    def test_append_and_read(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        page_id = handle.append_page(b"hello")
        assert page_id == 0
        assert handle.read_page(0) == b"hello"
        assert handle.num_pages == 1
        assert handle.size_bytes == 4096
        assert handle.payload_bytes == 5

    def test_page_too_large(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        with pytest.raises(StorageError):
            handle.append_page(b"x" * 5000)

    def test_rewrite_page(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        handle.append_page(b"")
        handle.rewrite_page(0, b"fixed")
        assert handle.read_page(0) == b"fixed"
        with pytest.raises(StorageError):
            handle.rewrite_page(5, b"nope")

    def test_delete_file(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        handle.append_page(b"data")
        device.delete_file("c1")
        with pytest.raises(StorageError):
            handle.read_page(0)
        with pytest.raises(StorageError):
            device.get_file("c1")

    def test_duplicate_name_rejected(self):
        device = StorageDevice(page_size=4096)
        device.create_file("c1")
        with pytest.raises(StorageError):
            device.create_file("c1")

    def test_io_accounting(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        handle.append_page(b"a" * 100)
        handle.read_page(0)
        assert device.stats.pages_written == 1
        assert device.stats.pages_read == 1
        assert device.stats.bytes_written == 4096

    def test_io_is_charged_to_its_source(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        handle.append_page(b"a" * 100)
        log = device.open_log_file("wal")
        with maintenance_io():
            handle.read_page(0)
            log.append_record(b"m")
        handle.read_page(0)
        handle.read_page(0)
        query = device.stats_by_source["query"]
        maintenance = device.stats_by_source["maintenance"]
        assert (query.pages_written, query.pages_read) == (1, 2)
        assert (maintenance.pages_written, maintenance.pages_read) == (0, 1)
        assert (query.wal_appends, maintenance.wal_appends) == (0, 1)
        total = device.stats
        assert (total.pages_read, total.pages_written) == (3, 1)
        assert total.bytes_read == 3 * 4096
        assert total.wal_appends == 1
        assert total.wal_bytes_written == maintenance.wal_bytes_written > 1

    def test_on_disk_persistence(self, tmp_path):
        device = StorageDevice(page_size=4096, directory=str(tmp_path))
        handle = device.create_file("c1")
        handle.append_page(b"persist me")
        handle.append_page(b"")
        handle.rewrite_page(1, b"fixed up")
        device.close()
        # A brand-new device (a new process, after a crash) reads it back.
        reopened = StorageDevice(page_size=4096, directory=str(tmp_path))
        restored = reopened.open_file("c1")
        assert restored.num_pages == 2
        assert restored.read_page(0) == b"persist me"
        assert restored.read_page(1) == b"fixed up"

    def test_on_disk_names_cannot_collide(self, tmp_path):
        device = StorageDevice(page_size=4096, directory=str(tmp_path))
        # Distinct component names always map to distinct paths (the old
        # ``replace("/", "_")`` scheme collided these two).
        device.create_file("a/b").append_page(b"slash")
        device.create_file("a_b").append_page(b"underscore")
        reopened = StorageDevice(page_size=4096, directory=str(tmp_path))
        assert reopened.open_file("a/b").read_page(0) == b"slash"
        assert reopened.open_file("a_b").read_page(0) == b"underscore"
        assert sorted(reopened.list_disk_component_names()) == ["a/b", "a_b"]

    def test_corrupt_page_detected(self, tmp_path):
        device = StorageDevice(page_size=4096, directory=str(tmp_path))
        device.create_file("c1").append_page(b"checksummed")
        device.close()
        path = next(p for p in tmp_path.iterdir())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte under the checksum
        path.write_bytes(bytes(raw))
        reopened = StorageDevice(page_size=4096, directory=str(tmp_path))
        with pytest.raises(StorageError):
            reopened.open_file("c1")


class TestLogFile:
    def test_append_and_reload(self, tmp_path):
        device = StorageDevice(page_size=4096, directory=str(tmp_path))
        log = device.open_log_file("wal-node0.log")
        log.append_record(b"first")
        log.append_record(b"second")
        device.close()
        reopened = StorageDevice(page_size=4096, directory=str(tmp_path))
        restored = reopened.open_log_file("wal-node0.log")
        assert restored.records == [b"first", b"second"]
        assert reopened.stats.wal_appends == 0  # loads are reads, not appends

    def test_torn_tail_is_discarded(self, tmp_path):
        device = StorageDevice(page_size=4096, directory=str(tmp_path))
        log = device.open_log_file("wal-node0.log")
        log.append_record(b"whole record")
        device.close()
        path = tmp_path / "wal-node0.log"
        raw = path.read_bytes()
        # Simulate a crash mid-append: a second record cut off halfway.
        path.write_bytes(raw + raw[: len(raw) // 2])
        reopened = StorageDevice(page_size=4096, directory=str(tmp_path))
        restored = reopened.open_log_file("wal-node0.log")
        assert restored.records == [b"whole record"]
        # The torn bytes were truncated away, so appends continue cleanly.
        restored.append_record(b"after recovery")
        final = StorageDevice(page_size=4096, directory=str(tmp_path))
        assert final.open_log_file("wal-node0.log").records == [
            b"whole record",
            b"after recovery",
        ]

    def test_truncate(self, tmp_path):
        device = StorageDevice(page_size=4096, directory=str(tmp_path))
        log = device.open_log_file("wal-node0.log")
        log.append_record(b"gone after checkpoint")
        log.truncate()
        assert log.records == []
        reopened = StorageDevice(page_size=4096, directory=str(tmp_path))
        assert reopened.open_log_file("wal-node0.log").records == []


class TestIOStats:
    def test_snapshot_and_delta(self):
        stats = IOStats()
        stats.record_read(4096)
        snapshot = stats.snapshot()
        stats.record_read(4096)
        stats.record_write(4096)
        delta = stats.delta_since(snapshot)
        assert delta.pages_read == 1
        assert delta.pages_written == 1
        assert stats.as_dict()["pages_read"] == 2

    def test_add_and_dict_round_trip(self):
        stats = IOStats()
        stats.record_read(4096)
        stats.record_wal_append(12)
        total = IOStats.from_dict(stats.as_dict())
        total.add(stats)
        assert total.as_dict() == {
            "pages_read": 2, "pages_written": 0,
            "bytes_read": 8192, "bytes_written": 0,
            "cache_hits": 0, "cache_misses": 0,
            "wal_appends": 2, "wal_bytes_written": 24,
        }


class TestBufferCache:
    def test_hit_and_miss(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        handle.append_page(b"page0")
        cache = BufferCache(capacity_pages=4)
        assert cache.read_page(handle, 0) == b"page0"
        assert cache.read_page(handle, 0) == b"page0"
        assert cache.hits == 1 and cache.misses == 1
        assert device.stats.pages_read == 1  # second read was served by the cache
        assert 0 < cache.hit_ratio < 1

    def test_eviction(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        for index in range(6):
            handle.append_page(bytes([index]))
        cache = BufferCache(capacity_pages=2)
        for index in range(6):
            cache.read_page(handle, index)
        assert cache.cached_pages <= 2
        assert cache.evictions >= 4

    def test_invalidate_file(self):
        device = StorageDevice(page_size=4096)
        handle = device.create_file("c1")
        handle.append_page(b"x")
        cache = BufferCache(capacity_pages=2)
        cache.read_page(handle, 0)
        cache.invalidate_file("c1")
        assert cache.cached_pages == 0

    def test_confiscation(self):
        cache = BufferCache(capacity_pages=4)
        cache.confiscate(3)
        assert cache.confiscated_pages == 3
        cache.return_confiscated(2)
        assert cache.confiscated_pages == 1
        with pytest.raises(StorageError):
            cache.confiscate(-1)

    def test_invalid_capacity(self):
        with pytest.raises(StorageError):
            BufferCache(capacity_pages=0)


class TestMergePolicy:
    def test_no_merge_below_threshold(self):
        policy = TieringMergePolicy(max_tolerable_components=5)
        assert policy.select([100] * 5) is None

    def test_merge_selects_young_prefix(self):
        policy = TieringMergePolicy(size_ratio=1.2, max_tolerable_components=3)
        window = policy.select([100, 100, 100, 10_000])
        assert window is not None
        assert 0 in window and len(window) >= 2
        assert 3 not in window  # the huge old component is left alone

    def test_merge_includes_similar_sizes(self):
        policy = TieringMergePolicy(size_ratio=1.2, max_tolerable_components=2)
        # The accumulated size of the younger components (150, then 250) stays
        # at least 1.2x the next older one, so the whole sequence merges.
        window = policy.select([150, 100, 100])
        assert window == [0, 1, 2]
        # When the younger components are too small relative to the next older
        # one, the merge window stops early (at least two components merge).
        assert policy.select([100, 100, 100]) == [0, 1]

    def test_no_merge_policy(self):
        assert NoMergePolicy().select([1] * 100) is None


class TestMergeScheduler:
    def test_cap_enforced(self):
        scheduler = MergeScheduler(max_concurrent_merges=2)
        assert scheduler.try_start()
        assert scheduler.try_start()
        assert not scheduler.try_start()
        assert scheduler.deferred == 1
        scheduler.finish()
        assert scheduler.try_start()
        assert scheduler.max_observed_concurrency == 2


class TestTransactionLog:
    def test_log_manager_routing(self):
        manager = LogManager(num_nodes=4, partitions_per_node=2)
        assert len(manager.logs) == 4
        assert manager.log_for_partition(0) is manager.logs[0]
        assert manager.log_for_partition(7) is manager.logs[3]

    def test_record_codec_round_trip(self):
        document = {
            "id": 7,
            "name": "α-user",
            "nested": {"tags": ["a", "b"], "score": 1.5, "ok": True, "n": None},
        }
        record = WALRecord(42, "my/dataset", 3, False, "key-7", document)
        decoded = decode_wal_record(encode_wal_record(record))
        assert decoded == record
        tombstone = WALRecord(43, "my/dataset", 1, True, 7)
        assert decode_wal_record(encode_wal_record(tombstone)) == tombstone

    def test_log_record_appends_to_backing_file(self, tmp_path):
        device = StorageDevice(page_size=4096, directory=str(tmp_path))
        manager = LogManager(num_nodes=2, partitions_per_node=1, device=device)
        lsn_a = manager.log_for_partition(0).log_record("d", 0, 1, {"id": 1}, False)
        lsn_b = manager.log_for_partition(1).log_record("d", 1, 2, None, True)
        assert lsn_b == lsn_a + 1  # one global LSN sequence across node logs
        records = manager.iter_records()
        assert [record.lsn for record in records] == [lsn_a, lsn_b]
        assert records[0].document == {"id": 1}
        assert records[1].antimatter and records[1].key == 2
        assert manager.next_lsn > lsn_b
        assert device.stats.wal_appends == 2
        manager.truncate()
        assert manager.iter_records() == []
