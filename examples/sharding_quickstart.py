"""Spin up a shard cluster, push aggregates down, and survive a crash.

Run from the repository root:

    PYTHONPATH=src python examples/sharding_quickstart.py [num_shards]

This is the programmatic twin of the server quickstart in the README:
:class:`~repro.shard.coordinator.ShardCluster` spawns one ``python -m
repro.server`` engine process per shard (each with its own durable store
directory, manifest, and WAL), and :class:`~repro.shard.coordinator.
ShardedDatastore` routes point operations by hashed primary key
(``store.dataset(name)`` is the routing view) while running SELECTs as
scatter-gather with partial-aggregate pushdown.
"""

from __future__ import annotations

import sys
import tempfile

from repro.datasets.generators import make_generator
from repro.shard.coordinator import ShardCluster, shard_for_key


def main(num_shards: int = 2) -> None:
    documents = list(make_generator("cell", 300, seed=7))
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as root:
        with ShardCluster(num_shards, root) as cluster:
            with cluster.connect() as store:
                print(f"cluster up: {num_shards} shards at {cluster.live_addresses()}")

                store.create_dataset("calls", layout="amax")
                calls = store.dataset("calls")  # routes by hashed primary key
                calls.insert_many(documents)
                print(f"inserted {calls.count()} call records")
                for key in (1, 2, 3):
                    owner = shard_for_key(key, num_shards)
                    print(f"  key {key} lives on shard {owner}: "
                          f"{calls.point_lookup(key)['caller']}")

                rows = store.query(
                    "SELECT AVG(c.duration) AS avg_duration, "
                    "COUNT(*) AS calls FROM calls AS c;"
                )
                # What the statement moved is on its span tree: the merge
                # span counts the rows that crossed the wire (rows_in).
                merge = store.last_trace.find("merge")
                print(f"aggregate answer: {rows[0]}")
                print(
                    f"pushdown proof: {merge.attrs['rows_in']} partial rows "
                    f"crossed the wire (one per shard), not "
                    f"{len(documents)} documents"
                )

                print("\ndistributed plan:")
                print(store.explain(
                    "SELECT c.tower AS tower, AVG(c.signal) AS avg_signal "
                    "FROM calls AS c GROUP BY c.tower;"
                ))

                # Crash a shard mid-flight and bring it back: it recovers from
                # its own manifest + WAL, and the coordinator reconnects.
                victim = shard_for_key(1, num_shards)
                print(f"\nkilling shard {victim} (SIGKILL) ...")
                cluster.kill_shard(victim)
                address = cluster.restart_shard(victim)
                store.reconnect_shard(victim, address)
                recovery = store.recovery_info(victim)
                print(
                    f"shard {victim} back at {address[0]}:{address[1]}, "
                    f"replayed {recovery['wal_records_replayed']} WAL records"
                )
                print(f"count after recovery: {calls.count()}")
                print(f"key 1 still readable: {calls.point_lookup(1)['caller']}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
