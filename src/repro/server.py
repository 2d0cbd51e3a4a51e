"""``python -m repro.server`` — the wire server executable.

Two modes share one protocol:

* **engine** (default): serve a single :class:`~repro.store.datastore.
  Datastore` — in-memory (``--empty``/``--demo``) or durable (``--store
  DIR``, reopened through recovery when the directory already holds a
  manifest).  This is what each *shard* of a cluster runs.
* **coordinator**: serve a :class:`~repro.shard.coordinator.
  ShardedDatastore` — either over shards this process spawns itself
  (``--shards N --data-dir DIR``) or over externally managed ones
  (``--shard-addrs host:port,host:port``).

Startup handshake: with ``--ready-file PATH`` the server atomically writes
``{"host", "port", "pid", "role"}`` once it is listening — with ``--port 0``
that file is how the parent learns the bound port.

SIGTERM/SIGINT trigger the graceful drain: stop accepting, finish in-flight
statements, roll back open transactions (notifying their clients), and close
the store through its checkpoint path so a restart replays an empty WAL
tail.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from dataclasses import fields
from typing import List, Optional, Tuple

from .net.server import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_EXECUTOR_WORKERS,
    SessionHandler,
    WireServer,
)
from .store.config import StoreConfig
from .store.datastore import Datastore
from .store.manifest import DATASTORE_MANIFEST


def _parse_address(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, int(port)


def _config_overrides(text: str) -> dict:
    """Parse ``--config-json``: a JSON object of known StoreConfig fields."""
    try:
        overrides = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise argparse.ArgumentTypeError(
            f"expected a JSON object, got {type(overrides).__name__}"
        )
    unknown = sorted(set(overrides) - {f.name for f in fields(StoreConfig)})
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown StoreConfig field(s): {', '.join(unknown)}"
        )
    return overrides


def _store_overrides(args: argparse.Namespace) -> dict:
    """``--config-json`` with the dedicated flags applied on top."""
    overrides = dict(args.config_json or {})
    if args.partitions_per_node is not None:
        overrides["partitions_per_node"] = args.partitions_per_node
    if args.background_workers is not None:
        overrides["background_workers"] = args.background_workers
    return overrides


def _engine_store(args: argparse.Namespace) -> Datastore:
    overrides = _store_overrides(args)
    if args.store:
        if os.path.exists(os.path.join(args.store, DATASTORE_MANIFEST)):
            # Existing directory: recover; config comes from its manifest.
            return Datastore.open(args.store)
        os.makedirs(args.store, exist_ok=True)
        return Datastore(StoreConfig(storage_directory=args.store, **overrides))
    if args.demo:
        from .shell import make_demo_store

        return make_demo_store()
    return Datastore(StoreConfig(**overrides))


def _write_ready_file(path: str, server: WireServer, role: str) -> None:
    payload = {
        "host": server.bound_host,
        "port": server.bound_port,
        "pid": os.getpid(),
        "role": role,
    }
    # Atomic: pollers must never observe a half-written JSON document.
    temporary = f"{path}.tmp.{os.getpid()}"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)


async def _serve(args: argparse.Namespace) -> None:
    cluster = None
    if args.shards or args.shard_addrs:
        from .shard.coordinator import ShardCluster, ShardedDatastore

        if args.shard_addrs:
            addresses: List[Tuple[str, int]] = args.shard_addrs
        else:
            if not args.data_dir:
                raise SystemExit("--shards requires --data-dir")
            cluster = ShardCluster(
                args.shards, args.data_dir, host=args.host
            )
            addresses = cluster.live_addresses()
        store = ShardedDatastore(addresses)
        role = "coordinator"

        def backend_close() -> None:
            if cluster is not None:
                store.shutdown_shards()  # graceful per-shard checkpoint
            store.close()
            if cluster is not None:
                cluster.terminate()

    else:
        store = _engine_store(args)
        role = "engine"
        backend_close = store.close

    server = WireServer(
        lambda: SessionHandler(store),  # one handler class, either store
        host=args.host,
        port=args.port,
        role=role,
        backend_close=backend_close,
        drain_timeout=args.drain_timeout,
        executor_workers=args.executor_workers,
        metrics=store.metrics,
    )
    await server.start()
    server.install_signal_handlers()
    if args.ready_file:
        _write_ready_file(args.ready_file, server, role)
    print(
        f"repro {role} server listening on "
        f"{server.bound_host}:{server.bound_port}",
        file=sys.stderr,
    )
    await server.wait_closed()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a datastore (or a shard cluster) over the wire protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free port)"
    )
    backend = parser.add_mutually_exclusive_group()
    backend.add_argument(
        "--store", metavar="DIR", help="durable datastore directory (engine mode)"
    )
    backend.add_argument(
        "--empty", action="store_true", help="empty in-memory store (engine mode)"
    )
    backend.add_argument(
        "--demo",
        action="store_true",
        help="in-memory store with the gamers demo dataset (engine mode)",
    )
    backend.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="coordinator mode: spawn N shard engines under --data-dir",
    )
    backend.add_argument(
        "--shard-addrs",
        type=lambda text: [_parse_address(part) for part in text.split(",")],
        metavar="H:P,H:P",
        help="coordinator mode: use already-running shards at these addresses",
    )
    parser.add_argument(
        "--data-dir", metavar="DIR", help="root directory for spawned shard stores"
    )
    parser.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write {host, port, pid} here once listening",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=DEFAULT_DRAIN_TIMEOUT,
        help="seconds to wait for in-flight statements on shutdown",
    )
    parser.add_argument(
        "--executor-workers",
        type=int,
        default=DEFAULT_EXECUTOR_WORKERS,
        help="statement-execution thread-pool size",
    )
    parser.add_argument(
        "--config-json",
        type=_config_overrides,
        metavar="JSON",
        help="StoreConfig field overrides as a JSON object, applied when "
        "creating a new store (an existing --store directory keeps the "
        "config persisted in its manifest)",
    )
    parser.add_argument(
        "--partitions-per-node", type=int, default=None, help="store partition count"
    )
    parser.add_argument(
        "--background-workers",
        type=int,
        default=None,
        help="background flush/merge threads per shard store",
    )
    args = parser.parse_args(argv)
    overrides = _store_overrides(args)
    try:
        StoreConfig(**overrides).validate()
    except (TypeError, ValueError) as exc:
        parser.error(
            f"invalid store config from --config-json and flags {overrides}: {exc}"
        )
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
