"""Shared test plumbing: deterministic-replay RNG seeds.

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

import os
import random
from typing import List

import pytest

SEED_ENV = "REPRO_TEST_SEED"

#: The deleted third executor's name — what a pre-PR-16 client may still send.
#: Spelled here once for the tests that assert it is rejected (CI greps the
#: rest of the tree for it).
RETIRED_EXECUTOR = "codegen"

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
