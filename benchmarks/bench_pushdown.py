"""Scan pushdown vs. assemble-then-filter (the Figure 14 query shape).

Runs a selective filter + projection query over the wide ``tweet_1`` dataset
under every layout, once with the pushdown rewrite enabled and once disabled:

* **disabled** — the pre-existing path: every scanned row assembles its full
  (top-level-projected) document and the FILTER drops ~97% of them afterwards;
* **enabled** — the scan reads only the referenced column *paths*, evaluates
  the pushed comparison on decoded column batches, and assembles documents
  only for the survivors; leaf groups whose min/max statistics exclude the
  predicate are skipped without decoding any value column.

The columnar layouts must read fewer pages and run faster with pushdown while
returning identical rows; the row layouts fall back transparently (identical
results, no pushdown effect on their I/O).
"""

from __future__ import annotations

import pytest

from repro.bench import run_query
from repro.bench.reporting import print_figure
from repro.query import Field, Query, Var

LAYOUT_ORDER = ("open", "vector", "apax", "amax")

#: ~3% of tweets have followers_count above this (uniform over 0..100_000).
FOLLOWERS_THRESHOLD = 97_000


def pushdown_selective(dataset: str) -> Query:
    t = Var("t")
    return (
        Query(dataset, "t")
        .where(Field(t, "user.followers_count") > FOLLOWERS_THRESHOLD)
        .group_by(
            key=("location", Field(t, "user.location")),
            aggregates=[("n", "count", None), ("rts", "sum", Field(t, "retweet_count"))],
        )
        .order_by("location")
    )


def pushdown_no_match(dataset: str) -> Query:
    # Nothing can match: every leaf group is excluded by min/max statistics
    # alone, so columnar scans touch key metadata but no value columns.
    t = Var("t")
    return (
        Query(dataset, "t")
        .where(Field(t, "retweet_count") > 10_000_000)
        .select([("id", Field(t, "id")), ("text", Field(t, "text"))])
    )


def _run(fixtures, query_factory):
    results = {}
    reference = None
    for layout in LAYOUT_ORDER:
        per_mode = {}
        for mode, enabled in (("pushdown", True), ("baseline", False)):
            result = run_query(
                fixtures[layout], query_factory, repetitions=3, pushdown=enabled
            )
            per_mode[mode] = result
            if reference is None:
                reference = result.rows
            else:
                assert result.rows == reference, (
                    f"{query_factory.__name__}: {layout}/{mode} diverges"
                )
        results[layout] = per_mode
    return results


def _report(title, results):
    rows = [
        [
            layout,
            round(per_mode["baseline"].seconds, 4),
            round(per_mode["pushdown"].seconds, 4),
            per_mode["baseline"].pages_read,
            per_mode["pushdown"].pages_read,
            round(
                per_mode["baseline"].seconds / max(per_mode["pushdown"].seconds, 1e-9), 2
            ),
        ]
        for layout, per_mode in results.items()
    ]
    print_figure(
        title,
        ["layout", "baseline (s)", "pushdown (s)", "baseline pages", "pushdown pages", "speedup"],
        rows,
    )


def test_pushdown_selective_filter(benchmark, tweet1_fixtures):
    results = benchmark.pedantic(
        lambda: _run(tweet1_fixtures, pushdown_selective), rounds=1, iterations=1
    )
    _report("Scan pushdown — selective filter over tweet_1 (~3% selectivity)", results)
    # AMAX reads per-column megapages: pruning the projection to three paths
    # and skipping assembly for ~97% of rows shows up directly as fewer pages.
    amax = results["amax"]
    assert amax["pushdown"].pages_read < amax["baseline"].pages_read
    # APAX leaves are single pages holding every column, so its win is CPU,
    # not I/O (§4.2/§4.3): only the predicate + projected minipages are
    # decoded and failing rows never assemble.  Both columnar layouts must be
    # measurably faster in wall-clock time.
    for layout in ("apax", "amax"):
        per_mode = results[layout]
        assert per_mode["pushdown"].seconds < per_mode["baseline"].seconds
    # Row layouts fall back transparently: same I/O either way.
    for layout in ("open", "vector"):
        per_mode = results[layout]
        assert per_mode["pushdown"].pages_read == per_mode["baseline"].pages_read


def test_pushdown_min_max_group_skipping(benchmark, tweet1_fixtures):
    results = benchmark.pedantic(
        lambda: _run(tweet1_fixtures, pushdown_no_match), rounds=1, iterations=1
    )
    _report("Scan pushdown — min/max group skipping (0% selectivity)", results)
    for layout in ("apax", "amax"):
        per_mode = results[layout]
        assert per_mode["pushdown"].pages_read < per_mode["baseline"].pages_read
        assert per_mode["pushdown"].seconds < per_mode["baseline"].seconds
