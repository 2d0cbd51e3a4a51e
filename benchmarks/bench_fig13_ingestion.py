"""Figure 13a: ingestion time per dataset and layout.

Expected shape (paper §6.3):

* ``cell``    — ingestion is bottlenecked by the transaction log buffer, so
  the four layouts ingest at roughly the same rate.  This engine does not
  model that §6.3.1 log-buffer bottleneck (its log is one flushed file
  append per record), so only the real per-layout times are reported and
  checked, like every other dataset's;
* ``sensors`` — Open is the slowest (recursive record construction); VB and the
  columnar layouts are comparable;
* ``tweet_1`` — APAX pays the highest columnar-transformation cost (hundreds of
  columns per page);
* ``tweet_2`` (update-intensive with secondary indexes) — the columnar layouts
  are slower than the row layouts because index maintenance point lookups must
  decode columns.
"""

from __future__ import annotations

from repro.bench import update_workload
from repro.bench.reporting import print_figure


def _times(fixtures):
    return {layout: fixture.load.seconds for layout, fixture in fixtures.items()}


def test_fig13a_insert_only(
    benchmark, cell_fixtures, sensors_fixtures, tweet1_fixtures, wos_fixtures
):
    datasets = {
        "cell": cell_fixtures,
        "sensors": sensors_fixtures,
        "tweet_1": tweet1_fixtures,
        "wos": wos_fixtures,
    }
    times = benchmark.pedantic(
        lambda: {name: _times(fixtures) for name, fixtures in datasets.items()},
        rounds=1,
        iterations=1,
    )
    rows = [
        [name] + [round(by_layout[layout], 3) for layout in ("open", "vector", "apax", "amax")]
        for name, by_layout in times.items()
    ]
    print_figure(
        "Figure 13a — Ingestion time, insert-only (seconds)",
        ["dataset", "open", "vector", "apax", "amax"],
        rows,
    )
    sensors = times["sensors"]
    # VB ingests faster than Open for record-construction-bound datasets.
    assert sensors["vector"] < sensors["open"]
    # The columnar transformation cost keeps APAX/AMAX within a reasonable
    # factor of the row layouts (they are not free, but not pathological).
    for name, by_layout in times.items():
        assert by_layout["amax"] < 6 * by_layout["vector"], name


def test_fig13a_update_intensive_tweet2(benchmark, tweet2_fixtures):
    """50 % uniform updates with a timestamp index and a primary-key index."""
    times = benchmark.pedantic(
        lambda: {
            layout: update_workload(fixture, update_fraction=0.5)
            for layout, fixture in tweet2_fixtures.items()
        },
        rounds=1,
        iterations=1,
    )
    lookups = {
        layout: fixture.store.dataset(fixture.dataset_name).point_lookups_performed
        for layout, fixture in tweet2_fixtures.items()
    }
    rows = [
        [layout, round(seconds, 3), lookups[layout]] for layout, seconds in times.items()
    ]
    print_figure(
        "Figure 13a (tweet_2) — update-intensive ingestion with secondary indexes",
        ["layout", "seconds", "point lookups"],
        rows,
    )
    # Updating under columnar layouts costs more than under row layouts
    # because every point lookup decodes column values (§6.3.2).
    assert times["amax"] > 0.9 * times["open"]
    assert times["apax"] > 0.9 * times["open"]
    # Every layout performed the same number of index-maintenance point lookups.
    assert len(set(lookups.values())) == 1
