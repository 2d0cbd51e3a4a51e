"""Join benchmarks: hash join vs correlated nested-loop, and window timings.

Two claims the PR 9 relational layer must back up:

* **The hash join earns its keep.**  "Orders per user" can be written as a
  hash join + GROUP BY or as a correlated ``(SELECT COUNT(*) ...)`` scalar
  subquery.  Both return identical rows, but the join is one build + one
  probe pass (O(N+M)) while the correlated form re-executes the inner plan
  per outer row (O(N*M)).  The bench runs both at growing scales and
  requires the gap to widen — the crossover the optimizer documentation
  promises.  The statistics-driven build side is pinned from ``explain()``
  on the same stores.
* **Window functions are executor-portable.**  The running-sum window query
  returns identical rows on the interpreted and batch executors; the bench
  records each executor's wall time.

Timings land in ``BENCH_joins.json`` (sections ``join_vs_correlated``,
``build_side``, and ``window_executors``) via :func:`write_bench_json`.
"""

from __future__ import annotations

import time

from repro.bench.reporting import print_figure, write_bench_json
from repro.query.executor import EXECUTORS
from repro.store import Datastore, StoreConfig

#: (users, orders) scales for the join-vs-correlated crossover.  Every user
#: owns orders (``user = i % num_users``) so both phrasings return the same
#: row set; the correlated form's cost grows with users × orders.
JOIN_SCALES = [(50, 500), (100, 1000), (200, 2000)]

JOIN_GROUPBY = (
    "SELECT u.id AS id, COUNT(*) AS n FROM orders AS o JOIN users AS u "
    "ON o.user = u.id GROUP BY u.id AS id ORDER BY id;"
)
CORRELATED_COUNT = (
    "SELECT u.id AS id, (SELECT COUNT(*) FROM orders AS o "
    "WHERE o.user = u.id) AS n FROM users AS u ORDER BY id;"
)

WINDOW_RECORDS = 4000
WINDOW_QUERY = (
    "SELECT o.id AS id, SUM(o.total) OVER (PARTITION BY o.user "
    "ORDER BY o.id) AS run FROM orders AS o ORDER BY id;"
)


def _orders_store(num_users: int, num_orders: int) -> Datastore:
    db = Datastore(StoreConfig(partitions_per_node=1))
    users = db.create_dataset("users", layout="amax")
    users.insert_many({"id": i, "name": f"u{i:04d}", "tier": i % 5} for i in range(num_users))
    users.flush_all()
    orders = db.create_dataset("orders", layout="amax")
    orders.insert_many(
        {"id": i, "user": i % num_users, "total": (i * 7) % 100}
        for i in range(num_orders)
    )
    orders.flush_all()  # statistics exist only for flushed components
    return db


def _timed(db, text: str):
    start = time.perf_counter()
    rows = db.query(text)
    return rows, time.perf_counter() - start


# ======================================================================================
# Hash join + GROUP BY vs correlated nested-loop subquery
# ======================================================================================


def test_hash_join_beats_correlated_nested_loop(benchmark):
    """Same answer two ways; the hash join's lead must widen with scale."""

    def run():
        measurements = []
        for num_users, num_orders in JOIN_SCALES:
            db = _orders_store(num_users, num_orders)
            try:
                join_rows, join_s = _timed(db, JOIN_GROUPBY)
                corr_rows, corr_s = _timed(db, CORRELATED_COUNT)
                assert join_rows == corr_rows, (num_users, num_orders)
                plan = db.explain(JOIN_GROUPBY)
                assert "HASH-JOIN users AS $u" in plan
                measurements.append(
                    {
                        "users": num_users,
                        "orders": num_orders,
                        "hash_join_s": join_s,
                        "correlated_s": corr_s,
                        "speedup": corr_s / join_s if join_s else float("nan"),
                        "build_side_swapped": "swapped by optimizer" in plan,
                    }
                )
            finally:
                db.close()
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)

    print_figure(
        "Per-user order counts: hash join vs correlated subquery",
        ["users", "orders", "hash join (s)", "correlated (s)", "speedup"],
        [
            [m["users"], m["orders"], m["hash_join_s"], m["correlated_s"], m["speedup"]]
            for m in measurements
        ],
    )
    write_bench_json("joins", "join_vs_correlated", measurements)
    write_bench_json(
        "joins",
        "build_side",
        {
            "query": JOIN_GROUPBY,
            "swapped_by_optimizer": measurements[-1]["build_side_swapped"],
        },
    )

    # The nested loop re-runs the inner scan per user: at the largest scale
    # the hash join must win, and by more than it did at the smallest.
    assert measurements[-1]["speedup"] > 1.0, measurements
    assert measurements[-1]["speedup"] > measurements[0]["speedup"] * 0.5, measurements


# ======================================================================================
# Window functions across both executors
# ======================================================================================


def test_window_query_times_across_executors(benchmark):
    """Partitioned running sum: identical rows, per-executor wall time."""
    db = _orders_store(num_users=100, num_orders=WINDOW_RECORDS)
    try:

        def run():
            timings = {}
            reference = None
            for executor in EXECUTORS:
                start = time.perf_counter()
                rows = db.query(WINDOW_QUERY, executor=executor)
                timings[executor] = time.perf_counter() - start
                if reference is None:
                    reference = rows
                else:
                    assert rows == reference, executor
            assert reference and len(reference) == WINDOW_RECORDS
            return timings

        timings = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        db.close()

    print_figure(
        f"Running-sum window over {WINDOW_RECORDS} orders",
        ["executor", "seconds"],
        [[executor, seconds] for executor, seconds in timings.items()],
    )
    write_bench_json("joins", "window_executors", timings)
