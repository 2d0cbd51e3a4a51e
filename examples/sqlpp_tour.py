"""A tour of the SQL++ frontend: text queries end to end.

Run with::

    python examples/sqlpp_tour.py

Everything the engine can do — columnar pushdown, cost-based access-path
selection, secondary indexes, both executors — is reachable from declarative
SQL++ text via ``store.query(...)`` / ``store.explain(...)``.  This tour
mirrors the README quickstart and doubles as its CI coverage.
"""

from __future__ import annotations

from repro import Datastore, StoreConfig
from repro.query import register_function

GAMERS = [
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
    {"id": 4, "name": "Ann", "games": ["NBA", ["FIFA", "PES"], "NFL"]},
]


def main() -> None:
    store = Datastore(StoreConfig(partitions_per_node=1))
    gamers = store.create_dataset("gamers", layout="amax")
    gamers.insert_many(GAMERS)
    gamers.flush_all()

    print("== COUNT(*) ==")
    print(store.query("SELECT COUNT(*) FROM gamers AS g;"))

    print()
    print("== The paper's Figure 11 query, verbatim SQL++ ==")
    figure11 = """
        SELECT t AS t, COUNT(*) AS cnt
        FROM gamers AS g
        UNNEST g.games AS t
        GROUP BY t
        ORDER BY cnt DESC
        LIMIT 10;
    """
    for row in store.query(figure11):
        print(row)

    print()
    print("== Its plan (pushdown spec + optimizer report) ==")
    print(store.explain(figure11))

    print()
    print("== Filters, paths, SELECT VALUE ==")
    print(
        store.query(
            """
            SELECT VALUE g.name.last
            FROM gamers AS g
            WHERE EXISTS g.games AND g.id >= 1;
            """
        )
    )

    print()
    print("== Quantifiers over nested arrays ==")
    print(
        store.query(
            """
            SELECT g.id AS id
            FROM gamers AS g
            WHERE SOME game IN g.games SATISFIES game.title = "NFL"
            ORDER BY id;
            """
        )
    )

    print()
    print("== Extending the function registry ==")
    register_function("shout", lambda v: v.upper() + "!" if isinstance(v, str) else None)
    print(
        store.query(
            """
            SELECT VALUE shout(t.title)
            FROM gamers AS g
            UNNEST g.games AS t
            WHERE t.title = "FIFA";
            """
        )
    )

    print()
    print("== Both executors agree ==")
    interpreted = store.query(figure11, executor="interpreted")
    batch = store.query(figure11, executor="batch")
    print("interpreted == batch:", interpreted == batch)


if __name__ == "__main__":
    main()
