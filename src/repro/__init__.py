"""repro — Columnar Formats for Schemaless LSM-based Document Stores.

A pure-Python reproduction of the VLDB 2022 paper by Alkowaileet and Carey.
The package implements a schemaless LSM-based document store whose on-disk
components can use row-major layouts (``open``, ``vector``) or the paper's
columnar layouts (``apax``, ``amax``), built on an extended Dremel format with
union types, plus an analytical query engine with an interpreted (oracle)
and a batch-vectorized executor.

Quickstart::

    from repro import Datastore

    store = Datastore()
    gamers = store.create_dataset("gamers", layout="amax")
    gamers.insert({"id": 1, "name": {"first": "Ann"}, "games": [{"title": "NBA"}]})
    gamers.flush_all()

    result = store.query("SELECT COUNT(*) FROM gamers AS g;")   # SQL++ text

    from repro.query import Query                               # or the builder
    result = Query("gamers").count().execute(store)

There is also an interactive SQL++ shell: ``python -m repro.shell``.
"""

from __future__ import annotations

__version__ = "1.0.0"

from .model import FieldPath, ReproError
from .store import Datastore, StoreConfig

__all__ = ["Datastore", "FieldPath", "ReproError", "StoreConfig", "__version__"]
