"""Experiment harness: builds stores per layout, times ingestion and queries.

Every benchmark in ``benchmarks/`` uses this module so that the experiment
setup stays consistent: one datastore per layout, the paper's configuration
(tiering merge policy, page compression, 128 KB pages), the synthetic
datasets of :mod:`repro.datasets`, and reporting that shows, for every figure,
the same rows/series the paper plots (plus page-level I/O counters, since the
paper's story is primarily an I/O story).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..datasets import make_generator
from ..lsm.component import ALL_LAYOUTS
from ..query import Query
from ..query.executor import DEFAULT_EXECUTOR
from ..store import Datastore, StoreConfig

LAYOUTS = list(ALL_LAYOUTS)  # open, vector, apax, amax


@dataclass
class LoadResult:
    """Outcome of ingesting one dataset under one layout."""

    layout: str
    dataset: str
    records: int
    seconds: float
    storage_bytes: int
    storage_payload_bytes: int
    pages_written: int
    inferred_columns: int
    point_lookups: int = 0


@dataclass
class QueryResult:
    """Outcome of running one query under one layout/executor."""

    layout: str
    query: str
    executor: str
    seconds: float
    pages_read: int
    rows: List[dict] = field(default_factory=list)


@dataclass
class LayoutFixture:
    """A loaded dataset under one layout, ready to be queried."""

    layout: str
    store: Datastore
    dataset_name: str
    load: LoadResult


def default_config(**overrides) -> StoreConfig:
    """The benchmark configuration: paper §6 scaled to synthetic data sizes."""
    config = StoreConfig(
        page_size=64 * 1024,
        memory_component_budget=1 * 1024 * 1024,
        buffer_cache_pages=4096,
        compression="snappy",
        num_nodes=1,
        partitions_per_node=2,
        amax_max_records_per_leaf=15000,
    )
    for name, value in overrides.items():
        setattr(config, name, value)
    config.validate()
    return config


def load_dataset(
    layout: str,
    dataset_name: str,
    num_records: Optional[int] = None,
    config: Optional[StoreConfig] = None,
    secondary_indexes: Optional[Dict[str, str]] = None,
    primary_key_index: bool = False,
    documents: Optional[Iterable[dict]] = None,
    seed: int = 7,
) -> LayoutFixture:
    """Create a store, ingest one dataset under ``layout``, and time it."""
    store = Datastore(config or default_config())
    dataset = store.create_dataset(dataset_name, layout=layout)
    if primary_key_index:
        dataset.create_primary_key_index()
    for index_name, path in (secondary_indexes or {}).items():
        dataset.create_secondary_index(index_name, path)
    if documents is None:
        documents = make_generator(dataset_name, num_records, seed=seed)
    start = time.perf_counter()
    count = dataset.insert_many(documents)
    dataset.flush_all()
    seconds = time.perf_counter() - start
    load = LoadResult(
        layout=layout,
        dataset=dataset_name,
        records=count,
        seconds=seconds,
        storage_bytes=dataset.storage_size_bytes(),
        storage_payload_bytes=dataset.storage_payload_bytes(),
        pages_written=store.io_snapshot().pages_written,
        inferred_columns=dataset.inferred_column_count(),
        point_lookups=dataset.point_lookups_performed,
    )
    return LayoutFixture(layout=layout, store=store, dataset_name=dataset_name, load=load)


def load_all_layouts(
    dataset_name: str,
    num_records: Optional[int] = None,
    layouts: Sequence[str] = LAYOUTS,
    config: Optional[StoreConfig] = None,
    documents: Optional[Iterable[dict]] = None,
    **kwargs,
) -> Dict[str, LayoutFixture]:
    """Ingest the same dataset under every layout (fresh store per layout).

    ``documents`` overrides the synthetic generator (for ad-hoc corpora like
    ``bench_sqlpp``'s gamer records); either way the documents are
    materialized once so all layouts ingest byte-identical input.
    """
    if documents is None:
        documents = make_generator(dataset_name, num_records, seed=kwargs.pop("seed", 7))
    documents = list(documents)
    return {
        layout: load_dataset(
            layout,
            dataset_name,
            config=config,
            documents=documents,
            **kwargs,
        )
        for layout in layouts
    }


def resolve_query(
    query_factory: "Callable[[str], Query] | str", dataset_name: str
) -> Query:
    """Materialize a benchmark query for one dataset.

    ``query_factory`` is either a builder factory (``dataset name → Query``)
    or SQL++ text — the parsed-query path: any ``{dataset}`` placeholder is
    substituted and the text is compiled through :mod:`repro.sqlpp`, so text
    queries exercise exactly the same planner/executor stack.
    """
    if isinstance(query_factory, str):
        from ..sqlpp import compile_query

        text = query_factory.replace("{dataset}", dataset_name)
        compiled = compile_query(text)
        if compiled.query is None:
            raise ValueError("benchmark SQL++ text must contain a FROM clause")
        return compiled.query
    return query_factory(dataset_name)


def run_query(
    fixture: LayoutFixture,
    query_factory: "Callable[[str], Query] | str",
    executor: str = DEFAULT_EXECUTOR,
    repetitions: int = 1,
    pushdown: bool = True,
) -> QueryResult:
    """Run one query against a loaded fixture, reporting time and pages read.

    ``query_factory`` may be SQL++ text instead of a builder factory (see
    :func:`resolve_query`).  ``pushdown=False`` disables the scan-pushdown
    rewrite so benchmarks can compare against the assemble-then-filter
    baseline.
    """
    store = fixture.store
    rows: List[dict] = []
    before = store.io_snapshot()
    start = time.perf_counter()
    for _ in range(repetitions):
        rows = resolve_query(query_factory, fixture.dataset_name).execute(
            store, executor=executor, pushdown=pushdown
        )
    seconds = (time.perf_counter() - start) / max(repetitions, 1)
    delta = store.io_snapshot().delta_since(before)
    return QueryResult(
        layout=fixture.layout,
        query=getattr(query_factory, "__name__", "sqlpp"),
        executor=executor,
        seconds=seconds,
        pages_read=delta.pages_read + delta.cache_hits,
        rows=rows,
    )


def update_workload(
    fixture: LayoutFixture,
    update_fraction: float = 0.5,
    seed: int = 13,
) -> float:
    """Re-ingest a uniform sample of existing records (the §6.3.2 update workload)."""
    import random

    rng = random.Random(seed)
    dataset = fixture.store.dataset(fixture.dataset_name)
    documents = list(make_generator(fixture.dataset_name, fixture.load.records, seed=seed))
    updates = [doc for doc in documents if rng.random() < update_fraction]
    start = time.perf_counter()
    for document in updates:
        document = dict(document)
        document["timestamp"] = document.get("timestamp", 0) + 10_000_000
        dataset.insert(document)
    dataset.flush_all()
    return time.perf_counter() - start
