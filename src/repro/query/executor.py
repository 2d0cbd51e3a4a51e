"""Query execution: the interpreted engine, the pipeline breakers, and sources.

Two executors share the same plans, sources and breaker semantics:

* the **interpreted** executor mimics AsterixDB's Hyracks model as described in
  §5: operators process a *batch* of tuples at a time and materialize the
  batch between operators (the per-tuple interpretation and materialization
  overheads are exactly what made Q2-Interpreted slow in Figure 10).  It is
  the correctness oracle every other path is diffed against;
* the **batch** executor (:mod:`repro.query.batch_executor`, the default)
  exchanges column batches between operators and evaluates whole expression
  vectors per batch.

Both stop at pipeline breakers (GROUP BY / ORDER BY / aggregate), which are
executed by the shared engine code below.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, Iterable, Iterator, List, Optional

from ..model.errors import QueryError
from ..model.values import MISSING
from ..obs import annotate, current_trace, record_span, span
from .expressions import Expression, Subquery, join_key, missing_to_none, truthy
from .plan import (
    AggregateNode,
    AssignNode,
    DataScanNode,
    FilterNode,
    GroupByNode,
    IndexScanNode,
    JoinNode,
    LimitNode,
    OrderByNode,
    ProjectNode,
    QueryPlan,
    UnnestNode,
    WindowNode,
    collect_expressions,
)

#: Batch size of the interpreted (Hyracks-like) executor.
INTERPRETED_BATCH_SIZE = 256

#: Rows per :class:`~repro.query.batch.ColumnBatch` in the batch executor.
DEFAULT_BATCH_SIZE = 1024

#: Executor names accepted by :func:`execute_plan`: the oracle and the fast path.
EXECUTORS = ("interpreted", "batch")

#: What ``executor=None`` means at every entry point (builder, SQL++, shell,
#: wire server, shard coordinator) — they all pass None through to here.
DEFAULT_EXECUTOR = "batch"


def resolve_executor(executor: Optional[str]) -> str:
    """The executor a request names: None is the default, anything outside
    :data:`EXECUTORS` a :class:`~repro.model.errors.QueryError`.

    Entry points call this before doing any work, so a bad name (which can
    arrive verbatim from a wire request) never costs a scan.
    """
    if executor is None:
        return DEFAULT_EXECUTOR
    if executor not in EXECUTORS:
        raise QueryError(
            f"unknown executor {executor!r}; one of: " + ", ".join(EXECUTORS)
        )
    return executor


def describe_executor(executor: Optional[str]) -> str:
    """One EXPLAIN line describing how a plan will be executed."""
    if resolve_executor(executor) == "interpreted":
        return f"EXECUTOR interpreted (row batches of {INTERPRETED_BATCH_SIZE})"
    return f"EXECUTOR batch (column batches of {DEFAULT_BATCH_SIZE})"


# -- sources ----------------------------------------------------------------------------


def source_rows(store, plan: QueryPlan) -> Iterator[dict]:
    """Yield the plan's source tuples (dicts binding the scan variable).

    Args:
        store: The datastore to read from.
        plan: The plan whose source node drives the read — a full scan
            (with optional pushdown), an index fetch, or an index-only scan.

    Yields:
        One ``{variable: document}`` binding per source row; index-only
        sources bind ``{variable: {pk_field: key}}`` (§4.6).
    """
    source = plan.source
    dataset = store.dataset(source.dataset)
    if isinstance(source, DataScanNode):
        # The scan consumes batches the storage layer already pre-filtered
        # and column-pruned according to the pushdown spec; rows arriving
        # here either passed the pushed predicates or come from sources that
        # cannot pre-filter (memtable, row layouts) and are re-checked by the
        # residual FILTER operators downstream.
        for _, document in dataset.scan(source.fields, pushdown=source.pushdown):
            yield {source.variable: document}
        return
    if isinstance(source, IndexScanNode):
        index = dataset.secondary_indexes.get(source.index_name)
        if index is None:
            raise QueryError(
                f"dataset {source.dataset!r} has no secondary index "
                f"{source.index_name!r}"
            )
        primary_keys = index.search_range(source.low, source.high)
        primary_keys.sort()
        if source.keys_only:
            # Index-only plan (optimizer-generated for covered COUNT-style
            # queries): the reconciled index entries alone answer the query;
            # rows carry just the primary key.
            for key in primary_keys:
                yield {source.variable: {dataset.primary_key_field: key}}
            return
        # Sorted, batched point lookups (§4.6): keys ascend so consecutive
        # lookups hit the same leaves through the buffer cache, and the
        # lookup decodes only the projected columns.  Deleted/updated-away
        # records resolve to None and are dropped here (their index entries
        # were anti-mattered, but reconciliation is per-entry, not global).
        for key in primary_keys:
            document = dataset.point_lookup(key, source.fields)
            if document is not None:
                yield {source.variable: document}
        return
    raise QueryError(f"unknown source node {type(source).__name__}")


# -- runtime preparation -----------------------------------------------------------------


def prepare_plan(store, plan: QueryPlan) -> None:
    """Resolve the plan's runtime state before execution (any executor).

    Two responsibilities, shared by both executors so they can never
    disagree: point every :class:`~repro.query.expressions.Subquery` at the
    datastore (resetting uncorrelated caches), and build the hash table of
    every :class:`~repro.query.plan.JoinNode` by scanning its build side.
    """
    for expression in collect_expressions(plan.pipeline, plan.breakers):
        _bind_subqueries(expression, store)
    for op in plan.pipeline:
        if isinstance(op, JoinNode):
            _build_join_table(store, plan, op)


def _bind_subqueries(expression: Expression, store) -> None:
    if isinstance(expression, Subquery):
        expression.bind_store(store)
        return
    for child in expression.children():
        _bind_subqueries(child, store)


def _join_build_fields(plan: QueryPlan, node: JoinNode) -> Optional[List[str]]:
    """Top-level fields of the build variable referenced anywhere in the plan.

    Mirrors ``Query._pushdown_fields`` for the join's build side: None when
    the whole build document is consumed (e.g. projected bare), else the
    referenced top-level fields so the build scan can project.
    """
    fields: List[str] = []
    for expression in collect_expressions(plan.pipeline, plan.breakers):
        if node.variable in expression.referenced_bare_variables():
            return None
        for variable, path in expression.referenced_paths():
            if variable == node.variable and len(path) > 0:
                top = path.top_field
                if top and top not in fields:
                    fields.append(top)
    return fields


def _build_join_table(store, plan: QueryPlan, node: JoinNode) -> None:
    dataset = store.dataset(node.dataset)
    table: Dict[object, list] = {}
    for _, document in dataset.scan(_join_build_fields(plan, node)):
        key = join_key(node.build_key.evaluate({node.variable: document}))
        if key is None:
            continue
        table.setdefault(key, []).append(document)
    node.table = table


# -- tracing helpers ---------------------------------------------------------------------


def op_span_name(node) -> str:
    """The span name of a plan node: its class name (e.g. ``FilterNode``)."""
    return type(node).__name__


def traced_row_source(rows: Iterable[dict], source_node) -> Iterator[dict]:
    """Count rows and producer-side time of a source iterator; on exhaustion
    (or early close, e.g. under a LIMIT) records the source node's span."""
    count = 0
    elapsed = 0.0
    iterator = iter(rows)
    try:
        while True:
            started = time.perf_counter()
            try:
                row = next(iterator)
            except StopIteration:
                elapsed += time.perf_counter() - started
                return
            elapsed += time.perf_counter() - started
            count += 1
            yield row
    finally:
        record_span(
            op_span_name(source_node),
            elapsed,
            dataset=getattr(source_node, "dataset", None),
            rows_out=count,
        )


def traced_batch_source(batches, source_node, attrs):
    """Like :func:`traced_row_source` but over column batches — the span
    carries both the batch count and the total row count, plus ``attrs()``,
    asked for once the source is exhausted (or abandoned)."""
    row_count = 0
    batch_count = 0
    elapsed = 0.0
    iterator = iter(batches)
    try:
        while True:
            started = time.perf_counter()
            try:
                batch = next(iterator)
            except StopIteration:
                elapsed += time.perf_counter() - started
                return
            elapsed += time.perf_counter() - started
            batch_count += 1
            row_count += batch.length
            yield batch
    finally:
        record_span(
            op_span_name(source_node),
            elapsed,
            dataset=getattr(source_node, "dataset", None),
            rows_out=row_count,
            batches=batch_count,
            **attrs(),
        )


# -- interpreted pipeline ----------------------------------------------------------------


def _batched(rows: Iterable[dict], batch_size: int) -> Iterator[List[dict]]:
    batch: List[dict] = []
    for row in rows:
        batch.append(row)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _apply_interpreted_op(op, current: List[dict]) -> List[dict]:
    """Apply one pipelining operator to a materialized row batch."""
    materialized: List[dict] = []
    if isinstance(op, AssignNode):
        for row in current:
            new_row = dict(row)  # materialization between operators
            new_row[op.variable] = op.expression.evaluate(row)
            materialized.append(new_row)
    elif isinstance(op, UnnestNode):
        for row in current:
            value = op.expression.evaluate(row)
            if not isinstance(value, (list, tuple)):
                continue
            for item in value:
                new_row = dict(row)
                new_row[op.variable] = item
                materialized.append(new_row)
    elif isinstance(op, FilterNode):
        for row in current:
            if truthy(op.predicate.evaluate(row)):
                materialized.append(dict(row))
    elif isinstance(op, JoinNode):
        if op.table is None:
            raise QueryError("hash join executed before prepare_plan()")
        for row in current:
            key = join_key(op.probe_key.evaluate(row))
            matches = op.table.get(key) if key is not None else None
            if not matches:
                continue
            for document in matches:
                new_row = dict(row)
                new_row[op.variable] = document
                materialized.append(new_row)
    else:
        raise QueryError(f"unsupported pipeline operator {type(op).__name__}")
    return materialized


def run_interpreted_pipeline(rows: Iterable[dict], pipeline: List) -> Iterator[dict]:
    """Apply the pipelining operators batch-at-a-time with materialization.

    When a trace is active, per-operator row counts and cumulative operator
    time are recorded as one span per pipeline node once the generator
    finishes (exhaustion or early close).
    """
    tracing = current_trace() is not None
    counts = [0] * len(pipeline)
    elapsed = [0.0] * len(pipeline)
    try:
        for batch in _batched(rows, INTERPRETED_BATCH_SIZE):
            current = batch
            for index, op in enumerate(pipeline):
                if tracing:
                    started = time.perf_counter()
                    current = _apply_interpreted_op(op, current)
                    elapsed[index] += time.perf_counter() - started
                    counts[index] += len(current)
                else:
                    current = _apply_interpreted_op(op, current)
            yield from current
    finally:
        if tracing:
            for op, rows_out, seconds in zip(pipeline, counts, elapsed):
                record_span(op_span_name(op), seconds, rows_out=rows_out)


# -- breakers ------------------------------------------------------------------------------


class _Aggregator:
    """Running state of one aggregate function.

    Besides the user-facing functions (``count``/``sum``/``min``/``max``/
    ``avg``), the internal ``countv`` function counts the *contributing*
    values — the numeric non-bool values ``sum``/``avg`` fold — and is what
    the shard coordinator uses to decompose AVG into SUM + COUNTV partials
    (:mod:`repro.shard.partial`).  It is not exposed through the builder or
    SQL++ (:data:`~repro.query.plan.AGGREGATE_FUNCTIONS` gates those).
    """

    def __init__(self, function: str) -> None:
        self.function = function
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None

    def add(self, value) -> None:
        if self.function == "count":
            self.count += 1
            return
        if value is MISSING or value is None:
            return
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            if self.function in ("min", "max") and isinstance(value, str):
                pass
            else:
                return
        self.count += 1
        if self.function in ("sum", "avg"):
            self.total += value
        if self.function in ("min",):
            self.minimum = value if self.minimum is None else min(self.minimum, value)
        if self.function in ("max",):
            self.maximum = value if self.maximum is None else max(self.maximum, value)

    def result(self):
        if self.function in ("count", "countv"):
            return self.count
        if self.function == "sum":
            return self.total if self.count else None
        if self.function == "avg":
            return self.total / self.count if self.count else None
        if self.function == "min":
            return self.minimum
        return self.maximum


class GroupTable:
    """The one definition of GROUP BY group identity.

    Key tuples with equal :func:`_hashable` forms are one group, shown as its
    minimum member under :func:`rep_ranks` (see :func:`_rep_rank` for why).
    The interpreted GROUP BY feeds it rows (:meth:`state`), the batch GROUP
    BY key vectors and the shard coordinator's merge each shard's partial
    rows as key vectors (:meth:`states`); each keeps its own per-group state
    (``new_state()``) and says how to finish it.
    """

    def __init__(self, new_state) -> None:
        self._new_state = new_state
        #: hashable key -> [representative raw tuple, its rank, caller state]
        self._groups: Dict[tuple, list] = {}

    def state(self, raw: tuple):
        """The state of the group ``raw`` belongs to (created on first sight)."""
        key = tuple(_hashable(value) for value in raw)
        rank = rep_ranks(raw)
        entry = self._groups.get(key)
        if entry is None:
            entry = self._groups[key] = [raw, rank, self._new_state()]
        elif rank < entry[1]:
            entry[0] = raw
            entry[1] = rank
        return entry[2]

    def states(self, key_vectors: List[list], length: int) -> list:
        """``[state(raw) for each row's raw key tuple]`` over whole key vectors.

        When every vector holds one plain type (:data:`_PLAIN_KEY_TYPES`), a
        raw key tuple is its own :func:`_hashable` form and all rows share one
        rank, so a row costs one dict probe.  Any other batch goes row by row
        through :meth:`state`.
        """
        rows = zip(*key_vectors) if key_vectors else [()] * length
        if not length or not all(map(_plain_vector, key_vectors)):
            return [self.state(raw) for raw in rows]
        groups = self._groups
        new_state = self._new_state
        rank = rep_ranks(tuple(vector[0] for vector in key_vectors))
        result = []
        for raw in rows:
            entry = groups.get(raw)
            if entry is None:
                entry = groups[raw] = [raw, rank, new_state()]
            elif rank < entry[1]:
                entry[0] = raw
                entry[1] = rank
            result.append(entry[2])
        return result

    def rows(self, key_names: List[str], finish) -> List[dict]:
        """One output row per group, in first-seen order: the representative
        key values under ``key_names`` plus the columns ``finish(state)`` adds."""
        results = []
        for raw, _, state in self._groups.values():
            row = {
                name: missing_to_none(value) for name, value in zip(key_names, raw)
            }
            row.update(finish(state))
            results.append(row)
        return results


def new_aggregators(aggregates) -> List[_Aggregator]:
    return [_Aggregator(function) for _, function, _ in aggregates]


def aggregate_results(aggregates, aggregators: List[_Aggregator]) -> dict:
    return {
        name: aggregator.result()
        for (name, _, _), aggregator in zip(aggregates, aggregators)
    }


def _run_group_by(rows: Iterable[dict], node: GroupByNode) -> List[dict]:
    table = GroupTable(lambda: new_aggregators(node.aggregates))
    for row in rows:
        aggregators = table.state(
            tuple(expression.evaluate(row) for _, expression in node.keys)
        )
        for aggregator, (_, _, expression) in zip(aggregators, node.aggregates):
            aggregator.add(None if expression is None else expression.evaluate(row))
    return table.rows(
        [name for name, _ in node.keys],
        lambda aggregators: aggregate_results(node.aggregates, aggregators),
    )


#: Key types whose values are their own :func:`_hashable` form and share one
#: :func:`_rep_rank` (MISSING is excluded: it hashes as None).
_PLAIN_KEY_TYPES = frozenset((str, int, float, bool, type(None)))


def _plain_vector(vector: list) -> bool:
    """True when every value of ``vector`` has the same plain key type."""
    kinds = set(map(type, vector))
    return len(kinds) == 1 and kinds <= _PLAIN_KEY_TYPES


def _hashable(value):
    if isinstance(value, list):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _hashable(item)) for key, item in value.items()))
    if value is MISSING:
        return None
    return value


def _rep_rank(value):
    """A deterministic total order over values ``_hashable`` conflates.

    ``_hashable`` buckets ``1``/``1.0``/``True`` (and MISSING with None)
    under one group key, so *some* representative must be chosen for the
    group's output.  First-seen order depends on scan order — and differs
    between a single process and a shard merge.  Ranking by type instead
    (MISSING < None < bool < int < float < str < array < object, recursing
    into containers) makes the choice order-free: every executor and the
    shard coordinator pick the same representative, the minimum-ranked one.
    """
    if value is MISSING:
        return (0, 0)
    if value is None:
        return (1, 0)
    if isinstance(value, bool):
        return (2, 0)
    if isinstance(value, int):
        return (3, 0)
    if isinstance(value, float):
        return (4, 0)
    if isinstance(value, str):
        return (5, 0)
    if isinstance(value, (list, tuple)):
        return (6, tuple(_rep_rank(item) for item in value))
    if isinstance(value, dict):
        return (7, tuple(sorted((key, _rep_rank(item)) for key, item in value.items())))
    return (8, 0)


def rep_ranks(values) -> tuple:
    """Rank a tuple of group-key values (see :func:`_rep_rank`)."""
    return tuple(_rep_rank(value) for value in values)


def _run_aggregate(rows: Iterable[dict], node: AggregateNode) -> List[dict]:
    aggregators = new_aggregators(node.aggregates)
    for row in rows:
        for aggregator, (_, _, expression) in zip(aggregators, node.aggregates):
            aggregator.add(None if expression is None else expression.evaluate(row))
    return [aggregate_results(node.aggregates, aggregators)]


def _run_window(rows: Iterable[dict], node: WindowNode) -> List[dict]:
    """Evaluate window columns over each partition; preserves input order."""
    materialized = [dict(row) for row in rows]
    partitions: Dict[tuple, List[int]] = {}
    for index, row in enumerate(materialized):
        key = tuple(_hashable(e.evaluate(row)) for e in node.partition_by)
        partitions.setdefault(key, []).append(index)
    for indices in partitions.values():
        ordered = list(indices)
        for expression, descending in reversed(node.order_by):
            ordered.sort(
                key=lambda i, e=expression: _sort_key(e.evaluate(materialized[i])),
                reverse=descending,
            )
        aggregators = [_Aggregator(function) for _, function, _ in node.columns]
        if node.order_by:
            # Running frame: partition start through the current row.
            for position, index in enumerate(ordered):
                row = materialized[index]
                for (name, function, argument), aggregator in zip(
                    node.columns, aggregators
                ):
                    if function == "row_number":
                        row[name] = position + 1
                    else:
                        aggregator.add(
                            None if argument is None else argument.evaluate(row)
                        )
                        row[name] = aggregator.result()
        else:
            # Whole-partition frame; ROW_NUMBER numbers rows in input order.
            for index in indices:
                row = materialized[index]
                for (_, function, argument), aggregator in zip(
                    node.columns, aggregators
                ):
                    if function != "row_number":
                        aggregator.add(
                            None if argument is None else argument.evaluate(row)
                        )
            for position, index in enumerate(indices):
                row = materialized[index]
                for (name, function, _), aggregator in zip(node.columns, aggregators):
                    row[name] = (
                        position + 1 if function == "row_number" else aggregator.result()
                    )
    return materialized


def run_breakers(rows: Iterable[dict], breakers: List) -> List[dict]:
    """Run the pipeline-breaker suffix of a plan over the pipelined rows.

    When a trace is active every breaker records one span with its duration
    and output row count (shared by all executors and the shard
    coordinator's merge phase).
    """
    tracing = current_trace() is not None
    current: Iterable[dict] = rows
    materialized: Optional[List[dict]] = None
    for index, op in enumerate(breakers):
        started = time.perf_counter() if tracing else 0.0
        if isinstance(op, GroupByNode):
            materialized = _run_group_by(current, op)
        elif isinstance(op, AggregateNode):
            materialized = _run_aggregate(current, op)
        elif isinstance(op, WindowNode):
            materialized = _run_window(current, op)
        elif isinstance(op, OrderByNode):
            # A LIMIT right after cuts here; its own slice is then a no-op.
            following = breakers[index + 1 : index + 2]
            limit = (
                following[0].count
                if following and isinstance(following[0], LimitNode)
                else None
            )
            materialized = _order_by(list(current), op, limit)
        elif isinstance(op, LimitNode):
            materialized = list(current)[: op.count]
        elif isinstance(op, ProjectNode):
            materialized = [
                {
                    name: missing_to_none(expression.evaluate(row))
                    for name, expression in op.columns
                }
                for row in current
            ]
        else:
            raise QueryError(f"unsupported breaker {type(op).__name__}")
        if tracing:
            record_span(
                op_span_name(op),
                time.perf_counter() - started,
                rows_out=len(materialized),
            )
        current = materialized
    if materialized is None:
        materialized = [dict(row) for row in current]
    return materialized


def _order_by(rows: List[dict], op: OrderByNode, limit: Optional[int]) -> List[dict]:
    """The rows stably sorted by ``op``, cut to ``limit`` (None: no cut).

    With a limit the first ``limit`` rows are selected with
    :func:`heapq.nsmallest` / :func:`heapq.nlargest`, which Python documents
    as equal to the stable sort's prefix — unless a sort value is a float
    NaN, which orders inconsistently and so only the full sort reproduces.
    """
    values = [row.get(op.key, MISSING) for row in rows]
    kinds = set(map(type, values))
    # Plain numbers order as their (2, value) sort keys do.
    keys = values if kinds <= {int, float} else list(map(_sort_key, values))
    positions = range(len(rows))
    if limit is not None and not (
        float in kinds and any(value != value for value in values)
    ):
        select = heapq.nlargest if op.descending else heapq.nsmallest
        order = select(limit, positions, key=keys.__getitem__)
    else:
        order = sorted(positions, key=keys.__getitem__, reverse=op.descending)
        order = order[:limit]
    return [rows[position] for position in order]


def _sort_key(value):
    # MISSING sorts strictly before NULL (AsterixDB order); keeping the two
    # distinguishable also makes the coordinator's re-sort of shard partials
    # agree with the single-process oracle on MISSING-vs-None ties.
    if value is MISSING:
        return (0, 0)
    if value is None:
        return (0, 1)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


# -- entry point -----------------------------------------------------------------------------


def execute_plan(
    store,
    plan: QueryPlan,
    executor: Optional[str] = None,
    batch_size: Optional[int] = None,
) -> List[dict]:
    """Execute a plan and return its result rows.

    Args:
        store: The datastore to run against.
        plan: A built (and possibly optimizer-rewritten) plan.
        executor: ``"batch"`` (:data:`DEFAULT_EXECUTOR`, what None means)
            exchanges column batches between operators
            (:mod:`repro.query.batch_executor`); ``"interpreted"`` runs the
            Hyracks-style row-at-a-time engine (the correctness oracle).
            Breakers are shared.
        batch_size: Rows per column batch for the batch executor
            (default :data:`DEFAULT_BATCH_SIZE`); ignored by
            ``"interpreted"``.

    Returns:
        The materialized result rows.

    Raises:
        QueryError: Unknown executor name, or a ``batch_size`` that is not a
            positive int — both checked before any data is read.
    """
    executor = resolve_executor(executor)
    if batch_size is not None and (type(batch_size) is not int or batch_size <= 0):
        raise QueryError(f"batch_size must be a positive integer, not {batch_size!r}")
    with span("execute", executor=executor):
        with span("prepare"):
            prepare_plan(store, plan)
        if executor == "interpreted":
            rows = source_rows(store, plan)
            if current_trace() is not None:
                rows = traced_row_source(rows, plan.source)
            piped = run_interpreted_pipeline(rows, plan.pipeline)
            result = run_breakers(piped, plan.breakers)
        else:
            from .batch_executor import run_batch_plan

            result = run_batch_plan(store, plan, batch_size=batch_size)
        annotate(rows_out=len(result))
        return result
