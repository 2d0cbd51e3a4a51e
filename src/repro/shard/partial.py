"""Plan splitting for scatter-gather: shard-local fragment + merge fragment.

A query is split into what every shard executes (the *local fragment*, still
a plain :class:`~repro.query.plan.Query`, so each shard runs its own
cost-based access-path selection, pushdown, and executor over its slice of
the data) and what the coordinator does with the per-shard results (the
*merge fragment*).  The split is a pure function of the query — coordinator
and shards each call :func:`split_query` on the same SQL++ text and arrive
at the identical split, so no plan serialization crosses the wire.

Split rules, by the first pipeline breaker:

* **AGGREGATE** — each shard computes partial aggregates; the coordinator
  merges one row per shard.  COUNT partials sum; SUM/MIN/MAX partials fold
  with the oracle's own operators (so SQL++'s cross-type behavior — e.g.
  mixed int/str MIN raising ``TypeError`` — is preserved); AVG is decomposed
  into a SUM partial plus an internal COUNTV partial (the count of
  *contributing* numeric values) and recombined as ``sum/count`` — the
  standard algebraic-aggregate decomposition.
* **GROUP BY** — each shard groups locally with the same partial aggregate
  list; the coordinator merges groups by key (a group's rows live on many
  shards, so any ORDER BY/LIMIT after the GROUP BY must run *after* the
  merge, never per shard).
* **neither** (streaming SELECT) — shards run the whole breaker chain
  including any per-shard ORDER BY + LIMIT top-K; the coordinator
  concatenates and re-applies ORDER BY/LIMIT over the union.
* **unknown breakers** (e.g. WINDOW) — any breaker type outside
  :data:`SHARD_SAFE_BREAKERS` routes the query to the ``raw`` fallback
  *explicitly*: shards stream bare pipeline rows and the coordinator runs
  the entire breaker chain, so a breaker this module has never heard of can
  slow a query down but never silently drop it from the plan.
* **joins and subqueries** — a hash join's build table and a subquery's
  inner rows must see the *whole* dataset, not one shard's slice, so these
  queries become ``kind="fetch"``: the coordinator pulls the referenced
  datasets from every shard into a local temporary store and runs the
  unmodified query there.  The one provably shard-local exception: a single
  join whose probe and build keys are both the *primary key* of their
  dataset — primary keys route placement (``shard_for_key``), keys are
  int/str only, and equal keys hash identically, so every matching pair is
  co-resident and the join distributes untouched.

Float caveat: shard-parallel SUM/AVG folds per-shard subtotals, which can
differ from the single-process left-fold in the last ulp for floats.
Integer aggregates — and the COUNT/MIN/MAX suites of the paper's Figures
11/14 — are exact.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..model.errors import DatasetError
from ..query.executor import GroupTable
from ..query.expressions import Field, Subquery, Var
from ..query.plan import (
    AggregateNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    OrderByNode,
    ProjectNode,
    Query,
)

#: Breaker types this module knows how to place; anything else (a WINDOW, or
#: a breaker added after this comment was written) falls back to ``raw``.
SHARD_SAFE_BREAKERS = (
    GroupByNode,
    AggregateNode,
    OrderByNode,
    LimitNode,
    ProjectNode,
)

#: Separator of internal partial-column names (``avg`` decomposition); SQL++
#: output names are identifiers or ``$N``, so ``#`` can never collide.
PARTIAL_SEPARATOR = "#"


@dataclass
class MergeAggregate:
    """How to recombine one output aggregate from per-shard partial columns."""

    name: str
    function: str
    #: Column names of the partials in the shard rows: ``(name,)`` for
    #: count/sum/min/max, ``(name#sum, name#n)`` for avg.
    columns: Tuple[str, ...]


@dataclass
class SplitPlan:
    """The outcome of :func:`split_query`: local fragment + merge recipe."""

    #: ``"aggregate"`` / ``"groupby"`` (partial-aggregate pushdown),
    #: ``"stream"`` (shards run all breakers, coordinator concatenates),
    #: ``"raw"`` (no pushdown: shards stream pipeline rows, the coordinator
    #: runs every breaker — the conservative fallback), or ``"fetch"``
    #: (joins/subqueries: the coordinator pulls whole datasets and runs the
    #: unmodified query locally — no shard-local fragment at all).
    kind: str
    #: What each shard executes (shard-side optimizer/pushdown still apply);
    #: None for ``fetch``, which has no shard-local fragment.
    local_query: Optional[Query] = None
    #: Group-key output names (``groupby`` kind only).
    key_names: List[str] = field(default_factory=list)
    #: Aggregate merge recipes (``aggregate``/``groupby`` kinds).
    aggregates: List[MergeAggregate] = field(default_factory=list)
    #: Breakers the coordinator runs after merging (oracle breaker nodes).
    post_breakers: List[object] = field(default_factory=list)
    #: Datasets the coordinator must pull before executing (``fetch`` only).
    fetch_datasets: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """One line per merge-fragment step (rendered by distributed EXPLAIN)."""
        lines = []
        if self.kind == "groupby":
            aggregates = ", ".join(
                f"{a.name}={a.function}({'+'.join(a.columns)})" for a in self.aggregates
            )
            lines.append(
                f"MERGE-GROUPBY keys=[{', '.join(self.key_names)}] "
                f"aggregates=[{aggregates}]"
            )
        elif self.kind == "aggregate":
            aggregates = ", ".join(
                f"{a.name}={a.function}({'+'.join(a.columns)})" for a in self.aggregates
            )
            lines.append(f"MERGE-AGGREGATE {aggregates}")
        elif self.kind == "stream":
            lines.append("MERGE-CONCAT (shards ran all breakers)")
        elif self.kind == "fetch":
            lines.append(
                "FETCH-AND-EXECUTE at coordinator "
                f"(datasets: {', '.join(self.fetch_datasets)})"
            )
        else:
            lines.append("MERGE-CONCAT (raw rows; no pushdown)")
        from ..query.plan import _describe_breaker

        for op in self.post_breakers:
            lines.append(_describe_breaker(op))
        return "\n".join(lines)


def _partial_aggregates(
    aggregates: List[Tuple[str, str, Optional[object]]]
) -> Tuple[List[Tuple[str, str, Optional[object]]], List[MergeAggregate]]:
    """Decompose output aggregates into shard partials + merge recipes."""
    partials: List[Tuple[str, str, Optional[object]]] = []
    merges: List[MergeAggregate] = []
    for name, function, expression in aggregates:
        if function == "avg":
            sum_column = f"{name}{PARTIAL_SEPARATOR}sum"
            count_column = f"{name}{PARTIAL_SEPARATOR}n"
            partials.append((sum_column, "sum", expression))
            partials.append((count_column, "countv", expression))
            merges.append(MergeAggregate(name, "avg", (sum_column, count_column)))
        else:
            partials.append((name, function, expression))
            merges.append(MergeAggregate(name, function, (name,)))
    return partials, merges


def _clone_with_breakers(query: Query, breakers: List[object]) -> Query:
    """A shallow copy of the builder with a replacement breaker chain.

    The partial breaker nodes are constructed here, already resolved — they
    bypass :meth:`Query._resolve_aggregates` (which gates on the public
    :data:`~repro.query.plan.AGGREGATE_FUNCTIONS`, and ``countv`` is
    internal-only).
    """
    local = copy.copy(query)
    local._pipeline = list(query._pipeline)
    local._breakers = breakers
    return local


def _raw_local(query: Query) -> Query:
    """The shard fragment for the ``raw`` fallback: pipeline only.

    The breakers run at the coordinator, but scan pushdown on the stripped
    fragment would no longer see the fields they reference and prune them
    from the streamed rows.  Pin the ORIGINAL query's projection (computed
    with the full breaker chain in place) on the fragment instead.
    """
    local = _clone_with_breakers(query, [])
    fields = query._pushdown_fields()
    if fields is None:
        local.project_all()
    else:
        local.project_fields(list(fields))
    return local


def referenced_datasets(query: Query) -> List[str]:
    """Every dataset a query touches: scan, joins, and (nested) subqueries."""
    names: List[str] = []

    def walk_query(q: Query) -> None:
        if q.dataset_name not in names:
            names.append(q.dataset_name)
        for op in q._pipeline:
            if isinstance(op, JoinNode) and op.dataset not in names:
                names.append(op.dataset)
        for subquery in _collect_subqueries(q):
            inner = subquery.compiled.query
            if inner is not None:
                walk_query(inner)

    walk_query(query)
    return names


def _collect_subqueries(query: Query) -> List[Subquery]:
    """Top-level Subquery expressions of one builder query (not nested ones)."""
    from ..query.plan import collect_expressions

    found: List[Subquery] = []

    def walk(expression) -> None:
        if isinstance(expression, Subquery):
            found.append(expression)
            return  # its inner query is walked separately by the caller
        for child in expression.children():
            walk(child)

    for expression in collect_expressions(query._pipeline, query._breakers):
        walk(expression)
    return found


def _pk_field_of(expression, variable: str, pk: Optional[str]) -> bool:
    """Is ``expression`` exactly ``Field(Var(variable), pk)`` (one step)?"""
    return (
        pk is not None
        and isinstance(expression, Field)
        and isinstance(expression.base, Var)
        and expression.base.name == variable
        and tuple(expression.path.steps) == (pk,)
    )


def _co_hashed_join(
    query: Query, pk_fields: Optional[Dict[str, str]]
) -> bool:
    """A single pk==pk join is shard-local: placement hashes the primary key,
    keys are int/str only, and equal keys land on the same shard."""
    if pk_fields is None:
        return False
    joins = [op for op in query._pipeline if isinstance(op, JoinNode)]
    if len(joins) != 1 or not isinstance(query._pipeline[0], JoinNode):
        return False
    join = query._pipeline[0]
    return _pk_field_of(
        join.probe_key, query.variable, pk_fields.get(query.dataset_name)
    ) and _pk_field_of(join.build_key, join.variable, pk_fields.get(join.dataset))


def split_query(
    query: Query, pk_fields: Optional[Dict[str, str]] = None
) -> SplitPlan:
    """Split a builder query into its shard-local and merge fragments.

    ``pk_fields`` maps dataset name → primary-key field; it enables the
    co-hashed pk==pk join exception.  Coordinator and shards must pass
    equivalent maps so both sides derive the identical split.
    """
    has_subquery = bool(_collect_subqueries(query))
    joins = [op for op in query._pipeline if isinstance(op, JoinNode)]
    if has_subquery or (joins and not _co_hashed_join(query, pk_fields)):
        # A shard sees only its slice of the build/inner datasets, so the
        # whole query must run where the complete data can be assembled.
        return SplitPlan(
            kind="fetch",
            fetch_datasets=referenced_datasets(query),
        )
    breakers = list(query._breakers)
    if not all(isinstance(op, SHARD_SAFE_BREAKERS) for op in breakers):
        # An unknown breaker type (WINDOW, or anything newer than this
        # module): route to the raw fallback *explicitly* — shards stream
        # pipeline rows, the coordinator runs the full oracle breaker chain.
        # Never run an unknown breaker per shard or drop it from the merge.
        return SplitPlan(
            kind="raw",
            local_query=_raw_local(query),
            post_breakers=breakers,
        )
    first_breaker_index = None
    for index, op in enumerate(breakers):
        if isinstance(op, (GroupByNode, AggregateNode)):
            first_breaker_index = index
            break
    if first_breaker_index is None:
        # Streaming SELECT: shards run everything; the coordinator re-applies
        # the order-sensitive suffix over the concatenated union (a shard's
        # ORDER BY+LIMIT is a correct per-shard top-K).
        post = [op for op in breakers if isinstance(op, (OrderByNode, LimitNode))]
        return SplitPlan(
            kind="stream",
            local_query=_clone_with_breakers(query, list(breakers)),
            post_breakers=post,
        )
    prefix = breakers[:first_breaker_index]
    if not all(isinstance(op, ProjectNode) for op in prefix):
        # An ORDER BY/LIMIT *before* the aggregation (builder-constructed
        # plans only; lowering never emits this) is not distributable without
        # global ordering — fall back to streaming raw rows and running every
        # breaker at the coordinator.  Correct, just no pushdown.
        return SplitPlan(
            kind="raw",
            local_query=_raw_local(query),
            post_breakers=list(breakers),
        )
    node = breakers[first_breaker_index]
    suffix = breakers[first_breaker_index + 1 :]
    if isinstance(node, AggregateNode):
        partials, merges = _partial_aggregates(node.aggregates)
        local = _clone_with_breakers(query, prefix + [AggregateNode(partials)])
        return SplitPlan(
            kind="aggregate",
            local_query=local,
            aggregates=merges,
            post_breakers=suffix,
        )
    partials, merges = _partial_aggregates(node.aggregates)
    local = _clone_with_breakers(
        query, prefix + [GroupByNode(list(node.keys), partials)]
    )
    return SplitPlan(
        kind="groupby",
        local_query=local,
        key_names=[name for name, _ in node.keys],
        aggregates=merges,
        post_breakers=suffix,
    )


def compile_split(statement, primary_key_of) -> Tuple[object, Optional[SplitPlan]]:
    """``(compiled, split)`` of one statement: the one derivation coordinator
    and shards share, so both sides of a scatter-gather place it identically.

    ``statement`` is SQL++ text or an already compiled query (compiled at most
    once either way); ``primary_key_of(dataset)`` names a dataset's primary
    key and raises :class:`DatasetError` for one it does not know — left out
    of the map, the query itself then fails with the real error.  The split
    is None for FROM-less statements, which touch no dataset.
    """
    from ..sqlpp import compile_query

    compiled = compile_query(statement)
    if compiled.query is None:
        return compiled, None
    pk_fields: Dict[str, str] = {}
    for dataset in referenced_datasets(compiled.query):
        try:
            pk_fields[dataset] = primary_key_of(dataset)
        except DatasetError:
            pass
    return compiled, split_query(compiled.query, pk_fields=pk_fields)


# ======================================================================================
# Merging
# ======================================================================================


def _merge_partials(function: str, partials: List[object]):
    """Recombine one aggregate's per-shard partials, oracle-faithfully.

    ``None`` partials come from shards whose slice had no contributing
    values (the oracle's SUM/MIN/MAX of nothing is NULL) and are skipped;
    the survivors fold with the same operators the row-at-a-time aggregator
    uses, so e.g. MIN over int partials from one shard and str partials from
    another raises ``TypeError`` exactly like the single-process engine.
    """
    if function == "count":
        return sum(partials)
    if len(partials) == 1:  # a group one shard holds: its partial is final
        return partials[0]
    present = [value for value in partials if value is not None]
    if not present:
        return None
    if function == "sum":
        total = present[0]
        for value in present[1:]:
            total = total + value
        return total
    if function == "min":
        return min(present)
    if function == "max":
        return max(present)
    raise ValueError(f"unmergeable aggregate function {function!r}")


def _finalize(merge: MergeAggregate, partials: List[dict]):
    """One merged aggregate from a group's partial rows (one per shard)."""
    if merge.function == "avg":
        sum_column, count_column = merge.columns
        count = sum(row[count_column] for row in partials)
        if not count:
            return None
        total = _merge_partials("sum", [row[sum_column] for row in partials])
        return total / count
    column = merge.columns[0]
    return _merge_partials(merge.function, [row[column] for row in partials])


def merge_rows(split: SplitPlan, shard_rows: List[List[dict]]) -> List[dict]:
    """Combine per-shard result rows according to the split's merge recipe.

    The caller runs ``split.post_breakers`` (via
    :func:`repro.query.executor.run_breakers`) over the returned rows —
    including, for the streaming kinds, the re-applied ORDER BY/LIMIT.
    """
    if split.kind == "fetch":
        raise ValueError(
            "fetch-kind queries run entirely at the coordinator; "
            "there are no shard partials to merge"
        )
    if split.kind in ("stream", "raw"):
        merged: List[dict] = []
        for rows in shard_rows:
            merged.extend(rows)
        return merged
    if split.kind == "aggregate":
        partials = [row for rows in shard_rows for row in rows]  # one per shard
        return [{merge.name: _finalize(merge, partials) for merge in split.aggregates}]
    # groupby: merge partial groups by key.  Groups split across shards can
    # carry *different* raw representatives of one conflated key (1 / 1.0 /
    # True); the shared GroupTable picks the same minimum each shard's GROUP
    # BY did, so the merged representative is independent of shard arrival
    # order and equal to the single-process oracle's choice (min is
    # associative).  Each shard's rows arrive as one batch of key vectors.
    table = GroupTable(list)  # per group: its partial rows, in shard order
    for rows in shard_rows:
        states = table.states(
            [[row[name] for row in rows] for name in split.key_names], len(rows)
        )
        for partials, row in zip(states, rows):
            partials.append(row)
    return table.rows(
        split.key_names,
        lambda partials: {
            merge.name: _finalize(merge, partials) for merge in split.aggregates
        },
    )
