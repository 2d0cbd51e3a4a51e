"""Logical query plans and the fluent :class:`Query` builder.

Plans are linear, mirroring the paper's evaluation queries: a data source
(full scan or secondary-index range access), a chain of *pipelining* operators
(ASSIGN / UNNEST / FILTER), and then the pipeline breakers (GROUP BY,
ORDER BY, LIMIT, aggregate-only, projection of the final rows).  The code
generator translates exactly the pipelining prefix and leaves the breakers to
the engine, as in §5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.errors import QueryError
from .expressions import Expression, Field, Var, lift

AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")

#: Functions usable in a window (``OVER``) column: the aggregates plus the
#: ranking function, which only exists in window position.
WINDOW_FUNCTIONS = AGGREGATE_FUNCTIONS + ("row_number",)


@dataclass
class DataScanNode:
    """Full scan of a dataset, binding each record to ``variable``."""

    dataset: str
    variable: str
    #: Top-level fields to project (None = all); filled in by the optimizer.
    fields: Optional[List[str]] = None
    #: Fine-grained pushdown (pruned column paths + pushed predicates); a
    #: :class:`~repro.query.pushdown.PushdownSpec` attached by the rewrite
    #: pass, or None when pushdown is disabled.
    pushdown: Optional[object] = None


@dataclass
class IndexScanNode:
    """Secondary-index range access followed by (sorted, batched) point lookups."""

    dataset: str
    variable: str
    index_name: str
    low: object = None
    high: object = None
    fields: Optional[List[str]] = None
    #: When True only the primary keys are fetched (COUNT-style queries).
    keys_only: bool = False


@dataclass
class AssignNode:
    variable: str
    expression: Expression


@dataclass
class UnnestNode:
    variable: str
    expression: Expression


@dataclass
class FilterNode:
    predicate: Expression


@dataclass
class JoinNode:
    """Inner hash join against another dataset (a pipelining operator).

    The *build* side is ``dataset``: it is scanned once and materialized into
    a hash table keyed by the canonical join key
    (:func:`repro.query.expressions.join_key`), by
    :func:`repro.query.executor.prepare_plan` right before execution.  The
    incoming pipeline rows are the *probe* side; each row fans out to one
    output row per matching build document, bound to ``variable`` (no match
    drops the row — inner-join semantics).  NULL/MISSING and non-scalar keys
    never match, mirroring ``compare_values`` equality.
    """

    dataset: str
    variable: str
    #: Evaluated against each probe (pipeline) row.
    probe_key: Expression
    #: Evaluated against ``{variable: document}`` per build document.
    build_key: Expression
    #: Statistics recorded by the optimizer's build-side choice (explain).
    build_count: Optional[int] = None
    probe_count: Optional[int] = None
    swapped: bool = False
    #: The prepared hash table (runtime state, set by ``prepare_plan``).
    table: Optional[Dict[object, list]] = None


@dataclass
class GroupByNode:
    keys: List[Tuple[str, Expression]]
    aggregates: List[Tuple[str, str, Optional[Expression]]]


@dataclass
class AggregateNode:
    aggregates: List[Tuple[str, str, Optional[Expression]]]


@dataclass
class OrderByNode:
    key: str
    descending: bool = False


@dataclass
class LimitNode:
    count: int


@dataclass
class ProjectNode:
    columns: List[Tuple[str, Expression]]


@dataclass
class WindowNode:
    """Window-function evaluation (a pipeline breaker).

    Appends one column per entry of ``columns`` to every input row, computed
    over the row's partition (rows sharing the ``partition_by`` key tuple).
    With ``order_by`` the aggregates are *running* (ROWS from the partition
    start to the current row, each row its own frame — a deliberate
    simplification of SQL's RANGE-peers default) and ROW_NUMBER is the
    1-based position in that order; without it the aggregates cover the whole
    partition and ROW_NUMBER numbers rows in input order.  The output
    preserves the input row order.
    """

    #: ``(output name, function, argument)`` — function is one of
    #: :data:`WINDOW_FUNCTIONS`; the argument is None for COUNT(*)/ROW_NUMBER.
    columns: List[Tuple[str, str, Optional[Expression]]]
    partition_by: List[Expression] = field(default_factory=list)
    #: ``(expression, descending)`` pairs, leftmost key primary.
    order_by: List[Tuple[Expression, bool]] = field(default_factory=list)


PipelineOp = object
BreakerOp = object


def _describe_aggregate(aggregate: Tuple[str, str, Optional[Expression]]) -> str:
    name, function, expression = aggregate
    return f"{name}={function}({'*' if expression is None else repr(expression)})"


def _describe_breaker(op: BreakerOp) -> str:
    """One diagnostic line per breaker (group keys, sort direction, limit...)."""
    if isinstance(op, GroupByNode):
        keys = ", ".join(f"{name}={expression!r}" for name, expression in op.keys)
        aggregates = ", ".join(_describe_aggregate(a) for a in op.aggregates)
        return f"GROUPBY keys=[{keys}] aggregates=[{aggregates}]"
    if isinstance(op, AggregateNode):
        return "AGGREGATE " + ", ".join(_describe_aggregate(a) for a in op.aggregates)
    if isinstance(op, OrderByNode):
        return f"ORDERBY {op.key} {'DESC' if op.descending else 'ASC'}"
    if isinstance(op, LimitNode):
        return f"LIMIT {op.count}"
    if isinstance(op, ProjectNode):
        columns = ", ".join(f"{name}={expression!r}" for name, expression in op.columns)
        return f"PROJECT {columns}"
    if isinstance(op, WindowNode):
        columns = ", ".join(
            f"{name}={function}({'*' if expression is None else repr(expression)})"
            for name, function, expression in op.columns
        )
        partition = ", ".join(repr(e) for e in op.partition_by)
        order = ", ".join(
            f"{e!r} {'DESC' if descending else 'ASC'}" for e, descending in op.order_by
        )
        return f"WINDOW [{columns}] partition=[{partition}] order=[{order}]"
    return type(op).__name__.replace("Node", "").upper()


def describe_join(op: JoinNode) -> str:
    """The HASH-JOIN plan line, including the optimizer's build-side verdict."""
    line = (
        f"HASH-JOIN {op.dataset} AS ${op.variable} "
        f"ON {op.probe_key!r} == {op.build_key!r}"
    )
    if op.build_count is not None and op.probe_count is not None:
        line += f" (build rows~{op.build_count}, probe rows~{op.probe_count}"
        line += ", swapped by optimizer)" if op.swapped else ")"
    elif op.swapped:
        line += " (swapped by optimizer)"
    return line


def collect_expressions(
    pipeline: Sequence[PipelineOp], breakers: Sequence[BreakerOp]
) -> List[Expression]:
    """Every expression referenced by the given plan operators.

    Shared by the coarse top-level-field projection (:meth:`Query.build_plan`)
    and the fine path pruning (:mod:`repro.query.pushdown`) so the two can
    never disagree about which operators carry expressions.
    """
    expressions: List[Expression] = []
    for op in pipeline:
        if isinstance(op, (AssignNode, UnnestNode)):
            expressions.append(op.expression)
        elif isinstance(op, FilterNode):
            expressions.append(op.predicate)
        elif isinstance(op, JoinNode):
            expressions.append(op.probe_key)
            expressions.append(op.build_key)
    for op in breakers:
        if isinstance(op, GroupByNode):
            expressions.extend(expression for _, expression in op.keys)
            expressions.extend(
                expression for _, _, expression in op.aggregates if expression
            )
        elif isinstance(op, AggregateNode):
            expressions.extend(
                expression for _, _, expression in op.aggregates if expression
            )
        elif isinstance(op, ProjectNode):
            expressions.extend(expression for _, expression in op.columns)
        elif isinstance(op, WindowNode):
            expressions.extend(op.partition_by)
            expressions.extend(expression for expression, _ in op.order_by)
            expressions.extend(
                expression for _, _, expression in op.columns if expression
            )
    return expressions


@dataclass
class QueryPlan:
    """A resolved plan: source, pipelining prefix, breaker suffix."""

    source: object
    pipeline: List[PipelineOp] = field(default_factory=list)
    breakers: List[BreakerOp] = field(default_factory=list)
    #: Attached by :func:`repro.query.optimizer.optimize_plan`: the
    #: cost/selectivity report (chosen path plus rejected alternatives).
    optimizer: Optional[object] = None

    def describe(self) -> str:
        """Human-readable plan (used by examples, tests, and ``explain``)."""
        lines = []
        source = self.source
        if isinstance(source, DataScanNode):
            lines.append(
                f"SCAN {source.dataset} AS ${source.variable} "
                f"(fields={source.fields if source.fields is not None else 'ALL'})"
            )
            if source.pushdown is not None:
                lines.append(f"  PUSHDOWN {source.pushdown.describe()}")
        else:
            keys_only = " KEYS-ONLY" if source.keys_only else ""
            lines.append(
                f"INDEX-SCAN{keys_only} {source.dataset}.{source.index_name} "
                f"[{source.low} .. {source.high}] AS ${source.variable}"
            )
        for op in self.pipeline:
            if isinstance(op, AssignNode):
                lines.append(f"ASSIGN ${op.variable} <- {op.expression!r}")
            elif isinstance(op, UnnestNode):
                lines.append(f"UNNEST ${op.variable} <- {op.expression!r}")
            elif isinstance(op, FilterNode):
                lines.append(f"FILTER {op.predicate!r}")
            elif isinstance(op, JoinNode):
                lines.append(describe_join(op))
        for op in self.breakers:
            lines.append(_describe_breaker(op))
        if self.optimizer is not None:
            lines.append(self.optimizer.describe())
        return "\n".join(lines)


class Query:
    """Fluent query builder (a small SQL++-like subset).

    Example (the paper's Figure 11 query)::

        Query("gamers", "g")
            .unnest("t", "games")
            .group_by(key=("t", Var("t")), aggregates=[("cnt", "count", None)])
            .order_by("cnt", descending=True)
            .limit(10)
    """

    def __init__(self, dataset: str, variable: str = "t") -> None:
        self.dataset_name = dataset
        self.variable = variable
        self._pipeline: List[PipelineOp] = []
        self._breakers: List[BreakerOp] = []
        self._index: Optional[Tuple[str, object, object]] = None
        self._count_only = False
        self._explicit_fields: Optional[List[str]] = None
        self._project_all = False
        self._force_scan = False

    # -- source --------------------------------------------------------------------------
    def use_index(self, index_name: str, low=None, high=None) -> "Query":
        """Force the query through a secondary-index range access (§4.6).

        This *bypasses* the cost-based optimizer: the resulting plan always
        performs the index range search followed by sorted point lookups into
        the primary index, exactly like the paper's manual index plans.  Leave
        the access path to :meth:`execute`'s optimizer (the default) unless a
        benchmark needs this path specifically.

        Args:
            index_name: Name of a secondary index created with
                :meth:`repro.store.dataset.Dataset.create_secondary_index`.
            low: Inclusive lower bound on the indexed value (None = open).
            high: Inclusive upper bound (None = open).

        Returns:
            This query, for chaining.
        """
        self._index = (index_name, low, high)
        return self

    def force_scan(self) -> "Query":
        """Force the full-scan access path, bypassing the cost-based optimizer.

        The scan still benefits from projection/predicate pushdown; only the
        access-path *choice* is pinned.  ``explain(store)`` will show the
        index alternatives as rejected with a "forced" reason.

        Returns:
            This query, for chaining.
        """
        self._force_scan = True
        return self

    def project_fields(self, fields: Sequence[str]) -> "Query":
        """Override the planner's projection pushdown (rarely needed)."""
        self._explicit_fields = list(fields)
        return self

    def project_all(self) -> "Query":
        """Assemble whole documents, regardless of what the plan references.

        Needed when the plan's consumer reads fields the plan itself never
        mentions — e.g. a shard fragment whose breakers run at the
        coordinator: inference over the stripped fragment would prune fields
        only the coordinator's operators touch.
        """
        self._project_all = True
        return self

    # -- pipelining operators ----------------------------------------------------------------
    def assign(self, variable: str, expression: "Expression | str") -> "Query":
        self._pipeline.append(AssignNode(variable, self._resolve(expression)))
        return self

    def unnest(self, variable: str, expression: "Expression | str") -> "Query":
        self._pipeline.append(UnnestNode(variable, self._resolve(expression)))
        return self

    def where(self, predicate: Expression) -> "Query":
        self._pipeline.append(FilterNode(lift(predicate)))
        return self

    def join(
        self,
        dataset: str,
        variable: str,
        probe_key: Expression,
        build_key: Expression,
    ) -> "Query":
        """Inner hash join against ``dataset``, binding matches to ``variable``.

        ``probe_key`` is evaluated against the pipeline rows flowing in,
        ``build_key`` against each document of ``dataset`` (bound to
        ``variable``); a row is emitted per equal-key pair, with equality
        following ``compare_values`` (NULL/MISSING and non-scalars never
        match).  The optimizer may swap the two sides based on dataset
        statistics — see :meth:`optimized_plan`.

        Returns:
            This query, for chaining.
        """
        self._pipeline.append(
            JoinNode(dataset, variable, lift(probe_key), lift(build_key))
        )
        return self

    # -- breakers ---------------------------------------------------------------------------
    def group_by(
        self,
        key: "Tuple[str, Expression | str] | Sequence[Tuple[str, Expression]]",
        aggregates: Sequence[Tuple[str, str, Optional[Expression]]],
    ) -> "Query":
        keys = [key] if isinstance(key, tuple) and isinstance(key[0], str) else list(key)
        resolved_keys = [(name, self._resolve(expression)) for name, expression in keys]
        resolved_aggregates = self._resolve_aggregates(aggregates)
        self._breakers.append(GroupByNode(resolved_keys, resolved_aggregates))
        return self

    def aggregate(
        self, aggregates: Sequence[Tuple[str, str, Optional[Expression]]]
    ) -> "Query":
        self._breakers.append(AggregateNode(self._resolve_aggregates(aggregates)))
        return self

    def count(self) -> "Query":
        """``SELECT COUNT(*)`` — reads only the primary keys under columnar layouts."""
        self._count_only = True
        self._breakers.append(AggregateNode([("count", "count", None)]))
        return self

    def order_by(self, key: str, descending: bool = False) -> "Query":
        self._breakers.append(OrderByNode(key, descending))
        return self

    def limit(self, count: int) -> "Query":
        """Keep the first ``count`` rows; ``count`` is a non-negative int
        (not a bool), the SQL++ parser's rule for ``LIMIT``."""
        if type(count) is not int or count < 0:
            raise QueryError(f"LIMIT needs a non-negative integer, not {count!r}")
        self._breakers.append(LimitNode(count))
        return self

    def select(self, columns: Sequence[Tuple[str, "Expression | str"]]) -> "Query":
        resolved = [(name, self._resolve(expression)) for name, expression in columns]
        self._breakers.append(ProjectNode(resolved))
        return self

    def window(
        self,
        columns: Sequence[Tuple[str, str, Optional["Expression | str"]]],
        partition_by: Sequence["Expression | str"] = (),
        order_by: Sequence[Tuple["Expression | str", bool]] = (),
    ) -> "Query":
        """Append window-function columns (see :class:`WindowNode`).

        Args:
            columns: ``(output name, function, argument)`` triples; the
                function must be one of :data:`WINDOW_FUNCTIONS` and the
                argument is None for ``count``/``row_number``.
            partition_by: Expressions forming the partition key.
            order_by: ``(expression, descending)`` pairs ordering rows inside
                each partition (running-aggregate / ROW_NUMBER order).

        Returns:
            This query, for chaining.
        """
        resolved_columns = []
        for name, function, expression in columns:
            if function not in WINDOW_FUNCTIONS:
                raise QueryError(f"unknown window function {function!r}")
            resolved_columns.append(
                (name, function, None if expression is None else self._resolve(expression))
            )
        self._breakers.append(
            WindowNode(
                resolved_columns,
                [self._resolve(e) for e in partition_by],
                [(self._resolve(e), bool(descending)) for e, descending in order_by],
            )
        )
        return self

    # -- resolution ----------------------------------------------------------------------------
    def _resolve(self, expression: "Expression | str") -> Expression:
        """Strings are shorthand for field access on the scan variable."""
        if isinstance(expression, str):
            return Field(Var(self.variable), expression)
        return lift(expression)

    def _resolve_aggregates(self, aggregates):
        resolved = []
        for name, function, expression in aggregates:
            if function not in AGGREGATE_FUNCTIONS:
                raise QueryError(f"unknown aggregate function {function!r}")
            resolved.append(
                (name, function, None if expression is None else self._resolve(expression))
            )
        return resolved

    # -- planning ---------------------------------------------------------------------------------
    def build_plan(self, pushdown: bool = True) -> QueryPlan:
        """Resolve the plan; ``pushdown=False`` keeps the assemble-then-filter path."""
        fields = self._explicit_fields
        if self._project_all:
            fields = None
        elif fields is None:
            fields = self._pushdown_fields()
        if self._index is not None:
            index_name, low, high = self._index
            # Index-based plans always fetch the qualifying records through
            # sorted, batched point lookups (§4.6) — even for COUNT(*) — which
            # is what makes high-selectivity index plans lose to AMAX scans in
            # Figure 15b.
            source = IndexScanNode(
                self.dataset_name,
                self.variable,
                index_name,
                low,
                high,
                fields=fields,
                keys_only=False,
            )
        else:
            source = DataScanNode(self.dataset_name, self.variable, fields=fields)
        plan = QueryPlan(source, list(self._pipeline), list(self._breakers))
        if pushdown and isinstance(source, DataScanNode):
            # Imported lazily to avoid a module cycle (pushdown needs the plan
            # node types defined above).
            from .pushdown import attach_pushdown

            attach_pushdown(
                plan,
                prune_paths=self._explicit_fields is None and not self._project_all,
            )
        return plan

    def _pushdown_fields(self) -> Optional[List[str]]:
        """Top-level fields of the scan variable referenced anywhere in the plan.

        Returns None (project everything) if the whole record is referenced.
        ``COUNT(*)`` queries project nothing, which lets the AMAX layout answer
        them from Page 0 alone.
        """
        expressions = collect_expressions(self._pipeline, self._breakers)
        fields: List[str] = []
        # Variables bound by ASSIGN/UNNEST derive from the scan variable; any
        # path on them was already accounted for when the binding expression
        # was analysed, so only the scan variable matters here.  A bare use of
        # the scan variable itself — even nested inside a larger expression —
        # consumes the whole record and forces full projection.
        for expression in expressions:
            if self.variable in expression.referenced_bare_variables():
                return None
            for variable, path in expression.referenced_paths():
                if variable == self.variable and len(path) > 0:
                    top = path.top_field
                    if top and top not in fields:
                        fields.append(top)
        return fields

    # -- execution ----------------------------------------------------------------------------------
    def optimized_plan(self, store, pushdown: bool = True) -> QueryPlan:
        """Build the plan and run cost-based access-path selection against ``store``.

        The optimizer (:mod:`repro.query.optimizer`) considers the pushdown
        scan, secondary-index fetch plans, and index-only plans, estimating
        selectivity from the statistics collected at flush/merge time.  Plans
        that used :meth:`use_index` are returned unoptimized (the manual
        choice stands); :meth:`force_scan` keeps the scan but still reports
        the rejected alternatives.

        Args:
            store: The datastore the plan will execute against.
            pushdown: Attach the scan-pushdown spec (as in :meth:`build_plan`).

        Returns:
            The (possibly rewritten) plan, with ``plan.optimizer`` set to an
            :class:`~repro.query.optimizer.OptimizerReport` when the source
            was a data scan.
        """
        query = self._choose_join_order(store)
        plan = query.build_plan(pushdown=pushdown)
        if self._index is None:
            from .optimizer import optimize_plan

            optimize_plan(store, plan, force_scan=self._force_scan)
        return plan

    def _choose_join_order(self, store) -> "Query":
        """Statistics-driven build-side choice for a single leading hash join.

        The smaller dataset should be the *build* side (the hashed one).  When
        the query is ``FROM a JOIN b`` with the join first in the pipeline and
        both join keys referencing only their own side, the roles are
        symmetric: scanning ``b`` and hashing ``a`` computes the same rows.
        If per-dataset statistics say the current build side is the larger
        one, return a rewritten query with the sides swapped; otherwise (or
        when statistics are unavailable) return ``self`` with the counts
        recorded on the node for ``explain()``.
        """
        join = None
        for op in self._pipeline:
            if isinstance(op, JoinNode):
                if join is not None:
                    return self  # multi-join ordering is out of scope
                join = op
        if join is None or self._pipeline[0] is not join:
            return self
        if self._index is not None or self._explicit_fields is not None:
            return self
        if join.probe_key.referenced_variables() != {self.variable}:
            return self
        if join.build_key.referenced_variables() != {join.variable}:
            return self
        try:
            build_stats = store.dataset(join.dataset).statistics()
            probe_stats = store.dataset(self.dataset_name).statistics()
        except Exception:
            return self
        if build_stats.has_statistics():
            join.build_count = build_stats.record_count
        if probe_stats.has_statistics():
            join.probe_count = probe_stats.record_count
        if not (build_stats.has_statistics() and probe_stats.has_statistics()):
            return self
        if build_stats.record_count <= probe_stats.record_count:
            return self
        swapped = Query(join.dataset, join.variable)
        swapped._pipeline = [
            JoinNode(
                self.dataset_name,
                self.variable,
                probe_key=join.build_key,
                build_key=join.probe_key,
                build_count=probe_stats.record_count,
                probe_count=build_stats.record_count,
                swapped=True,
            )
        ] + list(self._pipeline[1:])
        swapped._breakers = list(self._breakers)
        swapped._count_only = self._count_only
        swapped._project_all = self._project_all
        swapped._force_scan = self._force_scan
        return swapped

    def execute(
        self,
        store,
        executor: Optional[str] = None,
        pushdown: bool = True,
        optimize: Optional[bool] = None,
        batch_size: Optional[int] = None,
    ) -> List[dict]:
        """Run the query against a datastore; returns the result rows.

        Args:
            store: The :class:`~repro.store.datastore.Datastore` to query.
            executor: ``"batch"`` (vector-at-a-time over column batches; what
                None means, :data:`~repro.query.executor.DEFAULT_EXECUTOR`)
                or ``"interpreted"`` (row-at-a-time oracle).
            pushdown: ``False`` disables the scan-pushdown rewrite (every
                layout then assembles full projected documents and filters
                tuple-at-a-time), which is what the differential tests and
                ``bench_pushdown`` compare against.
            optimize: ``False`` skips cost-based access-path selection,
                ``True`` forces it; the default (None) follows ``pushdown``,
                so baseline comparisons stay rewrite-free end to end.
            batch_size: Rows per column batch for the batch executor
                (default :data:`~repro.query.executor.DEFAULT_BATCH_SIZE`).

        Returns:
            The result rows as a list of dicts.
        """
        from ..obs import span
        from .executor import execute_plan, resolve_executor

        executor = resolve_executor(executor)  # reject a bad name before planning
        if optimize is None:
            optimize = pushdown
        with span("optimize", cost_based=bool(optimize and self._index is None)):
            if optimize and self._index is None:
                plan = self.optimized_plan(store, pushdown=pushdown)
            else:
                plan = self.build_plan(pushdown=pushdown)
        return execute_plan(store, plan, executor=executor, batch_size=batch_size)

    def explain(
        self,
        store=None,
        pushdown: bool = True,
        analyze: bool = False,
        executor: Optional[str] = None,
    ) -> str:
        """Render the query plan, optionally with costs and actual row counts.

        Args:
            store: When given, the cost-based optimizer runs against this
                datastore and the rendering includes the chosen access path,
                its estimated cost and row counts, and every rejected
                alternative with its rejection reason.  Without a store only
                the logical plan is rendered (no statistics are available).
            pushdown: Attach the scan-pushdown spec before explaining.
            analyze: Additionally *execute* every candidate access path and
                report estimated vs. actual row counts (requires ``store``).
            executor: Which executor the final EXECUTOR line describes
                (the same values :meth:`execute` accepts).

        Returns:
            A multi-line, human-readable plan description.

        Example:
            >>> from repro.query import Field, Query, Var
            >>> print(Query("d", "t").where(Field(Var("t"), "a") == 1).count()
            ...       .explain())
            SCAN d AS $t (fields=['a'])
              PUSHDOWN paths=[a]; predicates=[a == 1]
            FILTER Compare(Field(Var('t'), 'a') == Literal(1))
            AGGREGATE count=count(*)
            EXECUTOR batch (column batches of 1024)
        """
        from .executor import describe_executor

        executor_line = describe_executor(executor)
        if store is None:
            plan = self.build_plan(pushdown=pushdown)
            return plan.describe() + "\n" + executor_line
        plan = self.optimized_plan(store, pushdown=pushdown)
        if analyze and plan.optimizer is not None:
            from .optimizer import analyze_candidates

            analyze_candidates(store, plan.optimizer)
        return plan.describe() + "\n" + executor_line
