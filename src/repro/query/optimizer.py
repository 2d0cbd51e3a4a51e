"""Cost-based access-path selection (the Figure 15 crossover, automated).

The paper's §6.3.3 evaluation shows secondary-index access beating full scans
only at low selectivities; before this module the user had to pick the access
path by hand (``Query.use_index``).  The optimizer chooses automatically from
the statistics the storage layer collects at flush/merge time
(:mod:`repro.query.stats`), considering three candidates:

(a) **columnar scan** — the full scan with PR 1's pushdown (projection
    pruning, vectorized predicate pre-filtering, min/max group skipping);
(b) **index fetch** — a secondary-index range access followed by sorted,
    batched point lookups into the primary index, projected to the columns
    the plan needs; the residual FILTER operators are retained, so inclusive
    index bounds may safely over-approximate strict predicates;
(c) **index only** — for COUNT-style queries whose predicates are *exactly*
    subsumed by the index range and whose plan touches no other field, the
    point lookups are skipped entirely and the reconciled index entries alone
    answer the query (the subsumed FILTERs are removed from the plan).

Cost model
----------
Costs are abstract "record units" (1.0 ≈ the cost of pushing one record
through the reconciling scan).  They deliberately mirror where this
reproduction actually spends time:

* a scan pays a per-record reconciliation cost for *every* record, a
  per-record decode cost for each pushed-predicate column, and an assembly
  cost per surviving row and needed column;
* an index fetch pays a small per-entry cost for the index range itself, then
  a per-lookup cost proportional to the *leaf group size* — a columnar point
  lookup decodes the group's key column and linearly searches it, then
  decodes each needed column's streams (§4.6); this is what makes
  high-selectivity index plans lose (Figure 15b);
* an index-only plan pays just the per-entry cost, so it wins for covered
  COUNT queries at any selectivity where the index applies.

The estimated selectivity comes from the per-column equi-width histograms and
distinct-count sketches; when a dataset has no flushed statistics at all the
optimizer falls back to the scan, which is always correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Sequence, Tuple

from ..core.schema import field_name_steps
from .plan import (
    AggregateNode,
    AssignNode,
    DataScanNode,
    FilterNode,
    GroupByNode,
    IndexScanNode,
    ProjectNode,
    QueryPlan,
    UnnestNode,
    collect_expressions,
)
from .pushdown import ColumnPredicate, _as_column_predicate, _conjuncts
from .stats import intersect_predicate_bounds

#: Access-path kind tags (also used by tests and the benchmark).
PATH_SCAN = "scan"
PATH_INDEX_FETCH = "index-fetch"
PATH_INDEX_ONLY = "index-only"


@dataclass(frozen=True)
class CostModel:
    """Per-operation weights of the cost formulas, in abstract record units.

    Calibrated against this repository's measured behaviour (see
    ``benchmarks/bench_optimizer.py``): per-index-entry work is several times
    cheaper than pushing a record through the reconciling scan, while a
    columnar point lookup costs on the order of the leaf group size.
    """

    #: Reconciliation + iteration cost per scanned record (heap merge, row
    #: binding, residual filter call).
    scan_record: float = 1.0
    #: Decoding one pushed-predicate column value during the vectorized
    #: pre-filter (cheaper than generic per-record work).
    scan_predicate_value: float = 0.25
    #: Assembling one column of one surviving row into a document.
    assemble_value: float = 1.0
    #: Extra per-record decode cost of the row layouts (whole record decodes).
    row_decode: float = 2.0
    #: Per-index-entry cost (range search, reconciliation, sorting the keys).
    index_entry: float = 0.4
    #: Per-record-in-group cost of one columnar point lookup's key search
    #: (decode the group's keys, scan linearly — §4.6).
    lookup_key: float = 0.5
    #: Per-record-in-group cost of decoding one needed column in a lookup.
    lookup_value: float = 0.3
    #: Per-record-in-page cost of one row-layout point lookup.
    lookup_row: float = 1.5


DEFAULT_COST_MODEL = CostModel()


@dataclass
class AccessPathCandidate:
    """One costed access path, with its ready-to-run plan variant."""

    kind: str
    description: str
    plan: QueryPlan
    estimated_source_rows: int
    estimated_result_rows: int
    estimated_cost: float
    chosen: bool = False
    reason: str = ""
    #: Filled by :func:`analyze_candidates` (``Query.explain(analyze=True)``).
    actual_source_rows: Optional[int] = None
    actual_result_rows: Optional[int] = None
    #: Pages touched while running this candidate (device reads + buffer-cache
    #: hits), from the store's ``io_snapshot()``.
    actual_pages_read: Optional[int] = None

    def describe(self) -> str:
        marker = "=> " if self.chosen else "   "
        lines = [
            f"{marker}{self.kind}: {self.description}",
            f"      est cost={self.estimated_cost:.0f} units, "
            f"est rows: source={self.estimated_source_rows} "
            f"result={self.estimated_result_rows}",
        ]
        if self.actual_source_rows is not None:
            lines.append(
                f"      actual rows: source={self.actual_source_rows} "
                f"result={self.actual_result_rows}"
            )
        if self.actual_pages_read is not None:
            lines.append(f"      actual pages read: {self.actual_pages_read}")
        if self.reason:
            lines.append(f"      {self.reason}")
        return "\n".join(lines)


@dataclass
class OptimizerReport:
    """Why the optimizer picked what it picked (rendered by ``explain``)."""

    dataset: str
    statistics_summary: str
    selectivity: float
    candidates: List[AccessPathCandidate] = dataclass_field(default_factory=list)

    @property
    def chosen(self) -> AccessPathCandidate:
        for candidate in self.candidates:
            if candidate.chosen:
                return candidate
        return self.candidates[0]

    def describe(self) -> str:
        lines = [
            f"OPTIMIZER {self.dataset}: chose {self.chosen.kind} "
            f"(est selectivity {self.selectivity:.4%})",
            f"  {self.statistics_summary}",
        ]
        for candidate in self.candidates:
            for line in candidate.describe().splitlines():
                lines.append("  " + line)
        return "\n".join(lines)


@dataclass(frozen=True)
class _IndexRange:
    """A usable [low, high] range on one secondary index."""

    index_name: str
    low: object
    high: object
    exact: bool  # bounds are closed and equivalent to the subsumed predicates
    subsumed: Tuple[ColumnPredicate, ...]


# ======================================================================================
# Entry point
# ======================================================================================


def optimize_plan(
    store,
    plan: QueryPlan,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    force_scan: bool = False,
) -> Optional[OptimizerReport]:
    """Choose the cheapest access path for ``plan`` and rewrite it in place.

    Args:
        store: The :class:`~repro.store.datastore.Datastore` the plan will run
            against (statistics and index metadata come from its dataset).
        plan: A built plan whose source is a :class:`DataScanNode` (plans that
            already use :meth:`Query.use_index` are never rewritten).
        cost_model: Cost weights (tests may override).
        force_scan: When True only the scan candidate is considered, but the
            report still lists the rejected index paths (``Query.force_scan``).

    Returns:
        The :class:`OptimizerReport` (also attached to ``plan.optimizer``), or
        None when the plan has no data-scan source to optimize.
    """
    source = plan.source
    if not isinstance(source, DataScanNode):
        return None
    dataset = store.dataset(source.dataset)
    statistics = dataset.statistics()
    spec = source.pushdown
    predicates: List[ColumnPredicate] = list(spec.predicates) if spec is not None else []
    selectivity = statistics.estimate_selectivity(predicates)
    record_count = statistics.record_count
    result_rows = _clamp_rows(record_count * selectivity, record_count)

    layout = dataset.layout
    needed_columns = _needed_column_count(source, spec, statistics)
    # The scan candidate gets its own plan snapshot: `plan` itself is later
    # rewritten to the winner, and a candidate aliasing it would make
    # explain(analyze=True) re-run the winning plan under the scan's name.
    scan_plan = QueryPlan(source, list(plan.pipeline), plan.breakers)
    columnar = layout in ("apax", "amax")
    scan_candidate = AccessPathCandidate(
        kind=PATH_SCAN,
        description=_scan_description(layout, spec),
        plan=scan_plan,
        # Columnar scans pre-filter on the pushed predicates, so their source
        # emits ~result_rows; row layouts have no pre-filter and always emit
        # every record.
        estimated_source_rows=result_rows if (predicates and columnar) else record_count,
        estimated_result_rows=result_rows,
        estimated_cost=_scan_cost(
            cost_model, layout, record_count, result_rows, predicates, needed_columns
        ),
    )
    candidates = [scan_candidate]

    for index_range in _usable_index_ranges(dataset, statistics, predicates):
        candidates.extend(
            _index_candidates(
                dataset,
                statistics,
                plan,
                source,
                index_range,
                cost_model,
                needed_columns,
                result_rows,
            )
        )

    _choose(candidates, statistics, force_scan)
    report = OptimizerReport(
        dataset=dataset.name,
        statistics_summary=statistics.describe(),
        selectivity=selectivity,
        candidates=candidates,
    )
    chosen = report.chosen
    plan.source = chosen.plan.source
    plan.pipeline = chosen.plan.pipeline
    plan.optimizer = report
    return report


def _choose(
    candidates: List[AccessPathCandidate], statistics, force_scan: bool
) -> None:
    """Mark the winning candidate and record rejection reasons."""
    scan = candidates[0]
    if force_scan:
        scan.chosen = True
        scan.reason = "forced by Query.force_scan()"
        for candidate in candidates[1:]:
            candidate.reason = "rejected: scan forced by the query"
        return
    if not statistics.has_statistics():
        # Fresh dataset (nothing flushed yet): no histograms exist, so index
        # estimates would be guesses.  The scan is always correct and reads
        # the memtable it would have to read anyway.
        scan.chosen = True
        scan.reason = "fallback: no statistics collected yet (nothing flushed)"
        for candidate in candidates[1:]:
            candidate.reason = "rejected: no statistics to estimate selectivity"
        return
    winner = min(candidates, key=lambda candidate: candidate.estimated_cost)
    winner.chosen = True
    for candidate in candidates:
        if candidate is not winner:
            candidate.reason = (
                f"rejected: estimated {candidate.estimated_cost / max(winner.estimated_cost, 1e-9):.1f}x "
                f"the cost of {winner.kind}"
            )


# ======================================================================================
# Candidate construction
# ======================================================================================


def _scan_description(layout: str, spec) -> str:
    if layout in ("apax", "amax"):
        detail = spec.describe() if spec is not None else "none"
        return f"full {layout} scan with pushdown ({detail})"
    return f"full {layout} scan (row layout; residual filter only)"


def _scan_cost(
    model: CostModel,
    layout: str,
    record_count: int,
    result_rows: int,
    predicates: Sequence[ColumnPredicate],
    needed_columns: int,
) -> float:
    if layout in ("apax", "amax"):
        cost = record_count * model.scan_record
        cost += record_count * len(predicates) * model.scan_predicate_value
        cost += result_rows * needed_columns * model.assemble_value
        return cost
    return record_count * (model.scan_record + model.row_decode)


def _usable_index_ranges(
    dataset, statistics, predicates: Sequence[ColumnPredicate]
) -> List[_IndexRange]:
    """Index ranges derivable from the pushed predicates, type-checked."""
    ranges: List[_IndexRange] = []
    for name, index in dataset.secondary_indexes.items():
        index_steps = field_name_steps(index.path.steps)
        matching = [
            predicate
            for predicate in predicates
            if field_name_steps(predicate.path.steps) == index_steps
            and predicate.op in ("==", "<", "<=", ">", ">=")
        ]
        if not matching:
            continue
        index_range = _combine_bounds(name, matching)
        if index_range is not None:
            ranges.append(index_range)
    return ranges


def _combine_bounds(
    name: str, predicates: Sequence[ColumnPredicate]
) -> Optional[_IndexRange]:
    """Intersect the predicates into one [low, high] index range.

    Strict bounds (``<``, ``>``) *widen* to the inclusive value — the range
    may over-fetch (the bound value itself), and the residual FILTER drops
    it.  They are never narrowed: the indexed column is dynamically typed, so
    ``x > 5`` can be satisfied by ``5.5`` and rewriting to ``>= 6`` would
    silently lose it.  A range built from any strict bound is therefore not
    ``exact`` and never eligible for an index-only plan (which has no
    residual filter left to repair over-fetching).

    Bounds of different comparison-type buckets make the conjunction
    unsatisfiable (:func:`~repro.query.stats.intersect_predicate_bounds`); no
    index candidate is built then — the scan's residual filters produce the
    correct empty result without special-casing an empty range here.
    """
    bounds = intersect_predicate_bounds(predicates)
    if bounds is None:
        return None
    low, high = bounds
    if low is None and high is None:
        return None
    exact = all(predicate.op not in ("<", ">") for predicate in predicates)
    return _IndexRange(name, low, high, exact, tuple(predicates))


def _index_candidates(
    dataset,
    statistics,
    plan: QueryPlan,
    source: DataScanNode,
    index_range: _IndexRange,
    model: CostModel,
    needed_columns: int,
    result_rows: int,
) -> List[AccessPathCandidate]:
    record_count = statistics.record_count
    range_selectivity = statistics.estimate_selectivity(index_range.subsumed)
    fetched_rows = _clamp_rows(record_count * range_selectivity, record_count)
    layout = dataset.layout

    fetch_plan = QueryPlan(
        IndexScanNode(
            source.dataset,
            source.variable,
            index_range.index_name,
            index_range.low,
            index_range.high,
            fields=source.fields,
            keys_only=False,
        ),
        list(plan.pipeline),
        plan.breakers,
    )
    if layout in ("apax", "amax"):
        group = statistics.average_group_records()
        lookup_cost = group * model.lookup_key + needed_columns * group * model.lookup_value
    else:
        lookup_cost = statistics.average_page_records() * model.lookup_row
    candidates = [
        AccessPathCandidate(
            kind=PATH_INDEX_FETCH,
            description=(
                f"index {index_range.index_name} "
                f"[{index_range.low} .. {index_range.high}] "
                f"+ sorted batched point lookups (fields={source.fields})"
            ),
            plan=fetch_plan,
            estimated_source_rows=fetched_rows,
            estimated_result_rows=min(result_rows, fetched_rows),
            estimated_cost=fetched_rows * (model.index_entry + lookup_cost),
        )
    ]

    keys_only_plan = _keys_only_plan(plan, source, index_range)
    if keys_only_plan is not None:
        candidates.append(
            AccessPathCandidate(
                kind=PATH_INDEX_ONLY,
                description=(
                    f"index {index_range.index_name} "
                    f"[{index_range.low} .. {index_range.high}] keys only "
                    f"(no primary-index fetch; subsumed filters removed)"
                ),
                plan=keys_only_plan,
                estimated_source_rows=fetched_rows,
                estimated_result_rows=fetched_rows,
                estimated_cost=fetched_rows * model.index_entry,
            )
        )
    return candidates


def _keys_only_plan(
    plan: QueryPlan, source: DataScanNode, index_range: _IndexRange
) -> Optional[QueryPlan]:
    """The index-only plan variant, or None when it would be incorrect.

    Eligibility (all must hold, checked syntactically — never heuristically):

    * the index bounds are *exact* (closed bounds equivalent to the subsumed
      predicates), because removed FILTERs can no longer repair a widened
      range;
    * every pipeline FILTER consists solely of conjuncts subsumed by the
      range — a partially-subsumed FILTER cannot be dropped, and a retained
      one could not be evaluated on key-only rows;
    * there are no ASSIGN/UNNEST operators (they read record fields);
    * the first breaker *replaces* the rows (GROUP BY / aggregate / project)
      — without one, the key-only rows themselves would become the query
      output, silently dropping every non-key field;
    * after dropping the subsumed FILTERs, no remaining expression references
      the scan variable at all (bare or by path) — COUNT(*)-style breakers.
    """
    if not index_range.exact:
        return None
    if not plan.breakers or not isinstance(
        plan.breakers[0], (AggregateNode, GroupByNode, ProjectNode)
    ):
        return None
    subsumed = set(index_range.subsumed)
    for op in plan.pipeline:
        if isinstance(op, (AssignNode, UnnestNode)):
            return None
        if not isinstance(op, FilterNode):
            return None
        conjuncts = list(_conjuncts(op.predicate))
        as_predicates = [
            _as_column_predicate(conjunct, source.variable) for conjunct in conjuncts
        ]
        if all(predicate in subsumed for predicate in as_predicates):
            continue  # fully subsumed by the index range: drop it
        # A partially-subsumed FILTER can neither be dropped nor evaluated on
        # key-only rows, so there is no "retain it" branch: the whole plan is
        # ineligible.  The emitted pipeline is therefore always empty.
        return None
    for expression in collect_expressions([], plan.breakers):
        if source.variable in expression.referenced_variables():
            return None
    return QueryPlan(
        IndexScanNode(
            source.dataset,
            source.variable,
            index_range.index_name,
            index_range.low,
            index_range.high,
            fields=[],
            keys_only=True,
        ),
        [],
        plan.breakers,
    )


# ======================================================================================
# Helpers
# ======================================================================================


def _clamp_rows(estimate: float, record_count: int) -> int:
    return int(max(0, min(record_count, round(estimate))))


def _needed_column_count(source: DataScanNode, spec, statistics) -> int:
    """How many columns the plan materializes per surviving row."""
    if spec is not None and spec.paths is not None:
        return max(1, len(spec.paths))
    if source.fields is not None:
        return max(1, len(source.fields)) if source.fields else 0
    return max(1, len(statistics.columns))


# ======================================================================================
# EXPLAIN ANALYZE support
# ======================================================================================


def analyze_candidates(store, report: OptimizerReport, executor: str = "interpreted") -> None:
    """Execute every candidate plan and record its actual row counts.

    Fills ``actual_source_rows`` (rows the access path produced),
    ``actual_result_rows`` (rows surviving the residual pipeline), and
    ``actual_pages_read`` (pages touched: device reads plus buffer-cache
    hits) on each candidate, so ``Query.explain(store, analyze=True)`` can
    report estimated vs. actual cardinalities and I/O for the chosen *and*
    the rejected paths.  The page delta is taken from the store's device
    counters after the source is fully materialized.
    """
    from .executor import prepare_plan, run_interpreted_pipeline, source_rows

    for candidate in report.candidates:
        prepare_plan(store, candidate.plan)
        before = store.io_snapshot()
        rows = list(source_rows(store, candidate.plan))
        survivors = list(run_interpreted_pipeline(rows, candidate.plan.pipeline))
        delta = store.io_snapshot().delta_since(before)
        candidate.actual_source_rows = len(rows)
        candidate.actual_result_rows = len(survivors)
        candidate.actual_pages_read = delta.pages_read + delta.cache_hits
