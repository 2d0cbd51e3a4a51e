"""The end-to-end batch-vectorized executor.

Operators here exchange :class:`~repro.query.batch.ColumnBatch` objects
instead of rows.  The source comes in two flavours:

* **direct** — for columnar components, each leaf group's pruned column
  streams are turned straight into per-record value vectors (no document is
  ever assembled), with the pushed predicates and the anti-matter flags
  folded into one selection before the batch is even built.  An array the
  plan reads only through ``[*]`` paths, ``is_array``, ``SOME … SATISFIES``
  or its only UNNEST (:class:`~repro.query.pushdown.ElementRuns`) is served
  from its element runs: the definition levels of the columns that fix the
  array's shape (:meth:`~repro.core.schema.Schema.shape_columns`) give each
  record's run of element entries, and one element-level selection — the
  position of each element and the record it belongs to — answers them all:
  per-record lists, the answers of those whole expressions (handed over in
  the batch's ``decided`` vectors), and for the UNNEST per-*element* value
  vectors keyed by the unnest variable, with the record vectors fanned out
  to the elements — such batches are marked ``unnested`` and the pipeline
  skips the operator for them.
  Direct scans are taken whenever every component is columnar with the
  pruned paths flat — or, for element runs, resolvable — in its schema
  (:func:`~repro.query.pushdown.schema_supports_direct`).  Newest-wins needs
  no merge: a component record is live iff it is not anti-matter and its key
  is in no *newer* source, so each component is scanned under a **shadow** —
  the in-memory winners (:meth:`~repro.lsm.lsm_tree.TreeSnapshot.memtable_winners`)
  plus the keys of every newer component whose key span intersects its own
  (read from the leaf groups that reach into it only) — and
  ``key not in shadow`` joins the selection, ahead of the pushed
  predicates (a newer version that fails a predicate still hides the older
  one).  A leaf group whose span holds no shadow key reads no key stream at
  all.  The live in-memory records then leave as row-backed **overlay**
  batches after the components'.  A row-major component or a path the column
  streams cannot serve exactly sends the partition to the reconciled row
  scan, batched row-wise; all kinds of batch flow through the same operators.
* **row-backed** — documents (the reconciled scan's, or a direct
  partition's memtable overlay), pivoted into one column per bound variable.

FILTER / ASSIGN / UNNEST evaluate whole expression vectors per batch
(:meth:`~repro.query.expressions.Expression.evaluate_batch`, with NumPy
kernels from :mod:`repro.query.kernels` where exact); GROUP BY / AGGREGATE /
PROJECT consume batches directly, and any remaining breaker suffix reuses the
shared engine code from :mod:`repro.query.executor`.  The interpreted
row-at-a-time executor stays untouched as the correctness oracle.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..columnar.base import ColumnarComponent
from ..core.schema import field_name_steps
from ..model.path import FieldPath
from ..model.values import MISSING, TYPE_NULL
from .batch import ColumnBatch
from . import kernels
from .executor import (
    DEFAULT_BATCH_SIZE,
    GroupTable,
    aggregate_results,
    new_aggregators,
    op_span_name,
    run_breakers,
    source_rows,
    traced_batch_source,
)
from ..obs import current_trace, record_span
from .expressions import (
    And,
    Call,
    Compare,
    Expression,
    Field,
    Literal,
    Or,
    SomeSatisfies,
    Var,
    join_key,
    missing_to_none,
)
from .plan import (
    AggregateNode,
    AssignNode,
    DataScanNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    ProjectNode,
    QueryPlan,
    UnnestNode,
    collect_expressions,
)
from .pushdown import (
    compile_predicates,
    quantifier_tails,
    run_columns,
    schema_supports_direct,
)

#: Expression types the direct (assembly-free) path can evaluate over path
#: columns.  SomeSatisfies re-binds rows internally: only the quantifiers the
#: scan decides from element runs are direct-safe.
_DIRECT_EXPRESSIONS = (Literal, Var, Field, Compare, And, Or, Call)


# ======================================================================================
# Eligibility
# ======================================================================================


def expression_supports_direct(expression: Expression, decided=frozenset()) -> bool:
    """Can this expression evaluate over direct path columns (no row dicts)?

    ``decided`` holds the ``id`` of every quantifier the scan decides itself.
    """
    if isinstance(expression, SomeSatisfies):
        return id(expression) in decided
    if isinstance(expression, Field):
        return expression_supports_direct(expression.base, decided)
    if isinstance(expression, Compare):
        return expression_supports_direct(
            expression.left, decided
        ) and expression_supports_direct(expression.right, decided)
    if isinstance(expression, (And, Or)):
        return all(expression_supports_direct(o, decided) for o in expression.operands)
    if isinstance(expression, Call):
        return all(expression_supports_direct(a, decided) for a in expression.arguments)
    return isinstance(expression, _DIRECT_EXPRESSIONS)


def plan_supports_direct(plan: QueryPlan) -> bool:
    """May the scan emit assembly-free (path-column-only) batches for this plan?

    Requires a pushdown spec with a pruned path set (which already proves the
    scan variable is never consumed whole), no rebinding of the scan
    variable, direct-safe expressions everywhere, and a first breaker that
    consumes batches without materializing binding rows (GROUP BY, AGGREGATE,
    or PROJECT) — ORDER BY/LIMIT-first plans keep row batches.  A
    ``SOME … SATISFIES`` is direct-safe when the spec's element runs decide
    it and its body is direct-safe over the element columns.
    """
    source = plan.source
    if not isinstance(source, DataScanNode):
        return False
    spec = source.pushdown
    if spec is None or spec.paths is None:
        return False
    for op in plan.pipeline:
        if not isinstance(op, (AssignNode, UnnestNode, FilterNode)):
            return False  # joins (and future operators) bind row documents
        if isinstance(op, (AssignNode, UnnestNode)) and op.variable == source.variable:
            return False
    if not plan.breakers:
        return False
    if not isinstance(plan.breakers[0], (GroupByNode, AggregateNode, ProjectNode)):
        return False
    decided = frozenset(
        id(quantifier)
        for run in spec.runs
        for quantifier in run.quantifiers
        if expression_supports_direct(quantifier.predicate)
    )
    return all(
        expression_supports_direct(expression, decided)
        for expression in collect_expressions(plan.pipeline, plan.breakers)
    )


class ScanReport:
    """What one batch scan did, for its ``DataScanNode`` span.

    ``fallbacks`` holds, per partition that took the reconciling scan, the
    reason why — complete as soon as every partition has chosen, i.e. when
    :meth:`~repro.store.dataset.Dataset.scan_batches` returns.  The row
    counters fill in as the direct partitions finish (one addition per
    partition):
    ``overlay_rows`` live memtable records emitted as row batches,
    ``shadowed_rows`` decoded component records dropped because a newer
    source holds their key.
    """

    def __init__(self) -> None:
        self.fallbacks: List[str] = []
        self.overlay_rows = 0
        self.shadowed_rows = 0

    def add_rows(self, overlay: int, shadowed: int) -> None:
        self.overlay_rows += overlay
        self.shadowed_rows += shadowed


class _Shadow:
    """The keys of one source, spanning ``[low, high]``, that is newer than
    the component being scanned: a record whose key is among them is
    superseded.  The in-memory winners are a ready-made dict; a component's
    keys (anti-matter included — a newer delete hides the record too) are
    read group by group, and only if an older component reaches into them."""

    def __init__(self, low, high, keys=None, groups=()) -> None:
        self.low = low
        self.high = high
        self._keys = keys
        self._groups = groups
        self._group_keys: Dict[Tuple[int, ...], set] = {}

    def keys_within(self, low, high):
        """A container answering ``key in`` (and iterable) that holds every
        key of the source inside ``[low, high]`` — possibly more — or None
        when there can be none.  Of a component, only the leaf groups whose
        own span reaches into ``[low, high]`` have their key stream read."""
        if not _spans_meet(self.low, self.high, low, high):
            return None
        if self._keys is not None:
            return self._keys
        wanted = tuple(
            index
            for index, group in enumerate(self._groups)
            if group.record_count
            and _spans_meet(group.min_key, group.max_key, low, high)
        )
        if not wanted:
            return None
        if wanted not in self._group_keys:
            keys: set = set()
            for index in wanted:
                keys.update(self._groups[index].read_keys()[0])
            self._group_keys[wanted] = keys
        return self._group_keys[wanted]


def _spans_meet(low, high, other_low, other_high) -> bool:
    try:
        return not (high < other_low or other_high < low)
    except TypeError:
        return True  # cross-type (or unknown) spans are inconclusive


def _memtable_shadow(winners: dict) -> _Shadow:
    try:
        return _Shadow(min(winners), max(winners), keys=winners)
    except TypeError:
        return _Shadow(None, None, keys=winners)


def _direct_components(
    snapshot, spec
) -> Tuple[Optional[List[ColumnarComponent]], Optional[str]]:
    """``(non-empty components, newest first, None)``, or ``(None, reason)``.

    The direct scan reconciles by key membership (:class:`_Shadow`), so what
    is left to rule out is data the column streams cannot serve: ``layout``
    (a row-major component) or ``schema`` (a pruned path that is not flat —
    or, for element runs, the unnested array among them, not resolvable by
    :func:`~repro.query.pushdown.run_columns` — in some component's schema).
    """
    components: List[ColumnarComponent] = []
    for component in snapshot.components:
        if not isinstance(component, ColumnarComponent):
            return None, "layout"
        if not schema_supports_direct(component.schema, spec.paths, spec.runs):
            return None, "schema"
        metadata = component.metadata
        if metadata.record_count and metadata.min_key is not None:
            components.append(component)
    return components, None


# ======================================================================================
# Sources
# ======================================================================================


def partition_batches(
    tree,
    snapshot,
    variable: str,
    fields,
    spec,
    batch_size: int,
    allow_direct: bool,
    report: Optional[ScanReport] = None,
) -> Iterator[ColumnBatch]:
    """Batches for one partition; takes ownership of the pinned snapshot.

    A partition that cannot go direct appends the reason to
    ``report.fallbacks``; one that does adds its row counters when it ends.
    """
    if report is None:
        report = ScanReport()  # a caller that does not care what ran
    components = None
    reason = "plan"
    if allow_direct and spec is not None and spec.paths is not None:
        components, reason = _direct_components(snapshot, spec)
    if components is not None:
        return _direct_partition_batches(
            snapshot, components, spec, variable, batch_size, report
        )
    report.fallbacks.append(reason)
    # Reconciled row scan (closes the snapshot itself), batched row-wise.
    rows = tree._scan_snapshot(snapshot, fields, spec)
    return _row_batches(rows, variable, batch_size)


def _row_batches(
    rows: Iterable[Tuple[object, dict]], variable: str, batch_size: int
) -> Iterator[ColumnBatch]:
    documents: list = []
    for _, document in rows:
        documents.append(document)
        if len(documents) >= batch_size:
            yield ColumnBatch(len(documents), {variable: documents})
            documents = []
    if documents:
        yield ColumnBatch(len(documents), {variable: documents})


def unnest_batch(batch: ColumnBatch, variable: str, arrays: list) -> ColumnBatch:
    """UNNEST: one output row per element of each row's array (non-arrays drop)."""
    indices: List[int] = []
    items: list = []
    for row_index, value in enumerate(arrays):
        if isinstance(value, (list, tuple)):
            indices.extend([row_index] * len(value))
            items.extend(value)
    return batch.take(indices, extra_vars={variable: items})


def _direct_partition_batches(
    snapshot, components, spec, variable: str, batch_size: int, report: ScanReport
) -> Iterator[ColumnBatch]:
    """The components' assembly-free batches, then the memtable overlay.

    Each component is scanned under the shadows of the sources newer than it
    whose span reaches into its own; disjoint components under empty
    memtables get none and scan exactly as if nothing else existed.  Row
    order is by component (``min_key`` order where keys compare), never by
    key across components.
    """
    overlay = 0
    shadowed: List[int] = []  # per leaf group that applied a shadow
    try:
        winners = snapshot.memtable_winners()
        newer: List[_Shadow] = [_memtable_shadow(winners)] if winners else []
        scans: List[Tuple[ColumnarComponent, List[_Shadow]]] = []
        for component in components:  # newest first
            metadata = component.metadata
            scans.append((component, list(newer)))
            newer.append(
                _Shadow(metadata.min_key, metadata.max_key, groups=component.groups)
            )
        try:
            scans.sort(key=lambda scan: scan[0].metadata.min_key)
        except TypeError:
            pass  # cross-type keys: any order will do
        for component, above in scans:
            low, high = component.metadata.min_key, component.metadata.max_key
            shadows = [
                keys
                for keys in (shadow.keys_within(low, high) for shadow in above)
                if keys is not None
            ]
            yield from _component_batches(
                component, spec, variable, batch_size, shadows, shadowed
            )
        live = [
            (key, document)
            for key, (antimatter, document) in winners.items()
            if not antimatter
        ]
        overlay = len(live)
        yield from _row_batches(live, variable, batch_size)
    finally:
        report.add_rows(overlay, sum(shadowed))
        snapshot.close()


def _groups_holding_keys(groups, shadows) -> set:
    """Indices of the leaf groups whose key span holds a shadow key — the
    only groups that must decode their key stream to apply the shadow.

    Groups partition the component's key order, so each shadow key is placed
    by one bisect; the walk stops once every group is known to be hit.
    """
    spans = [
        (group.min_key, index)
        for index, group in enumerate(groups)
        if group.record_count and group.min_key is not None
    ]
    lows = [low for low, _ in spans]
    hit: set = set()
    try:
        for keys in shadows:
            for key in keys:
                position = bisect_right(lows, key) - 1
                if position < 0:
                    continue
                index = spans[position][1]
                if index not in hit and not groups[index].max_key < key:
                    hit.add(index)
                    if len(hit) == len(spans):
                        return hit
    except TypeError:
        return {index for _, index in spans}  # cross-type keys: check them all
    return hit


def _component_batches(
    component: ColumnarComponent,
    spec,
    variable: str,
    batch_size: int,
    shadows: List,
    shadowed: List[int],
) -> Iterator[ColumnBatch]:
    """Assembly-free batches of one component, already unnested (and marked
    so) when the spec's runs carry the plan's UNNEST.

    Record paths become one value per record (:func:`_path_vector`).  The
    spec's element runs add their list paths and decided expressions as
    record vectors, and the UNNEST's element paths as element vectors
    (:func:`_run_vectors`); the record vectors are then fanned out to the
    elements by the record behind each.  Pushed predicates, anti-matter, the
    ``shadows`` (key containers of newer sources: a record found in one is
    superseded, and counted in ``shadowed``) and the fan-out all end up in
    one selection, ``rows`` into the record vectors, applied by one gather.
    Min/max pruning skips a group whatever the shadows say: the records it
    would hide are not being emitted, and the group's own keys shadow older
    components through :class:`_Shadow`, not through here.
    """
    schema = component.schema
    compiled = (
        compile_predicates(schema, spec.predicates) if spec.predicates else []
    )
    unnest = spec.unnest
    runs = [(run, run_columns(schema, run)) for run in spec.runs]
    if any(run is unnest and columns.anchor is None for run, columns in runs):
        return  # the unnested array occurs in no record of this component
    value_columns: Dict[FieldPath, list] = {
        path: [
            column
            for column in schema.columns
            if field_name_steps(column.path) == tuple(path.steps)
        ]
        for path in spec.paths
        if not any(run.covers(path) for run in spec.runs)
    }
    pk_column = schema.pk_column
    needs_keys = any(
        column.is_primary_key
        for columns in value_columns.values()
        for column in columns
    )
    needed: Dict[int, object] = {}
    for cp in compiled:
        for column in cp.columns:
            needed[column.column_id] = column
    for columns in value_columns.values():
        for column in columns:
            needed[column.column_id] = column
    for _, columns in runs:
        if columns.anchor is not None:
            tails = chain(*columns.tails.values())
            for column in (columns.counted, *columns.probes, *tails):
                needed[column.column_id] = column
    shadowed_groups = (
        _groups_holding_keys(component.groups, shadows) if shadows else ()
    )
    for group_index, group in enumerate(component.groups):
        record_count = group.record_count
        if record_count == 0:
            continue
        if compiled and any(not cp.group_may_match(group) for cp in compiled):
            continue  # min/max pruning: nothing decoded, not even the keys
        antimatter_count = getattr(group, "antimatter_count", None)
        needs_flags = antimatter_count is None or antimatter_count > 0
        needs_shadow = group_index in shadowed_groups
        wanted = list(needed.values())
        if (
            needs_flags or needs_keys or needs_shadow
        ) and pk_column.column_id not in needed:
            wanted.append(pk_column)
        streams = group.read_columns(wanted) if wanted else {}
        keys: Optional[list] = None
        # ``flags``: the records that are dead on arrival — anti-matter, or
        # superseded by a newer source.  Decided before any predicate looks.
        flags: Optional[List[bool]] = None
        antimatter: Optional[List[bool]] = None  # None: no anti-matter here
        if pk_column.column_id in streams:
            pk_defs, keys = streams[pk_column.column_id]
            if needs_flags:
                flags = antimatter = [level == 0 for level in pk_defs]
            if needs_shadow:
                live_before = record_count - (sum(flags) if flags else 0)
                for shadow in shadows:
                    hidden = map(shadow.__contains__, keys)
                    flags = (
                        list(hidden)
                        if flags is None
                        else [a or b for a, b in zip(flags, hidden)]
                    )
                shadowed.append(live_before - (record_count - sum(flags)))
        passes: Optional[List[bool]] = None
        for cp in compiled:
            vector = cp.evaluate(streams, record_count)
            passes = (
                vector
                if passes is None
                else [a and b for a, b in zip(passes, vector)]
            )
        # ``rows``: the record index behind each output row (None = identity).
        rows: Optional[List[int]] = None
        if passes is not None or flags is not None:
            rows = [
                index
                for index in range(record_count)
                if (passes is None or passes[index])
                and (flags is None or not flags[index])
            ]
        if rows is not None and not rows:
            continue
        records = rows  # before the UNNEST fan-out
        vectors: Dict[Tuple[str, FieldPath], list] = {}  # one value per record
        element_data: Dict[Tuple[str, FieldPath], list] = {}
        variables_data: Dict[str, list] = {}
        decided: Dict[int, list] = {}
        for run, columns in runs:
            lists, answers, fanout = _run_vectors(
                run, columns, group, streams, antimatter, records, record_count
            )
            for path, vector in lists.items():
                vectors[(variable, path)] = vector
            decided.update(answers)
            if fanout is not None:
                rows, elements = fanout
                for path, vector in elements.items():
                    if len(path) == 0:
                        variables_data[run.variable] = vector
                    else:
                        element_data[(run.variable, path)] = vector
        output_count = record_count if rows is None else len(rows)
        if not output_count:
            continue
        for path, columns in value_columns.items():
            vectors[(variable, path)] = _path_vector(
                columns, streams, keys, record_count
            )
        if rows is not None:
            vectors = {key: kernels.gather(v, rows) for key, v in vectors.items()}
            decided = {key: kernels.gather(v, rows) for key, v in decided.items()}
        columns_data = {**vectors, **element_data}
        for start in range(0, output_count, batch_size):
            end = min(start + batch_size, output_count)
            yield ColumnBatch(
                end - start,
                {name: column[start:end] for name, column in variables_data.items()},
                {key: column[start:end] for key, column in columns_data.items()},
                unnested=unnest is not None,
                decided={key: column[start:end] for key, column in decided.items()},
            )


def _path_vector(columns, streams, keys, record_count: int) -> list:
    """One value per record for a flat path, merged across union branches."""
    if len(columns) == 1 and not columns[0].is_primary_key:
        column = columns[0]
        defs, values = streams[column.column_id]
        if column.type_tag != TYPE_NULL and len(values) == record_count:
            return list(values)  # fully present: the value stream is the vector
    vector = [MISSING] * record_count
    for column in columns:
        if column.is_primary_key:
            # Key values live with the group header; anti-matter rows get a
            # key too, but those rows are dropped by the selection.
            for index in range(record_count):
                vector[index] = keys[index]
            continue
        defs, values = streams[column.column_id]
        _place_values(column, defs, values, vector)
    return vector


def _place_values(column, defs, values, vector: list) -> None:
    """Write a column's present values into ``vector``, one slot per entry of
    ``defs`` (entries below ``max_def`` keep whatever the slot held)."""
    max_def = column.max_def
    if column.type_tag == TYPE_NULL:
        for index, definition_level in enumerate(defs):
            if definition_level == max_def:
                vector[index] = None
    else:
        value_index = 0
        for index, definition_level in enumerate(defs):
            if definition_level == max_def:
                vector[index] = values[value_index]
                value_index += 1


def _element_runs(defs, column) -> Tuple[List[int], List[int], List[int]]:
    """Per-record run lengths of a column under a single-level array, the
    indices of the records that show no array at all, and those whose run is
    one entry *at* the array's level.

    The delimiter rule of :meth:`~repro.core.columns.ColumnCursor.next_record`,
    specialised to ``array_count == 1``: a record whose first entry lies below
    the array's level has no array and contributes that single entry (run
    length 0); otherwise its entries run up to the record-end delimiter (the
    next definition level 0 — element entries all lie at or above the
    array's level), one per element.  An empty array leaves one entry at the
    array's level; so does a one-element array whose element takes another
    branch of a union element type than the column's.
    """
    array_level = column.outer_array_level
    runs: List[int] = []
    absent: List[int] = []
    lone: List[int] = []
    position = 0
    end = len(defs)
    while position < end:
        first = defs[position]
        if first < array_level:
            absent.append(len(runs))
            runs.append(0)
            position += 1
        else:
            stop = defs.index(0, position + 1)
            if first == array_level and stop == position + 1:
                lone.append(len(runs))
            runs.append(stop - position)
            position = stop + 1
    return runs, absent, lone


def _trusted_runs(counted, anchor, group, streams, antimatter):
    """:func:`_element_runs` of the array, off ``counted`` — or off the anchor
    when ``counted`` shows a record without the array that is not anti-matter:
    either it has none, or the column was inferred mid-flush and back-filled
    over it (§3.2.2).  Only the anchor can tell."""
    runs = _element_runs(streams[counted.column_id][0], counted)
    if counted is not anchor and any(
        antimatter is None or not antimatter[index] for index in runs[1]
    ):
        if anchor.column_id not in streams:
            streams.update(group.read_columns([anchor]))
        runs = _element_runs(streams[anchor.column_id][0], anchor)
    return runs


def _element_vector(column, streams, runs: List[int]) -> list:
    """One value per run entry for an element path (the repeated sibling of
    :func:`_path_vector`); ``runs`` are the exact run lengths
    (:func:`_trusted_runs`), so an empty array's lone entry has a slot too."""
    total = sum(runs)
    defs, values = streams[column.column_id]
    if column.type_tag != TYPE_NULL and len(values) == total:
        return list(values)  # every entry holds a value: the value stream itself
    element_defs = [level for level in defs if level >= column.outer_array_level]
    vector = [MISSING] * len(element_defs)
    _place_values(column, element_defs, values, vector)
    if len(vector) == total:
        return vector
    # The column was inferred mid-flush: its back-filled records read "no
    # array" where the anchor counted elements, and those elements lack it.
    own = _element_runs(defs, column)[0]
    aligned: list = []
    position = 0
    for count, length in zip(runs, own):
        if length == count:
            aligned.extend(vector[position:position + count])
        else:
            aligned.extend([MISSING] * count)
        position += length
    return aligned


def _run_vectors(run, columns, group, streams, antimatter, records, record_count):
    """The vectors one leaf group's element runs answer with: list paths
    (``path -> vector``) and decided expressions (``id -> vector``), one
    value per record, and for the UNNEST the fan-out ``(owners, element path
    -> vector)``: the record behind each element, and the element vectors.

    Only the entries of the selected ``records`` (None = all) matter.  A
    record's list is its run's values at the tail, MISSING ones dropped —
    MISSING itself without an array; ``is_array`` is "has a run".  The
    elements of the selected records form one element-level selection
    (``positions`` into the run entries, with their ``owners``); empty arrays
    are left out of it — their lone entry is no element, which the probes
    tell from a one-element array of another branch.  A quantifier's body is
    evaluated once over that selection (MISSING kept so entries line up), and
    a record is true if one of its elements gives True; the UNNEST emits it.
    """
    lists: Dict[FieldPath, list] = {}
    decided: Dict[int, list] = {}
    if columns.anchor is None:  # no record of the component has the array
        for tail in run.lists:
            lists[run.element_path(tail)] = [MISSING] * record_count
        for expression in run.checks + run.quantifiers:
            decided[id(expression)] = [False] * record_count
        return lists, decided, None
    runs, absent, lone = _trusted_runs(
        columns.counted, columns.anchor, group, streams, antimatter
    )
    missing = bytearray(record_count)
    for index in absent:
        missing[index] = 1
    if run.checks:
        present = [not flag for flag in missing]
        for check in run.checks:
            decided[id(check)] = present
    offsets = list(accumulate(runs, initial=0))
    vectors = {
        tail: _tail_vector(tail_columns, streams, runs)
        for tail, tail_columns in columns.tails.items()
    }
    for tail in run.lists:
        vector = vectors[tail]
        lists[run.element_path(tail)] = [
            MISSING
            if missing[index]
            else [value for value in vector[start:stop] if value is not MISSING]
            for index, (start, stop) in enumerate(zip(offsets, offsets[1:]))
        ]
    if not run.quantifiers and run.variable is None:
        return lists, decided, None
    empty = set(lone)
    for probe in columns.probes:
        _, absent_there, lone_there = _element_runs(streams[probe.column_id][0], probe)
        empty &= {*absent_there, *lone_there}
    positions: Optional[List[int]] = None  # None: every run entry, in order
    if records is None and not empty:
        owners = [index for index, length in enumerate(runs) for _ in range(length)]
    else:
        positions, owners = [], []
        for index in range(record_count) if records is None else records:
            length = runs[index]
            if length and index not in empty:
                positions.extend(range(offsets[index], offsets[index] + length))
                owners.extend([index] * length)
    tails = list(run.elements)
    for quantifier in run.quantifiers:
        tails.extend(quantifier_tails(quantifier))
    elements = {
        tail: vectors[tail] if positions is None else kernels.gather(vectors[tail], positions)
        for tail in dict.fromkeys(tails)
    }
    for quantifier in run.quantifiers:
        item = quantifier.item_var
        element_vars: Dict[str, list] = {}
        element_paths: Dict[Tuple[str, FieldPath], list] = {}
        for tail in quantifier_tails(quantifier):
            if len(tail):
                element_paths[(item, tail)] = elements[tail]
            else:
                element_vars[item] = elements[tail]
        verdicts = quantifier.predicate.evaluate_batch(
            ColumnBatch(len(owners), element_vars, element_paths)
        )
        verdict = [False] * record_count
        for owner, value in zip(owners, verdicts):
            if value is True:
                verdict[owner] = True
        decided[id(quantifier)] = verdict
    if run.variable is None:
        return lists, decided, None
    return lists, decided, (owners, {tail: elements[tail] for tail in run.elements})


def _tail_vector(columns, streams, runs: List[int]) -> list:
    """One value per run entry for an element sub-path, merged across the
    atomic columns of a union (an entry holds a value in one of them at most)."""
    if not columns:
        return [MISSING] * sum(runs)
    vector = _element_vector(columns[0], streams, runs)
    for column in columns[1:]:
        other = _element_vector(column, streams, runs)
        vector = [b if a is MISSING else a for a, b in zip(vector, other)]
    return vector


def source_batches(
    store,
    plan: QueryPlan,
    batch_size: int = DEFAULT_BATCH_SIZE,
    report: Optional[ScanReport] = None,
) -> Iterator[ColumnBatch]:
    """The plan's source as column batches (direct wherever the column
    streams can serve the plan); ``report`` collects what the scan did."""
    source = plan.source
    if isinstance(source, DataScanNode):
        dataset = store.dataset(source.dataset)
        return dataset.scan_batches(
            source.variable,
            fields=source.fields,
            pushdown=source.pushdown,
            batch_size=batch_size,
            direct=plan_supports_direct(plan),
            report=report,
        )
    return _binding_batches(source_rows(store, plan), batch_size)


def _binding_batches(rows: Iterable[dict], batch_size: int) -> Iterator[ColumnBatch]:
    chunk: List[dict] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= batch_size:
            yield ColumnBatch.from_rows(chunk)
            chunk = []
    if chunk:
        yield ColumnBatch.from_rows(chunk)


# ======================================================================================
# Pipelining operators on batches
# ======================================================================================


def run_batch_pipeline(
    batches: Iterable[ColumnBatch], pipeline: List, pushed=None
) -> Iterator[ColumnBatch]:
    """Apply ASSIGN/UNNEST/FILTER vector-at-a-time, batch by batch.

    When a trace is active, one span per pipeline operator (rows out and
    cumulative operator time) is recorded as the generator finishes;
    ``pushed`` is the UNNEST every partition's direct scan performs, if any.
    """
    tracing = current_trace() is not None
    counts = [0] * len(pipeline)
    elapsed = [0.0] * len(pipeline)
    unnested_here: set = set()
    try:
        yield from _run_batch_pipeline(batches, pipeline, tracing, counts,
                                       elapsed, unnested_here)
    finally:
        if tracing:
            for index, op in enumerate(pipeline):
                # The pushed UNNEST is a marker span — unless overlay rows
                # went through the operator, whose real span it then is.
                marker = op is pushed and index not in unnested_here
                attrs = {"pushed": True} if marker else {}
                record_span(
                    op_span_name(op), elapsed[index], rows_out=counts[index], **attrs
                )


def _run_batch_pipeline(
    batches: Iterable[ColumnBatch],
    pipeline: List,
    tracing: bool,
    counts: List[int],
    elapsed: List[float],
    unnested_here: set,
) -> Iterator[ColumnBatch]:
    for batch in batches:
        for index, op in enumerate(pipeline):
            if batch.length == 0:
                break
            started = time.perf_counter() if tracing else 0.0
            if isinstance(op, FilterNode):
                mask = op.predicate.evaluate_batch(batch)
                selection = kernels.selection_from_mask(mask)
                if len(selection) != batch.length:
                    batch = batch.take(selection)
            elif isinstance(op, AssignNode):
                batch = batch.with_var(
                    op.variable, op.expression.evaluate_batch(batch)
                )
            elif isinstance(op, UnnestNode):
                if not batch.unnested:  # else the direct scan already did
                    unnested_here.add(index)
                    batch = unnest_batch(
                        batch, op.variable, op.expression.evaluate_batch(batch)
                    )
            elif isinstance(op, JoinNode):
                vector = op.probe_key.evaluate_batch(batch)
                indices: List[int] = []
                items: list = []
                for row_index, value in enumerate(vector):
                    key = join_key(value)
                    matches = op.table.get(key) if key is not None else None
                    if not matches:
                        continue
                    for document in matches:
                        indices.append(row_index)
                        items.append(document)
                batch = batch.take(indices, extra_vars={op.variable: items})
            if tracing:
                elapsed[index] += time.perf_counter() - started
                counts[index] += batch.length
        if batch.length:
            yield batch


# ======================================================================================
# Breakers on batches
# ======================================================================================


def _batch_group_by(batches: Iterable[ColumnBatch], node: GroupByNode) -> List[dict]:
    table = GroupTable(lambda: new_aggregators(node.aggregates))
    for batch in batches:
        key_vectors = [
            expression.evaluate_batch(batch) for _, expression in node.keys
        ]
        agg_vectors = [
            None if expression is None else expression.evaluate_batch(batch)
            for _, _, expression in node.aggregates
        ]
        # zip(*states): per aggregate, every row's group aggregator.
        states = table.states(key_vectors, batch.length)
        for aggregators, vector in zip(zip(*states), agg_vectors):
            kernels.aggregate_add_grouped(aggregators, vector)
    return table.rows(
        [name for name, _ in node.keys],
        lambda aggregators: aggregate_results(node.aggregates, aggregators),
    )


def _batch_aggregate(batches: Iterable[ColumnBatch], node: AggregateNode) -> List[dict]:
    aggregators = new_aggregators(node.aggregates)
    specs = list(zip(aggregators, node.aggregates))
    for batch in batches:
        for aggregator, (_, _, expression) in specs:
            if expression is None:
                # COUNT(*) counts rows; other aggregates of the missing
                # expression add None per row, which they skip anyway.
                if aggregator.function == "count":
                    aggregator.count += batch.length
            else:
                kernels.aggregate_add_many(
                    aggregator, expression.evaluate_batch(batch)
                )
    return [aggregate_results(node.aggregates, aggregators)]


def _batch_project(batches: Iterable[ColumnBatch], node: ProjectNode) -> List[dict]:
    rows: List[dict] = []
    for batch in batches:
        vectors = [
            (name, expression.evaluate_batch(batch))
            for name, expression in node.columns
        ]
        for index in range(batch.length):
            rows.append(
                {name: missing_to_none(vector[index]) for name, vector in vectors}
            )
    return rows


def run_batch_breakers(batches: Iterable[ColumnBatch], breakers: List) -> List[dict]:
    """Run the breaker suffix; the first breaker consumes batches natively."""
    if not breakers:
        return [row for batch in batches for row in batch.iter_rows()]
    first = breakers[0]
    started = time.perf_counter()
    if isinstance(first, GroupByNode):
        rows = _batch_group_by(batches, first)
    elif isinstance(first, AggregateNode):
        rows = _batch_aggregate(batches, first)
    elif isinstance(first, ProjectNode):
        rows = _batch_project(batches, first)
    else:
        # ORDER BY / LIMIT first: materialize rows and share the engine code.
        rows = [row for batch in batches for row in batch.iter_rows()]
        return run_breakers(rows, breakers)
    if current_trace() is not None:
        # The natively-consumed first breaker never reaches run_breakers, so
        # its span (vectorized=True) is recorded here.
        record_span(
            op_span_name(first),
            time.perf_counter() - started,
            rows_out=len(rows),
            vectorized=True,
        )
    return run_breakers(rows, breakers[1:])


# ======================================================================================
# Entry point
# ======================================================================================


def run_batch_plan(
    store, plan: QueryPlan, batch_size: Optional[int] = None
) -> List[dict]:
    """Execute a plan end-to-end over column batches (the ``"batch"`` executor)."""
    size = batch_size or DEFAULT_BATCH_SIZE
    report = ScanReport()
    batches = source_batches(store, plan, size, report)
    pushed = None
    if current_trace() is not None:
        scanning = isinstance(plan.source, DataScanNode)
        # Snapshots are pinned (and each partition's path chosen) by the time
        # source_batches returns, so the verdict is already in.
        if (
            scanning
            and not report.fallbacks
            and getattr(plan.source.pushdown, "unnest", None) is not None
        ):
            # Every partition went direct, so the scan does the UNNEST.
            pushed = next(op for op in plan.pipeline if isinstance(op, UnnestNode))

        def scan_attrs() -> dict:
            if not scanning:
                return {}
            if report.fallbacks:
                return {
                    "scan_mode": "reconciled",
                    "fallback_reason": ",".join(sorted(set(report.fallbacks))),
                }
            return {
                "scan_mode": "direct",
                "overlay_rows": report.overlay_rows,
                "shadowed_rows": report.shadowed_rows,
            }

        batches = traced_batch_source(batches, plan.source, scan_attrs)
    piped = run_batch_pipeline(batches, plan.pipeline, pushed)
    return run_batch_breakers(piped, plan.breakers)
