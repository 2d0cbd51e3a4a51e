"""Scan pushdown: projection pruning and vectorized predicate pre-filtering.

The paper's query speedups come from reading only the columns a query touches
and from avoiding per-tuple interpretation.  This module implements the
plan-rewrite half of that story plus the machinery the columnar cursors use to
evaluate pushed predicates over decoded column *batches*:

* :func:`attach_pushdown` rewrites a built :class:`~repro.query.plan.QueryPlan`
  in place: it computes the minimal set of column *paths* the plan references
  on the scan variable (finer than the existing top-level-field projection) and
  extracts the simple comparison predicates that can be evaluated directly on
  column value streams.  The result is a :class:`PushdownSpec` hung off the
  plan's :class:`~repro.query.plan.DataScanNode`.
* :func:`compile_predicates` specializes the extracted predicates against one
  *component's* schema snapshot (schemas evolve per flush, so pushability is a
  per-component decision).  A compiled predicate knows which physical columns
  can satisfy it, how to evaluate a whole column batch ``(defs, values)`` into
  a boolean pass-vector, and which group-level min/max ranges let an entire
  leaf group be skipped without decoding anything.

Safety model
------------
Pushdown is a *pre-filter*: the original FILTER operators stay in the plan and
re-check survivors after assembly, so the memtable and the row layouts
(``open``/``vector``) — whose cursors ignore the spec — fall back to the
existing assemble-then-filter path transparently.  What pushdown must never do
is drop a row the residual filter would keep.  The extraction rules below are
therefore exact, not heuristic:

* only conjuncts of the form ``Field(scan_var, path) <op> Literal`` (or the
  mirrored form) are pushed, where ``path`` contains no array steps and the
  literal is an atomic int/float/str/bool;
* a pushed predicate passes a record iff the dynamically-typed comparison
  (:func:`~repro.query.expressions.compare_values`) yields True on the value
  found at ``path`` — which, for array-free paths, is the value of the single
  matching atomic column whose definition level says "present".  Non-atomic
  values (objects/arrays at the path) and MISSING/NULL never satisfy ``==``,
  ``<``, ``<=``, ``>``, ``>=``, so those operators are always exact; ``!=``
  *is* satisfied by a non-atomic value, so it is compiled only when the
  component's schema proves the path can never hold an object or array;
* predicates are dropped entirely (not pushed) when any ASSIGN/UNNEST rebinds
  the scan variable.

Reconciliation safety lives in :mod:`repro.lsm.lsm_tree`: pass-vectors are
consulted only for the *newest-wins* winner of each key, never to skip keys
before reconciliation, so an updated row whose new version fails the predicate
can never resurrect an older passing version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.schema import (
    ARRAY_PATH_STEP,
    ArrayNode,
    AtomicNode,
    ColumnInfo,
    ObjectNode,
    Schema,
    UnionNode,
    field_name_steps,
)
from ..model.path import FieldPath
from ..model.values import TYPE_BOOLEAN, TYPE_DOUBLE, TYPE_INT64, TYPE_NULL, TYPE_STRING
from .expressions import (
    _COMPARE_OPS,
    And,
    Call,
    Compare,
    Expression,
    Field,
    Literal,
    SomeSatisfies,
    Var,
    compare_values,
)
from .plan import (
    AssignNode,
    DataScanNode,
    FilterNode,
    QueryPlan,
    UnnestNode,
    collect_expressions,
)

#: Mirror image of each comparison operator (for ``Literal <op> Field`` forms).
_FLIPPED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


# ======================================================================================
# The spec attached to a scan node
# ======================================================================================


@dataclass(frozen=True, eq=False)
class ColumnPredicate:
    """One pushable conjunct: ``path <op> value`` on the scan variable.

    Equality/hash are type-aware: ``1 == True`` in Python, but ``x == 1`` and
    ``x == True`` are different predicates under SQL++ typing — conflating
    them would let the extraction dedup (and the optimizer's subsumption
    check) drop a conjunct that is not actually implied.
    """

    path: FieldPath
    op: str
    value: object

    def _identity(self) -> tuple:
        from .stats import comparison_type_rank

        return (self.path, self.op, comparison_type_rank(self.value), self.value)

    def __eq__(self, other):
        if not isinstance(other, ColumnPredicate):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def bounds(self) -> Tuple[Optional[object], Optional[object]]:
        """Inclusive (low, high) value bounds implied by the predicate."""
        if self.op == "==":
            return self.value, self.value
        if self.op in ("<", "<="):
            return None, self.value
        if self.op in (">", ">="):
            return self.value, None
        return None, None

    def __repr__(self) -> str:
        return f"{self.path} {self.op} {self.value!r}"


@dataclass(frozen=True)
class UnnestBinding:
    """An UNNEST the direct scan can perform itself: ``$variable <- array``.

    ``array`` is an array-free path on the scan variable that the plan
    consumes *only* through its single UNNEST operator; ``elements`` are the
    sub-paths dereferenced on the unnest variable (``temp`` for ``r.temp``).
    The empty path stands for the element itself (a bare ``Var`` use, as in
    Figure 11's array of scalars), and no element path at all means the plan
    needs nothing but the array's cardinality (``COUNT(*)``).
    """

    variable: str
    array: FieldPath
    elements: Tuple[FieldPath, ...] = ()

    def element_path(self, element: FieldPath) -> FieldPath:
        """The element sub-path spelled from the scan variable: ``readings[*].temp``."""
        return FieldPath(self.array.steps + (ARRAY_PATH_STEP,) + element.steps)


@dataclass(frozen=True, eq=False)
class ElementRuns:
    """An array the direct scan serves from its element runs: ``$v.array``.

    ``array`` is an array-free path on the scan variable that the plan reads
    only in three ways, each answered from the definition levels of the
    array's element columns without assembling anything:

    * ``lists`` — the tails of ``Field($v, array[*].tail)``: a record's value
      is the list of its elements' values at ``tail`` (MISSING ones dropped),
      or MISSING when the record has no array;
    * ``checks`` — ``is_array($v.array)`` calls: true where the record has an
      array;
    * ``quantifiers`` — ``SOME x IN $v.array SATISFIES p(x)``, where ``p``
      reads nothing but ``x``, through array-free sub-paths: decided by
      evaluating ``p`` once over the elements.

    The reconciling scan never sees this refinement; ``paths`` still lists
    the array (or its wildcard paths) for partial assembly.
    """

    array: FieldPath
    lists: Tuple[FieldPath, ...] = ()
    checks: Tuple[Expression, ...] = ()
    quantifiers: Tuple[SomeSatisfies, ...] = ()

    def list_path(self, tail: FieldPath) -> FieldPath:
        """A list tail spelled from the scan variable: ``tags[*].text``."""
        return FieldPath(self.array.steps + (ARRAY_PATH_STEP,) + tail.steps)

    def covers(self, path: FieldPath) -> bool:
        """Is ``path`` (a pruned scan path) served by these runs?"""
        steps = self.array.steps
        return field_name_steps(path.steps)[: len(steps)] == steps

    def tails(self) -> List[FieldPath]:
        """Every element sub-path the runs read (the empty path: the element)."""
        tails = list(self.lists)
        for quantifier in self.quantifiers:
            tails.extend(quantifier_tails(quantifier))
        return list(dict.fromkeys(tails))

    def describe(self) -> str:
        parts = ["is_array"] if self.checks else []
        parts.extend(
            str(FieldPath((ARRAY_PATH_STEP,) + tail.steps)) for tail in self.lists
        )
        for quantifier in self.quantifiers:
            tails = ", ".join(str(tail) or "*" for tail in quantifier_tails(quantifier))
            parts.append(f"some ${quantifier.item_var}: [{tails}]")
        return f"{self.array}(" + "; ".join(parts) + ")"


def quantifier_tails(quantifier: SomeSatisfies) -> List[FieldPath]:
    """The element sub-paths a quantifier's body reads (the empty path: the
    element itself, for a bare use of the item variable)."""
    item = quantifier.item_var
    body = quantifier.predicate
    tails = [path for variable, path in body.referenced_paths() if variable == item]
    if item in body.referenced_bare_variables():
        tails.insert(0, FieldPath(()))
    return list(dict.fromkeys(tails))


@dataclass
class PushdownSpec:
    """What a columnar scan may exploit: pruned paths + pushed predicates.

    ``fields`` is the coarse top-level projection (kept for the row layouts and
    for partial assembly); ``paths`` refines it to the exact column paths the
    plan references (None = no refinement, read everything under ``fields``);
    ``predicates`` are pre-filters evaluated on column batches before assembly.
    ``unnest`` refines an array path of ``paths`` further, for the direct scan
    only: the element sub-paths the plan actually reads (the reconciling scan
    keeps assembling the whole array — partial assembly of a heterogeneous
    array from a pruned column set is not exact).  ``runs`` are the same kind
    of direct-only refinement for arrays read through wildcard paths,
    ``is_array`` or ``SOME … SATISFIES`` (:class:`ElementRuns`).
    """

    fields: Optional[List[str]] = None
    paths: Optional[List[FieldPath]] = None
    predicates: List[ColumnPredicate] = dataclass_field(default_factory=list)
    unnest: Optional[UnnestBinding] = None
    runs: Tuple[ElementRuns, ...] = ()

    def describe(self) -> str:
        parts = []
        if self.paths is not None:
            parts.append("paths=[" + ", ".join(str(path) for path in self.paths) + "]")
        if self.predicates:
            parts.append(
                "predicates=[" + ", ".join(repr(p) for p in self.predicates) + "]"
            )
        if self.unnest is not None:
            unnest = self.unnest
            parts.append(f"unnest=${unnest.variable}<-{unnest.array}")
            if unnest.elements:
                parts.append(
                    "elements=["
                    + ", ".join(str(unnest.element_path(e)) for e in unnest.elements)
                    + "]"
                )
        if self.runs:
            parts.append("runs=[" + ", ".join(run.describe() for run in self.runs) + "]")
        return "; ".join(parts) if parts else "none"


# ======================================================================================
# Plan rewrite
# ======================================================================================


def attach_pushdown(plan: QueryPlan, prune_paths: bool = True) -> QueryPlan:
    """Compute and attach a :class:`PushdownSpec` to the plan's scan node.

    ``prune_paths`` is disabled when the user overrode the projection with
    :meth:`Query.project_fields` — the explicit field list is then the only
    projection applied, exactly as before.
    """
    source = plan.source
    if not isinstance(source, DataScanNode):
        return plan
    paths: Optional[List[FieldPath]] = None
    if prune_paths and source.fields is not None:
        paths = _pruned_paths(plan, source.variable)
    source.pushdown = PushdownSpec(
        fields=source.fields,
        paths=paths,
        predicates=_extract_predicates(plan, source.variable),
        unnest=None if paths is None else _unnest_binding(plan, source.variable),
        runs=() if paths is None else _element_runs(plan, source.variable),
    )
    return plan


def _pruned_paths(plan: QueryPlan, variable: str) -> Optional[List[FieldPath]]:
    """Minimal path set referenced on the scan variable (None = need everything)."""
    collected: List[FieldPath] = []
    for expression in collect_expressions(plan.pipeline, plan.breakers):
        # Any bare use of the scan variable — even nested inside an
        # expression that also references paths — consumes the whole record.
        if variable in expression.referenced_bare_variables():
            return None
        for ref_variable, path in expression.referenced_paths():
            if ref_variable == variable and len(path) > 0:
                collected.append(path)
    # Drop paths already covered by a (field-name-wise) prefix of another path.
    stripped = [(path, field_name_steps(path.steps)) for path in collected]
    minimal: List[FieldPath] = []
    minimal_steps: List[Tuple[str, ...]] = []
    for path, steps in sorted(stripped, key=lambda item: len(item[1])):
        if any(steps[: len(kept)] == kept for kept in minimal_steps):
            continue
        minimal.append(path)
        minimal_steps.append(steps)
    return minimal


def _unnest_binding(plan: QueryPlan, variable: str) -> Optional[UnnestBinding]:
    """The UNNEST a direct scan may absorb, or None.

    Exactly one UNNEST, over an array-free path of the scan variable that no
    other expression touches (not even by prefix: ``array_count(s.readings)``
    or ``s.readings[*].temp`` need the assembled list).  The unnest variable
    must be bound once and never read before its UNNEST, so performing the
    UNNEST at the scan — ahead of the operators that preceded it — cannot
    change what any expression sees.
    """
    unnests = [op for op in plan.pipeline if isinstance(op, UnnestNode)]
    if len(unnests) != 1:
        return None
    unnest = unnests[0]
    source = unnest.expression
    if not (
        isinstance(source, Field)
        and isinstance(source.base, Var)
        and source.base.name == variable
    ):
        return None
    array = source.path
    if len(array) == 0 or array.array_depth > 0 or unnest.variable == variable:
        return None
    position = plan.pipeline.index(unnest)
    for index, op in enumerate(plan.pipeline):
        if op is unnest:
            continue
        if getattr(op, "variable", None) == unnest.variable:
            return None  # rebound by an ASSIGN or a join
        if index < position and any(
            unnest.variable in expression.referenced_variables()
            for expression in collect_expressions([op], [])
        ):
            return None  # read while still unbound
    array_steps = array.steps
    elements: List[FieldPath] = []
    whole_element = False
    others = collect_expressions(
        [op for op in plan.pipeline if op is not unnest], plan.breakers
    )
    for expression in others:
        if unnest.variable in expression.referenced_bare_variables():
            whole_element = True
        for ref_variable, path in expression.referenced_paths():
            if ref_variable == variable:
                steps = field_name_steps(path.steps)
                shared = min(len(steps), len(array_steps))
                if steps[:shared] == array_steps[:shared]:
                    return None
            elif ref_variable == unnest.variable:
                if path.array_depth > 0:
                    return None
                if path not in elements:
                    elements.append(path)
    if whole_element:
        # The element is consumed as a value; field accesses on it resolve
        # against that value (MISSING for the scalars the scan can serve).
        elements = [FieldPath(())]
    return UnnestBinding(unnest.variable, array, tuple(elements))


def _element_runs(plan: QueryPlan, variable: str) -> Tuple[ElementRuns, ...]:
    """The arrays a direct scan may serve from element runs (see
    :class:`ElementRuns`).

    Every use of a path on the scan variable is classified; an array-free
    path ``A`` qualifies when each use whose field names share a prefix with
    ``A`` is ``is_array($v.A)``, a servable ``SOME … IN $v.A``, or
    ``$v.A[*].tail`` with an array-free ``tail``.  Anything else there —
    ``$v.A`` as a value, ``array_count($v.A)``, ``$v.A.x``, a second wildcard,
    an UNNEST of it — needs the assembled array, and ``A`` is left alone.
    """
    uses: List[Tuple[str, FieldPath, Expression]] = []
    for expression in collect_expressions(plan.pipeline, plan.breakers):
        _collect_uses(expression, variable, uses)
    candidates: List[Tuple[str, ...]] = []
    for kind, path, _ in uses:
        steps = path.steps
        if kind == "field" and ARRAY_PATH_STEP in steps:
            steps = steps[: steps.index(ARRAY_PATH_STEP)]
        elif kind == "field":
            continue
        if steps and ARRAY_PATH_STEP not in steps and steps not in candidates:
            candidates.append(steps)
    runs: List[ElementRuns] = []
    for steps in candidates:
        depth = len(steps)
        lists: List[FieldPath] = []
        checks: List[Expression] = []
        quantifiers: List[SomeSatisfies] = []
        for kind, path, expression in uses:
            names = field_name_steps(path.steps)
            shared = min(len(names), depth)
            if names[:shared] != steps[:shared]:
                continue  # a path beside the array
            if kind == "is_array" and path.steps == steps:
                checks.append(expression)
            elif kind == "some" and path.steps == steps:
                quantifiers.append(expression)
            elif (
                kind == "field"
                and path.steps[:depth] == steps
                and path.steps[depth: depth + 1] == (ARRAY_PATH_STEP,)
                and path.array_depth == 1
            ):
                lists.append(FieldPath(path.steps[depth + 1:]))
            else:
                break
        else:
            runs.append(
                ElementRuns(
                    FieldPath(steps),
                    tuple(dict.fromkeys(lists)),
                    tuple(checks),
                    tuple(quantifiers),
                )
            )
    return tuple(runs)


def _collect_uses(
    expression: Expression, variable: str, uses: List[Tuple[str, FieldPath, Expression]]
) -> None:
    """Append ``(kind, path, expression)`` for every use of a path on
    ``variable`` inside ``expression``: ``is_array`` and ``some`` for the
    shapes :class:`ElementRuns` serves, ``field`` for any other field access
    (a bare use of the variable disables path pruning, and with it the runs)."""
    if (
        isinstance(expression, Call)
        and expression.function == "is_array"
        and len(expression.arguments) == 1
        and _on_variable(expression.arguments[0], variable)
    ):
        uses.append(("is_array", expression.arguments[0].path, expression))
        return
    if (
        isinstance(expression, SomeSatisfies)
        and _on_variable(expression.array, variable)
        and _servable(expression)
    ):
        uses.append(("some", expression.array.path, expression))
        return
    if _on_variable(expression, variable):
        uses.append(("field", expression.path, expression))
        return
    for child in expression.children():
        _collect_uses(child, variable, uses)


def _on_variable(expression: Expression, variable: str) -> bool:
    return (
        isinstance(expression, Field)
        and isinstance(expression.base, Var)
        and expression.base.name == variable
    )


def _servable(quantifier: SomeSatisfies) -> bool:
    """Does the body read nothing but the item, through array-free paths?"""
    body = quantifier.predicate
    item = quantifier.item_var
    return body.referenced_variables() <= {item} and all(
        path.array_depth == 0
        for variable, path in body.referenced_paths()
        if variable == item
    )


def _extract_predicates(plan: QueryPlan, variable: str) -> List[ColumnPredicate]:
    for op in plan.pipeline:
        if isinstance(op, (AssignNode, UnnestNode)) and op.variable == variable:
            return []  # the scan variable is rebound; nothing is safe to push
    predicates: List[ColumnPredicate] = []
    for op in plan.pipeline:
        if not isinstance(op, FilterNode):
            continue
        for conjunct in _conjuncts(op.predicate):
            predicate = _as_column_predicate(conjunct, variable)
            if predicate is not None and predicate not in predicates:
                predicates.append(predicate)
    return predicates


def _conjuncts(expression: Expression):
    if isinstance(expression, And):
        for operand in expression.operands:
            yield from _conjuncts(operand)
    else:
        yield expression


def _as_column_predicate(
    expression: Expression, variable: str
) -> Optional[ColumnPredicate]:
    if not isinstance(expression, Compare):
        return None
    left, right, op = expression.left, expression.right, expression.op
    if isinstance(left, Literal) and isinstance(right, Field):
        left, right, op = right, left, _FLIPPED[op]
    if not (isinstance(left, Field) and isinstance(right, Literal)):
        return None
    if not isinstance(left.base, Var) or left.base.name != variable:
        return None
    path = left.path
    if len(path) == 0 or path.array_depth > 0:
        return None
    value = right.value
    if not isinstance(value, (int, float, str, bool)):
        return None
    return ColumnPredicate(path=path, op=op, value=value)


# ======================================================================================
# Per-component predicate compilation (used by the columnar cursors)
# ======================================================================================


def _compatible(type_tag: str, literal) -> bool:
    """Can ``compare_values`` ever relate a value of this column to the literal?"""
    if isinstance(literal, bool):
        return type_tag == TYPE_BOOLEAN
    if isinstance(literal, (int, float)):
        return type_tag in (TYPE_INT64, TYPE_DOUBLE)
    return type_tag == TYPE_STRING


def _expand_union(node) -> List[object]:
    if isinstance(node, UnionNode):
        return list(node.branches.values())
    return [node]


def _descend(nodes: List[object], steps: Sequence[str]) -> List[object]:
    """The schema nodes that field-name ``steps`` reach from ``nodes``.

    Only objects (and the object branch of a union) are descended: field
    steps applied to arrays/atomics yield MISSING — those branches can never
    produce a value at the path at all.
    """
    for step in steps:
        nodes = [
            candidate.children[step]
            for node in nodes
            for candidate in _expand_union(node)
            if isinstance(candidate, ObjectNode) and step in candidate.children
        ]
    return nodes


def _only_atomic_at(schema: Schema, steps: Tuple[str, ...]) -> bool:
    """True when no record of this component can hold an object/array at ``steps``."""
    finals = [
        final for node in _descend([schema.root], steps) for final in _expand_union(node)
    ]
    return all(isinstance(final, AtomicNode) for final in finals)


def schema_supports_direct(
    schema: Schema,
    paths: Sequence[FieldPath],
    unnest: Optional[UnnestBinding] = None,
    runs: Sequence[ElementRuns] = (),
) -> bool:
    """Can every pruned path be served as a value vector straight off the columns?

    The batch executor's *direct* scan skips document assembly by reading each
    requested path straight from the component's column streams.  A record
    path (one value per record) is only exact when, for this component's
    schema snapshot,

    * the path itself contains no array steps,
    * no column stores values *under* the path through an array (the path's
      value would be a list the flat streams cannot reproduce), and
    * no column extends the path with further field names (the path's value
      would be an assembled object).

    Paths matching no column at all are fine — every record reads MISSING,
    exactly as field access on the assembled document would.  Union branches
    (several atomic columns sharing the path) are fine too: at most one
    branch is present per record.

    The array of an ``unnest`` binding is exempt from the rules above and
    checked by :func:`unnest_columns` instead: the scan emits one row per
    element, so its element paths are value vectors too.  So are the paths
    under an array of ``runs``, checked by :func:`run_columns`.
    """
    for path in paths:
        if unnest is not None and path == unnest.array:
            continue
        if any(run.covers(path) for run in runs):
            continue
        if path.array_depth > 0:
            return False
        steps = tuple(path.steps)
        for column in schema.columns:
            named = field_name_steps(column.path)
            if named[: len(steps)] != steps:
                continue
            if ARRAY_PATH_STEP in column.path:
                return False
            if len(named) > len(steps):
                return False
    if unnest is not None and unnest_columns(schema, unnest) is None:
        return False
    return all(run_columns(schema, run) is not None for run in runs)


def unnest_columns(
    schema: Schema, unnest: UnnestBinding
) -> Optional[Tuple[Optional[ColumnInfo], Dict[FieldPath, Optional[ColumnInfo]]]]:
    """Resolve an unnest binding against one component's schema snapshot.

    Returns ``(anchor, element path -> column)``, or None when scanning the
    array without assembly would not be exact here.  It is exact when every
    column under the array path

    * sits below exactly one array — the unnested one (``array_count == 1``
      with the ``[*]`` step right after the array path; a scalar at the path
      or an array nested below it disqualify), and
    * crosses no union, at, above or under the array node (a scalar-or-array
      field, null or mixed-type elements).

    Every such column then carries one entry per element, so the element
    paths line up row for row.  An element path may match one atomic column
    or none (always MISSING); a column *extending* it means the value is an
    object, which only assembly can build.

    The ``anchor`` is the column whose per-record element counts are always
    exact: the array's first-discovered (lowest-id) column, the only one that
    can never have been back-filled over a record whose array had elements —
    a column inferred mid-flush reads "no array" for the earlier records of
    that flush (§3.2.2).  The scan counts off a column it reads anyway and
    consults the anchor only for groups where that column shows a record
    without the array.  None means the array never occurs in this component,
    so the UNNEST yields nothing.
    """
    array_steps = unnest.array.steps
    depth = len(array_steps)
    under = [
        column
        for column in schema.columns
        if field_name_steps(column.path)[:depth] == array_steps
    ]
    for column in under:
        if (
            column.array_count != 1
            or len(column.path) <= depth
            or column.path[:depth] != array_steps
            or column.path[depth] != ARRAY_PATH_STEP
            or field_name_steps(column.path[depth + 1:]) != column.path[depth + 1:]
        ):
            return None
    resolved: Dict[FieldPath, Optional[ColumnInfo]] = {}
    for element in unnest.elements:
        tail = element.steps
        resolved[element] = None
        for column in under:
            below = column.path[depth + 1:]
            if below[: len(tail)] != tail:
                continue
            if len(below) > len(tail):
                return None
            resolved[element] = column
    anchor = min(under, key=lambda column: column.column_id, default=None)
    return anchor, resolved


@dataclass
class RunColumns:
    """The columns behind one :class:`ElementRuns` in one component's schema.

    ``anchor`` is the array's first-discovered (lowest-id) column, as for
    :func:`unnest_columns`: it was created with the array, so it is never
    back-filled over a record that has one, and its runs are the exact ones.
    None means no record of the component has an array at the path.
    ``tails`` maps each element sub-path the runs read to the atomic columns
    that can hold its value (several: a union of atomic types; none: always
    MISSING).  ``probes`` hold one column per branch of a union-typed element
    when a quantifier needs exact element counts (see :func:`run_columns`).
    """

    anchor: Optional[ColumnInfo] = None
    tails: Dict[FieldPath, List[ColumnInfo]] = dataclass_field(default_factory=dict)
    probes: Tuple[ColumnInfo, ...] = ()

    @property
    def counted(self) -> Optional[ColumnInfo]:
        """The column to take the runs from: one the scan reads anyway."""
        for columns in self.tails.values():
            if columns:
                return columns[0]
        return self.anchor


def run_columns(schema: Schema, runs: ElementRuns) -> Optional[RunColumns]:
    """Resolve element runs against one component's schema snapshot, or
    None when serving them from the column streams would not be exact.

    The array is found by following the path's field names through objects
    (and the object branch of a union); a field holding an object or a
    scalar in some records and an array in others is fine — those records
    just have no array.  Below the array, every column of the element type
    sits in exactly one entry per element (a union element type puts an
    entry *at* the array's level into the branches an element does not
    take), so the runs of any of them line up.  Exactness then asks for:

    * an anchor under a single array (``array_count == 1``) — columns of
      arrays nested deeper are never read, so they do not matter otherwise;
    * element sub-paths that end in atomic columns (an object or array at a
      tail is a value only assembly can build);
    * for a quantifier over a union element type, one single-array column in
      every branch: with those the scan tells ``[]`` from ``[x]`` where ``x``
      takes another branch than the column it counts — both leave one entry
      at the array's level.
    """
    arrays = [
        candidate
        for node in _descend([schema.root], runs.array.steps)
        for candidate in _expand_union(node)
        if isinstance(candidate, ArrayNode)
    ]
    if not arrays:
        return RunColumns()
    (array,) = arrays
    under = schema.leaf_columns(array)
    if not under or under[0].array_count != 1:
        return None
    tails: Dict[FieldPath, List[ColumnInfo]] = {}
    for tail in runs.tails():
        finals = [
            final
            for node in _descend([array.item], tail.steps)
            for final in _expand_union(node)
        ]
        if not all(isinstance(final, AtomicNode) for final in finals):
            return None
        tails[tail] = sorted(
            (final.column for final in finals), key=lambda column: column.column_id
        )
    probes: List[ColumnInfo] = []
    if runs.quantifiers and isinstance(array.item, UnionNode):
        for branch in array.item.branches.values():
            leaves = schema.leaf_columns(branch)
            if not leaves or leaves[0].array_count != 1:
                return None
            probes.append(leaves[0])
    return RunColumns(under[0], tails, tuple(probes))


class CompiledPredicate:
    """One predicate specialized against a component's schema snapshot."""

    __slots__ = ("predicate", "columns", "low", "high")

    def __init__(self, predicate: ColumnPredicate, columns: List[ColumnInfo]) -> None:
        self.predicate = predicate
        #: Atomic columns that can hold the value at the path (empty = the
        #: predicate is constant-false for every record of this component).
        self.columns = columns
        self.low, self.high = predicate.bounds()

    def group_may_match(self, group) -> bool:
        """Min/max pruning: can any record of this leaf group pass? (§4.3)."""
        if not self.columns:
            return False
        if self.low is None and self.high is None:
            return True
        return any(
            self._column_may_match(group, column) for column in self.columns
        )

    def _column_may_match(self, group, column: ColumnInfo) -> bool:
        if column.is_primary_key:
            # Keys live with the group header, not in a value page, so the
            # layouts keep no per-column statistics for them — but the group's
            # exact key range is right there.
            try:
                if self.low is not None and group.max_key < self.low:
                    return False
                if self.high is not None and group.min_key > self.high:
                    return False
            except TypeError:
                pass  # cross-type comparison: stats are inconclusive
            return True
        low, high = self._column_bounds(column)
        return group.column_range_overlaps(column, low, high)

    def _column_bounds(self, column: ColumnInfo):
        """The predicate's bounds coerced into the column's value domain.

        AMAX compares fixed-size byte *prefixes*, and ints and doubles encode
        into mutually incomparable orderings — a float literal checked against
        an int64 column's prefixes (or vice versa) would prune groups that do
        match.  Coercion is conservative: float bounds on an int64 column are
        rounded inward (ceil for low, floor for high — exact, since the
        column's values are integers), non-finite bounds drop to unbounded.
        """
        low, high = self.low, self.high
        if column.type_tag == TYPE_DOUBLE:
            if isinstance(low, int) and not isinstance(low, bool):
                low = float(low)
            if isinstance(high, int) and not isinstance(high, bool):
                high = float(high)
        elif column.type_tag == TYPE_INT64:
            if isinstance(low, float):
                low = math.ceil(low) if math.isfinite(low) else None
            if isinstance(high, float):
                high = math.floor(high) if math.isfinite(high) else None
        return low, high

    def evaluate(self, streams: Dict[int, tuple], record_count: int) -> List[bool]:
        """Batch-evaluate the predicate: one bool per record of the group."""
        passes = [False] * record_count
        for column in self.columns:
            defs, values = streams[column.column_id]
            self._evaluate_column(column, defs, values, passes)
        return passes

    def _evaluate_column(
        self, column: ColumnInfo, defs: List[int], values: list, passes: List[bool]
    ) -> None:
        op, literal = self.predicate.op, self.predicate.value
        if column.is_primary_key:
            # Key values are always materialized (one per record, including
            # anti-matter); their runtime type is not fixed by the schema, so
            # use the generic dynamic comparison.
            for index, value in enumerate(values):
                if compare_values(op, value, literal) is True:
                    passes[index] = True
            return
        max_def = column.max_def
        if _compatible(column.type_tag, literal):
            # The fast path: the column's values are homogeneous and
            # comparable with the literal, so the dynamic-typing checks of
            # compare_values collapse to the bare Python operator over the
            # decoded batch.
            op_fn = _COMPARE_OPS[op]
            value_index = 0
            for index, definition_level in enumerate(defs):
                if definition_level == max_def:
                    if op_fn(values[value_index], literal):
                        passes[index] = True
                    value_index += 1
        elif op == "!=":
            # Incompatible atomic types: ``!=`` is True whenever a value is
            # present at all (AsterixDB's dynamic-typing semantics).
            for index, definition_level in enumerate(defs):
                if definition_level == max_def:
                    passes[index] = True
        # Incompatible types under any other operator can never compare True.


def compile_predicates(
    schema: Schema, predicates: Sequence[ColumnPredicate]
) -> List[CompiledPredicate]:
    """Specialize predicates against one component schema; unsafe ones are skipped."""
    return [
        compiled
        for compiled in (compile_predicate(schema, p) for p in predicates)
        if compiled is not None
    ]


def compile_predicate(
    schema: Schema, predicate: ColumnPredicate
) -> Optional[CompiledPredicate]:
    """Compile one predicate, or None when it cannot be evaluated safely here."""
    steps = field_name_steps(predicate.path.steps)
    if not steps:
        return None
    if predicate.op == "!=" and not _only_atomic_at(schema, steps):
        # An object/array can appear at the path; ``!=`` would pass for it,
        # which column streams alone cannot see.  Leave it to the residual
        # filter for this component.
        return None
    columns = [
        column
        for column in schema.columns
        if ARRAY_PATH_STEP not in column.path
        and column.type_tag != TYPE_NULL
        and field_name_steps(column.path) == steps
    ]
    return CompiledPredicate(predicate, columns)
