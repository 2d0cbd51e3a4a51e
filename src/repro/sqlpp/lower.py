"""Lowering: bound SQL++ AST → the engine's fluent :class:`Query` builder.

The compiled query is a thin wrapper around the *same* ``Query`` object a
user would build by hand, so every parsed query flows unchanged through
pushdown (:mod:`repro.query.pushdown`), cost-based access-path selection
(:mod:`repro.query.optimizer`), and both executors.  Clause order becomes
pipeline order; GROUP BY aggregates come from the SELECT list (as in SQL++),
and a trailing PROJECT is added only when the SELECT list does not match the
grouped row shape exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import List, Optional, Set, Tuple, Union

from ..model.errors import QueryError, SqlppError
from ..query.executor import resolve_executor
from ..query.expressions import Expression, Subquery, Var, missing_to_none
from ..query.plan import AGGREGATE_FUNCTIONS, Query, QueryPlan, WINDOW_FUNCTIONS
from . import ast
from .binder import Scope, bind_expression
from .parser import parse

#: Output column name of ``SELECT VALUE`` projections (internal, unwrapped).
VALUE_COLUMN_FALLBACK = "$1"


@dataclass
class CompiledQuery:
    """A parsed, bound, and lowered SQL++ statement, ready to execute.

    ``query`` is the engine's fluent builder (None for FROM-less statements,
    which evaluate without touching a datastore); ``select_value`` marks
    ``SELECT VALUE`` queries whose rows unwrap to bare values.
    """

    text: str
    statement: ast.SelectStatement
    query: Optional[Query] = None
    select_value: bool = False
    value_column: Optional[str] = None
    #: FROM-less statements: the named constant expressions to evaluate.
    constant_columns: List[Tuple[str, Expression]] = dataclass_field(
        default_factory=list
    )
    #: Output column names in SELECT order (drives subquery value shaping).
    output_columns: List[str] = dataclass_field(default_factory=list)

    # -- execution ---------------------------------------------------------------------
    def execute(
        self,
        store=None,
        executor: Optional[str] = None,
        pushdown: bool = True,
        optimize: Optional[bool] = None,
        batch_size: Optional[int] = None,
    ) -> list:
        """Run the query; returns rows (dicts), or bare values for SELECT VALUE."""
        executor = resolve_executor(executor)  # FROM-less statements check it too
        if self.query is None:
            row = {
                name: missing_to_none(expression.evaluate({}))
                for name, expression in self.constant_columns
            }
            rows = [row]
            if self.statement.limit is not None:
                rows = rows[: self.statement.limit]
        else:
            if store is None:
                raise QueryError(
                    "this query reads a dataset; pass the datastore to execute against"
                )
            rows = self.query.execute(
                store,
                executor=executor,
                pushdown=pushdown,
                optimize=optimize,
                batch_size=batch_size,
            )
        if self.select_value:
            return [row[self.value_column] for row in rows]
        return rows

    def explain(
        self,
        store=None,
        pushdown: bool = True,
        analyze: bool = False,
        executor: Optional[str] = None,
    ) -> str:
        """Render the plan (with costs/alternatives when a store is given)."""
        executor = resolve_executor(executor)
        if self.query is None:
            names = ", ".join(name for name, _ in self.constant_columns)
            return f"VALUES [{names}] (no datastore access)"
        return self.query.explain(
            store, pushdown=pushdown, analyze=analyze, executor=executor
        )

    def build_plan(self, pushdown: bool = True) -> QueryPlan:
        """The logical plan (see :meth:`repro.query.plan.Query.build_plan`)."""
        if self.query is None:
            raise QueryError("FROM-less statements have no dataset plan")
        return self.query.build_plan(pushdown=pushdown)


def compile_query(text: Union[str, CompiledQuery]) -> CompiledQuery:
    """Parse, bind, and lower one SQL++ statement.

    An already compiled query passes through unchanged, so a caller handed
    either form never parses a statement twice.

    Raises:
        SqlppError: On any syntax or binding offence, with source positions.

    Example:
        >>> compiled = compile_query("SELECT COUNT(*) FROM d AS t WHERE t.a = 1;")
        >>> print(compiled.query.explain())
        SCAN d AS $t (fields=['a'])
          PUSHDOWN paths=[a]; predicates=[a == 1]
        FILTER Compare(Field(Var('t'), 'a') == Literal(1))
        AGGREGATE count=count(*)
        EXECUTOR batch (column batches of 1024)
    """
    from ..obs import span

    if isinstance(text, CompiledQuery):
        return text
    with span("parse"):
        statement = parse(text)
    with span("bind"):
        return compile_statement(statement, text)


def compile_statement(
    statement: ast.SelectStatement,
    text: str = "",
    outer_names: Tuple[str, ...] = (),
) -> CompiledQuery:
    """Lower a parsed statement (see :func:`compile_query`).

    ``outer_names`` seeds the scope with the enclosing query's aliases when
    the statement is a subquery — references to them mark it as correlated.
    """
    if statement.dataset is None:
        return _compile_constant(statement, text)
    return _compile_dataset_query(statement, text, outer_names)


def compile_subquery(node: ast.SubqueryExpr, scope: Scope) -> Subquery:
    """Lower a parenthesized SELECT used as a value into a Subquery expression.

    The inner statement compiles through the normal pipeline with the outer
    aliases in scope; the names it actually references decide correlation.
    ``scalar`` marks single-aggregate subqueries whose value is the bare
    aggregate (``(SELECT MAX(u.a) FROM m AS u)``); ``column`` unwraps
    single-column non-VALUE row shapes for IN/scalar positions.
    """
    statement = node.statement
    outer = tuple(scope.names())
    compiled = compile_statement(statement, outer_names=outer)
    correlated = tuple(
        sorted(set(outer) & _statement_referenced_names(statement))
    )
    only = statement.select_items[0] if len(statement.select_items) == 1 else None
    scalar = (
        only is not None
        and not statement.group_by
        and only.window is None
        and _aggregate_name(only.expression) is not None
    )
    column = None
    if not statement.select_value and len(compiled.output_columns) == 1:
        column = compiled.output_columns[0]
    return Subquery(compiled, correlated=correlated, scalar=scalar, column=column)


def _expr_names(node: ast.ExprNode) -> Set[str]:
    """Every alias name an expression references (quantifier items excluded)."""
    if isinstance(node, ast.IdentRef):
        return {node.name}
    if isinstance(node, ast.PathExpr):
        return _expr_names(node.base)
    if isinstance(node, ast.CallExpr):
        return set().union(*[_expr_names(a) for a in node.args]) if node.args else set()
    if isinstance(node, ast.CompareExpr):
        return _expr_names(node.lhs) | _expr_names(node.rhs)
    if isinstance(node, (ast.AndExpr, ast.OrExpr)):
        return set().union(*[_expr_names(o) for o in node.operands])
    if isinstance(node, ast.SomeExpr):
        return _expr_names(node.collection) | (
            _expr_names(node.predicate) - {node.item}
        )
    if isinstance(node, ast.ExistsExpr):
        return _expr_names(node.collection)
    if isinstance(node, ast.InExpr):
        return _expr_names(node.needle) | _expr_names(node.collection)
    if isinstance(node, ast.SubqueryExpr):
        return _statement_referenced_names(node.statement)
    if isinstance(node, ast.ArrayExpr):
        return set().union(*[_expr_names(i) for i in node.items]) if node.items else set()
    if isinstance(node, ast.ObjectExpr):
        return (
            set().union(*[_expr_names(v) for _, v in node.pairs])
            if node.pairs
            else set()
        )
    return set()


def _statement_referenced_names(statement: ast.SelectStatement) -> Set[str]:
    """The free alias names of a statement: referenced minus locally bound."""
    names: Set[str] = set()
    bound: Set[str] = set()
    if statement.alias is not None:
        bound.add(statement.alias)
    for join in statement.joins:
        bound.add(join.alias)
        if join.condition is not None:
            names |= _expr_names(join.condition)
    for clause in statement.pipeline:
        if isinstance(clause, ast.UnnestClause):
            names |= _expr_names(clause.expression)
            bound.add(clause.alias)
        elif isinstance(clause, ast.LetClause):
            names |= _expr_names(clause.expression)
            bound.add(clause.name)
        else:
            names |= _expr_names(clause.predicate)
    for item in statement.select_items:
        names |= _expr_names(item.expression)
        if item.window is not None:
            for expression in item.window.partition_by:
                names |= _expr_names(expression)
            for order_item in item.window.order_by:
                names |= _expr_names(order_item.expression)
    for key in statement.group_by:
        names |= _expr_names(key.expression)
    return names - bound


# ======================================================================================
# FROM-less statements (SELECT 1;)
# ======================================================================================


def _compile_constant(statement: ast.SelectStatement, text: str) -> CompiledQuery:
    scope = Scope()
    columns: List[Tuple[str, Expression]] = []
    for index, item in enumerate(statement.select_items):
        if _aggregate_name(item.expression) is not None:
            raise SqlppError(
                f"aggregate at {item.where} requires a FROM clause",
                item.line,
                item.column,
            )
        name = _output_name(item, index)
        columns.append((name, bind_expression(item.expression, scope)))
    _reject_duplicate_names(columns, statement)
    if statement.pipeline or statement.group_by or statement.order_by:
        raise SqlppError(
            f"FROM-less SELECT supports no other clauses (at {statement.where})",
            statement.line,
            statement.column,
        )
    compiled = CompiledQuery(
        text,
        statement,
        constant_columns=columns,
        output_columns=[name for name, _ in columns],
    )
    if statement.select_value:
        compiled.select_value = True
        compiled.value_column = columns[0][0]
    return compiled


# ======================================================================================
# Dataset queries
# ======================================================================================


def _compile_dataset_query(
    statement: ast.SelectStatement,
    text: str,
    outer_names: Tuple[str, ...] = (),
) -> CompiledQuery:
    scope = Scope(list(outer_names))
    scope.add(statement.alias, statement)
    query = Query(statement.dataset, statement.alias)
    consumed = _lower_joins(statement, scope, query)
    for clause in statement.pipeline:
        if isinstance(clause, ast.UnnestClause):
            expression = bind_expression(clause.expression, scope)
            scope.add(clause.alias, clause)
            query.unnest(clause.alias, expression)
        elif isinstance(clause, ast.LetClause):
            expression = bind_expression(clause.expression, scope)
            scope.add(clause.name, clause)
            query.assign(clause.name, expression)
        elif isinstance(clause, ast.WhereClause):
            # Top-level conjuncts become separate FILTER operators, exactly
            # like chained ``.where()`` calls on the builder.  Conjuncts the
            # join lowering consumed as equi-join conditions are dropped: the
            # hash join's key match is exactly that equality.
            for conjunct in _top_level_conjuncts(clause.predicate):
                if id(conjunct) in consumed:
                    continue
                query.where(bind_expression(conjunct, scope))
    if statement.group_by and any(
        item.window is not None for item in statement.select_items
    ):
        raise SqlppError(
            f"window functions cannot be combined with GROUP BY "
            f"(at {statement.where})",
            statement.line,
            statement.column,
        )
    if statement.group_by:
        output_names = _lower_group_by(statement, scope, query)
    else:
        output_names = _lower_select(statement, scope, query)
    _lower_order_limit(statement, query, output_names)
    compiled = CompiledQuery(
        text, statement, query=query, output_columns=list(output_names)
    )
    if statement.select_value:
        compiled.select_value = True
        compiled.value_column = output_names[0]
    return compiled


def _lower_joins(statement: ast.SelectStatement, scope: Scope, query: Query):
    """Lower the FROM clause's extra sources into hash-join operators.

    Explicit ``JOIN ... ON`` conditions must be a single equality; comma
    joins take the first WHERE conjunct equating the new alias with already
    bound sources (pure cross products are unsupported).  Returns the ids of
    WHERE conjuncts consumed as join conditions.
    """
    consumed = set()
    if not statement.joins:
        return consumed
    where_conjuncts: List[ast.ExprNode] = []
    for clause in statement.pipeline:
        if isinstance(clause, ast.WhereClause):
            where_conjuncts.extend(_top_level_conjuncts(clause.predicate))
    for join in statement.joins:
        bound = set(scope.names())
        conjunct = None
        if join.condition is not None:
            conjunct = join.condition
            if not _is_equi_condition(conjunct, join.alias, bound):
                raise SqlppError(
                    f"JOIN ... ON at {join.where} must be a single equality "
                    f"comparing `{join.alias}` with already bound sources",
                    join.line,
                    join.column,
                )
        else:
            for candidate in where_conjuncts:
                if id(candidate) in consumed:
                    continue
                if _is_equi_condition(candidate, join.alias, bound):
                    conjunct = candidate
                    consumed.add(id(candidate))
                    break
            if conjunct is None:
                raise SqlppError(
                    f"comma join of `{join.dataset}` AS `{join.alias}` at "
                    f"{join.where} needs a WHERE equality linking it to the "
                    f"other sources (cross products are unsupported)",
                    join.line,
                    join.column,
                )
        build_ast, probe_ast = _split_equi_condition(conjunct, join.alias)
        probe_key = bind_expression(probe_ast, scope)
        build_key = bind_expression(build_ast, Scope([join.alias]))
        scope.add(join.alias, join)
        query.join(join.dataset, join.alias, probe_key, build_key)
    return consumed


def _is_equi_condition(
    node: ast.ExprNode, alias: str, bound: Set[str]
) -> bool:
    """Is ``node`` an equality with one side on ``alias`` and one on ``bound``?"""
    if not (isinstance(node, ast.CompareExpr) and node.op in ("=", "==")):
        return False
    lhs, rhs = _expr_names(node.lhs), _expr_names(node.rhs)
    if lhs == {alias}:
        return rhs <= bound
    if rhs == {alias}:
        return lhs <= bound
    return False


def _split_equi_condition(node: ast.CompareExpr, alias: str):
    """Split a checked equi-join condition into (build side, probe side)."""
    if _expr_names(node.lhs) == {alias}:
        return node.lhs, node.rhs
    return node.rhs, node.lhs


def _top_level_conjuncts(node: ast.ExprNode):
    if isinstance(node, ast.AndExpr):
        for operand in node.operands:
            yield from _top_level_conjuncts(operand)
    else:
        yield node


def _fingerprint(node: ast.ExprNode):
    """A position-free structural key, for matching SELECT items to group keys."""
    if isinstance(node, ast.LiteralExpr):
        return ("lit", type(node.value).__name__, node.value)
    if isinstance(node, ast.IdentRef):
        return ("var", node.name)
    if isinstance(node, ast.PathExpr):
        return ("path", _fingerprint(node.base), node.steps)
    if isinstance(node, ast.CallExpr):
        return ("call", node.name.lower(), node.star,
                tuple(_fingerprint(a) for a in node.args))
    if isinstance(node, ast.CompareExpr):
        return ("cmp", node.op, _fingerprint(node.lhs), _fingerprint(node.rhs))
    if isinstance(node, (ast.AndExpr, ast.OrExpr)):
        kind = "and" if isinstance(node, ast.AndExpr) else "or"
        return (kind, tuple(_fingerprint(o) for o in node.operands))
    if isinstance(node, ast.SomeExpr):
        return ("some", node.item, _fingerprint(node.collection),
                _fingerprint(node.predicate))
    if isinstance(node, ast.ExistsExpr):
        return ("exists", _fingerprint(node.collection))
    if isinstance(node, ast.InExpr):
        return ("in", _fingerprint(node.needle), _fingerprint(node.collection))
    if isinstance(node, ast.SubqueryExpr):
        # Subqueries never structurally match a group key; identity is enough.
        return ("subquery", id(node))
    if isinstance(node, ast.ArrayExpr):
        return ("array", tuple(_fingerprint(i) for i in node.items))
    if isinstance(node, ast.ObjectExpr):
        return ("object", tuple((k, _fingerprint(v)) for k, v in node.pairs))
    return ("other", id(node))  # pragma: no cover - all node kinds are covered


def _aggregate_name(node: ast.ExprNode) -> Optional[str]:
    """The lowercase aggregate function name when the node is a top-level call."""
    if isinstance(node, ast.CallExpr) and node.name.lower() in AGGREGATE_FUNCTIONS:
        return node.name.lower()
    return None


def _derived_name(node: ast.ExprNode) -> Optional[str]:
    """The implicit output name SQL++ gives an unaliased expression."""
    if isinstance(node, ast.IdentRef):
        return node.name
    if isinstance(node, ast.PathExpr):
        for step in reversed(node.steps):
            if step != "[*]":
                return step
    if isinstance(node, ast.CallExpr):
        name = node.name.lower()
        return "count" if (node.star and name == "count") else name
    return None


def _output_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    derived = _derived_name(item.expression)
    return derived if derived else f"${index + 1}"


def _reject_duplicate_names(columns, statement: ast.SelectStatement) -> None:
    seen = set()
    for name, _ in columns:
        if name in seen:
            raise SqlppError(
                f"duplicate output column `{name}` at {statement.where}; "
                f"disambiguate with AS",
                statement.line,
                statement.column,
            )
        seen.add(name)


def _bind_aggregate(
    node: ast.CallExpr, scope: Scope
) -> Tuple[str, Optional[Expression]]:
    """One SELECT-clause aggregate call → (function, bound argument)."""
    function = node.name.lower()
    if function == "count":
        if not node.star:
            raise SqlppError(
                f"only COUNT(*) is supported at {node.where} "
                f"(COUNT(expr) is not implemented)",
                node.line,
                node.column,
            )
        return function, None
    if node.star or len(node.args) != 1:
        raise SqlppError(
            f"{node.name.upper()} at {node.where} takes exactly one argument",
            node.line,
            node.column,
        )
    return function, bind_expression(node.args[0], scope)


def _lower_select(
    statement: ast.SelectStatement, scope: Scope, query: Query
) -> List[str]:
    """SELECT without GROUP BY: a projection or an aggregate-only query."""
    if any(item.window is not None for item in statement.select_items):
        return _lower_windows(statement, scope, query)
    aggregate_flags = [
        _aggregate_name(item.expression) is not None
        for item in statement.select_items
    ]
    if any(aggregate_flags):
        if not all(aggregate_flags):
            first_plain = statement.select_items[aggregate_flags.index(False)]
            raise SqlppError(
                f"cannot mix aggregates and plain expressions without GROUP BY "
                f"(at {first_plain.where})",
                first_plain.line,
                first_plain.column,
            )
        aggregates = []
        for index, item in enumerate(statement.select_items):
            function, argument = _bind_aggregate(item.expression, scope)
            name = item.alias or ("count" if function == "count" else function)
            aggregates.append((name, function, argument))
        _reject_duplicate_names([(n, None) for n, _, _ in aggregates], statement)
        query.aggregate(aggregates)
        return [name for name, _, _ in aggregates]
    columns = []
    for index, item in enumerate(statement.select_items):
        name = _output_name(item, index)
        columns.append((name, bind_expression(item.expression, scope)))
    _reject_duplicate_names(columns, statement)
    query.select(columns)
    return [name for name, _ in columns]


def _lower_windows(
    statement: ast.SelectStatement, scope: Scope, query: Query
) -> List[str]:
    """SELECT with OVER items: shared WINDOW operators plus a projection.

    Items with identical ``OVER`` specs share one :class:`WindowNode` (the
    partition/order work runs once); the final PROJECT reads the window
    columns by name and evaluates the plain items, which still see the
    source variables because WINDOW augments rows rather than reshaping them.
    """
    groups: dict = {}  # spec key -> [columns, partition exprs, order pairs]
    group_order: List[tuple] = []
    output: List[Tuple[str, Expression]] = []
    names: List[str] = []
    for index, item in enumerate(statement.select_items):
        name = _output_name(item, index)
        if item.window is not None:
            function, argument = _bind_window_call(item.expression, scope)
            key = _window_spec_key(item.window)
            if key not in groups:
                groups[key] = [
                    [],
                    [bind_expression(e, scope) for e in item.window.partition_by],
                    [
                        (bind_expression(oi.expression, scope), oi.descending)
                        for oi in item.window.order_by
                    ],
                ]
                group_order.append(key)
            groups[key][0].append((name, function, argument))
            output.append((name, Var(name)))
        else:
            if _aggregate_name(item.expression) is not None:
                raise SqlppError(
                    f"aggregate at {item.where} needs an OVER clause (or GROUP "
                    f"BY) when the SELECT list contains window functions",
                    item.line,
                    item.column,
                )
            output.append((name, bind_expression(item.expression, scope)))
        names.append(name)
    _reject_duplicate_names([(n, None) for n in names], statement)
    for key in group_order:
        columns, partition_by, order_by = groups[key]
        query.window(columns, partition_by=partition_by, order_by=order_by)
    query.select(output)
    return names


def _bind_window_call(
    node: ast.ExprNode, scope: Scope
) -> Tuple[str, Optional[Expression]]:
    """One ``fn(...) OVER (...)`` SELECT item → (function, bound argument)."""
    if not (
        isinstance(node, ast.CallExpr) and node.name.lower() in WINDOW_FUNCTIONS
    ):
        raise SqlppError(
            f"OVER at {node.where} requires a window-function call "
            f"({', '.join(sorted(WINDOW_FUNCTIONS))})",
            node.line,
            node.column,
        )
    function = node.name.lower()
    if function == "row_number":
        if node.args:
            raise SqlppError(
                f"ROW_NUMBER at {node.where} takes no arguments",
                node.line,
                node.column,
            )
        return function, None
    if function == "count":
        if not node.star:
            raise SqlppError(
                f"only COUNT(*) is supported at {node.where} "
                f"(COUNT(expr) is not implemented)",
                node.line,
                node.column,
            )
        return function, None
    if node.star or len(node.args) != 1:
        raise SqlppError(
            f"{node.name.upper()} at {node.where} takes exactly one argument",
            node.line,
            node.column,
        )
    return function, bind_expression(node.args[0], scope)


def _window_spec_key(spec: ast.WindowSpec):
    """A position-free key so identical OVER specs share one WindowNode."""
    return (
        tuple(_fingerprint(e) for e in spec.partition_by),
        tuple(
            (_fingerprint(oi.expression), oi.descending) for oi in spec.order_by
        ),
    )


def _lower_group_by(
    statement: ast.SelectStatement, scope: Scope, query: Query
) -> List[str]:
    """GROUP BY: keys from the GROUP BY clause, aggregates from SELECT."""
    keys: List[Tuple[str, Expression]] = []
    for key in statement.group_by:
        name = key.alias or _derived_name(key.expression)
        if not name:
            raise SqlppError(
                f"GROUP BY key at {key.where} needs an AS alias "
                f"(no name can be derived from the expression)",
                key.line,
                key.column,
            )
        keys.append((name, bind_expression(key.expression, scope)))
    key_names = [name for name, _ in keys]
    _reject_duplicate_names(keys, statement)

    key_fingerprints = {
        _fingerprint(key.expression): name
        for key, (name, _) in zip(statement.group_by, keys)
    }
    aggregates: List[Tuple[str, str, Optional[Expression]]] = []
    selected: List[Tuple[str, str]] = []  # (output name, grouped-row source name)
    for item in statement.select_items:
        if _aggregate_name(item.expression) is not None:
            function, argument = _bind_aggregate(item.expression, scope)
            name = item.alias or ("count" if function == "count" else function)
            aggregates.append((name, function, argument))
            selected.append((name, name))
        elif isinstance(item.expression, ast.IdentRef) and (
            item.expression.name in key_names
        ):
            selected.append((item.alias or item.expression.name, item.expression.name))
        elif _fingerprint(item.expression) in key_fingerprints:
            # The item repeats a grouping expression (``SELECT t.title ...
            # GROUP BY t.title``): it references that key's output column.
            source = key_fingerprints[_fingerprint(item.expression)]
            selected.append((item.alias or source, source))
        else:
            raise SqlppError(
                f"under GROUP BY, SELECT items must be group keys or aggregates; "
                f"the item at {item.where} is neither (group keys: "
                f"{', '.join(key_names)})",
                item.line,
                item.column,
            )
    _reject_duplicate_names([(n, None) for n, _ in selected], statement)
    query.group_by(key=keys, aggregates=aggregates)

    # The grouped row is keys (in GROUP BY order) then aggregates; skipping
    # the PROJECT is only transparent when the SELECT list is exactly that
    # shape — same names, same order.
    grouped_shape = key_names + [name for name, _, _ in aggregates]
    renamed = any(name != source for name, source in selected)
    if renamed or [source for _, source in selected] != grouped_shape:
        # The SELECT list does not match the grouped row shape — project it.
        from ..query.expressions import Var

        query.select([(name, Var(source)) for name, source in selected])
        return [name for name, _ in selected]
    return key_names + [name for name, _, _ in aggregates]


def _lower_order_limit(
    statement: ast.SelectStatement, query: Query, output_names: List[str]
) -> None:
    if statement.order_by:
        # SELECT VALUE still has one (derived or aliased) output column; the
        # unwrap to bare values happens after the sort, so ordering by that
        # name is fine and the unknown-column check below covers the rest.
        for item in statement.order_by:
            if item.name not in output_names:
                raise SqlppError(
                    f"ORDER BY references unknown output column `{item.name}` at "
                    f"{item.where}; output columns: {', '.join(output_names)}",
                    item.line,
                    item.column,
                )
        # The engine sorts one key per (stable) ORDERBY operator: applying the
        # minor keys first makes the leftmost written key the primary order.
        for item in reversed(statement.order_by):
            query.order_by(item.name, descending=item.descending)
    if statement.limit is not None:
        query.limit(statement.limit)
