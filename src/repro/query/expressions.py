"""Query expressions over dynamically typed document values.

Expressions evaluate against a *tuple* — a dict mapping variable names to
values (the scan variable binds the whole document, ASSIGN/UNNEST bind more).
Semantics follow SQL++/AsterixDB: a missing field yields MISSING, comparisons
between incompatible types yield NULL (None), and NULL/MISSING filter
predicates are treated as false.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..model.errors import QueryError, UnknownFunctionError
from ..model.path import FieldPath, get_path
from ..model.values import MISSING

Tuple_ = Dict[str, Any]


class Expression:
    """Base class of all query expressions."""

    def evaluate(self, row: Tuple_):  # pragma: no cover - interface
        raise NotImplementedError

    def evaluate_batch(self, batch) -> list:
        """Evaluate against a :class:`~repro.query.batch.ColumnBatch`.

        Returns one value per batch row.  The default materializes rows and
        defers to :meth:`evaluate` (only row-backed batches support that);
        vector-aware subclasses override it to stay columnar.
        """
        return [self.evaluate(row) for row in batch.iter_rows()]

    def referenced_variables(self) -> set:
        return set()

    def referenced_paths(self) -> List[Tuple[str, FieldPath]]:
        """``(variable, path)`` pairs accessed by this expression (for pushdown)."""
        return []

    def children(self) -> List["Expression"]:
        """Direct sub-expressions (for recursive plan walks, e.g. subquery binding)."""
        return []

    def referenced_bare_variables(self) -> set:
        """Variables whose *whole* value this expression consumes.

        A variable accessed only as the base of a field path is not bare —
        projection pruning may narrow it to the referenced paths.  Any bare
        use (``Var(t)`` fed to a function, compared directly, projected
        as-is...) forces the full record.  The base implementation is
        conservative so unknown expression types disable pruning.
        """
        return self.referenced_variables()

    # Convenience constructors for a fluent feel -------------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return Compare("==", self, lift(other))

    def __ne__(self, other):  # type: ignore[override]
        return Compare("!=", self, lift(other))

    def __lt__(self, other):
        return Compare("<", self, lift(other))

    def __le__(self, other):
        return Compare("<=", self, lift(other))

    def __gt__(self, other):
        return Compare(">", self, lift(other))

    def __ge__(self, other):
        return Compare(">=", self, lift(other))

    def __hash__(self):
        return id(self)


def lift(value) -> Expression:
    """Wrap a plain Python value in a :class:`Literal` (expressions pass through)."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


class Literal(Expression):
    """A constant value."""

    def __init__(self, value) -> None:
        self.value = value

    def evaluate(self, row: Tuple_):
        return self.value

    def evaluate_batch(self, batch) -> list:
        return [self.value] * batch.length

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class Var(Expression):
    """A reference to a bound variable (scan/assign/unnest binding)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, row: Tuple_):
        return row.get(self.name, MISSING)

    def evaluate_batch(self, batch) -> list:
        return batch.var_values(self.name)

    def referenced_variables(self) -> set:
        return {self.name}

    def field(self, path: str) -> "Field":
        return Field(self, path)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Field(Expression):
    """Field access (possibly nested, possibly through arrays) on an expression."""

    def __init__(self, base: Expression, path: "FieldPath | str") -> None:
        self.base = base
        self.path = FieldPath.of(path)

    def evaluate(self, row: Tuple_):
        value = self.base.evaluate(row)
        if value is MISSING or value is None:
            return MISSING
        return get_path(value, self.path)

    def evaluate_batch(self, batch) -> list:
        if isinstance(self.base, Var):
            return batch.path_values(self.base.name, self.path)
        return [
            MISSING if value is MISSING or value is None else get_path(value, self.path)
            for value in self.base.evaluate_batch(batch)
        ]

    def referenced_variables(self) -> set:
        return self.base.referenced_variables()

    def referenced_paths(self) -> List[Tuple[str, FieldPath]]:
        if isinstance(self.base, Var):
            return [(self.base.name, self.path)]
        inherited = self.base.referenced_paths()
        return inherited

    def referenced_bare_variables(self) -> set:
        if isinstance(self.base, Var):
            return set()
        return self.base.referenced_bare_variables()

    def children(self) -> List[Expression]:
        return [self.base]

    def __repr__(self) -> str:
        return f"Field({self.base!r}, {str(self.path)!r})"


_COMPARE_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NUMERIC = (int, float)

#: Mirror image of each comparison operator (``lit <op> x`` ≡ ``x <flip> lit``).
_FLIPPED_OPS = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compare_values(op: str, left, right):
    """AsterixDB-style dynamic comparison: incompatible types yield NULL (None).

    Args:
        op: One of ``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.
        left: Left operand (any document value, possibly MISSING).
        right: Right operand.

    Returns:
        True/False for comparable operands; None (NULL) for incomparable
        ones — except ``==``/``!=``, which are decidable across types.

    Example:
        >>> compare_values(">", 3, 2)
        True
        >>> compare_values(">", "3", 2) is None   # int vs str: NULL
        True
        >>> compare_values("!=", "3", 2)
        True
    """
    if left is MISSING or right is MISSING or left is None or right is None:
        return None
    left_numeric = isinstance(left, _NUMERIC) and not isinstance(left, bool)
    right_numeric = isinstance(right, _NUMERIC) and not isinstance(right, bool)
    compatible = (
        (left_numeric and right_numeric)
        or (isinstance(left, str) and isinstance(right, str))
        or (isinstance(left, bool) and isinstance(right, bool))
    )
    if not compatible:
        if op == "==":
            return False
        if op == "!=":
            return True
        return None
    return _COMPARE_OPS[op](left, right)


def join_key(value):
    """Canonical hash-join key for a document value.

    Two values get the same key exactly when ``compare_values("==", a, b)``
    is True: numbers share a bucket (``1`` joins ``1.0``) but booleans and
    strings do not join numbers.  NULL, MISSING, and non-scalar values map to
    None, which join probes/builds treat as "never matches" — mirroring the
    NULL semantics of the equality predicate a hash join replaces.
    """
    if value is MISSING or value is None:
        return None
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, _NUMERIC):
        return ("num", value)
    if isinstance(value, str):
        return ("str", value)
    return None


def in_list(needle, collection):
    """``needle IN collection`` with SQL++ semantics.

    NULL/MISSING needles yield NULL; a non-array collection yields NULL;
    otherwise True iff some element compares equal (so ``1 IN [1.0]`` holds
    but ``1 IN [true]`` does not).
    """
    if needle is MISSING or needle is None:
        return None
    if not isinstance(collection, (list, tuple)):
        return None
    return any(compare_values("==", needle, item) is True for item in collection)


class Compare(Expression):
    """A binary comparison with dynamic-typing semantics."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARE_OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = lift(left)
        self.right = lift(right)

    def evaluate(self, row: Tuple_):
        return compare_values(self.op, self.left.evaluate(row), self.right.evaluate(row))

    def evaluate_batch(self, batch) -> list:
        from . import kernels  # lazy: kernels imports compare_values from here

        if isinstance(self.right, Literal):
            return kernels.compare_with_literal(
                self.op, self.left.evaluate_batch(batch), self.right.value
            )
        if isinstance(self.left, Literal):
            return kernels.compare_with_literal(
                _FLIPPED_OPS[self.op], self.right.evaluate_batch(batch), self.left.value
            )
        left = self.left.evaluate_batch(batch)
        right = self.right.evaluate_batch(batch)
        return [compare_values(self.op, a, b) for a, b in zip(left, right)]

    def referenced_variables(self) -> set:
        return self.left.referenced_variables() | self.right.referenced_variables()

    def referenced_paths(self):
        return self.left.referenced_paths() + self.right.referenced_paths()

    def referenced_bare_variables(self) -> set:
        return (
            self.left.referenced_bare_variables()
            | self.right.referenced_bare_variables()
        )

    def children(self) -> List[Expression]:
        return [self.left, self.right]

    def __repr__(self) -> str:
        return f"Compare({self.left!r} {self.op} {self.right!r})"


class And(Expression):
    def __init__(self, *operands: Expression) -> None:
        self.operands = [lift(operand) for operand in operands]

    def evaluate(self, row: Tuple_):
        for operand in self.operands:
            if operand.evaluate(row) is not True:
                return False
        return True

    def evaluate_batch(self, batch) -> list:
        vectors = [operand.evaluate_batch(batch) for operand in self.operands]
        return [
            all(vector[index] is True for vector in vectors)
            for index in range(batch.length)
        ]

    def referenced_variables(self) -> set:
        out = set()
        for operand in self.operands:
            out |= operand.referenced_variables()
        return out

    def referenced_paths(self):
        out = []
        for operand in self.operands:
            out.extend(operand.referenced_paths())
        return out

    def referenced_bare_variables(self) -> set:
        out = set()
        for operand in self.operands:
            out |= operand.referenced_bare_variables()
        return out

    def children(self) -> List[Expression]:
        return list(self.operands)

    def __repr__(self) -> str:
        return "And(" + ", ".join(repr(operand) for operand in self.operands) + ")"


class Or(Expression):
    def __init__(self, *operands: Expression) -> None:
        self.operands = [lift(operand) for operand in operands]

    def evaluate(self, row: Tuple_):
        return any(operand.evaluate(row) is True for operand in self.operands)

    def evaluate_batch(self, batch) -> list:
        vectors = [operand.evaluate_batch(batch) for operand in self.operands]
        return [
            any(vector[index] is True for vector in vectors)
            for index in range(batch.length)
        ]

    def referenced_variables(self) -> set:
        out = set()
        for operand in self.operands:
            out |= operand.referenced_variables()
        return out

    def referenced_paths(self):
        out = []
        for operand in self.operands:
            out.extend(operand.referenced_paths())
        return out

    def referenced_bare_variables(self) -> set:
        out = set()
        for operand in self.operands:
            out |= operand.referenced_bare_variables()
        return out

    def children(self) -> List[Expression]:
        return list(self.operands)

    def __repr__(self) -> str:
        return "Or(" + ", ".join(repr(operand) for operand in self.operands) + ")"


class InList(Expression):
    """``needle IN collection`` — see :func:`in_list` for the semantics."""

    def __init__(self, needle: Expression, collection: Expression) -> None:
        self.needle = lift(needle)
        self.collection = lift(collection)

    def evaluate(self, row: Tuple_):
        return in_list(self.needle.evaluate(row), self.collection.evaluate(row))

    def evaluate_batch(self, batch) -> list:
        needles = self.needle.evaluate_batch(batch)
        collections = self.collection.evaluate_batch(batch)
        return [in_list(n, c) for n, c in zip(needles, collections)]

    def referenced_variables(self) -> set:
        return (
            self.needle.referenced_variables()
            | self.collection.referenced_variables()
        )

    def referenced_paths(self):
        return self.needle.referenced_paths() + self.collection.referenced_paths()

    def referenced_bare_variables(self) -> set:
        return (
            self.needle.referenced_bare_variables()
            | self.collection.referenced_bare_variables()
        )

    def children(self) -> List[Expression]:
        return [self.needle, self.collection]

    def __repr__(self) -> str:
        return f"InList({self.needle!r}, {self.collection!r})"


# -- built-in functions -----------------------------------------------------------------


def _fn_lowercase(value):
    return value.lower() if isinstance(value, str) else None


def _fn_length(value):
    if isinstance(value, (str, list, tuple, dict)):
        return len(value)
    return None


def _fn_is_array(value):
    return isinstance(value, (list, tuple))


def _fn_array_count(value):
    return len(value) if isinstance(value, (list, tuple)) else None


def _fn_array_distinct(value):
    if not isinstance(value, (list, tuple)):
        return None
    seen = []
    for item in value:
        if item not in seen and item is not None and item is not MISSING:
            seen.append(item)
    return seen


def _fn_array_contains(value, needle):
    if not isinstance(value, (list, tuple)):
        return None
    return needle in value


def _fn_array_pairs(value):
    if not isinstance(value, (list, tuple)):
        return None
    pairs = []
    items = list(value)
    for index, first in enumerate(items):
        for second in items[index + 1:]:
            pairs.append(sorted([str(first), str(second)]))
    return pairs


def _fn_coalesce(*values):
    for value in values:
        if value is not MISSING and value is not None:
            return value
    return None


FUNCTIONS: Dict[str, Callable] = {
    "lowercase": _fn_lowercase,
    "length": _fn_length,
    "is_array": _fn_is_array,
    "array_count": _fn_array_count,
    "array_distinct": _fn_array_distinct,
    "array_contains": _fn_array_contains,
    "array_pairs": _fn_array_pairs,
    "coalesce": _fn_coalesce,
}


def register_function(name: str, fn: Callable) -> None:
    """Register (or replace) a scalar function usable from ``Call`` and SQL++.

    The registry is shared by both executors and the SQL++ frontend, so a
    function registered here is immediately callable from all of them.
    Arguments arrive with MISSING already normalized to None (as for the
    built-ins).

    Args:
        name: Function name; matched case-insensitively by the SQL++ parser,
            stored lowercase.
        fn: The implementation; called positionally with the evaluated
            argument values.

    Example:
        >>> register_function("double_it", lambda v: None if v is None else v * 2)
        >>> Call("double_it", Literal(21)).evaluate({})
        42
    """
    if not callable(fn):
        raise QueryError(f"register_function({name!r}): implementation is not callable")
    if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
        raise QueryError(f"register_function: invalid function name {name!r}")
    FUNCTIONS[name.lower()] = fn


class Call(Expression):
    """A call to one of the built-in SQL++-style functions."""

    def __init__(self, function: str, *arguments) -> None:
        if function not in FUNCTIONS:
            raise UnknownFunctionError(
                f"unknown function {function!r}; available built-ins: "
                + ", ".join(sorted(FUNCTIONS))
            )
        self.function = function
        self.arguments = [lift(argument) for argument in arguments]

    def evaluate(self, row: Tuple_):
        values = [argument.evaluate(row) for argument in self.arguments]
        values = [None if value is MISSING else value for value in values]
        return FUNCTIONS[self.function](*values)

    def evaluate_batch(self, batch) -> list:
        decided = batch.decided.get(id(self))
        if decided is not None:
            return decided  # an ``is_array`` the direct scan answered
        function = FUNCTIONS[self.function]
        if not self.arguments:
            return [function() for _ in range(batch.length)]
        vectors = [argument.evaluate_batch(batch) for argument in self.arguments]
        return [
            function(*(None if value is MISSING else value for value in values))
            for values in zip(*vectors)
        ]

    def referenced_variables(self) -> set:
        out = set()
        for argument in self.arguments:
            out |= argument.referenced_variables()
        return out

    def referenced_paths(self):
        out = []
        for argument in self.arguments:
            out.extend(argument.referenced_paths())
        return out

    def referenced_bare_variables(self) -> set:
        out = set()
        for argument in self.arguments:
            out |= argument.referenced_bare_variables()
        return out

    def children(self) -> List[Expression]:
        return list(self.arguments)

    def __repr__(self) -> str:
        arguments = "".join(f", {argument!r}" for argument in self.arguments)
        return f"Call({self.function!r}{arguments})"


class SomeSatisfies(Expression):
    """``SOME item IN array SATISFIES predicate(item)`` (used by tweet Q3)."""

    def __init__(self, array: Expression, item_var: str, predicate: Expression) -> None:
        self.array = lift(array)
        self.item_var = item_var
        self.predicate = lift(predicate)

    def evaluate(self, row: Tuple_):
        array = self.array.evaluate(row)
        if not isinstance(array, (list, tuple)):
            return False
        inner = dict(row)
        for item in array:
            inner[self.item_var] = item
            if self.predicate.evaluate(inner) is True:
                return True
        return False

    def evaluate_batch(self, batch) -> list:
        decided = batch.decided.get(id(self))
        if decided is not None:
            return decided  # the direct scan decided it from element runs
        return super().evaluate_batch(batch)

    def referenced_variables(self) -> set:
        return self.array.referenced_variables() | (
            self.predicate.referenced_variables() - {self.item_var}
        )

    def referenced_paths(self):
        return self.array.referenced_paths() + [
            (variable, path)
            for variable, path in self.predicate.referenced_paths()
            if variable != self.item_var
        ]

    def referenced_bare_variables(self) -> set:
        return self.array.referenced_bare_variables() | (
            self.predicate.referenced_bare_variables() - {self.item_var}
        )

    def children(self) -> List[Expression]:
        return [self.array, self.predicate]

    def __repr__(self) -> str:
        return (
            f"SomeSatisfies({self.array!r}, {self.item_var!r}, {self.predicate!r})"
        )


class Subquery(Expression):
    """A nested SELECT used as a value (scalar or collection).

    Built by the SQL++ binder around a compiled inner statement.  Before the
    outer plan runs, :func:`repro.query.executor.prepare_plan` calls
    :meth:`bind_store` so the inner query knows which datastore to read.

    *Uncorrelated* subqueries (no references to outer variables) execute once
    per outer query and cache their result.  *Correlated* ones re-execute per
    outer row with the correlated variables bound — the nested-loop fallback.

    The value is shaped by two flags: ``scalar`` unwraps the single row of an
    aggregate-only subquery to its bare value (None when empty), and
    ``column`` (when set) projects each result row to that output column —
    the binder sets it for single-column subqueries in IN/scalar position so
    element comparisons see values, not row records.
    """

    def __init__(
        self,
        compiled,
        correlated: Sequence[str] = (),
        scalar: bool = False,
        column: Optional[str] = None,
    ) -> None:
        self.compiled = compiled
        self.correlated = tuple(correlated)
        self.scalar = scalar
        self.column = column
        self._store = None
        self._plan = None
        self._cache = None
        self._cache_valid = False

    def bind_store(self, store) -> None:
        """Point the inner query at ``store`` and reset the uncorrelated cache."""
        self._store = store
        self._cache = None
        self._cache_valid = False
        if self.correlated and self.compiled.query is not None:
            if self._plan is None:
                # Correlated plans skip pushdown: pushed predicates would be
                # evaluated at the scan, where outer bindings are not visible.
                self._plan = self.compiled.query.build_plan(pushdown=False)
            from .executor import prepare_plan

            prepare_plan(store, self._plan)

    def evaluate(self, row: Tuple_):
        if not self.correlated:
            if not self._cache_valid:
                self._cache = self._shape(
                    self.compiled.execute(self._store, executor="interpreted")
                )
                self._cache_valid = True
            return self._cache
        bindings = {name: row.get(name, MISSING) for name in self.correlated}
        return self._run_correlated(bindings)

    def _run_correlated(self, bindings):
        from .executor import run_breakers, run_interpreted_pipeline, source_rows

        if self._plan is None:
            raise QueryError("correlated subquery evaluated before bind_store()")
        plan = self._plan
        rows = ({**bindings, **row} for row in source_rows(self._store, plan))
        rows = run_interpreted_pipeline(rows, plan.pipeline)
        rows = list(run_breakers(rows, plan.breakers))
        if self.compiled.select_value:
            rows = [row[self.compiled.value_column] for row in rows]
        return self._shape(rows)

    def _shape(self, rows):
        if self.column is not None:
            rows = [
                missing_to_none(row.get(self.column, MISSING))
                if isinstance(row, dict)
                else row
                for row in rows
            ]
        if self.scalar:
            return rows[0] if rows else None
        return rows

    def referenced_variables(self) -> set:
        return set(self.correlated)

    def referenced_paths(self):
        return []

    def referenced_bare_variables(self) -> set:
        # Conservative: a correlated variable may be consumed whole by the
        # inner query, so outer projection pruning must keep the full record.
        return set(self.correlated)

    def __repr__(self) -> str:
        kind = "scalar " if self.scalar else ""
        tail = f", correlated={list(self.correlated)}" if self.correlated else ""
        return f"Subquery({kind}{self.compiled.text.strip()!r}{tail})"


def missing_to_none(value):
    return None if value is MISSING else value


def truthy(value) -> bool:
    """Predicate semantics: only ``True`` passes a filter (NULL/MISSING do not)."""
    return value is True
