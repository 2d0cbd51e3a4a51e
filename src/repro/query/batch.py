"""The column batch exchanged between batch-executor operators.

A :class:`ColumnBatch` is a fixed-length slice of the scan (or of an
operator's output) stored column-wise:

* ``vars`` maps a bound variable name to one value per row — the scan
  variable's column holds whole documents on the row-backed path, and
  ASSIGN/UNNEST append their bindings here on every path;
* ``paths`` maps ``(variable, FieldPath)`` to one value per row — these are
  *direct* columns decoded straight from a columnar component's value streams
  (:func:`repro.query.batch_executor` fills them), with :data:`MISSING` where
  the record has no value at the path.

A batch from a columnar direct scan carries only path columns — no document
is ever assembled — so materializing row dicts from it is a contract
violation, guarded by :meth:`iter_rows`.  When that scan also performed the
plan's pushed UNNEST (:class:`~repro.query.pushdown.UnnestBinding`), the batch
is marked ``unnested``: its rows are array elements, the unnest variable is
bound by its own (path) columns, and the executors skip the UNNEST operator
for it — a row-backed batch of the same scan still runs it.  ``decided``
carries the per-row results of the whole expressions that scan answered from
an array's element runs (``is_array`` calls and ``SOME … SATISFIES``
quantifiers, :class:`~repro.query.pushdown.ElementRuns`), keyed by the
expression's ``id``; those expressions look themselves up there first.

Field access resolves through :meth:`path_values`: an exact path column wins,
then the longest prefix path column (descending the remainder with
``get_path``), then the variable's document column.  Each fallback reproduces
the scalar :meth:`~repro.query.expressions.Field.evaluate` semantics exactly.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..model.errors import QueryError
from ..model.path import FieldPath, get_path
from ..model.values import MISSING


class ColumnBatch:
    """A fixed-length, column-wise slice of rows."""

    __slots__ = ("length", "vars", "paths", "unnested", "decided")

    def __init__(
        self,
        length: int,
        vars: Optional[Dict[str, list]] = None,
        paths: Optional[Dict[Tuple[str, FieldPath], list]] = None,
        unnested: bool = False,
        decided: Optional[Dict[int, list]] = None,
    ) -> None:
        self.length = length
        self.unnested = unnested
        self.vars: Dict[str, list] = vars if vars is not None else {}
        self.paths: Dict[Tuple[str, FieldPath], list] = (
            paths if paths is not None else {}
        )
        self.decided: Dict[int, list] = decided if decided is not None else {}

    # -- construction -----------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: List[dict]) -> "ColumnBatch":
        """Pivot binding dicts into one column per bound variable."""
        names: List[str] = []
        for row in rows:
            for name in row:
                if name not in names:
                    names.append(name)
        return cls(
            len(rows),
            {name: [row.get(name, MISSING) for row in rows] for name in names},
        )

    # -- column access ----------------------------------------------------------------
    def var_values(self, name: str) -> list:
        """The column of variable ``name`` (MISSING everywhere when unbound)."""
        column = self.vars.get(name)
        if column is not None:
            return column
        return [MISSING] * self.length

    def path_values(self, variable: str, path: FieldPath) -> list:
        """Per-row values of ``variable``'s field ``path``.

        Resolution mirrors :meth:`~repro.query.expressions.Field.evaluate`:
        direct path columns answer exactly or by longest prefix (the direct
        scan's pruned path set covers every referenced path by construction);
        otherwise the variable's document column is walked with ``get_path``.
        """
        exact = self.paths.get((variable, path))
        if exact is not None:
            return exact
        best: Optional[Tuple[FieldPath, list]] = None
        for (column_variable, column_path), column in self.paths.items():
            if column_variable != variable:
                continue
            if path.startswith(column_path) and (
                best is None or len(column_path) > len(best[0])
            ):
                best = (column_path, column)
        if best is not None:
            rest = FieldPath(path.steps[len(best[0].steps):])
            return [
                MISSING if value is MISSING else get_path(value, rest)
                for value in best[1]
            ]
        column = self.vars.get(variable)
        if column is not None:
            return [
                MISSING
                if document is MISSING or document is None
                else get_path(document, path)
                for document in column
            ]
        return [MISSING] * self.length

    # -- row-producing views ------------------------------------------------------------
    def iter_rows(self) -> Iterator[dict]:
        """Materialize one fresh binding dict per row (row-backed batches only)."""
        if self.paths or self.decided:
            raise QueryError(
                "cannot materialize rows from a column-direct batch; "
                "the executor must keep direct plans vectorized end-to-end"
            )
        names = list(self.vars)
        columns = [self.vars[name] for name in names]
        for index in range(self.length):
            yield {name: column[index] for name, column in zip(names, columns)}

    # -- derivation ---------------------------------------------------------------------
    def with_var(self, name: str, column: list) -> "ColumnBatch":
        """A batch with one variable column added/replaced (columns shared)."""
        vars = dict(self.vars)
        vars[name] = column
        return ColumnBatch(self.length, vars, self.paths, self.unnested, self.decided)

    def take(
        self,
        indices: List[int],
        extra_vars: Optional[Dict[str, list]] = None,
    ) -> "ColumnBatch":
        """Gather the given row indices (duplicates allowed — UNNEST fan-out).

        ``extra_vars`` columns are already aligned with ``indices`` (built in
        the same selection loop) and are attached without gathering.
        """
        vars = {
            name: [column[index] for index in indices]
            for name, column in self.vars.items()
        }
        if extra_vars:
            vars.update(extra_vars)
        paths = {
            key: [column[index] for index in indices]
            for key, column in self.paths.items()
        }
        decided = {
            key: [column[index] for index in indices]
            for key, column in self.decided.items()
        }
        return ColumnBatch(len(indices), vars, paths, self.unnested, decided)
