"""SQL++ query-language frontend: lexer → parser → binder → lowering.

The paper's whole workload is written in SQL++; this package lets every one
of those queries be stated in its original declarative form and still flow
through the engine's existing machinery (pushdown, the cost-based optimizer,
both executors), because lowering targets the same
:class:`~repro.query.plan.Query` builder a user would call by hand.

Entry points:

* :func:`compile_query` — text → :class:`CompiledQuery` (parse + bind + lower);
* :func:`parse` — text → typed AST with source positions (for tooling);
* ``Datastore.query("SELECT ...")`` / ``Datastore.explain(...)`` — the
  store-level surface built on top of this package;
* ``python -m repro.shell`` — the interactive shell.

Example:
    >>> from repro.sqlpp import compile_query
    >>> compiled = compile_query('''
    ...     SELECT t AS t, COUNT(*) AS cnt
    ...     FROM gamers AS g
    ...     UNNEST g.games AS t
    ...     GROUP BY t
    ...     ORDER BY cnt DESC
    ...     LIMIT 10;
    ... ''')
    >>> print(compiled.query.explain())
    SCAN gamers AS $g (fields=['games'])
      PUSHDOWN paths=[games]; unnest=$t<-games; elements=[games[*]]
    UNNEST $t <- Field(Var('g'), 'games')
    GROUPBY keys=[t=Var('t')] aggregates=[cnt=count(*)]
    ORDERBY cnt DESC
    LIMIT 10
    EXECUTOR batch (column batches of 1024)
"""

from ..model.errors import SqlppError, UnknownFunctionError
from .ast import (
    BeginStatement,
    CommitStatement,
    DeleteStatement,
    InsertStatement,
    RollbackStatement,
    SelectStatement,
    Statement,
)
from .binder import Scope, bind_expression, constant_value
from .lexer import Token, tokenize
from .lower import CompiledQuery, compile_query, compile_statement
from .parser import parse, parse_any

__all__ = [
    "BeginStatement",
    "CommitStatement",
    "CompiledQuery",
    "DeleteStatement",
    "InsertStatement",
    "RollbackStatement",
    "Scope",
    "SelectStatement",
    "SqlppError",
    "Statement",
    "Token",
    "UnknownFunctionError",
    "bind_expression",
    "compile_query",
    "compile_statement",
    "constant_value",
    "parse",
    "parse_any",
    "tokenize",
]
