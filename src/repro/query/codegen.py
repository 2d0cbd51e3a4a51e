"""Code generation for pipelining operators (§5).

AsterixDB uses the Truffle framework to translate the pipelining prefix of an
optimized plan (SCAN → ASSIGN → UNNEST → FILTER → PROJECT) into a specialized
AST that the JVM then JIT-compiles; pipeline breakers (GROUP BY, ORDER BY)
remain regular engine operators.  The reproduction does the analogous thing
for a Python engine: the pipelining prefix is translated to Python *source*
for a single fused generator function, compiled with :func:`compile`, and
executed; breakers run in :mod:`repro.query.executor` exactly as for the
interpreted executor.

What the fused function removes — and why it is faster than the interpreted
executor even for row-major formats, as in Figure 10 — is the per-operator
batch materialization and the per-tuple expression-tree walking: field
accesses, comparisons, and function calls become direct inline calls in one
loop body.

A small *specialization* mechanism mirrors Truffle's type feedback: generated
comparisons first assume the operand types observed at the first execution
(int/float/str fast paths) and fall back to the generic dynamic comparison
when the assumption fails (a "deoptimization", counted on the
:class:`GeneratedPipeline` object).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..model.errors import CodegenError
from ..model.path import FieldPath
from .batch import ColumnBatch
from .expressions import (
    CODEGEN_GLOBALS,
    And,
    Call,
    Compare,
    Expression,
    Field,
    Literal,
    Or,
    Var,
)
from .plan import AssignNode, FilterNode, JoinNode, QueryPlan, UnnestNode

_counter = itertools.count()


class GeneratedPipeline:
    """A compiled pipeline function plus its generated source (for inspection)."""

    def __init__(self, source: str, function) -> None:
        self.source = source
        self.function = function
        self.deoptimizations = 0

    def __call__(self, rows: Iterable[dict]) -> Iterator[dict]:
        return self.function(rows)


def generate_pipeline(plan: QueryPlan) -> GeneratedPipeline:
    """Translate the pipelining prefix of ``plan`` into one fused Python function."""
    scan_variable = plan.source.variable
    pushed = getattr(plan.source, "pushdown", None)
    pushed_predicates = list(pushed.predicates) if pushed is not None else []
    lines: List[str] = []
    name = f"_generated_pipeline_{next(_counter)}"
    lines.append(f"def {name}(_rows):")
    indent = "    "
    if pushed_predicates:
        # Documented in the generated source so EXPLAIN-style inspection shows
        # which comparisons the columnar scan already evaluated vectorized.
        lines.append(
            f"{indent}# source pre-filtered (columnar pushdown): "
            + "; ".join(repr(p) for p in pushed_predicates)
        )
    lines.append(f"{indent}for _row in _rows:")
    indent += "    "
    extra_globals: Dict[str, object] = {}
    # The source yields a fresh binding dict per record, so generated ASSIGN
    # operators can update it in place — no per-operator materialization.
    for index, op in enumerate(plan.pipeline):
        if isinstance(op, AssignNode):
            lines.append(f"{indent}_row[{op.variable!r}] = {op.expression.to_source()}")
        elif isinstance(op, UnnestNode):
            lines.append(f"{indent}_unnest_src = {op.expression.to_source()}")
            lines.append(
                f"{indent}if not isinstance(_unnest_src, (list, tuple)): continue"
            )
            lines.append(f"{indent}for _unnest_item in _unnest_src:")
            indent += "    "
            lines.append(f"{indent}_row = dict(_row)")
            lines.append(f"{indent}_row[{op.variable!r}] = _unnest_item")
        elif isinstance(op, FilterNode):
            lines.append(f"{indent}if {op.predicate.to_source()} is not True: continue")
        elif isinstance(op, JoinNode):
            if op.table is None:
                raise CodegenError("hash join compiled before prepare_plan()")
            # The prepared hash table is injected as a namespace constant; the
            # probe becomes one dict lookup plus a fan-out loop, like UNNEST.
            table_name = f"_join_tbl{index}"
            extra_globals[table_name] = op.table
            lines.append(
                f"{indent}_join_matches = {table_name}.get("
                f"_join_key({op.probe_key.to_source()}), ())"
            )
            lines.append(f"{indent}for _join_item in _join_matches:")
            indent += "    "
            lines.append(f"{indent}_row = dict(_row)")
            lines.append(f"{indent}_row[{op.variable!r}] = _join_item")
        else:
            raise CodegenError(
                f"cannot generate code for pipeline operator {type(op).__name__}"
            )
    lines.append(f"{indent}yield _row")
    source = "\n".join(lines)
    namespace = dict(CODEGEN_GLOBALS)
    namespace.update(extra_globals)
    try:
        code = compile(source, filename=f"<generated:{name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - this is the point of code generation
    except SyntaxError as exc:  # pragma: no cover - would be a codegen bug
        raise CodegenError(f"generated code failed to compile: {exc}\n{source}") from exc
    return GeneratedPipeline(source, namespace[name])


def run_generated_pipeline(rows: Iterable[dict], plan: QueryPlan) -> Iterator[dict]:
    """Generate, compile, and run the pipeline for ``plan`` over ``rows``."""
    if not plan.pipeline:
        # Nothing to fuse: the scan variable flows straight to the breakers.
        return iter(rows)
    generated = generate_pipeline(plan)
    return generated(rows)


# -- batch fusion (the codegen executor's end-to-end vectorized mode) --------------------


class _DirectContext:
    """Name bindings while generating a direct (assembly-free) batch pipeline."""

    def __init__(self, scan_variable: str) -> None:
        self.scan_variable = scan_variable
        #: ASSIGN/UNNEST variable name -> generated local (latest binding wins).
        self.locals: Dict[str, str] = {}
        #: Batch column -> its prologue local.  Keys are ``(variable, path)``
        #: for path columns and ``(variable, None)`` for a whole-variable
        #: column; the scan's own bindings (the scan variable's paths, a
        #: pushed UNNEST's variable) are read this way.
        self.columns: Dict[Tuple[str, Optional[FieldPath]], str] = {}

    def column_local(self, variable: str, path: Optional[FieldPath]) -> str:
        return self.columns.setdefault((variable, path), f"_c{len(self.columns)}")


def _direct_source(expression: Expression, ctx: _DirectContext) -> str:
    """Python source for one expression over column locals (direct batches).

    Scalars come straight out of the prologue-materialized column vectors
    (``_cN[_i]``) and ASSIGN/UNNEST locals; the helpers (`_compare`,
    ``_get_path``, ``_functions``) are the same ones the row code generator
    uses, so the scalar semantics are shared by construction.  A variable the
    pipeline never bound resolves through the batch, which answers MISSING
    for one the scan did not bind either — as ``Var.evaluate`` would.
    """
    if isinstance(expression, Literal):
        return repr(expression.value)
    if isinstance(expression, Var):
        local = ctx.locals.get(expression.name)
        if local is not None:
            return local
        if expression.name == ctx.scan_variable:
            raise CodegenError(
                "direct pipelines cannot materialize the scan variable"
            )
        return f"{ctx.column_local(expression.name, None)}[_i]"
    if isinstance(expression, Field):
        base = expression.base
        if isinstance(base, Var) and base.name not in ctx.locals:
            return f"{ctx.column_local(base.name, expression.path)}[_i]"
        return (
            f"_get_path({_direct_source(base, ctx)}, {str(expression.path)!r})"
        )
    if isinstance(expression, Compare):
        left = _direct_source(expression.left, ctx)
        right = _direct_source(expression.right, ctx)
        return f"_compare({expression.op!r}, {left}, {right})"
    if isinstance(expression, And):
        return (
            "("
            + " and ".join(
                f"({_direct_source(o, ctx)} is True)" for o in expression.operands
            )
            + ")"
        )
    if isinstance(expression, Or):
        return (
            "("
            + " or ".join(
                f"({_direct_source(o, ctx)} is True)" for o in expression.operands
            )
            + ")"
        )
    if isinstance(expression, Call):
        arguments = ", ".join(
            f"_missing_to_none({_direct_source(a, ctx)})"
            for a in expression.arguments
        )
        return f"_functions[{expression.function!r}]({arguments})"
    raise CodegenError(
        f"cannot generate direct code for {type(expression).__name__}"
    )


def generate_direct_pipeline(plan: QueryPlan) -> GeneratedPipeline:
    """Fuse the pipelining prefix into one function over a *direct* batch.

    The generated function materializes each referenced path vector once from
    the batch, runs one fused loop over the row indices (FILTER = ``continue``,
    UNNEST = inner loop), and gathers the surviving indices — plus any
    ASSIGN/UNNEST output columns — with :meth:`ColumnBatch.take`.  No row
    dict is ever built, which is what lets direct scans stay assembly-free
    end to end.
    """
    name = f"_direct_pipeline_{next(_counter)}"
    ctx = _DirectContext(plan.source.variable)
    temp = itertools.count()
    body: List[str] = []
    indent = "        "
    for op in plan.pipeline:
        if isinstance(op, FilterNode):
            body.append(
                f"{indent}if {_direct_source(op.predicate, ctx)} is not True:"
            )
            body.append(f"{indent}    continue")
        elif isinstance(op, AssignNode):
            # Generate the expression before (re)binding, as in-place ASSIGN
            # evaluates its right-hand side against the incoming row.
            source_text = _direct_source(op.expression, ctx)
            local = f"_v{next(temp)}"
            body.append(f"{indent}{local} = {source_text}")
            ctx.locals[op.variable] = local
        elif isinstance(op, UnnestNode):
            source_text = _direct_source(op.expression, ctx)
            items = f"_u{next(temp)}"
            local = f"_v{next(temp)}"
            body.append(f"{indent}{items} = {source_text}")
            body.append(f"{indent}if not isinstance({items}, (list, tuple)):")
            body.append(f"{indent}    continue")
            body.append(f"{indent}for {local} in {items}:")
            indent += "    "
            ctx.locals[op.variable] = local
        else:
            raise CodegenError(
                f"cannot generate code for pipeline operator {type(op).__name__}"
            )
    body.append(f"{indent}_selection.append(_i)")
    outputs = [
        (variable, local, f"_o{index}")
        for index, (variable, local) in enumerate(ctx.locals.items())
    ]
    for _, local, out in outputs:
        body.append(f"{indent}{out}.append({local})")
    lines = [f"def {name}(_batch):"]
    namespace = dict(CODEGEN_GLOBALS)
    for (variable, path), column_local in ctx.columns.items():
        if path is None:
            lines.append(f"    {column_local} = _batch.var_values({variable!r})")
        else:
            namespace[f"_path{column_local}"] = path
            lines.append(
                f"    {column_local} = _batch.path_values("
                f"{variable!r}, _path{column_local})"
            )
    lines.append("    _selection = []")
    for _, _, out in outputs:
        lines.append(f"    {out} = []")
    lines.append("    for _i in range(_batch.length):")
    lines.extend(body)
    if outputs:
        extra = (
            "{" + ", ".join(f"{variable!r}: {out}" for variable, _, out in outputs) + "}"
        )
        lines.append(f"    return _batch.take(_selection, extra_vars={extra})")
    else:
        lines.append("    return _batch.take(_selection)")
    source = "\n".join(lines)
    try:
        code = compile(source, filename=f"<generated:{name}>", mode="exec")
        exec(code, namespace)  # noqa: S102 - this is the point of code generation
    except SyntaxError as exc:  # pragma: no cover - would be a codegen bug
        raise CodegenError(f"generated code failed to compile: {exc}\n{source}") from exc
    return GeneratedPipeline(source, namespace[name])


def run_generated_batches(
    batches: Iterable[ColumnBatch], plan: QueryPlan
) -> Iterator[ColumnBatch]:
    """Run the fused pipeline batch-at-a-time (the ``codegen`` executor core).

    Direct (path-column) batches go through :func:`generate_direct_pipeline`
    — minus the UNNEST the scan already performed, when they arrive
    ``unnested`` — and row-backed batches reuse the row code generator per
    batch.  Both pipeline flavours are compiled lazily, at most once each per
    plan execution (a scan's direct batches are all unnested or none is).
    """
    if not plan.pipeline:
        for batch in batches:
            if batch.length:
                yield batch
        return
    row_pipeline: Optional[GeneratedPipeline] = None
    direct_function = None
    for batch in batches:
        if not batch.length:
            continue
        if batch.paths or batch.unnested:
            if direct_function is None:
                ops = [
                    op
                    for op in plan.pipeline
                    if not (batch.unnested and isinstance(op, UnnestNode))
                ]
                direct_function = (
                    generate_direct_pipeline(replace(plan, pipeline=ops)).function
                    if ops
                    else (lambda unchanged: unchanged)
                )
            out = direct_function(batch)
        else:
            if row_pipeline is None:
                row_pipeline = generate_pipeline(plan)
            rows = list(row_pipeline(batch.iter_rows()))
            out = ColumnBatch.from_rows(rows) if rows else None
        if out is not None and out.length:
            yield out


# unused scan_variable kept for clarity of the generated source header
def _describe(plan: QueryPlan) -> str:  # pragma: no cover - debugging helper
    return generate_pipeline(plan).source
