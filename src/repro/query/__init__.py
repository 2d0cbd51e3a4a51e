"""Analytical query engine: expressions, plans, the interpreted and batch executors."""

from ..model.errors import UnknownFunctionError
from .executor import execute_plan
from .expressions import (
    And,
    Call,
    Compare,
    Field,
    Literal,
    Or,
    SomeSatisfies,
    Var,
    lift,
    register_function,
)
from .optimizer import CostModel, OptimizerReport, optimize_plan
from .plan import Query, QueryPlan
from .pushdown import ColumnPredicate, PushdownSpec, attach_pushdown
from .stats import DatasetStatistics, collect_dataset_statistics

__all__ = [
    "And",
    "Call",
    "ColumnPredicate",
    "Compare",
    "CostModel",
    "DatasetStatistics",
    "Field",
    "Literal",
    "OptimizerReport",
    "Or",
    "PushdownSpec",
    "Query",
    "QueryPlan",
    "SomeSatisfies",
    "UnknownFunctionError",
    "Var",
    "attach_pushdown",
    "collect_dataset_statistics",
    "execute_plan",
    "lift",
    "optimize_plan",
    "register_function",
]
