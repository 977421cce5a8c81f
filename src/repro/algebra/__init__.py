"""Relational algebra operator trees (Figure 1 of the paper, plus
Sort/Limit needed for SQL completeness)."""

from .operators import (
    Aggregate,
    BaseRelation,
    Join,
    JoinKind,
    Limit,
    Operator,
    Project,
    Select,
    SetOp,
    SetOpKind,
    Sort,
    SortKey,
    Values,
)
from .printer import explain, summarize
from .properties import (
    collect_base_relations,
    is_correlated,
)
from .trees import (
    clone,
    iter_operators,
    shift_correlation,
    shift_correlation_expr,
    transform_expressions,
)

__all__ = [
    "Aggregate", "BaseRelation", "Join", "JoinKind", "Limit", "Operator",
    "Project", "Select", "SetOp", "SetOpKind", "Sort", "SortKey", "Values",
    "explain", "summarize",
    "collect_base_relations", "is_correlated",
    "clone", "iter_operators", "shift_correlation",
    "shift_correlation_expr", "transform_expressions",
]
