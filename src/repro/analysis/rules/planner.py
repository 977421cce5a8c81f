"""Planner facts live on the node or in the statement's estimator.

``planner-no-global-memo`` — the planning modules memoize nothing at
module level: no ``functools.lru_cache`` / ``functools.cache``
decorator, no module-level ``Weak*Dictionary``, no module-level dict
keyed by ``id(...)``.  Plan nodes are immutable, so a derived fact is
kept on the node (it dies with the plan) or in the one
``CardinalityEstimator`` of the statement being planned.  Constant
tables (a type-family map, the strategy registry) are not memos.
"""

from __future__ import annotations

import ast

from ..project import ModuleInfo, dotted_path
from . import RuleContext, rule

_RULE = "planner-no-global-memo"
#: modules that plan: no module-level memo of facts about plan nodes
_PLANNER_MODULES = (
    "engine.optimizer", "engine.lowering", "engine.cost", "algebra",
    "algebra.*", "provenance", "provenance.*", "schema", "expressions.ast")
_MEMO_DECORATORS = frozenset({"lru_cache", "cache"})
_WEAK_TABLES = frozenset({"WeakKeyDictionary", "WeakValueDictionary"})


def _is_id_call(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and node.func.id == "id"


def _id_keyed(module: ModuleInfo) -> dict[str, int]:
    """Module-level containers the module indexes by ``id(...)``:
    ``TABLE[id(x)]`` or ``TABLE.get/setdefault/pop(id(x), ...)``."""
    found: dict[str, int] = {}
    for node in ast.walk(module.node):
        table, key = None, None
        if isinstance(node, ast.Subscript):
            table, key = node.value, node.slice
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and node.args:
            table, key = node.func.value, node.args[0]
        if isinstance(table, ast.Name) and _is_id_call(key) and \
                table.id in module.mutable_globals:
            found.setdefault(table.id, node.lineno)
    return found


@rule("planner")
def check_planner(ctx: RuleContext) -> None:
    modules = ctx.modules_matching(_PLANNER_MODULES)
    for info in ctx.project.functions.values():
        for decorator in info.decorators:
            if info.module in modules and \
                    decorator.rpartition(".")[2] in _MEMO_DECORATORS:
                ctx.emit(_RULE, info.module, info.lineno, info.qualname,
                         f"@{decorator} memoizes at module level; cache "
                         f"the fact on the plan node or in the "
                         f"statement's estimator")
    for module in modules:
        for name, value in module.constants.items():
            path = dotted_path(value.func) \
                if isinstance(value, ast.Call) else None
            if path is not None and \
                    path.rpartition(".")[2] in _WEAK_TABLES:
                ctx.emit(_RULE, module, value.lineno,
                         f"{module.name}.{name}",
                         f"module-level {path.rpartition('.')[2]} is a "
                         f"global memo; keep the fact on the plan node")
        for name, lineno in _id_keyed(module).items():
            ctx.emit(_RULE, module, lineno, f"{module.name}.{name}",
                     f"module-level dict {name!r} is keyed by id(); keep "
                     f"the fact on the plan node or in the statement's "
                     f"estimator")
