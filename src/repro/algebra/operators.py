"""Algebra operator nodes.

The operator set mirrors Figure 1 of the paper:

* bag/set projection (``Project`` with a ``distinct`` flag),
* selection,
* cross product / inner join / left outer join (``Join``),
* aggregation (grouping on *columns* — the analyzer normalizes grouping
  expressions into a projection below, exactly as the paper simulates
  GROUP BY sublinks),
* bag/set union, intersection, difference (``SetOp`` with an ``all`` flag),
* base relation access and literal relations (``Values``, used for the
  ``null(R)`` padding rows of the Gen strategy's CrossBase),
* ``Sort``/``Limit`` for SQL completeness.

The nesting operators (ANY/ALL/EXISTS/scalar) are *expressions* —
:class:`repro.expressions.ast.Sublink` — attached to selection conditions,
projection items and join conditions, as in the paper's algebra.

Operators compare by identity; trees are rebuilt, never mutated, by the
provenance rewriter.  Every operator exposes:

* ``schema``        — the (cached) output schema,
* ``children()``    — input operators,
* ``replace_children(new)`` — rebuild with new inputs,
* ``expressions()`` — the expressions attached to this node,
* ``replace_expressions(new)`` — rebuild with new expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

from ..errors import SchemaError
from ..expressions.ast import AggCall, Col, Expr, TRUE
from ..schema import Schema
from ..datatypes import SQLType


class Operator:
    """Base class of all algebra nodes."""

    __slots__ = ("_schema",)

    def __init__(self) -> None:
        self._schema: Schema | None = None

    @property
    def schema(self) -> Schema:
        """Output schema (computed once, cached)."""
        if self._schema is None:
            self._schema = self._infer_schema()
        return self._schema

    def _infer_schema(self) -> Schema:
        raise NotImplementedError

    def children(self) -> tuple["Operator", ...]:
        return ()

    def replace_children(self, new: Sequence["Operator"]) -> "Operator":
        assert not new
        return self

    def expressions(self) -> tuple[Expr, ...]:
        return ()

    def replace_expressions(self, new: Sequence[Expr]) -> "Operator":
        assert not new
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import summarize
        return summarize(self)


class BaseRelation(Operator):
    """A scan of a catalog table.

    ``table`` is the catalog name; ``schema`` carries the *output* attribute
    names chosen by the analyzer (unique within the query scope — usually
    ``alias.column``).  Positions match the stored relation's columns.
    """

    __slots__ = ("table", "alias")

    def __init__(self, table: str, alias: str, schema: Schema):
        super().__init__()
        self.table = table
        self.alias = alias
        self._schema = schema


class Values(Operator):
    """A literal relation (used for ``null(R)`` rows and for testing)."""

    __slots__ = ("rows",)

    def __init__(self, schema: Schema, rows: Sequence[tuple]):
        super().__init__()
        self._schema = schema
        self.rows = [tuple(row) for row in rows]
        for row in self.rows:
            if len(row) != len(schema):
                raise SchemaError(
                    f"Values row arity {len(row)} != schema {len(schema)}")


class Project(Operator):
    """Bag or set projection onto named expressions.

    ``items`` is a sequence of ``(name, expr)``; ``distinct=True`` is the
    duplicate-removing set version (SQL ``SELECT DISTINCT``), kept as
    the parallel tuples ``names`` and ``exprs`` that rebuilt copies and
    the lowered plan share.
    """

    __slots__ = ("input", "names", "exprs", "distinct")

    def __init__(self, input: Operator,
                 items: Sequence[tuple[str, Expr]],
                 distinct: bool = False):
        names, exprs = tuple(zip(*items)) or ((), ())
        self._fill(input, names, exprs, distinct)

    def _fill(self, input: Operator, names: tuple[str, ...],
              exprs: tuple[Expr, ...], distinct: bool) -> "Project":
        Operator.__init__(self)
        self.input = input
        self.names = names
        self.exprs = exprs
        self.distinct = distinct
        return self

    @property
    def items(self) -> tuple[tuple[str, Expr], ...]:
        return tuple(zip(self.names, self.exprs))

    def _infer_schema(self) -> Schema:
        # A column passed through keeps its type, and a projection that
        # passes every column through shares its input's schema.
        source = self.input.schema
        positions = source.index
        types = []
        for expr in self.exprs:
            position = positions.get(expr.name) \
                if isinstance(expr, Col) and expr.level == 0 else None
            types.append(SQLType.ANY if position is None
                         else source.types[position])
        if self.names == source.names and tuple(types) == source.types:
            return source
        return Schema.of_columns(self.names, types)

    def children(self):
        return (self.input,)

    def replace_children(self, new):
        node = Project.__new__(Project)._fill(
            new[0], self.names, self.exprs, self.distinct)
        if new[0].schema is self.input.schema:
            node._schema = self._schema     # same items over same columns
        return node

    def expressions(self):
        return self.exprs

    def replace_expressions(self, new):
        return Project.__new__(Project)._fill(
            self.input, self.names, tuple(new), self.distinct)


class Select(Operator):
    """Selection: keep input rows whose condition is definitely true."""

    __slots__ = ("input", "condition")

    def __init__(self, input: Operator, condition: Expr):
        super().__init__()
        self.input = input
        self.condition = condition

    def _infer_schema(self) -> Schema:
        return self.input.schema

    def children(self):
        return (self.input,)

    def replace_children(self, new):
        return Select(new[0], self.condition)

    def expressions(self):
        return (self.condition,)

    def replace_expressions(self, new):
        return Select(self.input, new[0])


class JoinKind(Enum):
    """Join flavors: cross product, inner join, left outer join."""

    CROSS = "cross"
    INNER = "inner"
    LEFT = "left"


class Join(Operator):
    """Binary join; output schema is left ++ right."""

    __slots__ = ("left", "right", "condition", "kind")

    def __init__(self, left: Operator, right: Operator,
                 condition: Expr = TRUE, kind: JoinKind = JoinKind.INNER):
        super().__init__()
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind

    def _infer_schema(self) -> Schema:
        return self.left.schema.concat(self.right.schema)

    def children(self):
        return (self.left, self.right)

    def replace_children(self, new):
        node = Join(new[0], new[1], self.condition, self.kind)
        if new[0].schema is self.left.schema \
                and new[1].schema is self.right.schema:
            node._schema = self._schema
        return node

    def expressions(self):
        return (self.condition,)

    def replace_expressions(self, new):
        return Join(self.left, self.right, new[0], self.kind)


class Aggregate(Operator):
    """Grouping + aggregation.

    ``group`` is a tuple of input *column names* (the analyzer projects
    grouping expressions into columns below this operator).  ``aggregates``
    is a tuple of ``(output_name, AggCall)``.  Output schema = group columns
    followed by aggregate results, one row per group; with no group columns
    exactly one output row (even for empty input — SQL semantics).
    """

    __slots__ = ("input", "group", "aggregates")

    def __init__(self, input: Operator, group: Sequence[str],
                 aggregates: Sequence[tuple[str, AggCall]]):
        super().__init__()
        self.input = input
        self.group = tuple(group)
        self.aggregates = tuple(aggregates)

    def _infer_schema(self) -> Schema:
        source = self.input.schema
        names = [name for name, _ in self.aggregates]
        return Schema.of_columns(
            (*self.group, *names),
            (*[source[name].type for name in self.group],
             *[SQLType.ANY] * len(names)))

    def children(self):
        return (self.input,)

    def replace_children(self, new):
        return Aggregate(new[0], self.group, self.aggregates)

    def expressions(self):
        return tuple(call for _, call in self.aggregates)

    def replace_expressions(self, new):
        aggregates = tuple(
            (name, call) for (name, _), call in zip(self.aggregates, new))
        return Aggregate(self.input, self.group, aggregates)


class SetOpKind(Enum):
    """Set operation flavors."""

    UNION = "union"
    INTERSECT = "intersect"
    EXCEPT = "except"


class SetOp(Operator):
    """Union/intersection/difference; ``all=True`` is the bag version."""

    __slots__ = ("kind", "left", "right", "all")

    def __init__(self, kind: SetOpKind, left: Operator, right: Operator,
                 all: bool = False):
        super().__init__()
        self.kind = kind
        self.left = left
        self.right = right
        self.all = all

    def _infer_schema(self) -> Schema:
        if len(self.left.schema) != len(self.right.schema):
            raise SchemaError(
                f"{self.kind.value} over different arities "
                f"{len(self.left.schema)} vs {len(self.right.schema)}")
        return self.left.schema

    def children(self):
        return (self.left, self.right)

    def replace_children(self, new):
        return SetOp(self.kind, new[0], new[1], self.all)


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY key."""

    expr: Expr
    ascending: bool = True


class Sort(Operator):
    """Deterministic ordering (NULLs sort first ascending, last descending)."""

    __slots__ = ("input", "keys")

    def __init__(self, input: Operator, keys: Sequence[SortKey]):
        super().__init__()
        self.input = input
        self.keys = tuple(keys)

    def _infer_schema(self) -> Schema:
        return self.input.schema

    def children(self):
        return (self.input,)

    def replace_children(self, new):
        return Sort(new[0], self.keys)

    def expressions(self):
        return tuple(key.expr for key in self.keys)

    def replace_expressions(self, new):
        keys = tuple(
            SortKey(expr, key.ascending)
            for key, expr in zip(self.keys, new))
        return Sort(self.input, keys)


class Limit(Operator):
    """LIMIT/OFFSET."""

    __slots__ = ("input", "count", "offset")

    def __init__(self, input: Operator, count: int | None,
                 offset: int = 0):
        super().__init__()
        self.input = input
        self.count = count
        self.offset = offset

    def _infer_schema(self) -> Schema:
        return self.input.schema

    def children(self):
        return (self.input,)

    def replace_children(self, new):
        return Limit(new[0], self.count, self.offset)
