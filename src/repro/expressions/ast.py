"""Expression AST.

Expressions are small immutable-by-convention trees.  Two design points
matter for the provenance rewrites:

* **Attributes are referenced by name**, never by position.  The SQL
  analyzer guarantees unique attribute names per scope, so rewrite rules can
  splice projections in and out without re-indexing anything.

* **Correlation uses de-Bruijn-style levels.**  ``Col(name, level=0)`` reads
  the current operator's input row; ``Col(name, level=k)`` reads the row of
  the query *k* sublink boundaries further out.  The Gen strategy relocates
  expressions across sublink boundaries and adjusts levels with
  :func:`repro.algebra.trees.shift_correlation`.

The :class:`Sublink` node is the algebraic counterpart of the paper's
nesting operators (Figure 1): ``ANY``, ``ALL``, ``EXISTS`` and the bare
``Tsub`` scalar sublink.  Its ``query`` attribute holds an *algebra*
operator tree (see :mod:`repro.algebra.operators`); the import cycle is
avoided by storing it untyped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Sequence


class Expr:
    """Base class of all expression nodes."""

    __slots__ = ()

    #: Whether a :class:`Sublink` sits in this expression (not inside a
    #: sublink's query): walkers after sublinks skip every other subtree.
    has_sublink = False

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (excluding sublink query trees)."""
        return ()

    def replace_children(self, new: Sequence["Expr"]) -> "Expr":
        """Rebuild this node with *new* children (same arity/order)."""
        assert not new
        return self

    # -- convenience builders used heavily by the rewrite rules ------------

    def eq(self, other: "Expr") -> "Comparison":
        """``self = other``"""
        return Comparison("=", self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import format_expr
        return format_expr(self)


class _Composite(Expr):
    """A node with children: ``has_sublink`` is set from theirs."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for child in self.children():
            if child.has_sublink:
                object.__setattr__(self, "has_sublink", True)
                return


@dataclass(eq=True, frozen=True, repr=False)
class Const(Expr):
    """A literal value (NULL is ``Const(None)``)."""

    value: Any


TRUE = Const(True)
FALSE = Const(False)
NULL_CONST = Const(None)


@dataclass(eq=True, frozen=True, repr=False)
class Col(Expr):
    """A named attribute reference, ``level`` sublink boundaries out."""

    name: str
    level: int = 0


@dataclass(eq=True, frozen=True, repr=False)
class Param(Expr):
    """A ``?`` parameter placeholder, bound at execution time.

    ``index`` is the zero-based position of the placeholder in the SQL
    text; :class:`~repro.expressions.evaluator.EvalContext` carries the
    bound values.  Placeholders survive analysis and rewriting unchanged,
    which is what lets a prepared plan be re-executed with new bindings
    without re-planning.
    """

    index: int


@dataclass(eq=True, frozen=True, repr=False)
class Comparison(_Composite):
    """``left op right`` with op in ``= <> < <= > >=`` (3VL result)."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def replace_children(self, new):
        return Comparison(self.op, new[0], new[1])


@dataclass(eq=True, frozen=True, repr=False)
class NullSafeEq(_Composite):
    """The paper's ``=n``: NULL equals NULL, always two-valued."""

    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def replace_children(self, new):
        return NullSafeEq(new[0], new[1])


@dataclass(eq=True, frozen=True, repr=False)
class BoolOp(_Composite):
    """N-ary Kleene conjunction/disjunction; ``op`` is ``and``/``or``."""

    op: str
    items: tuple[Expr, ...]

    def children(self):
        return self.items

    def replace_children(self, new):
        return BoolOp(self.op, tuple(new))


def and_all(items: Iterable[Expr]) -> Expr:
    """Conjunction of *items*, flattening and dropping literal TRUEs."""
    flat: list[Expr] = []
    for item in items:
        if isinstance(item, BoolOp) and item.op == "and":
            flat.extend(item.items)
        elif item == TRUE:
            continue
        else:
            flat.append(item)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return BoolOp("and", tuple(flat))


def conjuncts_of(expr: Expr) -> tuple[Expr, ...]:
    """The AND-conjuncts of *expr* (just *expr* when it is not an AND).

    The shared inverse of :func:`and_all`, used wherever a pass takes a
    condition apart conjunct by conjunct (optimizer pushdown, physical
    lowering, the Unn strategy's applicability test).
    """
    if isinstance(expr, BoolOp) and expr.op == "and":
        return expr.items
    return (expr,)


def or_all(items: Iterable[Expr]) -> Expr:
    """Disjunction of *items*, flattening and dropping literal FALSEs."""
    flat: list[Expr] = []
    for item in items:
        if isinstance(item, BoolOp) and item.op == "or":
            flat.extend(item.items)
        elif item == FALSE:
            continue
        else:
            flat.append(item)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return BoolOp("or", tuple(flat))


@dataclass(eq=True, frozen=True, repr=False)
class Not(_Composite):
    """Kleene negation."""

    operand: Expr

    def children(self):
        return (self.operand,)

    def replace_children(self, new):
        return Not(new[0])


@dataclass(eq=True, frozen=True, repr=False)
class IsNull(_Composite):
    """``operand IS NULL`` (two-valued)."""

    operand: Expr

    def children(self):
        return (self.operand,)

    def replace_children(self, new):
        return IsNull(new[0])


@dataclass(eq=True, frozen=True, repr=False)
class Arith(_Composite):
    """Binary arithmetic / concatenation: ``+ - * / % ||``."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def replace_children(self, new):
        return Arith(self.op, new[0], new[1])


@dataclass(eq=True, frozen=True, repr=False)
class Neg(_Composite):
    """Unary minus."""

    operand: Expr

    def children(self):
        return (self.operand,)

    def replace_children(self, new):
        return Neg(new[0])


@dataclass(eq=True, frozen=True, repr=False)
class FuncCall(_Composite):
    """A scalar function call, dispatched through the function registry."""

    name: str
    args: tuple[Expr, ...]

    def children(self):
        return self.args

    def replace_children(self, new):
        return FuncCall(self.name, tuple(new))


@dataclass(eq=True, frozen=True, repr=False)
class Like(_Composite):
    """SQL ``LIKE`` with ``%``/``_`` wildcards (pattern is an expression)."""

    operand: Expr
    pattern: Expr

    def children(self):
        return (self.operand, self.pattern)

    def replace_children(self, new):
        return Like(new[0], new[1])


@dataclass(eq=True, frozen=True, repr=False)
class Cast(_Composite):
    """``CAST(operand AS type_name)`` — best-effort dynamic cast."""

    operand: Expr
    type_name: str

    def children(self):
        return (self.operand,)

    def replace_children(self, new):
        return Cast(new[0], self.type_name)


@dataclass(eq=True, frozen=True, repr=False)
class Case(_Composite):
    """``CASE WHEN c1 THEN v1 ... [ELSE e] END`` (searched form)."""

    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr = NULL_CONST

    def children(self):
        flat: list[Expr] = []
        for cond, value in self.whens:
            flat.append(cond)
            flat.append(value)
        flat.append(self.default)
        return tuple(flat)

    def replace_children(self, new):
        pairs = tuple(
            (new[i], new[i + 1]) for i in range(0, len(new) - 1, 2))
        return Case(pairs, new[-1])


@dataclass(eq=True, frozen=True, repr=False)
class AggCall(_Composite):
    """An aggregate function call.

    Only valid in the aggregate list of an ``Aggregate`` operator (the
    analyzer normalizes queries so this holds).  ``arg`` is ``None`` for
    ``count(*)``.
    """

    name: str
    arg: Expr | None = None
    distinct: bool = False

    def children(self):
        return (self.arg,) if self.arg is not None else ()

    def replace_children(self, new):
        arg = new[0] if new else None
        return AggCall(self.name, arg, self.distinct)


class SublinkKind(Enum):
    """The four nesting operators of the paper's Figure 1."""

    ANY = "any"
    ALL = "all"
    EXISTS = "exists"
    SCALAR = "scalar"   # bare Tsub — at most one row, exactly one column


@dataclass(eq=False, repr=False)
class Sublink(Expr):
    """A nested subquery used as an expression (``Csub`` in the paper).

    ``test`` and ``op`` are only meaningful for ANY/ALL sublinks, where the
    construct denotes ``test op ANY/ALL (query)``.  ``query`` is an algebra
    operator tree; it may contain correlated references (``Col`` with
    ``level >= 1``) to enclosing scopes.

    Equality is identity-based because algebra trees compare by identity.
    """

    kind: SublinkKind
    query: Any                      # algebra operator tree
    op: str | None = None           # comparison operator for ANY/ALL
    test: Expr | None = None        # left-hand expression for ANY/ALL
    _outer_refs: frozenset | None = field(default=None, init=False)

    has_sublink = True

    @property
    def outer_refs(self) -> frozenset[tuple[str, int]]:
        """``(name, level)`` of every column ``query`` reads outside
        itself, levels counted from this sublink's own scope (one walk of
        the query, the first time it is asked)."""
        if self._outer_refs is None:
            from ..algebra.properties import outer_references
            self._outer_refs = outer_references(self.query)
        return self._outer_refs

    @property
    def correlated(self) -> bool:
        """Whether ``query`` references an enclosing scope."""
        return bool(self.outer_refs)

    def children(self):
        return (self.test,) if self.test is not None else ()

    def replace_children(self, new):
        test = new[0] if new else None
        return Sublink(self.kind, self.query, self.op, test)

    def with_query(self, query: Any, equivalent: bool = False) -> "Sublink":
        """This sublink over *query* — itself when *query* is its own.
        *equivalent* promises a copy or an optimized form of the query,
        whose outer references are therefore known already."""
        if query is self.query:
            return self
        new = Sublink(self.kind, query, self.op, self.test)
        if equivalent:
            new._outer_refs = self._outer_refs
        return new


# ---------------------------------------------------------------------------
# Tree walking helpers
# ---------------------------------------------------------------------------

def walk(expr: Expr):
    """Yield *expr* and all nodes below it (pre-order); sublink query
    trees are not entered."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def collect_sublinks(expr: Expr) -> list[Sublink]:
    """Top-level sublinks of *expr* (not those nested inside other sublink
    queries — the rewriter reaches those recursively)."""
    if not expr.has_sublink:
        return []
    return [node for node in walk(expr) if isinstance(node, Sublink)]


def collect_columns(expr: Expr, level: int = 0) -> list[Col]:
    """All level-*level* column references in *expr* (not inside sublinks)."""
    return [node for node in walk(expr)
            if isinstance(node, Col) and node.level == level]


def has_aggregate(expr: Expr) -> bool:
    """True iff *expr* contains an :class:`AggCall` outside sublinks."""
    return any(isinstance(node, AggCall) for node in walk(expr))
