"""CrossBase construction for the Gen strategy (Section 3.3).

``CrossBase(Tsub)`` is the cross product, over every base relation ``R``
accessed by the sublink query, of ``Π_{R→P(R)}(R ∪ null(R))`` — all
*candidate* provenance tuples, each base access padded with one all-NULL
row so an empty (or filtered-empty) sublink result can still be
represented.

The base accesses come from rewriting the sublink query first, so the
CrossBase columns carry exactly the provenance attribute names that
``Tsub+`` produces.
"""

from __future__ import annotations

from ..catalog import Catalog
from ..expressions.ast import TRUE
from ..algebra.operators import (
    BaseRelation, Join, JoinKind, Operator, Project, SetOp, SetOpKind,
    Values,
)
from ..schema import Attribute, Schema
from .naming import BaseAccess, NamingRegistry


def crossbase_piece(access: BaseAccess, catalog: Catalog,
                    registry: NamingRegistry) -> Operator:
    """``Π_{R→P(R)}(R ∪ null(R))`` for one base access."""
    stored = catalog.get(access.table)
    scan_names = [registry.fresh(f"cb_{access.table}_{attr.name}")
                  for attr in stored.schema]
    scan_schema = Schema(
        Attribute(name, attr.type)
        for name, attr in zip(scan_names, stored.schema))
    scan = BaseRelation(access.table, access.table, scan_schema)
    renamed = Project(
        scan, [(prov, registry.col(src))
               for prov, src in zip(access.prov_names, scan_names)])
    null_row = Values(renamed.schema, [tuple([None] * len(renamed.schema))])
    return SetOp(SetOpKind.UNION, renamed, null_row, all=True)


def build_crossbase(accesses: list[BaseAccess], catalog: Catalog,
                    registry: NamingRegistry) -> Operator | None:
    """The full CrossBase of a sublink: cross product of all pieces.

    Returns ``None`` when the sublink accesses no base relations (e.g. a
    sublink over a VALUES list) — such sublinks carry no provenance.
    """
    plan: Operator | None = None
    for access in accesses:
        piece = crossbase_piece(access, catalog, registry)
        plan = piece if plan is None else \
            Join(plan, piece, TRUE, JoinKind.CROSS)
    return plan
