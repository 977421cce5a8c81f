"""Provenance attribute naming — the paper's ``P(·)`` renaming scheme.

Every base relation access in a query gets a :class:`BaseAccess` record:
the accessed table, the access's output column names inside the query, and
the globally unique provenance attribute names chosen for it.  The paper
writes ``P(R)`` and uses a ``p`` prefix; we use ``prov_<table>_<column>``
with numeric suffixes to disambiguate repeated accesses of one table
(multiple references to one relation are handled as different relations —
footnote 1 of the paper).

The :class:`NamingRegistry` is shared across one whole rewrite so that the
Gen strategy's CrossBase can reuse exactly the names that rewriting the
sublink query produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Iterable

from ..algebra.operators import BaseRelation, Operator
from ..expressions.ast import Col
from ..algebra.trees import iter_operators
from ..schema import disambiguate


@dataclass(frozen=True)
class BaseAccess:
    """One access of a base table and its provenance attribute names.

    ``prov_names[i]`` is the provenance copy of the accessed relation's
    *i*-th column; ``source_names[i]`` is that column's name in the access's
    output schema (positionally aligned with the stored table).
    """

    table: str
    source_names: tuple[str, ...]
    prov_names: tuple[str, ...]


class NamingRegistry:
    """Allocates unique attribute names for one rewrite run."""

    def __init__(self, taken: set[str] | None = None):
        self._taken: set[str] = set(taken or ())
        self._cols: dict[str, Col] = {}

    @classmethod
    def seeded_from(cls, op: Operator) -> "NamingRegistry":
        """Registry pre-seeded with every attribute name visible anywhere in
        *op*'s tree (including sublink queries), so generated names never
        collide with user columns."""
        taken: set[str] = set()
        for node in iter_operators(op, into_sublinks=True):
            taken.update(node.schema.names)
        return cls(taken)

    def fresh(self, base: str) -> str:
        """A fresh helper attribute name derived from *base*."""
        return disambiguate(base, self._taken)

    def col(self, name: str) -> Col:
        """``Col(name)`` — one shared node per name for the whole rewrite,
        however many projections pass that column through."""
        return self._cols.get(name) or self._cols.setdefault(name, Col(name))

    def passthrough(self, names: Iterable[str]) -> list[tuple[str, Col]]:
        """Identity projection items ``(name, Col(name))`` for *names*."""
        return [(name, self.col(name)) for name in names]

    def register_access(self, relation: BaseRelation) -> BaseAccess:
        """Allocate provenance names for one base relation access."""
        prov_names = tuple(
            disambiguate(f"prov_{relation.table}_{_basename(name)}",
                         self._taken)
            for name in relation.schema.names)
        return BaseAccess(relation.table, relation.schema.names, prov_names)


def _basename(column: str) -> str:
    """Strip the analyzer's ``alias.`` qualification from a column name."""
    return column.rsplit(".", 1)[-1]


def prov_attribute_names(accesses: list[BaseAccess]) -> list[str]:
    """Flattened provenance schema ``P(R1), ..., P(Rn)`` of *accesses*."""
    names: list[str] = []
    for access in accesses:
        names.extend(access.prov_names)
    return names
