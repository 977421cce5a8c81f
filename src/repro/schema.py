"""Schemas: ordered lists of named, typed attributes.

A :class:`Schema` is immutable.  Attribute names are unique within a schema
— the SQL analyzer guarantees this by qualifying and, where necessary,
suffixing names before it builds algebra trees, and the provenance rewriter
relies on it (rewrite rules address attributes by name, never by position).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .datatypes import SQLType
from .errors import SchemaError


class Attribute(NamedTuple):
    """A named, typed column — a plain value: a :class:`Schema` keeps
    names and types, not Attribute objects, and hands these out on
    request."""

    name: str
    type: SQLType = SQLType.ANY


class Schema:
    """An immutable, ordered collection of :class:`Attribute` values,
    held as two parallel tuples (a plan keeps hundreds of schemas alive;
    two tuples per schema, not an object per column, is what the garbage
    collector has to walk)."""

    __slots__ = ("names", "types", "index")

    def __init__(self, attributes: Iterable[Attribute]):
        columns = tuple(zip(*attributes)) or ((), ())
        self._fill(*columns)

    def _fill(self, names: Iterable[str], types: Iterable[SQLType]) -> None:
        #: Attribute names, and their types, in schema order.
        self.names = names = tuple(names)
        self.types = tuple(types)
        #: name -> position; shared read-only with every operator that
        #: evaluates expressions over this schema.
        self.index: dict[str, int] = dict(zip(names, range(len(names))))
        if len(self.index) != len(names):
            duplicate = next(name for position, name in enumerate(names)
                             if self.index[name] != position)
            raise SchemaError(
                f"duplicate attribute name {duplicate!r} in schema "
                f"{list(names)}")

    @classmethod
    def of_columns(cls, names: Iterable[str],
                   types: Iterable[SQLType]) -> "Schema":
        """Build a schema from parallel name and type sequences."""
        schema = cls.__new__(cls)
        schema._fill(names, types)
        return schema

    @classmethod
    def of(cls, *names: str) -> "Schema":
        """Build an untyped schema from attribute names (test helper)."""
        return cls.of_columns(names, (SQLType.ANY,) * len(names))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, SQLType]]) -> "Schema":
        """Build a schema from ``(name, type)`` pairs."""
        return cls(Attribute(name, type_) for name, type_ in pairs)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[Attribute]:
        return map(Attribute, self.names, self.types)

    def __getitem__(self, key: int | str) -> Attribute:
        if isinstance(key, str):
            key = self.position(key)
        return Attribute(self.names[key], self.types[key])

    def __contains__(self, name: object) -> bool:
        return name in self.index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.names == other.names and self.types == other.types

    def __hash__(self) -> int:
        return hash((self.names, self.types))

    def __repr__(self) -> str:
        return f"Schema({', '.join(self.names)})"

    # -- queries ------------------------------------------------------------

    def position(self, name: str) -> int:
        """Position of attribute *name*; raises :class:`SchemaError`."""
        try:
            return self.index[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {list(self.names)}"
            ) from None

    def positions(self, names: Iterable[str]) -> tuple[int, ...]:
        """Positions of several attributes, in the order given."""
        return tuple(self.position(name) for name in names)

    # -- construction of derived schemas ------------------------------------

    def concat(self, other: "Schema") -> "Schema":
        """The schema of a cross product / join: this ++ other."""
        return Schema.of_columns(self.names + other.names,
                                 self.types + other.types)

    def project(self, names: Iterable[str]) -> "Schema":
        """Sub-schema containing *names* in the given order."""
        return Schema(self[name] for name in names)

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Rename attributes per *mapping* (missing names are kept)."""
        return Schema.of_columns(
            [mapping.get(name, name) for name in self.names], self.types)


def disambiguate(name: str, taken: set[str]) -> str:
    """Return *name*, suffixed with ``_<k>`` if needed, absent from *taken*.

    The chosen name is added to *taken* as a side effect so repeated calls
    keep producing fresh names.
    """
    candidate = name
    counter = 1
    while candidate in taken:
        candidate = f"{name}_{counter}"
        counter += 1
    taken.add(candidate)
    return candidate
