"""The first-class query result: streaming, DB-API-described,
provenance-aware.

A :class:`Result` is what :meth:`repro.api.Connection.execute`,
:meth:`Cursor.execute <repro.api.Cursor>` and prepared statements return
for SELECTs.  It **is a** :class:`~repro.relation.Relation` — every
existing call site (``result.rows``, ``result.pretty()``,
``sorted(result.rows)``, bag comparisons) keeps working — but its rows
arrive lazily: the pipelined engine hands over a generator of row
batches, and the result pulls them on demand::

    result = conn.execute("SELECT * FROM big")
    for row in result:          # batches stream from the engine
        if interesting(row):
            break
    result.close()              # abandon the rest without draining

Consumed rows are buffered, so a fully iterated (or ``.rows``-touched)
result behaves exactly like a materialized relation afterwards.  The
first batch is pulled eagerly at construction: execution errors surface
at ``execute()`` time and the first rows are available immediately,
while everything past the first batch stays lazy.

Provenance accessors implement the paper's reading of a provenance
result (Definition 2): the schema is the original query's attributes
followed by ``P(R_1) … P(R_n)`` — one group of provenance columns per
base-relation access — and each output tuple is duplicated once per
combination of contributing input tuples.  :meth:`witnesses` re-groups
that flat encoding: one :class:`Witness` per *distinct* regular tuple,
carrying every combination of contributing input rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import InterfaceError
from ..provenance.naming import BaseAccess
from ..relation import Relation
from ..schema import Schema

#: DB-API description entry: (name, type_code, display_size,
#: internal_size, precision, scale, null_ok).
Description = tuple[tuple[Any, ...], ...]


@dataclass(frozen=True)
class Contribution:
    """One base access's part in a witness combination: the accessed
    table and the contributing input row (None when the access did not
    contribute — its provenance columns were all NULL)."""

    table: str
    row: tuple | None


@dataclass(frozen=True)
class Witness:
    """One distinct output tuple with its contributing input tuples.

    ``inputs`` holds one entry per duplicate copy of the output tuple in
    the provenance result — i.e. one entry per witness combination —
    each a tuple of :class:`Contribution` records in base-access order.
    """

    tuple: tuple
    inputs: tuple

    def __len__(self) -> int:
        return len(self.inputs)


class Result(Relation):
    """A (possibly still streaming) query result; see the module
    docstring."""

    # __weakref__ lets sessions track live streaming results without
    # keeping abandoned ones alive (Connection.close sweeps the set)
    __slots__ = ("_batches", "_exhausted", "_accesses", "_strategy",
                 "__weakref__")

    def __init__(self, schema: Schema, batches: Iterator[list],
                 strategy: str | None = None,
                 accesses: list[BaseAccess] | None = None) -> None:
        self.schema = schema
        Relation.rows.__set__(self, [])
        self._batches: Iterator[list] | None = batches
        self._exhausted = False
        self._accesses = accesses
        self._strategy = strategy
        self._pull()    # errors surface here; first rows are ready

    # -- streaming ------------------------------------------------------------

    def _buffer(self) -> list:
        return Relation.rows.__get__(self)

    def _pull(self) -> bool:
        """Pull one batch into the buffer; False when exhausted."""
        if self._exhausted:
            return False
        try:
            batch = next(self._batches)
        except StopIteration:
            self._finish()
            return False
        except BaseException:
            self._finish()
            raise
        if isinstance(batch, list):
            self._buffer().extend(batch)
        else:
            # the vectorized engine streams ColumnBatch objects;
            # transposition to row tuples happens here, at the sink
            self._buffer().extend(batch.to_rows())
        return True

    def _ensure(self, count: int) -> None:
        """Buffer at least *count* rows (or exhaust the stream)."""
        while len(self._buffer()) < count and self._pull():
            pass

    def _finish(self) -> None:
        self._exhausted = True
        self._batches = None

    @property
    def rows(self) -> list:
        """All result rows (draining the stream on first access)."""
        while self._pull():
            pass
        return self._buffer()

    @property
    def streaming(self) -> bool:
        """True while batches may still be pending from the engine."""
        return not self._exhausted

    def close(self) -> None:
        """Stop streaming; rows not yet pulled are abandoned (the
        engine's operator tree is closed and released).  Idempotent."""
        batches, self._batches = self._batches, None
        self._exhausted = True
        if batches is not None:
            batches.close()

    def __enter__(self) -> "Result":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __iter__(self) -> Iterator[tuple]:
        position = 0
        while True:
            buffered = self._buffer()
            if position < len(buffered):
                yield buffered[position]
                position += 1
            elif not self._pull():
                return

    def fetch(self, count: int, start: int = 0) -> list[tuple]:
        """Rows ``start : start+count`` of the result, pulling batches as
        needed (the cursor's fetchone/fetchmany backend)."""
        self._ensure(start + count)
        return self._buffer()[start:start + count]

    # -- DB-API flavored metadata ---------------------------------------------

    @property
    def description(self) -> Description:
        """DB-API column metadata (name and type are meaningful)."""
        return tuple(
            (attr.name, attr.type, None, None, None, None, None)
            for attr in self.schema)

    @property
    def rowcount(self) -> int:
        """Number of result rows.  Drains a still-streaming result."""
        return len(self.rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        """The rows as ``{column: value}`` dicts (drains the stream)."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    # -- provenance accessors -------------------------------------------------

    @property
    def is_provenance(self) -> bool:
        """True when this result came from a ``SELECT PROVENANCE``."""
        return bool(self._accesses) or bool(self.provenance_columns)

    @property
    def strategy(self) -> str | None:
        """The rewrite strategy that produced this result (None for a
        plain query)."""
        return self._strategy

    @property
    def provenance_columns(self) -> tuple[str, ...]:
        """The provenance attribute names ``P(R_1) … P(R_n)`` appended by
        the rewrite (exact when the rewrite's base-access bookkeeping is
        attached; name-prefix heuristic otherwise)."""
        if self._accesses:
            return tuple(name for access in self._accesses
                         for name in access.prov_names)
        return tuple(name for name in self.schema.names
                     if name.startswith("prov_"))

    @property
    def regular_columns(self) -> tuple[str, ...]:
        """The original query's output attributes (non-provenance)."""
        exclude = set(self.provenance_columns)
        return tuple(name for name in self.schema.names
                     if name not in exclude)

    def _access_positions(self) -> list[tuple[str, list[int]]]:
        """Per base access: (table, positions of its provenance columns)."""
        positions = {name: i for i, name in enumerate(self.schema.names)}
        if self._accesses:
            return [(access.table,
                     [positions[name] for name in access.prov_names])
                    for access in self._accesses]
        # heuristic fallback: one pseudo-access holding every prov_ column
        prov = [positions[name] for name in self.provenance_columns]
        return [("?", prov)] if prov else []

    def witnesses(self, index: int | None = None
                  ) -> "list[Witness] | Witness":
        """Group the flat provenance encoding by output tuple.

        ``witnesses()`` returns every :class:`Witness` in first-appearance
        order of the distinct regular tuples; ``witnesses(i)`` returns the
        *i*-th one.  Raises :class:`~repro.errors.InterfaceError` when the
        result carries no provenance columns.
        """
        accesses = self._access_positions()
        if not accesses:
            raise InterfaceError(
                "result has no provenance columns; run a "
                "SELECT PROVENANCE query")
        prov_positions = {p for _, group in accesses for p in group}
        regular = [i for i in range(len(self.schema))
                   if i not in prov_positions]
        grouped: dict[tuple, list] = {}
        for row in self.rows:
            key = tuple(row[i] for i in regular)
            combo = tuple(
                Contribution(
                    table,
                    None if all(row[p] is None for p in group)
                    else tuple(row[p] for p in group))
                for table, group in accesses)
            grouped.setdefault(key, []).append(combo)
        witnesses = [Witness(key, tuple(combos))
                     for key, combos in grouped.items()]
        if index is None:
            return witnesses
        try:
            return witnesses[index]
        except IndexError:
            raise InterfaceError(
                f"witness index {index} out of range "
                f"({len(witnesses)} distinct output tuple(s))") from None

    def __repr__(self) -> str:
        state = "streaming" if self.streaming else "complete"
        return (f"Result({list(self.schema.names)}, "
                f"{len(self._buffer())} row(s) buffered, {state})")
