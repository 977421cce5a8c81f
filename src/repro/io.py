"""CSV import/export for a :class:`~repro.api.Connection`.

Values are parsed according to the table's declared column types
(``SQLType``); empty fields become NULL.  Provenance results export like
any other relation, so a traced result set can be handed to downstream
tooling.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Iterable, TextIO

from .api import Connection
from .datatypes import SQLType
from .errors import ReproError
from .relation import Relation


def _parse_value(text: str, type_: SQLType) -> Any:
    if text == "":
        return None
    if type_ == SQLType.INTEGER:
        return int(text)
    if type_ == SQLType.FLOAT:
        return float(text)
    if type_ == SQLType.BOOLEAN:
        return text.strip().lower() in ("t", "true", "1", "yes")
    return text


def _infer_type(values: list[str]) -> SQLType:
    non_empty = [v for v in values if v != ""]
    if not non_empty:
        return SQLType.TEXT
    try:
        for value in non_empty:
            int(value)
        return SQLType.INTEGER
    except ValueError:
        pass
    try:
        for value in non_empty:
            float(value)
        return SQLType.FLOAT
    except ValueError:
        pass
    return SQLType.TEXT


def load_csv(conn: Connection, table: str, source: str | Path | TextIO,
             create: bool = True, header: bool = True) -> int:
    """Load CSV data into *table*; returns the number of rows inserted.

    With ``create=True`` and the table absent, column types are inferred
    from the data (int -> float -> text) and the table is created from the
    header row (required in that case).
    """
    close_after = False
    if isinstance(source, (str, Path)):
        handle: TextIO = open(source, newline="")
        close_after = True
    else:
        handle = source
    try:
        reader = csv.reader(handle)
        rows = list(reader)
    finally:
        if close_after:
            handle.close()
    if not rows:
        return 0
    if header:
        names = [name.strip() for name in rows[0]]
        data = rows[1:]
    else:
        names = [f"col{i + 1}" for i in range(len(rows[0]))]
        data = rows
    if table.lower() not in conn.catalog:
        if not create:
            raise ReproError(f"table {table!r} does not exist")
        types = [
            _infer_type([row[i] for row in data if i < len(row)])
            for i in range(len(names))]
        conn.create_table(table, list(zip(names, (t.value for t in types))))
    stored = conn.catalog.get(table)
    if len(stored.schema) != len(names):
        raise ReproError(
            f"CSV has {len(names)} columns but table {table!r} has "
            f"{len(stored.schema)}")
    types = [attr.type for attr in stored.schema]
    parsed = [
        tuple(_parse_value(value, type_)
              for value, type_ in zip(row, types))
        for row in data]
    return conn.insert(table, parsed)


def dump_csv(relation: Relation, target: str | Path | TextIO | None = None,
             header: bool = True) -> str:
    """Write *relation* as CSV; returns the CSV text.

    NULLs become empty fields.  If *target* is None the text is only
    returned, not written anywhere.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if header:
        writer.writerow(relation.schema.names)
    for row in relation.rows:
        writer.writerow(["" if value is None else value for value in row])
    text = buffer.getvalue()
    if target is None:
        return text
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="") as handle:
            handle.write(text)
    else:
        target.write(text)
    return text
