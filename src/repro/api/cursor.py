"""DB-API-2.0-flavored cursors.

A :class:`Cursor` is the statement-execution surface of a
:class:`~repro.api.Connection`::

    with connect() as conn:
        cur = conn.cursor()
        cur.execute("CREATE TABLE r (a int, b int)")
        cur.execute("INSERT INTO r VALUES (?, ?)", (1, 1))
        cur.execute("SELECT PROVENANCE * FROM r WHERE a = ?", (1,))
        print(cur.description)
        for row in cur:
            print(row)

SELECT plans go through the engine's plan cache, so re-executing the
same SQL text (even from a different cursor or session) skips planning
entirely.  Results stream: ``fetchone``/``fetchmany`` and iteration pull
row batches from the engine on demand — the pending
:class:`~repro.api.result.Result` is exposed as :attr:`Cursor.result`
(and, materialized, as the legacy :attr:`Cursor.relation`).

``executemany`` parses (and, for SELECTs, plans) the statement **once**
and reuses it for every parameter tuple; write statements additionally
run inside one transaction, so the whole batch is a single copy-on-write
privatization and a single commit — and all-or-nothing on error.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence, TYPE_CHECKING

from ..errors import InterfaceError
from ..relation import Relation
from ..sql.ast import SelectStmt
from .result import Result

if TYPE_CHECKING:  # pragma: no cover
    from ..engine import ExecutionStats
    from .connection import Connection

#: DB-API description entry: (name, type_code, display_size, internal_size,
#: precision, scale, null_ok) — only the first two are meaningful here.
Description = tuple[tuple[Any, ...], ...]


class Cursor:
    """Executes statements and holds the pending result set."""

    arraysize = 1

    def __init__(self, connection: "Connection") -> None:
        self._connection = connection
        self._closed = False
        self._result: Result | None = None
        self._position = 0
        self._rowcount = -1

    # -- DB-API attributes ----------------------------------------------------

    @property
    def connection(self) -> "Connection":
        return self._connection

    @property
    def description(self) -> Description | None:
        """Column metadata of the pending result set (None otherwise)."""
        if self._result is None:
            return None
        return self._result.description

    @property
    def rowcount(self) -> int:
        """Rows in the result set / affected by DML; -1 when unknown.

        For a pending SELECT this drains the streaming result to count
        it — iterate the cursor instead when you only need the rows.
        """
        if self._result is not None and self._rowcount < 0:
            self._rowcount = self._result.rowcount
        return self._rowcount

    @property
    def last_stats(self) -> "ExecutionStats | None":
        """Execution statistics of the most recent statement."""
        return self._connection.last_stats

    # -- execution ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self._connection._check_open()

    def _discard_pending(self) -> None:
        if self._result is not None and self._result.streaming:
            self._result.close()
        self._result = None
        self._position = 0
        self._rowcount = -1

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        """Execute one statement, binding *params* to ``?`` placeholders."""
        self._check_open()
        self._discard_pending()
        result = self._connection._execute_text(sql, params)
        if isinstance(result, Result):
            self._result = result
        elif isinstance(result, int):
            self._rowcount = result
        return self

    def executemany(self, sql: str,
                    seq_of_params: Iterable[Sequence[Any]]) -> "Cursor":
        """Execute *sql* once per parameter tuple (rowcounts accumulate).

        The statement is parsed once; SELECTs are planned once and every
        re-execution hits the plan cache; write statements run in a
        single transaction (all-or-nothing) over one copy-on-write pass.
        """
        self._check_open()
        self._discard_pending()
        connection = self._connection
        statement = connection._parse(sql)
        total = 0
        saw_count = False
        if isinstance(statement, SelectStmt):
            for params in seq_of_params:
                result = connection._run_select_cached(sql, statement,
                                                       params)
                saw_count = True
                total += result.rowcount
                self._result = result
            self._rowcount = total if saw_count else -1
            return self
        with connection._bulk():
            for params in seq_of_params:
                result = connection._run_statement(statement, params,
                                                   sql)
                if isinstance(result, int):
                    saw_count = True
                    total += result
        self._rowcount = total if saw_count else -1
        return self

    # -- fetching -------------------------------------------------------------

    def _pending(self) -> Result:
        if self._result is None:
            raise InterfaceError(
                "no result set pending; execute a SELECT first")
        return self._result

    @property
    def result(self) -> Result:
        """The pending :class:`~repro.api.result.Result` (streaming)."""
        return self._pending()

    @property
    def relation(self) -> Relation:
        """The pending result as a :class:`~repro.relation.Relation`
        (schema included) — this engine's native result type.  Touching
        ``.rows`` on it drains the stream."""
        return self._pending()

    def fetchone(self) -> tuple | None:
        chunk = self._pending().fetch(1, self._position)
        if not chunk:
            return None
        self._position += 1
        return chunk[0]

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        size = self.arraysize if size is None else size
        chunk = self._pending().fetch(size, self._position)
        self._position += len(chunk)
        return list(chunk)

    def fetchall(self) -> list[tuple]:
        rows = self._pending().rows
        chunk = rows[self._position:]
        self._position = len(rows)
        return list(chunk)

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        if self._result is not None and self._result.streaming:
            self._result.close()
        self._result = None

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
