"""Prepared statements.

A :class:`PreparedStatement` is parsed once and — for SELECTs — planned
once; re-executing it binds new ``?`` parameter values and runs the cached
plan directly, skipping parse → analyze → rewrite → optimize entirely.
The plan lives in the connection's LRU plan cache, so it is shared with
cursors executing the same SQL text and is transparently re-planned when
DDL bumps the catalog's generation counter.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, TYPE_CHECKING

from ..errors import BindError, InterfaceError
from ..sql.ast import SelectStmt, Statement

if TYPE_CHECKING:  # pragma: no cover
    from .connection import Connection
    from .result import Result


def check_arity(expected: int, params: Sequence[Any]) -> tuple:
    """Validate parameter bindings against a statement's placeholder count."""
    values = tuple(params)
    if len(values) != expected:
        raise BindError(
            f"statement takes {expected} parameter(s) "
            f"({len(values)} given)")
    return values


class PreparedStatement:
    """A statement compiled for repeated execution.

    Obtained from :meth:`repro.api.Connection.prepare`::

        ps = conn.prepare(
            "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s "
            "WHERE c < ?)")
        first = ps.execute((10,))
        second = ps.execute((3,))      # plan-cache hit: no re-planning

    SELECTs return a streaming :class:`~repro.api.result.Result`;
    INSERT/DELETE return the affected row count; DDL returns None.
    """

    def __init__(self, connection: "Connection", sql: str,
                 strategy: str | None = None) -> None:
        self._connection = connection
        self._sql = sql
        self._strategy = strategy
        self._closed = False
        self._statement: Statement = connection._parse(sql)
        self._param_count = getattr(self._statement, "param_count", 0)
        # Plan SELECTs eagerly: planning errors surface at prepare() time,
        # and the first execute() is already a cache hit.
        if isinstance(self._statement, SelectStmt):
            connection._get_plan(sql, strategy, statement=self._statement)

    # -- introspection --------------------------------------------------------

    @property
    def sql(self) -> str:
        """The SQL text this statement was prepared from."""
        return self._sql

    @property
    def param_count(self) -> int:
        """Number of ``?`` placeholders to bind on execute."""
        return self._param_count

    @property
    def is_select(self) -> bool:
        return isinstance(self._statement, SelectStmt)

    @property
    def column_names(self) -> tuple[str, ...] | None:
        """Output column names (SELECT only), without executing."""
        if not isinstance(self._statement, SelectStmt):
            return None
        cached = self._connection._get_plan(
            self._sql, self._strategy, statement=self._statement)
        return cached.column_names

    # -- execution ------------------------------------------------------------

    def execute(self, params: Sequence[Any] = ()) -> "Result | int | None":
        """Execute with *params* bound to the ``?`` placeholders.

        SELECTs return a streaming :class:`~repro.api.result.Result`.
        """
        if self._closed:
            raise InterfaceError("prepared statement is closed")
        values = check_arity(self._param_count, params)
        connection = self._connection
        if isinstance(self._statement, SelectStmt):
            return connection._run_select_cached(
                self._sql, self._statement, values,
                override=self._strategy)
        return connection._run_statement(self._statement, values,
                                         self._sql)

    __call__ = execute

    def executemany(self, seq_of_params: Iterable[Sequence[Any]]) -> int:
        """Execute once per parameter tuple; returns total affected rows
        (for INSERT/DELETE) or the number of executions (for SELECTs).

        Write statements run in one transaction — a single copy-on-write
        pass and a single commit for the whole batch.
        """
        total = 0
        if isinstance(self._statement, SelectStmt):
            for params in seq_of_params:
                self.execute(params)
                total += 1
            return total
        with self._connection._bulk():
            for params in seq_of_params:
                result = self.execute(params)
                total += result if isinstance(result, int) else 1
        return total

    def close(self) -> None:
        """Release the statement (the shared plan-cache entry survives)."""
        self._closed = True

    def __enter__(self) -> "PreparedStatement":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"params={self._param_count}"
        return f"<PreparedStatement {self._sql[:40]!r} {state}>"
