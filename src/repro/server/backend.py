"""Per-client backend session: wire messages onto an Engine session.

One :class:`BackendSession` exists per authenticated client connection.
Its unit of work is the **batch**: the server hands it every message the
client has pipelined up to a Sync / Query / Flush in one worker-thread
call (:meth:`BackendSession.run_batch`), it runs them in order against
the engine session and returns the encoded response.  A response is
returned in pieces of at most :data:`PIECE_BYTES` plus one row —
:meth:`BackendSession.next_piece` resumes the batch for the next one —
so a large result streams out in bounded pieces instead of materializing
as one buffer, and a batch whose response fits one piece costs exactly
one worker call.  Calls on one session never overlap (a lock orders a
late :meth:`close` after the piece in progress), and none of this code
ever runs on the event loop.

It owns:

* the engine session (:class:`~repro.api.Connection`) this client's
  statements run on, with its transaction state;
* the extended-protocol namespaces: prepared statements (Parse) and
  portals (Bind), including the ``$n`` -> ``?`` placeholder translation
  that lets PostgreSQL-style drivers prepare against the engine's
  ``qmark`` parameter style;
* the two error-recovery state machines.  *Skip until Sync*: after an
  extended-protocol error every message — a simple Query included — is
  discarded until the next Sync (PostgreSQL's ``ignore_till_sync``).
  *Failed transaction*: after an error inside an explicit transaction,
  every statement except COMMIT / ROLLBACK is refused with SQLSTATE
  25P02 until the transaction block ends.

:meth:`close` tears everything down — a batch abandoned between pieces
is closed first, then every open portal's streaming
:class:`~repro.api.result.Result`, so a client that vanishes mid-stream
releases its pinned snapshot and its leased physical plan instance (the
disconnect leak test pins exactly this).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Generator, Sequence

from ..api.connection import Connection
from ..api.result import Result
from ..errors import (
    OperationalError, ProtocolError, ReproError, TransactionError,
)
from ..schema import Schema
from ..sql.ast import (
    AnalyzeStmt, BeginStmt, CheckpointStmt, CommitStmt, CreateIndexStmt,
    CreateTableStmt, CreateViewStmt, DeleteStmt, DropStmt, InsertStmt,
    RollbackStmt, SelectStmt, Statement,
)
from ..sql.parser import parse_statements
from . import protocol

#: Rows pulled from a result per fetch while streaming it out.
STREAM_CHUNK = 256
#: Response bytes after which a batch hands back a piece: no piece is
#: larger than this plus one row.
PIECE_BYTES = 1 << 16

#: A step of a batch: appends to the response buffer it is handed and
#: yields the buffer's content whenever it has grown into a full piece.
Pieces = Generator[bytes, None, None]


def translate_placeholders(sql: str) -> tuple[str, tuple[int, ...] | None]:
    """Rewrite PostgreSQL ``$n`` parameters to the engine's ``?`` style.

    Returns the rewritten SQL plus the 1-based parameter number for each
    ``?`` in appearance order (None when the text used no ``$n`` at
    all).  Quoted strings/identifiers and ``--`` / ``/* */`` comments
    are skipped, so a literal ``'$1'`` survives untouched.
    """
    out = []
    order: list[int] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'" or ch == '"':
            quote = ch
            out.append(ch)
            i += 1
            while i < n:
                out.append(sql[i])
                if sql[i] == quote:
                    if i + 1 < n and sql[i + 1] == quote:  # '' escape
                        out.append(quote)
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
            continue
        if ch == "-" and sql[i:i + 2] == "--":
            end = sql.find("\n", i)
            end = n if end < 0 else end + 1
            out.append(sql[i:end])
            i = end
            continue
        if ch == "/" and sql[i:i + 2] == "/*":
            end = sql.find("*/", i)
            end = n if end < 0 else end + 2
            out.append(sql[i:end])
            i = end
            continue
        if ch == "$" and i + 1 < n and sql[i + 1].isdigit():
            j = i + 1
            while j < n and sql[j].isdigit():
                j += 1
            order.append(int(sql[i + 1:j]))
            out.append("?")
            i = j
            continue
        out.append(ch)
        i += 1
    if not order:
        return sql, None
    expected = set(range(1, max(order) + 1))
    if set(order) != expected:
        missing = min(expected - set(order))
        raise ProtocolError(f"there is no parameter ${missing}")
    return "".join(out), tuple(order)


def command_tag(statement: Statement, rowcount: int | None) -> str:
    """The CommandComplete tag for an executed statement."""
    if isinstance(statement, SelectStmt):
        return f"SELECT {rowcount or 0}"
    if isinstance(statement, InsertStmt):
        return f"INSERT 0 {rowcount or 0}"
    if isinstance(statement, DeleteStmt):
        return f"DELETE {rowcount or 0}"
    if isinstance(statement, BeginStmt):
        return "BEGIN"
    if isinstance(statement, CommitStmt):
        return "COMMIT"
    if isinstance(statement, RollbackStmt):
        return "ROLLBACK"
    if isinstance(statement, CreateTableStmt):
        return "CREATE TABLE"
    if isinstance(statement, CreateViewStmt):
        return "CREATE VIEW"
    if isinstance(statement, CreateIndexStmt):
        return "CREATE INDEX"
    if isinstance(statement, AnalyzeStmt):
        return "ANALYZE"
    if isinstance(statement, CheckpointStmt):
        return "CHECKPOINT"
    if isinstance(statement, DropStmt):
        return f"DROP {statement.kind.upper()}"
    return "OK"


@dataclass
class PreparedEntry:
    """One server-side prepared statement (Parse target)."""

    name: str
    sql: str                                  # as sent (possibly $n style)
    translated: str                           # engine (?-style) text
    order: tuple[int, ...] | None             # $n per ?, appearance order
    prepared: object | None                   # PreparedStatement; None=empty
    param_oids: tuple[int, ...] = ()          # declared (padded) OIDs

    @property
    def n_params(self) -> int:
        if self.prepared is None:
            return 0
        if self.order is not None:
            return max(self.order)
        return self.prepared.param_count

    def bind_values(self, wire_params, formats) -> tuple:
        """Decode text-format wire parameters and reorder them from
        ``$n`` numbering to the engine's appearance-order ``?`` slots."""
        if len(wire_params) != self.n_params:
            raise ProtocolError(
                f'bind message supplies {len(wire_params)} parameter(s), '
                f'but prepared statement "{self.name}" requires '
                f'{self.n_params}')
        if any(code == 1 for code in formats):
            raise ProtocolError("binary parameter format is not supported")
        oids = self.param_oids
        decoded = tuple(
            protocol.decode_text(
                value, oids[i] if i < len(oids) else 0)
            for i, value in enumerate(wire_params))
        if self.order is None:
            return decoded
        return tuple(decoded[n - 1] for n in self.order)


@dataclass
class Portal:
    """One bound portal: a prepared statement plus parameter values,
    executed lazily and streamed via Execute / PortalSuspended."""

    name: str
    entry: PreparedEntry
    values: tuple
    result: Result | None = None
    position: int = 0
    tag: str | None = None
    completed: bool = False

    def close(self) -> None:
        if self.result is not None:
            self.result.close()
            self.result = None


class BackendSession:
    """Protocol-level session state for one client; see the module
    docstring."""

    def __init__(self, conn: Connection, user: str, database: str):
        self.conn = conn
        self.user = user
        self.database = database
        self.statements: dict[str, PreparedEntry] = {}
        self.portals: dict[str, Portal] = {}
        self.failed_txn = False
        self.skip_until_sync = False
        self._batch: Generator[bytes, None, bytes] | None = None
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear the session down (idempotent): close a batch abandoned
        between pieces and every portal's streaming result — releasing
        pinned snapshots and leased plan instances — then the engine
        session itself."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batch, self._batch = self._batch, None
            if batch is not None:
                batch.close()
            portals, self.portals = self.portals, {}
            for portal in portals.values():
                portal.close()
            self.statements.clear()
            self.conn.close()

    # -- the batch ------------------------------------------------------------

    def run_batch(self, messages: Sequence[object]) -> tuple[bytes, bool]:
        """Run pipelined *messages* in order; returns the first piece of
        the response and whether it is also the last (if not, call
        :meth:`next_piece`)."""
        self._batch = self._run(messages)
        return self.next_piece()

    def next_piece(self) -> tuple[bytes, bool]:
        """Resume the batch in progress up to its next piece."""
        with self._lock:
            if self._batch is None:        # closed under us (shutdown)
                return b"", True
            try:
                return next(self._batch), False
            except StopIteration as stop:
                self._batch = None
                return stop.value, True

    def _run(self, messages: Sequence[object]
             ) -> Generator[bytes, None, bytes]:
        """The batch: yields each full piece, returns the last one."""
        out = bytearray()
        for message in messages:
            if isinstance(message, protocol.Sync):
                self.sync()
                out += protocol.ReadyForQuery(
                    self.transaction_status).encode()
                continue
            if self.skip_until_sync:
                continue
            simple = isinstance(message, protocol.Query)
            try:
                if simple:
                    yield from self.run_simple(out, message.sql)
                else:
                    yield from self._run_extended(out, message)
            except ReproError as exc:
                self.note_error()
                self.skip_until_sync = not simple
                out += protocol.error_response(exc)
            if simple:
                out += protocol.ReadyForQuery(
                    self.transaction_status).encode()
        return bytes(out)

    def _run_extended(self, out: bytearray, message: object) -> Pieces:
        if isinstance(message, protocol.Execute):
            yield from self.execute(out, message)
        elif isinstance(message, protocol.Bind):
            out += self.bind(message)
        elif isinstance(message, protocol.Describe):
            out += self.describe_statement(message.name) \
                if message.kind == "S" else self.describe_portal(message.name)
        elif isinstance(message, protocol.Parse):
            out += self.parse(message)
        elif isinstance(message, protocol.CloseMsg):
            out += self.close_statement(message.name) \
                if message.kind == "S" else self.close_portal(message.name)
        elif not isinstance(message, protocol.Flush):
            raise ProtocolError(
                f"unexpected message {type(message).__name__}")

    # -- shared helpers -------------------------------------------------------

    @property
    def transaction_status(self) -> str:
        """The ReadyForQuery status byte: I idle, T in transaction,
        E failed transaction."""
        if self.failed_txn:
            return "E"
        return "T" if self.conn.in_transaction else "I"

    def note_error(self) -> None:
        """Record a statement failure: inside an explicit transaction
        the block is now aborted (PostgreSQL semantics)."""
        if self.conn.in_transaction:
            self.failed_txn = True

    def _check_failed(self, statement: Statement) -> None:
        """In a failed transaction only COMMIT/ROLLBACK may run."""
        if self.failed_txn and not isinstance(
                statement, (CommitStmt, RollbackStmt)):
            exc = TransactionError(
                "current transaction is aborted, commands ignored until "
                "end of transaction block")
            exc.sqlstate = "25P02"
            raise exc

    def _finish_txn_control(self, statement: Statement) -> str:
        """Run COMMIT/ROLLBACK honouring the aborted-block state: a
        COMMIT of a failed transaction rolls back (tag ROLLBACK)."""
        if isinstance(statement, CommitStmt) and self.failed_txn:
            self.conn.rollback()
            self.failed_txn = False
            return "ROLLBACK"
        if isinstance(statement, CommitStmt):
            self.conn.commit()
            return "COMMIT"
        self.conn.rollback()
        self.failed_txn = False
        return "ROLLBACK"

    def _send_rows(self, out: bytearray, result: Result, position: int,
                   limit: int | None = None
                   ) -> Generator[bytes, None, tuple[int, bool]]:
        """Append the DataRow frames of *result* from row *position* on
        (at most *limit* rows) to *out*, yielding a piece whenever it
        reaches :data:`PIECE_BYTES`; returns the new position and
        whether the result is exhausted."""
        encode = protocol.encode_data_row
        while limit is None or limit > 0:
            want = STREAM_CHUNK if limit is None \
                else min(STREAM_CHUNK, limit)
            rows = result.fetch(want, position)
            for row in rows:
                out += encode(row)
                if len(out) >= PIECE_BYTES:
                    yield bytes(out)
                    out.clear()
            position += len(rows)
            if len(rows) < want:
                return position, True
            if limit is not None:
                limit -= want
        return position, False

    # -- simple query ('Q') ---------------------------------------------------

    def run_simple(self, out: bytearray, sql: str) -> Pieces:
        """Execute a simple-protocol query string (possibly several
        ``;``-separated statements).

        An error aborts the remainder of the string — the batch loop
        turns the raised exception into an ErrorResponse, as PostgreSQL
        does.
        """
        if not sql.strip():
            out += protocol.EmptyQueryResponse().encode()
            return
        for statement in parse_statements(sql):
            self._check_failed(statement)
            if isinstance(statement, (CommitStmt, RollbackStmt)):
                tag = self._finish_txn_control(statement)
                out += protocol.CommandComplete(tag).encode()
                continue
            outcome = self.conn._run_statement(statement, ())
            if not isinstance(outcome, Result):
                out += protocol.CommandComplete(
                    command_tag(statement, outcome)).encode()
                continue
            # the result is closed however the batch exits, so an
            # abandoned stream (a dropped client) never leaks its tail
            try:
                out += protocol.describe_schema(outcome.schema).encode()
                sent, _ = yield from self._send_rows(out, outcome, 0)
            finally:
                outcome.close()
            out += protocol.CommandComplete(
                command_tag(statement, sent)).encode()

    # -- extended protocol ----------------------------------------------------

    def parse(self, message: protocol.Parse) -> bytes:
        """Parse: plan the statement (eagerly, so errors surface here)
        and store it under its name."""
        translated, order = translate_placeholders(message.sql)
        if not translated.strip():
            entry = PreparedEntry(message.name, message.sql, translated,
                                  order=None, prepared=None)
        else:
            prepared = self.conn.prepare(translated)
            n_params = max(order) if order else prepared.param_count
            oids = tuple(message.param_oids[:n_params]) + (0,) * max(
                0, n_params - len(message.param_oids))
            entry = PreparedEntry(message.name, message.sql, translated,
                                  order, prepared, oids)
        if message.name == "":
            self.statements.pop("", None)     # unnamed: silently replaced
        elif message.name in self.statements:
            raise ProtocolError(
                f'prepared statement "{message.name}" already exists')
        self.statements[message.name] = entry
        return protocol.ParseComplete().encode()

    def _statement_entry(self, name: str) -> PreparedEntry:
        entry = self.statements.get(name)
        if entry is None:
            exc = OperationalError(
                f'prepared statement "{name}" does not exist')
            exc.sqlstate = "26000"
            raise exc
        return entry

    def _portal(self, name: str) -> Portal:
        portal = self.portals.get(name)
        if portal is None:
            exc = OperationalError(f'portal "{name}" does not exist')
            exc.sqlstate = "34000"
            raise exc
        return portal

    def bind(self, message: protocol.Bind) -> bytes:
        entry = self._statement_entry(message.statement)
        if any(code == 1 for code in message.result_formats):
            raise ProtocolError("binary result format is not supported")
        values = () if entry.prepared is None else entry.bind_values(
            message.params, message.param_formats)
        if message.portal == "":
            old = self.portals.pop("", None)  # unnamed: silently replaced
            if old is not None:
                old.close()
        elif message.portal in self.portals:
            raise ProtocolError(
                f'portal "{message.portal}" already exists')
        self.portals[message.portal] = Portal(message.portal, entry, values)
        return protocol.BindComplete().encode()

    def _describe_rows(self, entry: PreparedEntry) -> bytes:
        """RowDescription of a prepared SELECT, without executing
        (provenance columns included — they are ordinary columns of the
        rewritten plan); NoData for anything else."""
        prepared = entry.prepared
        if prepared is None or not prepared.is_select:
            return protocol.NoData().encode()
        cached = self.conn._get_plan(
            entry.translated, None, statement=prepared._statement)
        return protocol.describe_schema(cached.plan.schema).encode()

    def describe_statement(self, name: str) -> bytes:
        entry = self._statement_entry(name)
        return protocol.ParameterDescription(tuple(
            oid or protocol.OID_UNKNOWN
            for oid in entry.param_oids)).encode() \
            + self._describe_rows(entry)

    def describe_portal(self, name: str) -> bytes:
        return self._describe_rows(self._portal(name).entry)

    def execute(self, out: bytearray, message: protocol.Execute) -> Pieces:
        """Execute a portal, honouring ``max_rows`` with PortalSuspended
        so clients can stream a result across several Execute rounds."""
        portal = self._portal(message.portal)
        if portal.entry.prepared is None:         # empty statement: no-op
            out += protocol.EmptyQueryResponse().encode()
            return
        statement = portal.entry.prepared._statement
        self._check_failed(statement)
        if portal.completed:
            pass
        elif isinstance(statement, (CommitStmt, RollbackStmt)):
            portal.tag = self._finish_txn_control(statement)
            portal.completed = True
        elif not isinstance(statement, SelectStmt):
            outcome = portal.entry.prepared.execute(portal.values)
            portal.tag = command_tag(
                statement, outcome if isinstance(outcome, int) else 0)
            portal.completed = True
        else:
            if portal.result is None:
                portal.result = portal.entry.prepared.execute(portal.values)
            portal.position, portal.completed = yield from self._send_rows(
                out, portal.result, portal.position, message.max_rows or None)
            if not portal.completed:
                out += protocol.PortalSuspended().encode()
                return
            portal.tag = command_tag(statement, portal.position)
            portal.close()
        out += protocol.CommandComplete(portal.tag or "SELECT 0").encode()

    def close_statement(self, name: str) -> bytes:
        entry = self.statements.pop(name, None)
        if entry is not None:
            # portals bound to it stay valid in PostgreSQL; we keep the
            # same behaviour since each Portal holds its own reference
            if entry.prepared is not None:
                entry.prepared.close()
        return protocol.CloseComplete().encode()

    def close_portal(self, name: str) -> bytes:
        portal = self.portals.pop(name, None)
        if portal is not None:
            portal.close()
        return protocol.CloseComplete().encode()

    def sync(self) -> None:
        """Sync ends error recovery and closes the unnamed portal
        (Postgres ends the implicit transaction here; the engine's
        autocommit already did)."""
        self.skip_until_sync = False
        portal = self.portals.pop("", None)
        if portal is not None:
            portal.close()


__all__ = [
    "BackendSession", "PIECE_BYTES", "Portal", "PreparedEntry",
    "STREAM_CHUNK",
    "command_tag", "parse_statements", "translate_placeholders",
]
