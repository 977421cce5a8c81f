"""A thin pure-asyncio client for the repro wire server.

Speaks the same PostgreSQL-v3 subset as :mod:`repro.server`: startup
with trust or cleartext-password auth, the simple query protocol
(:meth:`AsyncConnection.query`), and the extended protocol
(:meth:`AsyncConnection.execute`, :meth:`AsyncConnection.prepare`,
portal streaming with ``Execute(max_rows)`` / PortalSuspended).  Server
errors arrive as ErrorResponse messages and are re-raised as the
matching :mod:`repro.errors` exception via
:func:`repro.server.protocol.exception_for`, so client code catches the
same hierarchy it would in-process.

Values travel in text format and are decoded by result-column OID, so
rows come back as the Python values the engine produced (int, float,
str, bool, None).  Every statement method receives through one loop,
:meth:`AsyncConnection._drain_until_ready`, which hands DataRow payloads
straight to the decoder compiled for the current RowDescription
(:func:`repro.server.protocol.compile_row_decoder`).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, AsyncIterator, Callable
from dataclasses import dataclass, field

from ..errors import InterfaceError, OperationalError, ProtocolError
from ..server import protocol


#: A compiled ``DataRow payload -> row tuple`` decoder.
RowDecoder = Callable[[bytes], "tuple[Any, ...]"]


@dataclass
class ClientResult:
    """One completed statement: decoded rows plus metadata."""

    #: (name, type_oid) per column; None for row-less statements.
    description: "tuple | None" = None
    rows: list = field(default_factory=list)
    #: CommandComplete tag, e.g. ``"SELECT 3"`` or ``"INSERT 0 1"``.
    tag: str = ""
    notices: list = field(default_factory=list)

    @property
    def columns(self) -> tuple:
        return tuple(name for name, _ in self.description or ())

    @property
    def provenance_columns(self) -> tuple:
        """Result columns carrying provenance, by the engine's
        ``prov_`` naming contract."""
        return tuple(name for name in self.columns
                     if name.startswith("prov_"))

    @property
    def rowcount(self) -> int:
        """Rows affected/returned, parsed from the command tag."""
        parts = self.tag.split()
        if parts and parts[-1].isdigit():
            return int(parts[-1])
        return -1


class _Cycle:
    """What one response cycle — everything up to ReadyForQuery —
    carried."""

    __slots__ = ("results", "last", "param_oids", "suspended", "decode")

    def __init__(self, decode: "RowDecoder | None") -> None:
        #: one per CommandComplete, in order
        self.results: list[ClientResult] = []
        #: what arrived after the last CommandComplete
        self.last = ClientResult()
        self.param_oids: tuple = ()
        self.suspended = False
        #: the decoder of the latest RowDescription
        self.decode = decode

    @property
    def first(self) -> ClientResult:
        """The result of a single-statement cycle (complete or not)."""
        return self.results[0] if self.results else self.last


class AsyncConnection:
    """One server session.  Create with :func:`connect`; not safe for
    concurrent use from multiple tasks — issue one statement at a time
    (open one connection per task instead)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._stream = protocol.MessageStream()
        self._closed = False
        self.parameters: dict = {}
        self.backend_pid = 0
        self.transaction_status = "I"
        self._statement_names = itertools.count(1)

    # -- plumbing -------------------------------------------------------------

    async def _fill(self) -> None:
        """Read more bytes into the frame buffer."""
        data = await self._reader.read(1 << 16)
        if not data:
            self._closed = True
            raise OperationalError("server closed the connection")
        self._stream.feed(data)

    async def _recv(self) -> Any:
        """The next backend message (decoded)."""
        while True:
            framed = self._stream.next_message()
            if framed is not None:
                return protocol.parse_backend(*framed)
            await self._fill()

    async def _send(self, *messages: Any) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")
        try:
            self._writer.write(b"".join(m.encode() for m in messages))
            await self._writer.drain()
        except ConnectionError as exc:
            self._closed = True
            raise OperationalError(
                f"connection lost: {exc}") from exc

    async def _drain_until_ready(
            self, decode: "RowDecoder | None" = None) -> _Cycle:
        """The one receive loop: consume messages up to ReadyForQuery,
        then raise the first error seen (if any).  DataRow payloads go
        straight to the decoder of the latest RowDescription — or to
        *decode*, for a portal described when it was prepared."""
        cycle = _Cycle(decode)
        rows = cycle.last.rows
        error: "BaseException | None" = None
        next_message = self._stream.next_message
        while True:
            framed = next_message()
            if framed is None:
                await self._fill()
                continue
            tag, payload = framed
            if tag == b"D":
                if decode is None:
                    raise ProtocolError("DataRow before any RowDescription")
                rows.append(decode(payload))
                continue
            message = protocol.parse_backend(tag, payload)
            if isinstance(message, protocol.ReadyForQuery):
                self.transaction_status = message.status
                if error is not None:
                    raise error
                return cycle
            if isinstance(message, protocol.NoticeResponse):
                cycle.last.notices.append(message.message)
            elif isinstance(message, protocol.ErrorResponse):
                if error is None:
                    error = protocol.exception_for(
                        message.sqlstate, message.message)
                if message.severity == "FATAL":
                    self._closed = True
                    raise error
            elif isinstance(message, protocol.RowDescription):
                cycle.last.description = tuple(
                    (f.name, f.type_oid) for f in message.fields)
                cycle.decode = decode = protocol.compile_row_decoder(message)
            elif isinstance(message, protocol.CommandComplete):
                cycle.last.tag = message.tag
                cycle.results.append(cycle.last)
                cycle.last = ClientResult()
                rows = cycle.last.rows
            elif isinstance(message, protocol.EmptyQueryResponse):
                cycle.last = ClientResult()
                rows = cycle.last.rows
            elif isinstance(message, protocol.ParameterDescription):
                cycle.param_oids = message.oids
            elif isinstance(message, protocol.PortalSuspended):
                cycle.suspended = True

    # -- statements -----------------------------------------------------------

    async def query(self, sql: str) -> "list[ClientResult]":
        """Run *sql* via the **simple** query protocol; returns one
        :class:`ClientResult` per statement in the string."""
        await self._send(protocol.Query(sql))
        return (await self._drain_until_ready()).results

    async def execute(self, sql: str, params: tuple = ()) -> ClientResult:
        """Run one statement via the **extended** protocol (unnamed
        statement and portal), with ``$n`` parameters."""
        await self._send(
            protocol.Parse("", sql),
            protocol.Bind("", "", (), tuple(protocol.encode_text(p)
                                            for p in params)),
            protocol.Describe("P", ""),
            protocol.Execute("", 0),
            protocol.Sync())
        return (await self._drain_until_ready()).first

    async def prepare(self, sql: str,
                      name: "str | None" = None) -> "AsyncPreparedStatement":
        """Parse + describe *sql* as a named server-side statement."""
        if name is None:
            name = f"_repro_stmt_{next(self._statement_names)}"
        await self._send(
            protocol.Parse(name, sql),
            protocol.Describe("S", name),
            protocol.Sync())
        cycle = await self._drain_until_ready()
        statement = AsyncPreparedStatement(self, name, sql)
        statement.param_oids = cycle.param_oids
        statement.description = cycle.last.description
        statement._decode = cycle.decode
        return statement

    # -- transactions ---------------------------------------------------------

    async def begin(self) -> None:
        await self.execute("BEGIN")

    async def commit(self) -> None:
        await self.execute("COMMIT")

    async def rollback(self) -> None:
        await self.execute("ROLLBACK")

    @property
    def in_transaction(self) -> bool:
        return self.transaction_status in ("T", "E")

    # -- lifecycle ------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        """Send Terminate and drop the socket; idempotent."""
        if not self._closed:
            self._closed = True
            try:
                self._writer.write(protocol.Terminate().encode())
                await self._writer.drain()
            except ConnectionError:
                pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass

    def abort(self) -> None:
        """Drop the socket immediately — no Terminate, no flush.  Used
        to exercise server-side cleanup of abandoned result streams."""
        self._closed = True
        transport = self._writer.transport
        if transport is not None:
            transport.abort()

    async def __aenter__(self) -> "AsyncConnection":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class AsyncPreparedStatement:
    """A named server-side statement created by
    :meth:`AsyncConnection.prepare`."""

    def __init__(self, conn: AsyncConnection, name: str,
                 sql: str) -> None:
        self._conn = conn
        self.name = name
        self.sql = sql
        self.param_oids: tuple = ()
        self.description: "tuple | None" = None
        self._decode: "RowDecoder | None" = None

    @property
    def param_count(self) -> int:
        return len(self.param_oids)

    async def execute(self, params: tuple = ()) -> ClientResult:
        """Bind to the unnamed portal and run to completion."""
        await self._conn._send(
            protocol.Bind("", self.name, (),
                          tuple(protocol.encode_text(p) for p in params)),
            protocol.Describe("P", ""),
            protocol.Execute("", 0),
            protocol.Sync())
        return (await self._conn._drain_until_ready()).first

    async def stream(self, params: tuple = (), batch: int = 100
                     ) -> "AsyncIterator[tuple]":
        """Async iterator over decoded rows, fetched *batch* at a time
        through a named portal (Execute ``max_rows`` + PortalSuspended).
        Closing the iterator early closes the portal server-side."""
        portal = f"_repro_portal_{self.name}"
        conn = self._conn
        await conn._send(
            protocol.Bind(portal, self.name, (),
                          tuple(protocol.encode_text(p) for p in params)),
            protocol.Sync())
        await conn._drain_until_ready()
        try:
            while True:
                await conn._send(protocol.Execute(portal, batch),
                                 protocol.Sync())
                cycle = await conn._drain_until_ready(self._decode)
                for row in cycle.first.rows:
                    yield row
                if not cycle.suspended:
                    return
        finally:
            if not conn.closed:
                await conn._send(protocol.CloseMsg("P", portal),
                                 protocol.Sync())
                await conn._drain_until_ready()

    async def close(self) -> None:
        """Release the server-side statement."""
        if self._conn.closed:
            return
        await self._conn._send(protocol.CloseMsg("S", self.name),
                               protocol.Sync())
        await self._conn._drain_until_ready()


async def connect(host: str = "127.0.0.1", port: int = 5433, *,
                  user: str = "repro", password: "str | None" = None,
                  database: "str | None" = None,
                  timeout: float = 10.0) -> AsyncConnection:
    """Open a connection and run the startup handshake."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    conn = AsyncConnection(reader, writer)
    options = {"user": user,
               "database": database or user,
               "application_name": "repro.client"}
    try:
        await conn._send(protocol.Startup(tuple(options.items())))
        while True:
            message = await asyncio.wait_for(conn._recv(), timeout)
            if isinstance(message, protocol.Authentication):
                if message.code == protocol.AUTH_OK:
                    continue
                if message.code == protocol.AUTH_CLEARTEXT_PASSWORD:
                    if password is None:
                        raise protocol.exception_for(
                            "28P01", f'no password supplied for user '
                                     f'"{user}"')
                    await conn._send(protocol.Password(password))
                    continue
                raise ProtocolError(
                    f"unsupported authentication request {message.code}")
            if isinstance(message, protocol.ParameterStatus):
                conn.parameters[message.name] = message.value
            elif isinstance(message, protocol.BackendKeyData):
                conn.backend_pid = message.pid
            elif isinstance(message, protocol.ReadyForQuery):
                conn.transaction_status = message.status
                return conn
            elif isinstance(message, protocol.NoticeResponse):
                continue
            elif isinstance(message, protocol.ErrorResponse):
                raise protocol.exception_for(
                    message.sqlstate, message.message)
    except BaseException:
        writer.close()
        raise
