"""The asyncio PostgreSQL-wire server.

One :class:`Server` fronts one or more shared
:class:`~repro.api.Engine` cores (one per served database).  The event
loop owns all socket I/O and frame parsing and never runs
:class:`~repro.server.backend.BackendSession` code: engine work happens
on a bounded worker thread pool (``ServerConfig.worker_threads``), so
slow queries exert backpressure instead of spawning threads per client,
and the asyncio loop never blocks on an engine lock.

The unit handed to a worker is the **batch**: every frame already
buffered up to and including the first Sync / Query / Flush — or the end
of the buffer; the loop never waits for more input before answering what
it has.  One worker call runs the batch's messages in order and returns
response bytes, which leave in one ``write`` + ``drain``.  A response
larger than :data:`~repro.server.backend.PIECE_BYTES` (64 KiB) comes
back in pieces of at most that plus one row, one worker call and one
``write`` + ``drain`` per piece, so a slow client throttles its own
query instead of buffering it server-side.  A prepared point lookup
(Bind/Describe/Execute/Sync) is therefore one pool submission and one
socket write.

Connection lifecycle:

* startup: SSL/GSS probes are declined (``N``), the startup message is
  validated against :class:`~repro.server.auth.ServerConfig` (trust or
  cleartext-password auth, database routing), admission control refuses
  connections beyond ``max_connections`` with SQLSTATE 53300;
* the command phase speaks both the simple protocol (``Q``) and the
  extended protocol (Parse/Bind/Describe/Execute/Close/Flush/Sync) with
  named statements and portals, through the one batch path above;
* errors map onto ErrorResponse via
  :func:`repro.server.protocol.sqlstate_for`; an extended-protocol error
  skips messages until Sync, as PostgreSQL does — that flag lives in
  :class:`BackendSession`, next to the failed-transaction state;
* disconnect — graceful Terminate or a dropped socket — always runs
  :meth:`BackendSession.close`, which closes a batch abandoned between
  pieces and open portals' streaming results (releasing pinned
  snapshots and leased plan instances) before closing the engine
  session.

:meth:`Server.stop` is a graceful shutdown: stop accepting, let
in-flight batches finish (up to ``shutdown_timeout``), notify
lingering clients with SQLSTATE 57P01, then close the engines the
server opened itself.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from concurrent.futures import ThreadPoolExecutor

from ..api.engine import Engine
from ..errors import (
    AuthenticationError, ConnectionLimitError, ProtocolError, ReproError,
)
from . import protocol
from .auth import DEFAULT_DATABASE, ServerConfig
from .backend import BackendSession

log = logging.getLogger("repro.server")

#: ParameterStatus pairs sent after authentication (psql reads these).
_SERVER_PARAMETERS = (
    ("server_version", "14.0 (repro)"),
    ("server_encoding", "UTF8"),
    ("client_encoding", "UTF8"),
    ("DateStyle", "ISO"),
    ("integer_datetimes", "on"),
    ("standard_conforming_strings", "on"),
)

#: Messages that end a batch: the client expects their answer before it
#: sends more.
_BATCH_END = (protocol.Sync, protocol.Query, protocol.Flush)


class _Client:
    """Bookkeeping for one accepted connection."""

    __slots__ = ("writer", "task", "backend")

    def __init__(self, writer: asyncio.StreamWriter,
                 task: "asyncio.Task | None" = None):
        self.writer = writer
        self.task = task
        self.backend: BackendSession | None = None


class Server:
    """Asyncio TCP server speaking the PostgreSQL v3 wire protocol over
    shared engines; see the module docstring.

    *engines* pre-attaches engines by database name (they are **not**
    closed by :meth:`stop` — the caller owns them); databases named only
    in ``config.databases`` get an engine opened lazily on first
    connection, owned and closed by the server.
    """

    _pids = itertools.count(1)

    def __init__(self, config: ServerConfig | None = None,
                 engines: "dict[str, Engine] | None" = None):
        self.config = config or ServerConfig()
        self._engines: dict[str, Engine] = dict(engines or {})
        self._owned: list[Engine] = []
        self._engine_lock = asyncio.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.worker_threads,
            thread_name_prefix="repro-server")
        self._server: asyncio.base_events.Server | None = None
        self._clients: set[_Client] = set()
        self._closing = False
        self._stopped = False
        self._in_flight = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` in tests)."""
        if self._server is None:
            raise ProtocolError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def connection_count(self) -> int:
        return len(self._clients)

    @property
    def engines(self) -> "dict[str, Engine]":
        """The live engines by database name (lazily opened included)."""
        return dict(self._engines)

    async def start(self) -> "Server":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._accept, self.config.host, self.config.port)
        log.info("listening on %s:%d", self.config.host, self.port)
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight statements, notify and
        disconnect clients, close server-owned engines.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.shutdown_timeout
        while self._in_flight and loop.time() < deadline:
            await asyncio.sleep(0.005)
        shutdown = protocol.ErrorResponse.make(
            "terminating connection due to administrator command",
            sqlstate="57P01", severity="FATAL").encode()
        for client in list(self._clients):
            try:
                client.writer.write(shutdown)
            except (OSError, RuntimeError):
                # transport already closed or closing mid-shutdown; the
                # client is being disconnected either way
                pass
            if client.task is not None:
                client.task.cancel()
        tasks = [c.task for c in list(self._clients) if c.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._pool.shutdown(wait=True)
        for engine in self._owned:
            engine.close()
        log.info("server stopped")

    # -- engines --------------------------------------------------------------

    async def _engine_for(self, database: str) -> Engine:
        """The shared engine serving *database*, opened on first use
        (durable open/recovery runs off the event loop)."""
        async with self._engine_lock:
            engine = self._engines.get(database)
            if engine is not None:
                return engine
            path = self.config.route(database)
            loop = asyncio.get_running_loop()
            engine = await loop.run_in_executor(
                self._pool, lambda: Engine(path=path))
            self._engines[database] = engine
            self._owned.append(engine)
            return engine

    # -- connection handling --------------------------------------------------

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        client = _Client(writer, asyncio.current_task())
        self._clients.add(client)
        try:
            await self._handle(client, reader, writer)
        except (asyncio.CancelledError, asyncio.IncompleteReadError,
                ConnectionError):
            pass
        except ProtocolError as exc:
            await self._send_error(writer, exc, fatal=True)
        # repro: allow(hygiene-broad-except) - last-resort net: log the
        # failure and drop this one connection rather than letting an
        # unexpected bug take down the accept loop for every client
        except Exception:                      # pragma: no cover - safety net
            log.exception("unexpected error in connection handler")
        finally:
            self._clients.discard(client)
            if client.backend is not None:
                await self._close_backend(client.backend)
            writer.close()

    async def _close_backend(self, backend: BackendSession) -> None:
        """Close a backend session off the event loop (it may contend on
        engine locks); falls back to inline close during teardown."""
        loop = asyncio.get_running_loop()
        try:
            await asyncio.shield(
                loop.run_in_executor(self._pool, backend.close))
        except (asyncio.CancelledError, RuntimeError):
            backend.close()

    async def _send_error(self, writer: asyncio.StreamWriter,
                          exc: BaseException, fatal: bool = False) -> None:
        try:
            writer.write(protocol.error_response(exc, fatal))
            await writer.drain()
        except ConnectionError:
            pass

    async def _feed(self, reader: asyncio.StreamReader,
                    stream: protocol.MessageStream) -> bool:
        """Read more bytes into the frame buffer; False on EOF."""
        data = await reader.read(1 << 16)
        if not data:
            return False
        stream.feed(data)
        return True

    async def _handshake(self, reader, writer, stream
                         ) -> "BackendSession | None":
        """Startup + auth; returns the backend session, or None when the
        connection was refused (error already sent)."""
        while True:
            message = stream.next_startup()
            if message is None:
                if not await self._feed(reader, stream):
                    return None
                continue
            if isinstance(message, (protocol.SSLRequest,
                                    protocol.GSSEncRequest)):
                writer.write(b"N")             # offered, not supported
                await writer.drain()
                continue
            if isinstance(message, protocol.CancelRequest):
                return None                    # cancel keys are not issued
            break
        options = message.options
        user = options.get("user")
        if not user:
            raise ProtocolError("startup message carries no user")
        database = options.get("database") or user
        if database not in self.config.databases and \
                database == user and DEFAULT_DATABASE in \
                self.config.databases:
            database = DEFAULT_DATABASE
        if len(self._clients) > self.config.max_connections:
            await self._send_error(
                writer,
                ConnectionLimitError("sorry, too many clients already"),
                fatal=True)
            return None
        try:
            password = None
            if self.config.needs_password(user):
                writer.write(protocol.Authentication(
                    protocol.AUTH_CLEARTEXT_PASSWORD).encode())
                await writer.drain()
                password = await self._read_password(reader, stream)
            self.config.authenticate(user, password)
            engine = await self._engine_for(database)
        except (AuthenticationError, ReproError) as exc:
            await self._send_error(writer, exc, fatal=True)
            return None
        loop = asyncio.get_running_loop()
        conn = await loop.run_in_executor(self._pool, engine.connect)
        backend = BackendSession(conn, user, database)
        greeting = bytearray(protocol.Authentication(
            protocol.AUTH_OK).encode())
        for name, value in _SERVER_PARAMETERS:
            greeting += protocol.ParameterStatus(name, value).encode()
        greeting += protocol.BackendKeyData(next(self._pids), 0).encode()
        greeting += protocol.ReadyForQuery("I").encode()
        writer.write(bytes(greeting))
        await writer.drain()
        return backend

    async def _read_password(self, reader, stream) -> str:
        while True:
            framed = stream.next_message()
            if framed is None:
                if not await self._feed(reader, stream):
                    raise ProtocolError(
                        "connection closed during authentication")
                continue
            tag, payload = framed
            if tag != b"p":
                raise ProtocolError(
                    f"expected password message, got {tag!r}")
            return protocol.parse_frontend(tag, payload).password

    async def _handle(self, client: _Client, reader, writer) -> None:
        stream = protocol.MessageStream()
        backend = await self._handshake(reader, writer, stream)
        if backend is None:
            return
        client.backend = backend
        while True:
            batch = []
            terminated = False
            while (framed := stream.next_message()) is not None:
                message = protocol.parse_frontend(*framed)
                if isinstance(message, protocol.Terminate):
                    terminated = True
                    break
                batch.append(message)
                if isinstance(message, _BATCH_END):
                    break
            if batch:
                await self._answer(backend, writer, batch)
            if terminated:
                return
            if not batch and (self._closing
                              or not await self._feed(reader, stream)):
                return                         # shutting down, or EOF

    async def _answer(self, backend: BackendSession, writer,
                      batch: list) -> None:
        """Run one batch on the worker pool and write its response: one
        worker call and one ``write`` + ``drain`` per piece.  An abort
        (reset socket, shutdown) leaves the batch to
        :meth:`BackendSession.close`."""
        loop = asyncio.get_running_loop()
        # in-flight accounting covers the whole response (through
        # ReadyForQuery for Q/Sync), so graceful shutdown never cuts a
        # half-written one
        self._in_flight += 1
        try:
            piece, last = await loop.run_in_executor(
                self._pool, backend.run_batch, batch)
            while True:
                if piece:
                    writer.write(piece)
                    await writer.drain()
                if last:
                    return
                piece, last = await loop.run_in_executor(
                    self._pool, backend.next_piece)
        finally:
            self._in_flight -= 1


async def serve(config: ServerConfig | None = None,
                engines: "dict[str, Engine] | None" = None) -> Server:
    """Start a server and return it (`await server.serve_forever()` to
    block, ``await server.stop()`` to shut down)."""
    return await Server(config, engines).start()
