"""Integration tests of the network serving layer.

Every test boots a real :class:`~repro.server.Server` on an ephemeral
port inside its own event loop and talks to it through
:mod:`repro.client` — actual TCP, actual wire framing, no mocks.
Covered: the startup handshake (trust and cleartext-password auth,
database routing, admission control), the simple and extended query
protocols, transaction status across BEGIN/COMMIT/ROLLBACK including
failed-transaction recovery, provenance queries over the wire, graceful
shutdown, and the disconnect-mid-stream leak guarantee (an abandoned
portal's Result is closed server-side, releasing its leased plan
instance).

No pytest-asyncio dependency: each test wraps its scenario in
``asyncio.run`` via the :func:`serving` helper.
"""

from __future__ import annotations

import asyncio
import shutil
import subprocess
import sys
import threading
import time

import pytest

from repro.api import Engine
from repro.client import SyncConnection, connect
from repro.errors import (
    AnalyzerError, AuthenticationError, CatalogError, ConnectionLimitError,
    InterfaceError, ProtocolError, ReproError, TransactionError,
)
from repro.server import Server, ServerConfig
from repro.server.backend import (
    PIECE_BYTES, command_tag, translate_placeholders,
)
from repro.server import protocol


def serving(scenario, config: ServerConfig | None = None,
            engines: dict | None = None):
    """Run ``await scenario(server)`` against a freshly booted server."""
    async def runner():
        async with Server(config or ServerConfig(port=0),
                          engines) as server:
            return await scenario(server)
    return asyncio.run(runner())


async def replies(conn) -> list:
    """Every backend message up to and including ReadyForQuery."""
    messages = []
    while not isinstance(message := await conn._recv(),
                         protocol.ReadyForQuery):
        messages.append(message)
    return messages + [message]


async def wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.02)
    return predicate()


# -- handshake and auth -------------------------------------------------------

class TestHandshake:
    def test_startup_reports_parameters_and_key(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            assert conn.parameters["client_encoding"] == "UTF8"
            assert "server_version" in conn.parameters
            assert conn.backend_pid > 0
            assert conn.transaction_status == "I"
            await conn.close()
        serving(scenario)

    def test_cleartext_password_auth(self):
        config = ServerConfig(port=0, users={"alice": "secret",
                                             "bob": None})

        async def scenario(server):
            conn = await connect("127.0.0.1", server.port, user="alice",
                                 password="secret", database="repro")
            assert (await conn.execute("SELECT 1")).rows == [(1,)]
            await conn.close()
            # trust user connects with no password at all
            conn = await connect("127.0.0.1", server.port, user="bob",
                                 database="repro")
            await conn.close()
        serving(scenario, config)

    def test_wrong_password_and_unknown_user_rejected_alike(self):
        config = ServerConfig(port=0, users={"alice": "secret"},
                              databases={"repro": None})

        async def scenario(server):
            messages = []
            for kwargs in ({"user": "alice", "password": "nope"},
                           {"user": "mallory", "password": "x"}):
                with pytest.raises(AuthenticationError) as excinfo:
                    await connect("127.0.0.1", server.port,
                                  database="repro", **kwargs)
                messages.append(str(excinfo.value)
                                .replace("alice", "<u>")
                                .replace("mallory", "<u>"))
            # same message for both, so probing cannot enumerate users
            assert messages[0] == messages[1]
        serving(scenario, config)

    def test_unknown_database_rejected(self):
        async def scenario(server):
            with pytest.raises(AuthenticationError, match="nope"):
                await connect("127.0.0.1", server.port, database="nope")
        serving(scenario)

    def test_admission_control_over_limit(self):
        config = ServerConfig(port=0, max_connections=2)

        async def scenario(server):
            first = await connect("127.0.0.1", server.port)
            second = await connect("127.0.0.1", server.port)
            with pytest.raises(ConnectionLimitError):
                await connect("127.0.0.1", server.port)
            # a freed slot is usable again
            await first.close()
            assert await wait_for(lambda: server.connection_count < 2)
            third = await connect("127.0.0.1", server.port)
            await third.close()
            await second.close()
        serving(scenario, config)

    def test_database_routing_isolates_engines(self):
        config = ServerConfig(port=0,
                              databases={"db1": None, "db2": None})

        async def scenario(server):
            one = await connect("127.0.0.1", server.port, database="db1")
            two = await connect("127.0.0.1", server.port, database="db2")
            await one.execute("CREATE TABLE t (a int)")
            await one.execute("INSERT INTO t VALUES (1)")
            # db2 never sees db1's table
            with pytest.raises((CatalogError, AnalyzerError)):
                await two.execute("SELECT * FROM t")
            assert (await one.execute("SELECT count(*) FROM t")
                    ).rows == [(1,)]
            assert set(server.engines) == {"db1", "db2"}
            await one.close()
            await two.close()
        serving(scenario, config)


# -- simple protocol ----------------------------------------------------------

class TestSimpleQuery:
    def test_multi_statement_script(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            results = await conn.query(
                "CREATE TABLE r (a int, b text); "
                "INSERT INTO r VALUES (1, 'x'); "
                "INSERT INTO r VALUES (2, 'y'); "
                "SELECT a, b FROM r")
            assert [r.tag for r in results] == [
                "CREATE TABLE", "INSERT 0 1", "INSERT 0 1", "SELECT 2"]
            assert results[-1].columns == ("a", "b")
            assert sorted(results[-1].rows) == [(1, "x"), (2, "y")]
            await conn.close()
        serving(scenario)

    def test_empty_query_and_error_keep_session_alive(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            assert (await conn.query("")) == []
            with pytest.raises(ReproError):
                await conn.query("SELECT * FROM missing_table")
            # the session survives and is idle again
            assert conn.transaction_status == "I"
            assert (await conn.execute("SELECT 2")).rows == [(2,)]
            await conn.close()
        serving(scenario)

    def test_types_round_trip_through_text_format(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query(
                "CREATE TABLE v (i int, f float, t text, b bool); "
                "INSERT INTO v VALUES (-7, 1.5, 'héllo', true); "
                "INSERT INTO v VALUES (NULL, NULL, NULL, NULL)")
            result = await conn.execute("SELECT i, f, t, b FROM v")
            assert result.rows[0] == (-7, 1.5, "héllo", True)
            assert result.rows[1] == (None, None, None, None)
            await conn.close()
        serving(scenario)


# -- extended protocol --------------------------------------------------------

class TestExtendedProtocol:
    def test_parameterized_execute(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE r (a int, b int)")
            for i in range(5):
                await conn.execute("INSERT INTO r VALUES ($1, $2)",
                                   (i, i * 10))
            result = await conn.execute(
                "SELECT a, b FROM r WHERE b >= $1 AND a < $2", (20, 4))
            assert sorted(result.rows) == [(2, 20), (3, 30)]
            assert result.tag == "SELECT 2"
            await conn.close()
        serving(scenario)

    def test_dollar_params_reuse_out_of_order(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE r (a int); "
                             "INSERT INTO r VALUES (1); "
                             "INSERT INTO r VALUES (5)")
            # $2 appears before $1: values must be reordered, not zipped
            result = await conn.execute(
                "SELECT a FROM r WHERE a >= $2 AND a <= $1", (9, 2))
            assert result.rows == [(5,)]
            await conn.close()
        serving(scenario)

    def test_named_statement_describe_and_reuse(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE r (a int, b text); "
                             "INSERT INTO r VALUES (1, 'x'); "
                             "INSERT INTO r VALUES (2, 'y')")
            stmt = await conn.prepare("SELECT a, b FROM r WHERE a = $1")
            assert stmt.param_count == 1
            assert [name for name, _ in stmt.description] == ["a", "b"]
            assert [oid for _, oid in stmt.description] == \
                [protocol.OID_INT8, protocol.OID_TEXT]
            assert (await stmt.execute((1,))).rows == [(1, "x")]
            assert (await stmt.execute((2,))).rows == [(2, "y")]
            await stmt.close()
            # closed statements are gone
            with pytest.raises(ReproError):
                await stmt.execute((1,))
            await conn.close()
        serving(scenario)

    def test_portal_streaming_with_suspension(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE big (k int)")
            await conn.query("BEGIN; " + "; ".join(
                f"INSERT INTO big VALUES ({i})" for i in range(250))
                + "; COMMIT")
            stmt = await conn.prepare("SELECT k FROM big")
            rows = [row async for row in stmt.stream(batch=33)]
            assert sorted(rows) == [(i,) for i in range(250)]
            await conn.close()
        serving(scenario)

    def test_extended_error_skips_until_sync(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            with pytest.raises(ReproError):
                await conn.execute("SELECT * FROM nothing_here")
            # next extended-protocol cycle works: the server recovered
            # at Sync instead of choking on the queued Bind/Execute
            assert (await conn.execute("SELECT 41 + $1", (1,))
                    ).rows == [(42,)]
            await conn.close()
        serving(scenario)

    def test_unknown_portal_and_statement_errors(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn._send(protocol.Describe("S", "ghost"),
                             protocol.Sync())
            with pytest.raises(ReproError, match="ghost"):
                await conn._drain_until_ready()
            await conn._send(protocol.Execute("lost", 0), protocol.Sync())
            with pytest.raises(ReproError, match="lost"):
                await conn._drain_until_ready()
            await conn.close()
        serving(scenario)


    def test_simple_query_discarded_until_sync(self):
        """After an extended-protocol error everything but Sync is
        discarded (PostgreSQL's ignore_till_sync) — a simple Query
        included: it is neither run nor answered."""
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE t (a int)")
            await conn._send(
                protocol.Parse("", "SELECT * FROM nothing_here"),
                protocol.Query("INSERT INTO t VALUES (1)"),
                protocol.Bind("", ""),
                protocol.Sync())
            assert [type(m) for m in await replies(conn)] == [
                protocol.ErrorResponse, protocol.ReadyForQuery]
            assert (await conn.query("SELECT count(*) FROM t")
                    )[0].rows == [(0,)]
            await conn.close()
        serving(scenario)


# -- the batching contract ----------------------------------------------------

class _Tap:
    """Counts worker-pool submissions and records the size of every
    socket write of the one connected client."""

    def __init__(self, server):
        self.submissions = 0
        self.writes: list[int] = []
        submit = server._pool.submit
        (client,) = server._clients
        transport_write = client.writer.transport.write

        def counted_submit(*args, **kwargs):
            self.submissions += 1
            return submit(*args, **kwargs)

        def recorded_write(data):
            self.writes.append(len(data))
            return transport_write(data)

        server._pool.submit = counted_submit
        client.writer.transport.write = recorded_write


def big_engine(rows: int = 5000) -> Engine:
    """The table of ``test_abort_mid_unbounded_stream``: ~200 B rows."""
    engine = Engine()
    with engine.connect() as setup:
        setup.execute("CREATE TABLE big (k int, pad text)")
        insert = setup.prepare("INSERT INTO big VALUES (?, ?)")
        with setup.transaction():
            for i in range(rows):
                insert.execute((i, "x" * 200))
    return engine


class TestBatching:
    def test_prepared_point_execute_is_one_hop_one_write(self):
        engine = big_engine(50)

        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            stmt = await conn.prepare("SELECT pad FROM big WHERE k = $1")
            tap = _Tap(server)
            # Bind / Describe / Execute / Sync, pipelined in one packet
            assert (await stmt.execute((7,))).rows == [("x" * 200,)]
            assert tap.submissions == 1
            assert len(tap.writes) == 1
            await conn.close()

        serving(scenario, engines={"repro": engine})
        engine.close()

    def test_pipelined_pairs_answer_in_order_and_skip_after_error(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE t (a int)")
            await conn._send(
                protocol.Parse("ins", "INSERT INTO t VALUES ($1)"),
                protocol.Parse("sel", "SELECT a FROM t WHERE a = $1"),
                protocol.Sync())
            await replies(conn)
            tap = _Tap(server)
            pairs = []
            for i in range(6):
                pairs += [protocol.Bind("", "ins", (), (b"%d" % i,)),
                          protocol.Execute("", 0)]
            # pair 3 names a missing statement: pairs 4 and 5 are skipped
            pairs[6] = protocol.Bind("", "ghost")
            await conn._send(*pairs, protocol.Sync())
            answer = await replies(conn)
            assert [type(m) for m in answer] == \
                [protocol.BindComplete, protocol.CommandComplete] * 3 + \
                [protocol.ErrorResponse, protocol.ReadyForQuery]
            assert "ghost" in answer[6].message
            assert tap.submissions == 1 and len(tap.writes) == 1
            # only pairs 0..2 ran
            await conn._send(
                *(m for i in range(6) for m in (
                    protocol.Bind("", "sel", (), (b"%d" % i,)),
                    protocol.Execute("", 0))),
                protocol.Sync())
            answer = await replies(conn)
            assert [m.values for m in answer
                    if isinstance(m, protocol.DataRow)] == \
                [(b"0",), (b"1",), (b"2",)]
            assert sum(isinstance(m, protocol.ReadyForQuery)
                       for m in answer) == 1
            await conn.close()
        serving(scenario)

    def test_large_result_leaves_in_bounded_pieces(self):
        engine = big_engine()

        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            tap = _Tap(server)
            result = (await conn.query("SELECT k, pad FROM big"))[0]
            assert len(result.rows) == 5000
            row_bytes = len(protocol.encode_data_row((4999, "x" * 200)))
            assert len(tap.writes) > 5000 * row_bytes // PIECE_BYTES
            assert max(tap.writes) < PIECE_BYTES + row_bytes
            # one worker call per piece, no probe or close hop
            assert tap.submissions == len(tap.writes)
            await conn.close()

        serving(scenario, engines={"repro": engine})
        engine.close()

    def test_unterminated_batch_is_answered_at_once(self):
        """The server never waits for a Sync or Flush before answering
        what it has buffered."""
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn._send(protocol.Parse("", "SELECT 1"))
            assert isinstance(
                await asyncio.wait_for(conn._recv(), 5),
                protocol.ParseComplete)
            await conn._send(protocol.Bind("", ""))
            assert isinstance(
                await asyncio.wait_for(conn._recv(), 5),
                protocol.BindComplete)
            await conn._send(protocol.Execute("", 0), protocol.Sync())
            assert [type(m) for m in await replies(conn)] == [
                protocol.DataRow, protocol.CommandComplete,
                protocol.ReadyForQuery]
            await conn.close()
        serving(scenario)


# -- transactions -------------------------------------------------------------

class TestTransactions:
    def test_begin_commit_rollback_status(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE t (a int)")
            assert conn.transaction_status == "I"
            result = await conn.execute("BEGIN")
            assert result.tag == "BEGIN"
            assert conn.transaction_status == "T"
            await conn.execute("INSERT INTO t VALUES (1)")
            assert (await conn.execute("COMMIT")).tag == "COMMIT"
            assert conn.transaction_status == "I"

            await conn.begin()
            await conn.execute("INSERT INTO t VALUES (2)")
            await conn.rollback()
            assert conn.transaction_status == "I"
            assert (await conn.execute("SELECT count(*) FROM t")
                    ).rows == [(1,)]
            await conn.close()
        serving(scenario)

    def test_failed_transaction_blocks_until_rollback(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE t (a int)")
            await conn.begin()
            with pytest.raises(ReproError):
                await conn.execute("SELECT oops FROM t")
            assert conn.transaction_status == "E"
            # anything but COMMIT/ROLLBACK is refused with 25P02
            with pytest.raises(TransactionError) as excinfo:
                await conn.execute("SELECT 1")
            assert excinfo.value.sqlstate == "25P02"
            assert conn.transaction_status == "E"
            await conn.rollback()
            assert conn.transaction_status == "I"
            assert (await conn.execute("SELECT 1")).rows == [(1,)]
            await conn.close()
        serving(scenario)

    def test_commit_of_failed_transaction_rolls_back(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE t (a int)")
            await conn.begin()
            await conn.execute("INSERT INTO t VALUES (1)")
            with pytest.raises(ReproError):
                await conn.execute("SELECT oops FROM t")
            # COMMIT of a failed transaction reports ROLLBACK, as
            # PostgreSQL does, and the insert is gone
            result = await conn.execute("COMMIT")
            assert result.tag == "ROLLBACK"
            assert conn.transaction_status == "I"
            assert (await conn.execute("SELECT count(*) FROM t")
                    ).rows == [(0,)]
            await conn.close()
        serving(scenario)

    def test_sessions_are_isolated(self):
        async def scenario(server):
            one = await connect("127.0.0.1", server.port)
            two = await connect("127.0.0.1", server.port)
            await one.query("CREATE TABLE t (a int)")
            await one.begin()
            await one.execute("INSERT INTO t VALUES (7)")
            # uncommitted write is invisible to the other session
            assert (await two.execute("SELECT count(*) FROM t")
                    ).rows == [(0,)]
            await one.commit()
            assert (await two.execute("SELECT count(*) FROM t")
                    ).rows == [(1,)]
            await one.close()
            await two.close()
        serving(scenario)


# -- provenance over the wire -------------------------------------------------

class TestProvenance:
    def test_select_provenance_describes_prov_columns(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE r (a int, b int); "
                             "CREATE TABLE s (c int, d int); "
                             "INSERT INTO r VALUES (1, 10); "
                             "INSERT INTO s VALUES (1, 100)")
            result = await conn.execute(
                "SELECT PROVENANCE r.a, s.d FROM r, s WHERE r.a = s.c")
            assert result.provenance_columns == (
                "prov_r_a", "prov_r_b", "prov_s_c", "prov_s_d")
            assert result.rows == [(1, 100, 1, 10, 1, 100)]
            # the same shape through a described prepared statement
            stmt = await conn.prepare(
                "SELECT PROVENANCE a FROM r WHERE a = $1")
            described = [name for name, _ in stmt.description]
            assert described == ["a", "prov_r_a", "prov_r_b"]
            assert (await stmt.execute((1,))).rows == [(1, 1, 10)]
            await conn.close()
        serving(scenario)


# -- disconnect cleanup (the leak guarantee) ----------------------------------

class TestDisconnectCleanup:
    def test_abandoned_portal_releases_plan_instance(self):
        """A client that vanishes holding a suspended portal must not
        leak the portal's streaming Result: the server's disconnect path
        closes it, returning the leased physical-plan instance."""
        engine = Engine()
        with engine.connect() as setup:
            setup.execute("CREATE TABLE big (k int)")
            insert = setup.prepare("INSERT INTO big VALUES (?)")
            with setup.transaction():
                for i in range(2000):
                    insert.execute((i,))

        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            stmt = await conn.prepare("SELECT k FROM big")
            iterator = stmt.stream(batch=10)
            first = await anext(iterator)
            assert first == (0,)
            # mid-stream: the portal's Result is open server-side,
            # holding a leased plan instance
            assert engine.plan_cache.leased_instances() == 1
            conn.abort()                      # vanish without Terminate
            assert await wait_for(
                lambda: engine.plan_cache.leased_instances() == 0)
            assert await wait_for(
                lambda: server.connection_count == 0)
            # engine still fully serviceable for new clients
            fresh = await connect("127.0.0.1", server.port)
            assert (await fresh.execute("SELECT count(*) FROM big")
                    ).rows == [(2000,)]
            await fresh.close()

        serving(scenario, ServerConfig(port=0),
                engines={"repro": engine})
        assert engine.plan_cache.leased_instances() == 0
        engine.close()

    def test_abort_mid_unbounded_stream(self):
        """Dropping the socket while the server is actively streaming an
        unbounded Execute also cleans up (the writer hits a reset, the
        response generator is closed, the Result released)."""
        engine = Engine()
        with engine.connect() as setup:
            setup.execute("CREATE TABLE big (k int, pad text)")
            insert = setup.prepare("INSERT INTO big VALUES (?, ?)")
            with setup.transaction():
                for i in range(5000):
                    insert.execute((i, "x" * 200))

        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            # fire the query, read a little, then yank the socket
            await conn._send(
                protocol.Parse("", "SELECT k, pad FROM big"),
                protocol.Bind("", ""),
                protocol.Execute("", 0),
                protocol.Sync())
            await conn._recv()                # ParseComplete
            await conn._recv()                # BindComplete
            assert isinstance(await conn._recv(), protocol.DataRow)
            conn.abort()
            assert await wait_for(
                lambda: engine.plan_cache.leased_instances() == 0)

        serving(scenario, ServerConfig(port=0),
                engines={"repro": engine})
        engine.close()


# -- graceful shutdown --------------------------------------------------------

class TestShutdown:
    def test_stop_drains_in_flight_query(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await conn.query("CREATE TABLE t (a int)")
            insert = await conn.prepare("INSERT INTO t VALUES ($1)")
            for i in range(200):
                await insert.execute((i,))
            # a cross join is slow enough that stop() races with it;
            # the simple protocol makes the whole cycle one in-flight
            # unit, so the drain must let it finish through RFQ
            query = asyncio.ensure_future(
                conn.query("SELECT count(*) FROM t t1, t t2"))
            await wait_for(lambda: server._in_flight > 0)
            await server.stop()
            results = await query
            assert results[0].rows == [(40000,)]

        asyncio.run(_boot(scenario))

    def test_idle_client_sees_server_shutdown(self):
        async def scenario(server):
            conn = await connect("127.0.0.1", server.port)
            await server.stop()
            with pytest.raises(ReproError):
                await conn.execute("SELECT 1")

        asyncio.run(_boot(scenario))

    def test_stop_is_idempotent(self):
        async def scenario(server):
            await server.stop()
            await server.stop()

        asyncio.run(_boot(scenario))

    def test_stop_tolerates_already_closed_client_transport(self):
        # the shutdown notice is written to every client; a transport
        # torn down mid-stop raises OSError/RuntimeError, which must
        # not abort the rest of the shutdown sequence
        from repro.server.server import _Client

        class _DeadWriter:
            def write(self, data):
                raise RuntimeError(
                    "unable to perform operation on closed transport")

        async def scenario(server):
            server._clients.add(_Client(_DeadWriter(), task=None))
            await server.stop()
            assert server._stopped

        asyncio.run(_boot(scenario))

    def test_stop_does_not_swallow_unexpected_write_failures(self):
        # the teardown handler is typed: a bug that surfaces as
        # anything other than a transport error must propagate, not
        # vanish into a broad except
        from repro.server.server import _Client

        class _BuggyWriter:
            def write(self, data):
                raise ZeroDivisionError("handler bug")

        async def scenario(server):
            server._clients.add(_Client(_BuggyWriter(), task=None))
            with pytest.raises(ZeroDivisionError):
                await server.stop()
            server._clients.clear()

        asyncio.run(_boot(scenario))


async def _boot(scenario):
    server = await Server(ServerConfig(port=0)).start()
    try:
        await scenario(server)
    finally:
        await server.stop()


# -- the sync client ----------------------------------------------------------

class TestSyncClient:
    def test_blocking_facade(self):
        ready = threading.Event()
        holder: dict = {}

        def serve_thread():
            async def body():
                holder["loop"] = asyncio.get_running_loop()
                holder["stop"] = asyncio.Event()
                async with Server(ServerConfig(port=0)) as server:
                    holder["port"] = server.port
                    ready.set()
                    await holder["stop"].wait()

            asyncio.run(body())

        thread = threading.Thread(target=serve_thread, daemon=True)
        thread.start()
        assert ready.wait(10)
        try:
            with SyncConnection("127.0.0.1", holder["port"]) as conn:
                conn.query("CREATE TABLE t (a int)")
                conn.execute("INSERT INTO t VALUES ($1)", (3,))
                assert conn.execute("SELECT a FROM t").rows == [(3,)]
                conn.begin()
                assert conn.transaction_status == "T"
                conn.rollback()
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(timeout=10)


# -- placeholder translation and command tags (backend units) ----------------

class TestPlaceholders:
    def test_basic_translation(self):
        sql, order = translate_placeholders(
            "SELECT * FROM r WHERE a = $1 AND b = $2")
        assert sql == "SELECT * FROM r WHERE a = ? AND b = ?"
        assert order == (1, 2)

    def test_out_of_order_and_reuse(self):
        sql, order = translate_placeholders("SELECT $2, $1, $2")
        assert sql == "SELECT ?, ?, ?"
        assert order == (2, 1, 2)

    def test_quotes_and_comments_are_opaque(self):
        sql, order = translate_placeholders(
            "SELECT '$1', \"$2\" -- $3\n, /* $4 */ $1 FROM r")
        assert order == (1,)
        assert sql.endswith("? FROM r")
        assert "'$1'" in sql and '"$2"' in sql

    def test_escaped_quote_inside_literal(self):
        sql, order = translate_placeholders("SELECT 'it''s $1', $1")
        assert order == (1,)
        assert "'it''s $1'" in sql

    def test_gap_in_parameter_numbers_rejected(self):
        with pytest.raises(ProtocolError, match=r"\$1"):
            translate_placeholders("SELECT $2")

    def test_no_placeholders_passthrough(self):
        sql, order = translate_placeholders("SELECT 1")
        assert sql == "SELECT 1"
        assert order is None


class TestCommandTags:
    def test_tags(self):
        from repro.sql.parser import parse_statement
        assert command_tag(parse_statement("SELECT 1"), 3) == "SELECT 3"
        assert command_tag(
            parse_statement("INSERT INTO r VALUES (1)"), 1) == "INSERT 0 1"
        assert command_tag(
            parse_statement("DELETE FROM r"), 2) == "DELETE 2"
        assert command_tag(
            parse_statement("CREATE TABLE r (a int)"), 0) == "CREATE TABLE"
        assert command_tag(parse_statement("BEGIN"), 0) == "BEGIN"


# -- psql interoperability ----------------------------------------------------

@pytest.mark.skipif(shutil.which("psql") is None,
                    reason="psql not installed")
class TestPsql:
    def test_psql_end_to_end(self, tmp_path):
        """A stock PostgreSQL psql runs DDL, DML, a provenance query and
        failed-transaction recovery against the server."""
        ready = threading.Event()
        state: dict = {}

        def serve_thread():
            async def main():
                async with Server(ServerConfig(port=0)) as server:
                    state["port"] = server.port
                    state["loop"] = asyncio.get_running_loop()
                    state["stop"] = asyncio.Event()
                    ready.set()
                    await state["stop"].wait()
            asyncio.run(main())

        thread = threading.Thread(target=serve_thread, daemon=True)
        thread.start()
        assert ready.wait(10)
        script = (
            "CREATE TABLE t (x int, y text);\n"
            "INSERT INTO t VALUES (1, 'one');\n"
            "INSERT INTO t VALUES (2, 'two');\n"
            "BEGIN;\n"
            "SELECT broken FROM t;\n"
            "SELECT 1;\n"
            "ROLLBACK;\n"
            "SELECT PROVENANCE x FROM t;\n")
        proc = subprocess.run(
            ["psql", "-h", "127.0.0.1", "-p", str(state["port"]),
             "-U", "repro", "-d", "repro", "-X", "-v", "ON_ERROR_STOP=0"],
            input=script, capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin", "PGCONNECT_TIMEOUT": "10"})
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=10)
        out = proc.stdout + proc.stderr
        assert "CREATE TABLE" in out
        assert out.count("INSERT 0 1") == 2
        assert "ROLLBACK" in out
        assert "prov_t_x" in out and "prov_t_y" in out
        assert "ERROR" in out
        assert "current transaction is aborted" in out


if sys.version_info < (3, 10):     # pragma: no cover
    raise RuntimeError("tests require Python 3.10+")
