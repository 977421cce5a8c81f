"""``serve_mix``: ``python -m repro.serve`` as a child process over a
checkpointed durable directory, driven by two ``repro.client``
connections in a closed loop (each caller waits for its reply).

The directory is built in-process, checkpointed and copied; the copy is
served, the original stays open here as the *in-process twin*: the same
round script runs against it for the result comparison and for
``server.inproc_round_ms``.
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import shutil
import subprocess
import sys
from contextlib import nullcontext
from typing import Any

from repro.client import AsyncConnection, connect
from repro.server import protocol

from harness import (
    REPO_ROOT, Tracer, Window, WorkDir, median, now, timed_s, wal_bytes,
)
from wl_read import (
    ReadWorkload, Rows, Stmt, _synth, draw_synth, provenance_of,
)

BIG_ROWS = 2000
BIG_COLUMNS = [("k", "int"), ("v", "int"), ("w", "float"),
               ("label", "text")]
AGG_SPAN = 100

POINT_SQL = "SELECT v, w, label FROM big WHERE k = $1"
#: the BENCH_serve query
AGG_SQL = "SELECT count(*), sum(v) FROM big WHERE k >= $1 AND k < $2"
WIDE_SQL = "SELECT k, v, w, label FROM big"

#: the sublink query: q1 under the default (auto) strategy, ~50 rows
PROV_FULL = _synth("q1_auto", 160, 160, 42, 50)
PROV_QUICK = _synth("q1_auto", 60, 60, 7, 8)


def local(sql: str) -> str:
    """Wire placeholders as the session API spells them."""
    return sql.replace("$1", "?").replace("$2", "?")


class ServeMix(ReadWorkload):
    name = "serve_mix"
    classes = ("point", "agg", "prov", "wide")
    clients = 2

    def __init__(self) -> None:
        super().__init__()
        self.server: subprocess.Popen | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.connections: list[AsyncConnection] = []
        self.inproc_ms = 0.0

    @property
    def child_pid(self) -> int | None:     # type: ignore[override]
        return self.server.pid if self.server is not None else None

    # -- inputs and set-up ----------------------------------------------------

    def make_inputs(self, seed: int, quick: bool) -> dict[str, Any]:
        rng = random.Random(f"serve-{seed}")
        big = [(k, rng.randrange(101), rng.random() * 1000,
                f"row-{rng.getrandbits(32):08x}")
               for k in range(200 if quick else BIG_ROWS)]
        prov = draw_synth(PROV_QUICK, seed, 2000) if quick \
            else draw_synth(PROV_FULL, seed)
        return {"big": big, "prov": prov}

    def setup(self, seed: int, quick: bool, work: WorkDir) -> None:
        inputs = self.inputs = self.make_inputs(seed, quick)
        engine = self.open_engine(work)
        conn = self.conn = engine.connect()
        pair = [("a", "int"), ("b", "int")]
        self.load(conn, {"big": inputs["big"],
                         "r1": inputs["prov"].rows1,
                         "r2": inputs["prov"].rows2},
                  {"big": BIG_COLUMNS, "r1": pair, "r2": pair})
        conn.execute("CREATE INDEX big_k ON big (k)")
        conn.execute("ANALYZE")
        self.wal_bytes_extra = wal_bytes(engine)
        engine.checkpoint()
        served = work.fresh("served")
        shutil.copytree(engine.path, served)
        self.prov_sql = provenance_of(inputs["prov"].sql)
        self._local = {sql: conn.prepare(local(sql)) for sql in
                       (POINT_SQL, AGG_SQL, self.prov_sql, WIDE_SQL)}
        self._boot(served)

    def _boot(self, directory: Any) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--database", f"bench={directory}"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = b""
        if select.select([self.server.stderr], [], [], 30)[0]:
            line = self.server.stderr.readline()
        if b"listening on" not in line:
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.split(b"listening on ")[1].split()[0]
                        .rsplit(b":", 1)[1])
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._connect_clients())

    async def _connect_clients(self) -> None:
        self.connections = []
        self._wire = []
        for _ in range(self.clients):
            conn = await connect("127.0.0.1", self.port, database="bench")
            self.connections.append(conn)
            self._wire.append({sql: await conn.prepare(sql) for sql in
                               (POINT_SQL, AGG_SQL, self.prov_sql)})

    def teardown(self) -> None:
        try:
            if self.loop is not None:
                for conn in self.connections:
                    self.loop.run_until_complete(conn.close())
                self.loop.close()
        finally:
            self.loop = None
            self.connections = []
            if self.server is not None:
                self.server.terminate()
                try:
                    self.server.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
                self.server.stderr.close()
                self.server = None
            super().teardown()

    # -- the round script -----------------------------------------------------

    def calls(self, op: int) -> list[tuple[str, str, tuple]]:
        """``(class, wire sql, params)`` of one round."""
        size = len(self.inputs["big"])
        span = min(AGG_SPAN, size // 2)
        calls = [("point", POINT_SQL, (((op * 8 + j) * 37) % size,))
                 for j in range(8)]
        for j in range(2):
            low = ((op * 2 + j) * 101) % (size - span)
            calls.append(("agg", AGG_SQL, (low, low + span)))
        calls.append(("prov", self.prov_sql, ()))
        calls.append(("wide", WIDE_SQL, ()))
        return calls

    def script(self, op: int) -> list[Stmt]:
        """The round against the in-process twin."""
        return [Stmt(cls, self.conn, local(sql),
                     prepared=self._local[sql], params=params)
                for cls, sql, params in self.calls(op)]

    async def served_round(self, client: int, op: int,
                           window: Window | None = None,
                           tracer: Tracer | None = None
                           ) -> list[Rows]:
        """One op over the wire; returns each call's rows in order."""
        conn = self.connections[client]
        prepared = self._wire[client]
        results = []
        started = now()
        for cls, sql, params in self.calls(op):
            t0 = now()
            with tracer.span("client." + cls) if tracer is not None \
                    else nullcontext():
                if sql is WIDE_SQL:         # the simple protocol
                    rows = (await conn.query(sql))[0].rows
                else:
                    rows = (await prepared[sql].execute(params)).rows
            if window is not None:
                window.add_class(cls, (now() - t0) * 1e3)
            else:
                results.append(rows)
        if window is not None:
            window.op_ms.append((now() - started) * 1e3)
        return results

    # -- phases ---------------------------------------------------------------

    def run_round(self, op: int, window: Window | None = None
                  ) -> dict[str, Rows]:
        """One served op on client ``op % clients``, compared with the
        twin when not timing.  Results are keyed ``class#position``."""
        served = self.loop.run_until_complete(
            self.served_round(op % self.clients, op, window))
        if window is not None:
            return {}
        return {f"{cls}#{i}": rows for i, ((cls, _, _), rows)
                in enumerate(zip(self.calls(op), served))}

    def check_round(self, op: int, results: dict[str, Rows]
                    ) -> list[str]:
        errors = []
        for i, stmt in enumerate(self.script(op)):
            served = results[f"{stmt.cls}#{i}"]
            if sorted(map(repr, served)) != sorted(map(repr, stmt.run())):
                errors.append(f"{stmt.cls}@{op}: served rows differ "
                              f"from the in-process rows")
        return errors

    def run_window(self, seconds: float, first_op: int) -> Window:
        async def client_loop(client: int) -> Window:
            window = Window()
            started = now()
            op = first_op + client
            while now() < started + seconds:
                try:
                    await self.served_round(client, op, window)
                except Exception:   # noqa: BLE001 - a failed op is data
                    window.failed += 1
                    if self.connections[client].closed:
                        break
                op += self.clients
            window.seconds = now() - started
            return window

        async def run() -> Window:
            total = Window()
            for window in await asyncio.gather(
                    *(client_loop(c) for c in range(self.clients))):
                total.merge(window)
            return total

        return self.loop.run_until_complete(run())

    # -- per-layer numbers ----------------------------------------------------

    def inproc_round_ms(self, rounds: int) -> float:
        times = []
        for op in range(rounds):
            started = now()
            for stmt in self.script(op):
                stmt.run()
            times.append((now() - started) * 1e3)
        return median(times)

    def connect_ms(self, count: int) -> float:
        async def one() -> None:
            conn = await connect("127.0.0.1", self.port, database="bench")
            await conn.close()
        return 1e3 * median([
            timed_s(lambda: self.loop.run_until_complete(one()))
            for _ in range(count)])

    def codec_us_per_row(self, repeats: int = 5) -> tuple[float, float]:
        """``(encode, decode)`` microseconds per row of the ``wide``
        result: the server's RowDescription + DataRow encoding, and the
        client's framing + parse + text decode of the same bytes."""
        result = self.conn.execute(WIDE_SQL)
        rows = result.rows
        encode, decode = [], []
        for _ in range(repeats):
            started = now()
            description = protocol.describe_schema(result.schema)
            frames = [description.encode()]
            for row in rows:
                frames.append(protocol.DataRow(tuple(
                    protocol.encode_text(v) for v in row)).encode())
            encode.append((now() - started) * 1e6 / len(rows))
            data = b"".join(frames)
            started = now()
            stream = protocol.MessageStream()
            stream.feed(data)
            decoded = []
            while (framed := stream.next_message()) is not None:
                message = protocol.parse_backend(*framed)
                if isinstance(message, protocol.RowDescription):
                    described = message
                else:
                    decoded.append(protocol.decode_row(message, described))
            decode.append((now() - started) * 1e6 / len(rows))
            assert len(decoded) == len(rows)
        return median(encode), median(decode)

    def traced_phase(self, tracer: Tracer) -> dict[str, float]:
        # the engine-side layers are staged on the in-process twin
        before = self.plan_cache_counts()
        out = super().traced_phase(tracer)
        after = self.plan_cache_counts()
        out["api.plan_cache_hit_ratio"] = \
            (after[0] - before[0]) / max(1, after[1] - before[1])
        # the wire side: served ops with and without a span per call
        plain_ms = []
        first_span = len(tracer.spans)
        for op in range(self.rounds, 2 * self.rounds):
            client = op % self.clients
            started = now()
            self.loop.run_until_complete(self.served_round(client, op))
            plain_ms.append((now() - started) * 1e3)
            tracer.op = op
            with tracer.span("served_round"):
                self.loop.run_until_complete(
                    self.served_round(client, op, tracer=tracer))
        traced_ms = [(s.end - s.start) * 1e3
                     for s in tracer.spans[first_span:]
                     if s.name == "served_round"]
        encode, decode = self.codec_us_per_row()
        self.inproc_ms = self.inproc_round_ms(self.rounds)
        out.update({
            "server.inproc_round_ms": self.inproc_ms,
            "server.encode_us_per_row": encode,
            "client.decode_us_per_row": decode,
            "server.connect_ms": self.connect_ms(20),
            "bench.trace_overhead_ratio":
                median(traced_ms) / median(plain_ms),
        })
        return out

    def window_metrics(self, window: Window) -> dict[str, float]:
        out = super().window_metrics(window)
        out["server.wire_overhead_ms"] = \
            median(window.op_ms) - self.inproc_ms
        out["server.qps_ratio_vs_inproc"] = \
            window.ops_per_s / (1e3 / self.inproc_ms)
        return out
