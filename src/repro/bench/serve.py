"""Multi-client load benchmark over the wire server
(``python -m repro.bench --serve``).

Boots a :class:`~repro.server.Server` on an ephemeral port over a shared
engine, drives it with N concurrent :mod:`repro.client` connections —
each running a prepared range-aggregation query in a closed loop — and
reports aggregate queries/sec plus client-observed p50/p99 latency.

The same query is also run in-process (one session, one thread, a
prepared statement in a closed loop) for the same duration.  The gated
ratio — served throughput at least half of in-process throughput — caps
what the network layer is allowed to cost: protocol encode/decode,
asyncio scheduling and the one worker-pool hop per pipelined batch must
stay small next to query execution.  The workload scans ~2000 rows per query precisely so the
comparison measures serving overhead against *real* per-query work, not
against a no-op.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass

from ..api import Engine
from ..client import connect
from ..server import Server, ServerConfig

#: Rows in the scanned table; each query aggregates a ~100-row range
#: out of a full scan, for ~1ms of real engine work per query.
_ROWS = 2000
_SPAN = 100

_WIRE_QUERY = ("SELECT count(*), sum(v) FROM big "
               "WHERE k >= $1 AND k < $2")
_LOCAL_QUERY = _WIRE_QUERY.replace("$1", "?").replace("$2", "?")


def _populate(engine: Engine, rows: int) -> None:
    with engine.connect() as conn:
        conn.execute("CREATE TABLE big (k int, v int)")
        insert = conn.prepare("INSERT INTO big VALUES (?, ?)")
        with conn.transaction():
            for k in range(rows):
                insert.execute((k, k * 7 % 101))
        conn.execute("ANALYZE big")


@dataclass
class ServeBenchResult:
    """One load-bench run; ``ratio`` is the gated number."""

    clients: int
    duration_s: float
    rows: int
    #: served path: aggregate over all concurrent clients
    server_queries: int
    server_qps: float
    p50_ms: float
    p99_ms: float
    #: in-process baseline: one session, one thread, same duration
    inproc_queries: int
    inproc_qps: float
    #: server_qps / inproc_qps — the cost of the network layer
    ratio: float

    def to_dict(self) -> dict:
        return asdict(self)


def _percentile(sorted_values: "list[float]", fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * len(sorted_values)))
    return sorted_values[index]


def _run_inproc(engine: Engine, duration: float) -> int:
    with engine.connect() as conn:
        statement = conn.prepare(_LOCAL_QUERY)
        statement.execute((0, _SPAN)).rows            # warm the plan
        queries = 0
        deadline = time.perf_counter() + duration
        k = 0
        while time.perf_counter() < deadline:
            statement.execute((k, k + _SPAN)).rows
            queries += 1
            k = (k + 101) % (_ROWS - _SPAN)
        return queries


async def _run_clients(port: int, clients: int, duration: float
                       ) -> "tuple[int, list[float]]":
    connections = [await connect("127.0.0.1", port)
                   for _ in range(clients)]
    statements = [await conn.prepare(_WIRE_QUERY)
                  for conn in connections]
    for statement in statements:                      # warm the plans
        await statement.execute((0, _SPAN))
    latencies: "list[float]" = []
    counts = [0] * clients

    async def worker(index: int) -> None:
        statement = statements[index]
        k = (index * 37) % (_ROWS - _SPAN)
        deadline = time.perf_counter() + duration
        while time.perf_counter() < deadline:
            started = time.perf_counter()
            await statement.execute((k, k + _SPAN))
            latencies.append(time.perf_counter() - started)
            counts[index] += 1
            k = (k + 101) % (_ROWS - _SPAN)

    await asyncio.gather(*(worker(i) for i in range(clients)))
    for conn in connections:
        await conn.close()
    return sum(counts), latencies


async def _run_served(engine: Engine, clients: int, duration: float,
                      worker_threads: int) -> "tuple[int, list[float]]":
    config = ServerConfig(port=0, worker_threads=worker_threads,
                          max_connections=max(64, clients + 4))
    async with Server(config, engines={"repro": engine}) as server:
        return await _run_clients(server.port, clients, duration)


def run_serve_bench(clients: int = 16, duration: float = 2.0,
                    rows: int = _ROWS, worker_threads: int = 8
                    ) -> ServeBenchResult:
    """Measure served vs in-process throughput on a shared engine."""
    engine = Engine()
    try:
        _populate(engine, rows)
        inproc_queries = _run_inproc(engine, duration)
        server_queries, latencies = asyncio.run(
            _run_served(engine, clients, duration, worker_threads))
    finally:
        engine.close()
    latencies.sort()
    inproc_qps = inproc_queries / duration
    server_qps = server_queries / duration
    return ServeBenchResult(
        clients=clients,
        duration_s=duration,
        rows=rows,
        server_queries=server_queries,
        server_qps=round(server_qps, 1),
        p50_ms=round(_percentile(latencies, 0.50) * 1000, 3),
        p99_ms=round(_percentile(latencies, 0.99) * 1000, 3),
        inproc_queries=inproc_queries,
        inproc_qps=round(inproc_qps, 1),
        ratio=round(server_qps / inproc_qps, 3) if inproc_qps else 0.0,
    )


def format_serve(result: ServeBenchResult) -> str:
    return (
        f"served    : {result.server_queries} queries from "
        f"{result.clients} clients in {result.duration_s:.1f}s "
        f"= {result.server_qps:.0f} q/s "
        f"(p50 {result.p50_ms:.2f} ms, p99 {result.p99_ms:.2f} ms)\n"
        f"in-process: {result.inproc_queries} queries single-threaded "
        f"= {result.inproc_qps:.0f} q/s\n"
        f"ratio     : {result.ratio:.2f}x of in-process throughput"
    )
