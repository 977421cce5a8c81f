"""Smoke micro-benchmarks (``python -m repro.bench --smoke``).

Four checks, all run by CI as regression gates:

* **Plan cache** — the same provenance query executed two ways over one
  session: the uncached per-call path (``conn.sql()`` re-parses,
  re-analyzes, re-rewrites, re-optimizes and re-lowers on every call)
  versus a :class:`~repro.api.PreparedStatement` planned once and
  re-executed through the plan cache.  Both execute through the same
  ``Connection._execute_plan``, so the speedup is exactly what the plan
  cache buys on a repeated query.

* **Engine** — both batch engines on the *synthetic provenance
  workload* (the paper's Section 4.2.2 q1 under the Unn strategy, which
  plans to the hash equi-join of Figures 7-9): the pipelined row-batch
  engine and the columnar vectorized engine.  Both run the same cached
  physical plan shape, so the ratio isolates execution: whole-column
  kernels over selection vectors against per-row batch loops.  Gate:
  vectorized >= 2x over pipelined.  The check also asserts the Unn
  plan still picks a hash join — the paper's Figures 7-9 behaviour.

* **Concurrency** — the shared-engine payoff: K threads, each with its
  own session from one :class:`~repro.api.engine.Engine`, run a
  read-heavy mix of distinct provenance queries against shared tiny
  tables (planning-bound, like the plan-cache check) versus the same
  total work as K *sequential* single-connection runs on private
  engines, each of which must plan the whole mix from a cold cache.
  The gated ratio — shared-engine aggregate throughput at least 2x the
  sequential baseline — is what the engine-wide plan cache plus
  lock-free snapshot reads buy a multi-session deployment.

* **Durability** — the payoff of the binary snapshot: a database
  (typed table, two secondary indexes, ANALYZE statistics) is
  checkpointed to a database directory and also exported as CSV; the
  gated ratio compares reopening from the snapshot
  (``connect(path=...)`` — columnar decode + bulk index rebuild +
  stored statistics) against rebuilding the same state cold from the
  CSV (parse + insert + CREATE INDEX + re-ANALYZE).  Reopen must stay
  at least 2x faster, or restarts of a production deployment would be
  better served by CSV reload than by the storage subsystem.

* **Parallel** — a scan-aggregate workload (grouped count/sum over a
  hash-partitioned table big enough to clear the fan-out threshold)
  executed serially and with four exchange workers.  Parity is gated
  unconditionally — the parallel rows must be *bit-identical* to the
  serial ones, and the plan must actually fan out through a Gather —
  but the >= 1.5x speedup gate only applies when the host has at least
  four real cores; on smaller hosts the worker processes time-slice
  the same cores and the ratio is recorded without being gated.

* **Indexes** — an indexed point-lookup workload (prepared
  ``k = ?`` lookups against a unique hash index versus the same session
  with ``use_indexes=False``, which plans the filtered sequential scan)
  and a small-probe/big-build equi-join lowered twice from one logical
  plan: once cost-based (which must choose
  :class:`~repro.engine.physical.IndexNestedLoopJoin`) and once with the
  ``force_nested_loop`` lowering hook.  The gated ratio —
  IndexNestedLoopJoin at least 2x over NestedLoopJoin on identical data
  — is the floor under the index subsystem's reason to exist.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from ..api import Engine, connect
from ..synthetic import SyntheticConfig, load_synthetic, q1_sql

#: Small Figure-3-shaped relations: the plan-cache workload is
#: deliberately planning-bound (parse + analyze + rewrite + optimize
#: dominates), which is exactly the repeated-query profile plan caching
#: exists for.
_SETUP_ROWS = 6

_QUERY = ("SELECT PROVENANCE r.a, r.b FROM r "
          "WHERE a = ANY (SELECT c FROM s WHERE c < ?) "
          "AND EXISTS (SELECT c FROM s WHERE s.d < 90)")
_LEGACY_QUERY = _QUERY.replace("?", "40")

#: The engine workload is execution-bound: |R1| = |R2| = 2000 synthetic
#: rows, q1 (equality ANY -> Unn-eligible) with provenance under Unn.
_ENGINE_SIZE = 2000

#: Index workload sizes: a big indexed table probed by a small outer —
#: the shape where an index probe per outer row beats building a hash
#: table (and demolishes a nested loop).
_INDEX_TABLE_ROWS = 6000
_INDEX_PROBE_ROWS = 48
_INDEX_LOOKUPS = 300

#: Concurrency workload: K sessions over one shared engine vs K cold
#: sequential single-connection runs, on a planning-bound mix of
#: distinct provenance queries (small data, many distinct plans — the
#: repeated-query profile an engine-wide plan cache exists for).
_CONCURRENCY_THREADS = 4
_CONCURRENCY_ROUNDS = 1
_CONCURRENCY_DISTINCT = 20

#: Durability workload: rows in the checkpointed/reloaded table.  Big
#: enough that per-row costs dominate fixed open/parse overheads.
_DURABLE_ROWS = 12000

#: Parallel workload: rows in the partitioned scan-aggregate table.
#: Big enough that per-row aggregation dominates the exchange overhead
#: (task dispatch + partial-result pickling) on a multi-core host.
_PARALLEL_ROWS = 60000
_PARALLEL_GROUPS = 64
_PARALLEL_WORKERS = 4


@dataclass
class SmokeResult:
    """Outcome of the three smoke micro-benchmarks."""

    repeats: int
    legacy_seconds: float        # total, uncached conn.sql() per call
    prepared_seconds: float      # total, PreparedStatement.execute per call
    cache_hits: int
    rows: int
    engine_repeats: int
    pipelined_seconds: float      # total, pipelined engine per call
    vectorized_seconds: float     # total, vectorized engine per call
    engine_rows: int
    engine_hash_joins: int        # hash joins in the pipelined Unn run
    index_lookups: int            # point lookups per timed side
    seq_lookup_seconds: float     # total, use_indexes=False (SeqScan)
    index_lookup_seconds: float   # total, IndexScan
    index_join_rows: int          # rows of the probe/build join
    nlj_seconds: float            # total, forced NestedLoopJoin
    inlj_seconds: float           # total, cost-chosen IndexNestedLoopJoin
    concurrency_threads: int      # K sessions / sequential runs
    concurrency_queries: int      # total statements per side
    sequential_seconds: float     # K cold single-connection runs, serial
    concurrent_seconds: float     # K threads sharing one Engine
    durable_rows: int             # rows in the durability workload
    csv_reload_seconds: float     # cold CSV rebuild + index + ANALYZE
    snapshot_open_seconds: float  # connect(path=...) on the checkpoint
    parallel_rows: int            # rows in the parallel workload table
    parallel_cpus: int            # os.cpu_count() of the measuring host
    parallel_fanouts: int         # Gather fan-outs in the parallel run
    serial_agg_seconds: float     # total, max_parallel_workers=0
    parallel_agg_seconds: float   # total, four exchange workers

    @property
    def speedup(self) -> float:
        """Plan-cache speedup: legacy per-call path vs prepared."""
        if self.prepared_seconds == 0:
            return float("inf")
        return self.legacy_seconds / self.prepared_seconds

    @property
    def vectorized_speedup(self) -> float:
        """Vectorized engine vs the pipelined row-batch engine."""
        if self.vectorized_seconds == 0:
            return float("inf")
        return self.pipelined_seconds / self.vectorized_seconds

    @property
    def index_lookup_speedup(self) -> float:
        """Indexed point lookups vs the sequential-scan plan."""
        if self.index_lookup_seconds == 0:
            return float("inf")
        return self.seq_lookup_seconds / self.index_lookup_seconds

    @property
    def index_join_speedup(self) -> float:
        """IndexNestedLoopJoin vs NestedLoopJoin on identical inputs."""
        if self.inlj_seconds == 0:
            return float("inf")
        return self.nlj_seconds / self.inlj_seconds

    @property
    def concurrency_speedup(self) -> float:
        """Aggregate throughput of K threads sharing one Engine vs K
        sequential cold single-connection runs (same total work)."""
        if self.concurrent_seconds == 0:
            return float("inf")
        return self.sequential_seconds / self.concurrent_seconds

    @property
    def reopen_speedup(self) -> float:
        """Snapshot reopen vs rebuilding from CSV + re-ANALYZE."""
        if self.snapshot_open_seconds == 0:
            return float("inf")
        return self.csv_reload_seconds / self.snapshot_open_seconds

    @property
    def parallel_speedup(self) -> float:
        """Four exchange workers vs serial on the scan-aggregate
        workload (gated only on hosts with >= 4 real cores)."""
        if self.parallel_agg_seconds == 0:
            return float("inf")
        return self.serial_agg_seconds / self.parallel_agg_seconds

    def to_dict(self) -> dict:
        """JSON-friendly form (uploaded as a CI artifact so BENCH_*
        trajectories are comparable across PRs)."""
        data = asdict(self)
        data["speedup"] = self.speedup
        data["vectorized_speedup"] = self.vectorized_speedup
        data["index_lookup_speedup"] = self.index_lookup_speedup
        data["index_join_speedup"] = self.index_join_speedup
        data["concurrency_speedup"] = self.concurrency_speedup
        data["reopen_speedup"] = self.reopen_speedup
        data["parallel_speedup"] = self.parallel_speedup
        return data


def _populate(session) -> None:
    session.execute_script("""
        CREATE TABLE r (a int, b int);
        CREATE TABLE s (c int, d int);
    """)
    session.insert(
        "r", [(i % 50, i % 7) for i in range(_SETUP_ROWS)])
    session.insert(
        "s", [(i % 45, i) for i in range(_SETUP_ROWS)])


def _run_plan_cache(repeats: int) -> tuple[float, float, int, int]:
    conn = connect()
    _populate(conn)

    # Warm both paths once so first-call effects are excluded.
    baseline = conn.sql(_LEGACY_QUERY)
    statement = conn.prepare(_QUERY)
    prepared_rows = statement.execute((40,))
    if sorted(prepared_rows.rows) != sorted(baseline.rows):
        raise AssertionError(
            "prepared path disagrees with the uncached path")

    start = time.perf_counter()
    for _ in range(repeats):
        conn.sql(_LEGACY_QUERY)
    legacy_seconds = time.perf_counter() - start

    hits_before = conn.plan_cache.hits
    start = time.perf_counter()
    for _ in range(repeats):
        statement.execute((40,)).rows     # drain: results stream lazily
    prepared_seconds = time.perf_counter() - start

    return (legacy_seconds, prepared_seconds,
            conn.plan_cache.hits - hits_before, len(prepared_rows.rows))


def _run_engines(repeats: int, size: int = _ENGINE_SIZE
                 ) -> tuple[float, float, int, int]:
    db = load_synthetic(SyntheticConfig(size, size, seed=0))
    sql = "SELECT PROVENANCE " + q1_sql(size, size, seed=0)[len("SELECT "):]

    timings: dict[str, float] = {}
    results: dict[str, Counter] = {}
    hash_joins = 0
    for engine in ("pipelined", "vectorized"):
        conn = connect(engine=engine, catalog=db.catalog)
        statement = conn.prepare(sql, strategy="unn")
        relation = statement.execute(())    # warm: plan cached, table hot
        results[engine] = Counter(relation.rows)
        rounds = []
        for _ in range(3):                  # best-of-3 rounds: noise-robust
            start = time.perf_counter()
            for _ in range(repeats):
                statement.execute(()).rows   # drain the streaming result
            rounds.append(time.perf_counter() - start)
        timings[engine] = min(rounds)
        if engine == "pipelined":
            hash_joins = conn.last_stats.hash_joins
        if engine == "vectorized" \
                and conn.last_stats.row_fallback_nodes:
            raise AssertionError(
                "the Unn workload no longer vectorizes end to end")
        conn.close()
    if results["vectorized"] != results["pipelined"]:
        raise AssertionError(
            "the two engines disagree on the Unn workload")
    return (timings["pipelined"], timings["vectorized"],
            sum(results["pipelined"].values()), hash_joins)


def _index_session():
    """A session with the big indexed table + small probe table loaded."""
    conn = connect()
    conn.execute_script("""
        CREATE TABLE big (k int, v int);
        CREATE TABLE probe (k int);
    """)
    conn.insert("big", [(i, i % 97) for i in range(_INDEX_TABLE_ROWS)])
    step = max(_INDEX_TABLE_ROWS // _INDEX_PROBE_ROWS, 1)
    conn.insert("probe", [(i * step,) for i in range(_INDEX_PROBE_ROWS)])
    conn.execute("CREATE UNIQUE INDEX big_k ON big (k)")
    conn.execute("ANALYZE")
    return conn


def _run_index_lookups(conn, lookups: int) -> tuple[float, float]:
    """Prepared point lookups: IndexScan vs the use_indexes=False plan."""
    sql = "SELECT v FROM big WHERE k = ?"
    seqscan = connect(use_indexes=False, catalog=conn.catalog)
    timings: dict[str, float] = {}
    for label, session in (("index", conn), ("seq", seqscan)):
        statement = session.prepare(sql)
        reference = statement.execute((17,))   # warm: plan cached
        if reference.rows != [(17 % 97,)]:
            raise AssertionError(f"{label} point lookup returned "
                                 f"{reference.rows}")
        keys = [(i * 37) % _INDEX_TABLE_ROWS for i in range(lookups)]
        start = time.perf_counter()
        for key in keys:
            statement.execute((key,)).rows   # drain the streaming result
        timings[label] = time.perf_counter() - start
    text = conn.explain_physical(sql.replace("?", "17"))
    if "IndexScan" not in text:
        raise AssertionError("indexed point lookup did not plan an "
                             "IndexScan")
    seqscan.close()
    return timings["seq"], timings["index"]


def _run_index_join(conn, repeats: int) -> tuple[float, float, int]:
    """One logical probe/build join, lowered twice: the cost-based plan
    (must pick IndexNestedLoopJoin) vs the forced NestedLoopJoin."""
    from ..engine import Executor
    from ..engine.lowering import lower_plan
    from ..engine.optimizer import optimize
    from ..engine.physical import explain_physical

    sql = "SELECT p.k, b.v FROM probe p JOIN big b ON p.k = b.k"
    logical = optimize(conn.plan(sql), conn.catalog)
    inlj_plan = lower_plan(logical, conn.catalog)
    nlj_plan = lower_plan(logical, conn.catalog, force_nested_loop=True)
    if "IndexNestedLoopJoin" not in explain_physical(inlj_plan):
        raise AssertionError(
            "cost-based lowering did not choose IndexNestedLoopJoin for "
            "the small-probe/big-build join")
    if "IndexNestedLoopJoin" in explain_physical(nlj_plan):
        raise AssertionError("force_nested_loop hook produced an index "
                             "join")

    timings: dict[str, float] = {}
    results: dict[str, Counter] = {}
    for label, plan in (("inlj", inlj_plan), ("nlj", nlj_plan)):
        executor = Executor(conn.catalog, optimize=False,
                            config=conn.config)
        results[label] = Counter(
            executor.execute_physical(plan).rows)    # warm
        start = time.perf_counter()
        for _ in range(repeats):
            executor.execute_physical(plan)
        timings[label] = time.perf_counter() - start
    if results["inlj"] != results["nlj"]:
        raise AssertionError(
            "IndexNestedLoopJoin disagrees with NestedLoopJoin")
    return (timings["nlj"], timings["inlj"],
            sum(results["inlj"].values()))


def _concurrency_mix(count: int = _CONCURRENCY_DISTINCT) -> list[str]:
    """Distinct provenance queries (distinct constants force distinct
    plan-cache entries) over the tiny plan-cache tables."""
    return [
        ("SELECT PROVENANCE r.a, r.b FROM r "
         f"WHERE a = ANY (SELECT c FROM s WHERE c < {30 + i}) "
         f"AND EXISTS (SELECT c FROM s WHERE s.d < {80 + i})")
        for i in range(count)
    ]


def _run_mix(conn, queries: list[str], rounds: int) -> int:
    rows = 0
    for _ in range(rounds):
        for sql in queries:
            rows += len(conn.execute(sql).rows)   # drain the stream
    return rows


def _sequential_pass(threads: int, queries: list[str],
                     rounds: int) -> tuple[float, int]:
    """K independent single-connection runs, each on a private engine
    with a cold plan cache (population untimed)."""
    sessions = []
    for _ in range(threads):
        conn = connect()
        _populate(conn)
        sessions.append(conn)
    start = time.perf_counter()
    rows = sum(_run_mix(conn, queries, rounds) for conn in sessions)
    elapsed = time.perf_counter() - start
    for conn in sessions:
        conn.close()
    return elapsed, rows


def _concurrent_pass(threads: int, queries: list[str],
                     rounds: int) -> tuple[float, int]:
    """K threads sharing one freshly seeded Engine: the mix is planned
    once engine-wide; every other session's execution is a plan-cache
    hit on a lock-free snapshot."""
    engine = Engine()
    seeder = engine.connect()
    _populate(seeder)
    workers = [engine.connect() for _ in range(threads)]
    barrier = threading.Barrier(threads)

    def work(conn) -> int:
        barrier.wait()
        return _run_mix(conn, queries, rounds)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        start = time.perf_counter()
        futures = [pool.submit(work, conn) for conn in workers]
        rows = sum(future.result() for future in futures)
        elapsed = time.perf_counter() - start
    engine.close()
    return elapsed, rows


def _run_concurrency(threads: int = _CONCURRENCY_THREADS,
                     rounds: int = _CONCURRENCY_ROUNDS
                     ) -> tuple[int, int, float, float]:
    """K threads sharing one Engine vs K sequential cold runs.

    Best-of-2 per side (fresh cold state each pass) so one unlucky
    scheduling blip cannot fail the CI gate.
    """
    queries = _concurrency_mix()
    sequential_seconds = float("inf")
    concurrent_seconds = float("inf")
    sequential_rows = concurrent_rows = 0
    for _ in range(2):
        elapsed, sequential_rows = _sequential_pass(threads, queries,
                                                    rounds)
        sequential_seconds = min(sequential_seconds, elapsed)
        elapsed, concurrent_rows = _concurrent_pass(threads, queries,
                                                    rounds)
        concurrent_seconds = min(concurrent_seconds, elapsed)
    if concurrent_rows != sequential_rows:
        raise AssertionError(
            f"shared-engine sessions returned {concurrent_rows} rows, "
            f"sequential baseline {sequential_rows}")
    total = threads * rounds * len(queries)
    return threads, total, sequential_seconds, concurrent_seconds


_DURABLE_DDL = "CREATE TABLE events (id int, grp int, val float, note text)"
_DURABLE_INDEXES = (
    "CREATE UNIQUE INDEX events_id ON events (id)",
    "CREATE INDEX events_grp ON events (grp) USING sorted",
)


def _durable_rows(count: int) -> list[tuple]:
    return [(i, i % 53, (i % 97) * 0.5, f"note-{i % 11}")
            for i in range(count)]


def _run_durability(rows_n: int = _DURABLE_ROWS
                    ) -> tuple[int, float, float]:
    """Checkpointed-snapshot reopen vs cold CSV rebuild (best of 3)."""
    from ..io import dump_csv, load_csv

    base = tempfile.mkdtemp(prefix="repro-smoke-")
    try:
        dbdir = os.path.join(base, "db")
        csv_path = os.path.join(base, "events.csv")
        seed = connect(path=dbdir)
        seed.execute(_DURABLE_DDL)
        seed.insert("events", _durable_rows(rows_n))
        for ddl in _DURABLE_INDEXES:
            seed.execute(ddl)
        seed.execute("ANALYZE")
        dump_csv(seed.catalog.get("events"), csv_path)
        seed.execute("CHECKPOINT")
        expected = Counter(seed.execute("SELECT * FROM events").rows)
        seed.close()

        def rebuild_from_csv():
            conn = connect()
            conn.execute(_DURABLE_DDL)
            load_csv(conn, "events", csv_path)
            for ddl in _DURABLE_INDEXES:
                conn.execute(ddl)
            conn.execute("ANALYZE")
            return conn

        def reopen_snapshot():
            return connect(path=dbdir)

        timings: dict[str, float] = {}
        for label, build in (("csv", rebuild_from_csv),
                             ("snapshot", reopen_snapshot)):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                conn = build()
                best = min(best, time.perf_counter() - start)
                if Counter(conn.execute(
                        "SELECT * FROM events").rows) != expected:
                    raise AssertionError(
                        f"{label} rebuild disagrees with the "
                        f"checkpointed database")
                if sorted(conn.catalog.index_names()) != \
                        ["events_grp", "events_id"]:
                    raise AssertionError(f"{label} rebuild lost indexes")
                if conn.catalog.stats.get("events") is None:
                    raise AssertionError(
                        f"{label} rebuild lost statistics")
                conn.close()
            timings[label] = best
        return rows_n, timings["csv"], timings["snapshot"]
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _run_parallel(rows_n: int = _PARALLEL_ROWS,
                  repeats: int = 3) -> tuple[int, int, int, float, float]:
    """Grouped scan-aggregate over a hash-partitioned table: serial vs
    four exchange workers on a shared catalog (best of 3).  Parallel
    rows must be bit-identical to serial; the plan must fan out."""
    seed = connect()
    seed.execute(f"CREATE TABLE events (grp int, val int) "
                 f"PARTITION BY HASH(grp) "
                 f"PARTITIONS {_PARALLEL_WORKERS}")
    seed.insert("events", [((i * 7919) % _PARALLEL_GROUPS, i % 1000)
                           for i in range(rows_n)])
    seed.execute("ANALYZE")
    catalog = seed.catalog
    seed.close()

    sql = ("SELECT grp, count(*) AS n, sum(val) AS s "
           "FROM events GROUP BY grp")
    timings: dict[str, float] = {}
    results: dict[str, list] = {}
    fanouts = 0
    for label, workers in (("serial", 0), ("parallel", _PARALLEL_WORKERS)):
        conn = connect(catalog=catalog, max_parallel_workers=workers,
                       parallel_threshold=1000)
        statement = conn.prepare(sql)
        results[label] = statement.execute(()).rows   # warm pool + blobs
        if label == "parallel":
            fanouts = conn.last_stats.parallel_fanouts
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(repeats):
                statement.execute(()).rows   # drain the stream
            best = min(best, time.perf_counter() - start)
        timings[label] = best
        conn.close()
    if results["parallel"] != results["serial"]:
        raise AssertionError(
            "parallel scan-aggregate is not bit-identical to serial")
    return (rows_n, os.cpu_count() or 1, fanouts,
            timings["serial"], timings["parallel"])


def _run_indexes(repeats: int,
                 lookups: int = _INDEX_LOOKUPS
                 ) -> tuple[int, float, float, int, float, float]:
    conn = _index_session()
    seq_seconds, index_seconds = _run_index_lookups(conn, lookups)
    nlj_seconds, inlj_seconds, join_rows = _run_index_join(conn, repeats)
    conn.close()
    return (lookups, seq_seconds, index_seconds, join_rows, nlj_seconds,
            inlj_seconds)


def run_smoke(repeats: int = 20, engine_repeats: int = 5) -> SmokeResult:
    """Run the micro-benchmarks; see the module docstring."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if engine_repeats < 1:
        raise ValueError(
            f"engine_repeats must be >= 1, got {engine_repeats}")
    legacy_seconds, prepared_seconds, cache_hits, rows = \
        _run_plan_cache(repeats)
    pipelined_seconds, vectorized_seconds, engine_rows, hash_joins = \
        _run_engines(engine_repeats)
    (index_lookups, seq_lookup_seconds, index_lookup_seconds,
     index_join_rows, nlj_seconds, inlj_seconds) = \
        _run_indexes(engine_repeats)
    (concurrency_threads, concurrency_queries, sequential_seconds,
     concurrent_seconds) = _run_concurrency()
    durable_rows, csv_reload_seconds, snapshot_open_seconds = \
        _run_durability()
    (parallel_rows, parallel_cpus, parallel_fanouts,
     serial_agg_seconds, parallel_agg_seconds) = _run_parallel()
    return SmokeResult(
        repeats=repeats,
        legacy_seconds=legacy_seconds,
        prepared_seconds=prepared_seconds,
        cache_hits=cache_hits,
        rows=rows,
        engine_repeats=engine_repeats,
        pipelined_seconds=pipelined_seconds,
        vectorized_seconds=vectorized_seconds,
        engine_rows=engine_rows,
        engine_hash_joins=hash_joins,
        index_lookups=index_lookups,
        seq_lookup_seconds=seq_lookup_seconds,
        index_lookup_seconds=index_lookup_seconds,
        index_join_rows=index_join_rows,
        nlj_seconds=nlj_seconds,
        inlj_seconds=inlj_seconds,
        concurrency_threads=concurrency_threads,
        concurrency_queries=concurrency_queries,
        sequential_seconds=sequential_seconds,
        concurrent_seconds=concurrent_seconds,
        durable_rows=durable_rows,
        csv_reload_seconds=csv_reload_seconds,
        snapshot_open_seconds=snapshot_open_seconds,
        parallel_rows=parallel_rows,
        parallel_cpus=parallel_cpus,
        parallel_fanouts=parallel_fanouts,
        serial_agg_seconds=serial_agg_seconds,
        parallel_agg_seconds=parallel_agg_seconds,
    )


def format_smoke(result: SmokeResult) -> str:
    per_legacy = result.legacy_seconds / result.repeats * 1000
    per_prepared = result.prepared_seconds / result.repeats * 1000
    per_pipelined = result.pipelined_seconds / result.engine_repeats * 1000
    per_vectorized = \
        result.vectorized_seconds / result.engine_repeats * 1000
    return "\n".join([
        "-- plan cache (repeated provenance query) --",
        f"repeats                  {result.repeats}",
        f"result rows              {result.rows}",
        f"plan-cache hits          {result.cache_hits}",
        f"conn.sql() per call      {per_legacy:8.3f} ms",
        f"prepared per call        {per_prepared:8.3f} ms",
        f"speedup                  {result.speedup:8.1f}x",
        "-- engine (synthetic q1 provenance, Unn) --",
        f"repeats                  {result.engine_repeats}",
        f"result rows              {result.engine_rows}",
        f"hash joins (Unn plan)    {result.engine_hash_joins}",
        f"pipelined per call       {per_pipelined:8.3f} ms",
        f"vectorized per call      {per_vectorized:8.3f} ms",
        f"vectorized speedup       {result.vectorized_speedup:8.1f}x",
        "-- indexes (point lookups + probe/build join) --",
        f"point lookups            {result.index_lookups}",
        f"seqscan lookups total    {result.seq_lookup_seconds * 1000:8.3f} ms",
        f"indexed lookups total    {result.index_lookup_seconds * 1000:8.3f} ms",
        f"lookup speedup           {result.index_lookup_speedup:8.1f}x",
        f"join result rows         {result.index_join_rows}",
        f"NestedLoopJoin per call  "
        f"{result.nlj_seconds / result.engine_repeats * 1000:8.3f} ms",
        f"IndexNLJoin per call     "
        f"{result.inlj_seconds / result.engine_repeats * 1000:8.3f} ms",
        f"index join speedup       {result.index_join_speedup:8.1f}x",
        "-- concurrency (shared Engine vs sequential runs) --",
        f"sessions / threads       {result.concurrency_threads}",
        f"statements per side      {result.concurrency_queries}",
        f"sequential total         "
        f"{result.sequential_seconds * 1000:8.3f} ms",
        f"shared-engine total      "
        f"{result.concurrent_seconds * 1000:8.3f} ms",
        f"concurrency speedup      {result.concurrency_speedup:8.1f}x",
        "-- durability (snapshot reopen vs CSV rebuild) --",
        f"table rows               {result.durable_rows}",
        f"CSV rebuild + ANALYZE    "
        f"{result.csv_reload_seconds * 1000:8.3f} ms",
        f"snapshot reopen          "
        f"{result.snapshot_open_seconds * 1000:8.3f} ms",
        f"reopen speedup           {result.reopen_speedup:8.1f}x",
        "-- parallel (scan-aggregate, 4 exchange workers) --",
        f"table rows               {result.parallel_rows}",
        f"host cpus                {result.parallel_cpus}",
        f"Gather fan-outs          {result.parallel_fanouts}",
        f"serial total             "
        f"{result.serial_agg_seconds * 1000:8.3f} ms",
        f"parallel total           "
        f"{result.parallel_agg_seconds * 1000:8.3f} ms",
        f"parallel speedup         {result.parallel_speedup:8.1f}x"
        + ("" if result.parallel_cpus >= 4
           else "  (not gated: < 4 cores)"),
    ])
