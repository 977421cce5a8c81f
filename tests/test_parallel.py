"""Intra-query parallelism: partitioned tables + exchange operators.

The contract under test is *bit-identical parity*: any query executed
with ``max_parallel_workers >= 2`` must return exactly the rows, in
exactly the order, of the serial plan — on both engines (and the same
bag as the oracle interpreter), across the provenance rewrite strategies and the TPC-H sublink templates.  On top
of that: hash partitioning must survive DML, commits, WAL replay and
snapshot reload; partition pruning must plan a ``PartitionScan``; a
worker killed mid-query must surface a clean :class:`ExecutionError`
and the pool must recover for the next statement.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter

import pytest

from oracle_engine import oracle
from repro import connect
from repro.engine import parallel as par
from repro.engine.parallel import (
    Gather, PartitionScan, partition_map, stable_hash,
)
from repro.errors import CatalogError, ExecutionError, SQLSyntaxError
from repro.synthetic import SyntheticConfig, load_synthetic, q1_sql, q2_sql

#: Fan out even on tiny test tables.
PARALLEL = dict(max_parallel_workers=2, parallel_threshold=1)

#: "oracle" is the naive interpreter of ``tests/oracle_engine.py``: the
#: parallel plan (on the default engine) is bag-compared against it.
ENGINES = ("oracle", "pipelined", "vectorized")


def _pair(engine, catalog=None):
    """A (serial reference, parallel session) pair for *engine*."""
    if engine == "oracle":
        parallel = connect(catalog=catalog, **PARALLEL)
        return oracle(parallel.catalog), parallel
    serial = connect(engine=engine, catalog=catalog,
                     max_parallel_workers=0)
    return serial, connect(engine=engine, catalog=serial.catalog,
                           **PARALLEL)


def _same(engine, actual, expected):
    """Bit-identical against a batch engine; a bag against the oracle
    (the interpreter's unordered outputs come in its own order)."""
    if engine == "oracle":
        return Counter(actual) == Counter(expected)
    return actual == expected


def teardown_module(module):
    par.shutdown_pool()


def _seed_events(conn, rows_n: int = 400, partitions: int | None = None):
    suffix = (f" PARTITION BY HASH(grp) PARTITIONS {partitions}"
              if partitions else "")
    conn.execute(f"CREATE TABLE events (grp int, val int){suffix}")
    conn.insert("events", [((i * 13) % 7, i) for i in range(rows_n)])


# ---------------------------------------------------------------------------
# Hashing and partition maps
# ---------------------------------------------------------------------------

def test_stable_hash_is_deterministic_and_type_bridging():
    assert stable_hash(None) == 0
    assert stable_hash(7) == stable_hash(7)
    # SQL equality 7 = 7.0 must land both in the same partition
    assert stable_hash(7) == stable_hash(7.0)
    assert stable_hash(True) == stable_hash(1)
    assert stable_hash("x") == stable_hash("x")
    assert stable_hash("x") != stable_hash("y")


def test_partition_map_partitions_every_row_exactly_once():
    rows = [((i * 31) % 11, i) for i in range(100)]
    parts = partition_map(rows, 0, 4)
    assert len(parts) == 4
    indices = sorted(i for part in parts for i in part)
    assert indices == list(range(100))
    for part in parts:
        assert part == sorted(part)          # ascending within a part
        keys = {stable_hash(rows[i][0]) % 4 for i in part}
        assert len(keys) <= len(part) and all(
            k == parts.index(part) for k in keys) or part == []


def test_partition_map_routes_by_hash():
    rows = [(k,) for k in range(50)]
    parts = partition_map(rows, 0, 3)
    for number, part in enumerate(parts):
        for i in part:
            assert stable_hash(rows[i][0]) % 3 == number


# ---------------------------------------------------------------------------
# Partitioned DDL
# ---------------------------------------------------------------------------

def test_partition_clause_parses_and_registers():
    conn = connect()
    conn.execute("CREATE TABLE t (k int, v int) "
                 "PARTITION BY HASH(k) PARTITIONS 4")
    assert conn.catalog.partition_of("t") == ("k", 4)
    conn.close()


def test_partition_clause_rejects_bad_specs():
    conn = connect()
    with pytest.raises(SQLSyntaxError):
        conn.execute("CREATE TABLE t (k int) "
                     "PARTITION BY RANGE(k) PARTITIONS 4")
    with pytest.raises(SQLSyntaxError):
        conn.execute("CREATE TABLE t (k int) "
                     "PARTITION BY HASH(k) PARTITIONS 0")
    with pytest.raises(CatalogError):
        conn.execute("CREATE TABLE t (k int) "
                     "PARTITION BY HASH(missing) PARTITIONS 4")
    conn.close()


def test_partition_survives_dml_and_drop():
    conn = connect()
    _seed_events(conn, partitions=4)
    conn.execute("INSERT INTO events VALUES (1, 999)")
    conn.execute("DELETE FROM events WHERE val > 900")
    assert conn.catalog.partition_of("events") == ("grp", 4)
    conn.execute("DROP TABLE events")
    assert conn.catalog.partition_of("events") is None
    conn.close()


def test_partition_survives_transaction_commit():
    conn = connect()
    conn.execute("BEGIN")
    conn.execute("CREATE TABLE t (k int) PARTITION BY HASH(k) PARTITIONS 3")
    conn.execute("INSERT INTO t VALUES (1), (2)")
    conn.execute("COMMIT")
    assert conn.catalog.partition_of("t") == ("k", 3)
    conn.close()


def test_partition_survives_wal_replay_and_snapshot(tmp_path):
    path = str(tmp_path / "db")
    conn = connect(path=path)
    _seed_events(conn, rows_n=50, partitions=3)
    expected = conn.execute("SELECT * FROM events").rows
    conn.close()

    conn = connect(path=path)                 # WAL replay
    assert conn.catalog.partition_of("events") == ("grp", 3)
    assert conn.execute("SELECT * FROM events").rows == expected
    conn.execute("CHECKPOINT")
    conn.close()

    conn = connect(path=path)                 # snapshot reload
    assert conn.catalog.partition_of("events") == ("grp", 3)
    assert conn.execute("SELECT * FROM events").rows == expected
    conn.close()


# ---------------------------------------------------------------------------
# Partition pruning
# ---------------------------------------------------------------------------

def test_equality_filter_on_partition_column_prunes():
    conn = connect()                          # no workers: pruning alone
    _seed_events(conn, partitions=4)
    text = conn.explain_physical("SELECT val FROM events WHERE grp = 3")
    assert "PartitionScan" in text
    serial = connect()
    _seed_events(serial)
    expected = serial.execute("SELECT val FROM events WHERE grp = 3").rows
    assert conn.execute(
        "SELECT val FROM events WHERE grp = 3").rows == expected
    serial.close()
    conn.close()


def test_non_partition_filters_do_not_prune():
    conn = connect()
    _seed_events(conn, partitions=4)
    for sql in ("SELECT val FROM events WHERE val = 3",   # other column
                "SELECT val FROM events WHERE grp > 3",   # not equality
                "SELECT val FROM events"):                # no filter
        assert "PartitionScan" not in conn.explain_physical(sql)
    conn.close()


# ---------------------------------------------------------------------------
# Exchange modes and EXPLAIN
# ---------------------------------------------------------------------------

def test_gather_modes_planned_per_shape():
    conn = connect(**PARALLEL)
    _seed_events(conn, partitions=4)
    conn.execute("CREATE TABLE flat (grp int, val int)")
    conn.insert("flat", [((i * 13) % 7, i) for i in range(400)])
    shapes = {
        "mode=scan": "SELECT val FROM flat WHERE val < 100",
        "mode=partition":
            "SELECT grp, sum(val) FROM events GROUP BY grp",
        "mode=repartition":
            "SELECT grp, sum(val) FROM flat GROUP BY grp",
        "mode=twophase": "SELECT count(*), sum(val) FROM flat",
    }
    for mode, sql in shapes.items():
        text = conn.explain_physical(sql)
        assert mode in text, f"{sql!r} planned:\n{text}"
    conn.close()


def test_explain_analyze_reports_workers_and_self_time():
    conn = connect(**PARALLEL)
    _seed_events(conn, partitions=4)
    text = conn.explain_analyze(
        "SELECT grp, sum(val) FROM events GROUP BY grp")
    assert "Gather (workers=2, mode=partition)" in text
    assert "Worker 0:" in text and "Worker 1:" in text
    assert "self=" in text
    conn.close()


def test_distinct_aggregate_still_parallel_safe():
    serial = connect()
    _seed_events(serial)
    expected = serial.execute(
        "SELECT grp, count(DISTINCT val) FROM events GROUP BY grp").rows
    serial.close()
    conn = connect(**PARALLEL)
    _seed_events(conn)
    # DISTINCT is not combinable: no twophase, but repartition keeps
    # each group whole on one worker, so it stays exact
    assert conn.execute(
        "SELECT grp, count(DISTINCT val) "
        "FROM events GROUP BY grp").rows == expected
    conn.close()


def test_small_tables_stay_serial():
    conn = connect(max_parallel_workers=2, parallel_threshold=10000)
    _seed_events(conn, rows_n=50)
    conn.execute("SELECT grp, sum(val) FROM events GROUP BY grp").rows
    assert conn.last_stats.parallel_fanouts == 0
    conn.close()


# ---------------------------------------------------------------------------
# Bit-identical parity matrices
# ---------------------------------------------------------------------------

PARITY_QUERIES = [
    "SELECT grp, val FROM events WHERE val < 150",
    "SELECT val + grp AS t FROM events WHERE val * 2 > 100",
    "SELECT grp, count(*) AS n, sum(val) AS s FROM events GROUP BY grp",
    "SELECT grp, min(val) AS lo, max(val) AS hi, avg(val) AS m "
    "FROM events GROUP BY grp",
    "SELECT count(*) AS n, sum(val) AS s FROM events",
    "SELECT count(*) AS n FROM events WHERE val < 200",
    "SELECT grp, count(DISTINCT val) AS n FROM events GROUP BY grp",
    "SELECT grp, sum(val) AS s FROM events WHERE val < 300 GROUP BY grp",
    "SELECT grp, sum(val) AS s FROM events GROUP BY grp ORDER BY s DESC",
    "SELECT val FROM events WHERE grp = 2 ORDER BY val LIMIT 10",
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("partitions", [None, 4])
def test_parallel_matches_serial_bit_for_bit(engine, partitions):
    serial, parallel = _pair(engine)
    _seed_events(parallel, partitions=partitions)
    for sql in PARITY_QUERIES:
        assert _same(engine, parallel.sql(sql).rows,
                     serial.sql(sql).rows), sql
    parallel.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_provenance_strategies_parity_under_parallelism(engine):
    size = 60
    db = load_synthetic(SyntheticConfig(size, size, seed=0))
    queries = [
        ("SELECT PROVENANCE "
         + sql_fn(size, size, seed=0)[len("SELECT "):], strategy)
        for sql_fn, strategies in ((q1_sql, ("gen", "left", "move", "unn")),
                                   (q2_sql, ("gen", "left", "move")))
        for strategy in strategies
    ]
    serial, parallel = _pair(engine, db.catalog)
    for sql, strategy in queries:
        expected = serial.sql(sql, strategy=strategy).rows
        actual = parallel.prepare(sql, strategy=strategy).execute(()).rows
        assert _same(engine, actual, expected), (strategy, sql)
    parallel.close()


def test_parallel_aggregate_actually_fans_out():
    conn = connect(**PARALLEL)
    _seed_events(conn, partitions=4)
    conn.execute("SELECT grp, sum(val) FROM events GROUP BY grp").rows
    stats = conn.last_stats
    assert stats.parallel_fanouts >= 1
    assert stats.parallel_workers >= 2
    conn.close()


def test_two_phase_merge_handles_empty_and_null_groups():
    serial = connect()
    serial.execute("CREATE TABLE t (k int, v int)")
    serial.insert("t", [(None, 1), (None, 2), (1, None), (1, 3)] * 30)
    parallel = connect(**PARALLEL)
    parallel.execute("CREATE TABLE t (k int, v int)")
    parallel.insert("t", [(None, 1), (None, 2), (1, None), (1, 3)] * 30)
    for sql in ("SELECT k, count(v), sum(v), avg(v) FROM t GROUP BY k",
                "SELECT count(*), count(v), min(v), max(v) FROM t",
                "SELECT count(*) FROM t WHERE v > 100"):
        assert parallel.execute(sql).rows == serial.execute(sql).rows, sql
    serial.close()
    parallel.close()


# ---------------------------------------------------------------------------
# Worker crashes
# ---------------------------------------------------------------------------

def test_worker_killed_mid_query_raises_cleanly_and_pool_recovers():
    pool = par.get_pool()
    if pool is None:                          # pragma: no cover
        pytest.skip("multiprocessing unavailable on this host")
    workers = pool.lease(2)
    victim = workers[0]
    os.kill(victim.process.pid, signal.SIGKILL)
    victim.process.join(timeout=5)
    with pytest.raises(ExecutionError,
                       match="worker (died|unreachable)"):
        pool.run([(victim, [], ("task", {"bogus": True}))])

    # the next statement leases a fresh worker and succeeds
    conn = connect(**PARALLEL)
    _seed_events(conn)
    rows = conn.execute("SELECT grp, sum(val) FROM events GROUP BY grp").rows
    assert len(rows) == 7
    assert all(worker.process.is_alive() for worker in pool.lease(2))
    conn.close()


def test_pool_shutdown_leaves_no_orphans():
    pool = par.get_pool()
    if pool is None:                          # pragma: no cover
        pytest.skip("multiprocessing unavailable on this host")
    pool.lease(2)
    processes = pool.processes()
    assert processes and all(p.is_alive() for p in processes)
    par.shutdown_pool()
    deadline = time.monotonic() + 5
    for process in processes:
        process.join(timeout=max(deadline - time.monotonic(), 0.1))
        assert not process.is_alive()
    # a new pool comes up on demand
    conn = connect(**PARALLEL)
    _seed_events(conn)
    conn.execute("SELECT count(*) FROM events").rows
    assert conn.last_stats.parallel_fanouts == 1
    conn.close()


# ---------------------------------------------------------------------------
# Vectorized coverage regressions (VSort / VNestedLoopJoin) and
# self-time accounting
# ---------------------------------------------------------------------------

def test_order_by_and_nested_loop_join_vectorize():
    conn = connect(engine="vectorized")
    conn.execute("CREATE TABLE r (a int, b int)")
    conn.insert("r", [(i % 5, i) for i in range(50)])
    conn.execute("CREATE TABLE s (c int)")
    conn.insert("s", [(1,), (3,), (9,)])
    for sql in ("SELECT a, b FROM r ORDER BY a DESC, b",
                "SELECT a, c FROM r JOIN s ON a < c",
                "SELECT a, c FROM r LEFT JOIN s ON a < c",
                "SELECT a, c FROM r CROSS JOIN s"):
        conn.execute(sql).rows
        assert conn.last_stats.row_fallback_nodes == 0, sql
    conn.close()


def test_vectorized_outer_join_null_padding_matches_serial():
    sql = "SELECT a, d FROM r LEFT JOIN s ON a = c AND d > 15"
    results = {}
    for engine in ("pipelined", "vectorized"):
        conn = connect(engine=engine)
        conn.execute("CREATE TABLE r (a int)")
        conn.insert("r", [(1,), (2,), (50,)])
        conn.execute("CREATE TABLE s (c int, d int)")
        conn.insert("s", [(1, 10), (2, 20)])
        results[engine] = conn.execute(sql).rows
        results["oracle"] = oracle(conn.catalog).sql(sql).rows
        conn.close()
    assert results["vectorized"] == results["pipelined"]
    assert Counter(results["vectorized"]) == Counter(results["oracle"])
    assert (50, None) in results["vectorized"]


def test_numeric_columns_are_array_backed():
    from array import array

    from repro.engine.columnar import clear_cache, table_columns
    clear_cache()
    rows = [(i, float(i), None if i % 2 else i, "x") for i in range(64)]
    columns = table_columns(rows, 4)
    assert isinstance(columns[0].values, array)        # int64 'q'
    assert columns[0].values.typecode == "q"
    assert isinstance(columns[1].values, array)        # float64 'd'
    assert columns[1].values.typecode == "d"
    assert isinstance(columns[2].values, list)         # nullable: list
    assert isinstance(columns[3].values, list)         # text: list
    assert list(columns[0].values) == [row[0] for row in rows]


def test_explain_analyze_self_time_never_exceeds_total():
    conn = connect()
    _seed_events(conn)
    text = conn.explain_analyze(
        "SELECT grp, sum(val) AS s FROM events "
        "WHERE val < 300 GROUP BY grp ORDER BY s")
    for line in text.splitlines():
        if "self=" not in line:
            continue
        total = float(line.split("time=")[1].split("ms")[0])
        self_ms = float(line.split("self=")[1].split("ms")[0])
        assert self_ms <= total + 1e-9, line
    timings = conn.last_stats.operator_timings
    assert timings and all(ms >= 0 for ms in timings.values())
    conn.close()


def test_gather_and_partition_scan_labels():
    conn = connect(**PARALLEL)
    _seed_events(conn, partitions=4)
    text = conn.explain_physical(
        "SELECT grp, sum(val) FROM events GROUP BY grp")
    assert "Gather (workers=2, mode=partition) on events" in text
    text = conn.explain_physical("SELECT val FROM events WHERE grp = 1")
    assert "PartitionScan events" in text and "/4" in text
    conn.close()


def test_explain_analyze_covers_parallel_and_vector_operators():
    """EXPLAIN ANALYZE and ExecutionStats must report every PR-8
    operator — Gather (with per-worker lines), PartitionScan, VSort and
    VNestedLoopJoin — not just the serial row pipeline.  The
    exhaustiveness-physical rule proves each node *has* a label; this
    locks the stats plumbing actually reaching them at runtime."""
    conn = connect(**PARALLEL)
    _seed_events(conn, partitions=4)
    text = conn.explain_analyze("SELECT grp, sum(val) FROM events GROUP BY grp")
    gather_lines = [l for l in text.splitlines() if "Gather" in l]
    assert gather_lines and all("time=" in l and "self=" in l
                                for l in gather_lines)
    assert "Worker 0: rows=" in text and "Worker 1: rows=" in text
    assert conn.last_stats.operator_evals.get("Gather") == 1
    assert "Gather" in conn.last_stats.operator_timings

    text = conn.explain_analyze("SELECT val FROM events WHERE grp = 1")
    scan_lines = [l for l in text.splitlines() if "PartitionScan" in l]
    assert scan_lines and "actual rows=" in scan_lines[0]
    assert conn.last_stats.operator_evals.get("PartitionScan") == 1
    conn.close()

    conn = connect(engine="vectorized")
    conn.execute("CREATE TABLE r (a int, b int)")
    conn.insert("r", [(i % 5, i) for i in range(50)])
    conn.execute("CREATE TABLE s (c int)")
    conn.insert("s", [(1,), (3,), (9,)])
    text = conn.explain_analyze("SELECT a, b FROM r ORDER BY a DESC, b")
    assert "Sort [a DESC, b ASC] [columnar]" in text
    assert conn.last_stats.operator_evals.get("VSort") == 1
    text = conn.explain_analyze("SELECT a, c FROM r JOIN s ON a < c")
    join_lines = [l for l in text.splitlines()
                  if "NestedLoopJoin" in l and "[columnar]" in l]
    assert join_lines and "self=" in join_lines[0]
    assert conn.last_stats.operator_evals.get("VNestedLoopJoin") == 1
    assert conn.last_stats.row_fallback_nodes == 0
    conn.close()


def test_plan_time_catalog_lookups_catch_only_catalog_errors():
    """``_table_size`` treats a missing table as size 0 (the planner
    just skips parallelism) but must not hide unrelated bugs behind a
    broad except."""
    from repro.catalog import Catalog
    from repro.engine.parallel import _table_size
    from repro.engine.physical import SeqScan

    scan = SeqScan("missing", "missing", ("a",))
    assert _table_size(scan, Catalog()) == 0.0

    class _BuggyCatalog:
        def get(self, name):
            raise ZeroDivisionError("lookup bug")

    with pytest.raises(ZeroDivisionError):
        _table_size(scan, _BuggyCatalog())
