"""Differential workload test: a durable engine (reopened every N
steps) and an in-memory engine run ~200 randomized steps in lockstep —
DDL, DML, index DDL, ANALYZE, explicit transactions, provenance queries.

After every step both sides must agree on the outcome (result rows or
raised error class), and at every reopen point the recovered durable
database must equal the in-memory one: table bags, schemas, index
definitions + structures, ANALYZE statistics, ``SELECT PROVENANCE``
outputs, and plan-cache behavior (a repeated query is a cache hit on
both sides and returns identical rows).
"""

from __future__ import annotations

import random
from collections import Counter

from repro import connect
from repro.errors import ReproError

STEPS = 200
REOPEN_EVERY = 25
SEED = 0xED6B7


class Workload:
    """Seeded generator of one SQL statement (or txn bundle) per step."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def _table_names(self, conn) -> list[str]:
        return conn.catalog.names()

    def _value(self) -> str:
        if self.rng.random() < 0.15:
            return "NULL"
        return str(self.rng.randrange(-5, 6))

    def next_statements(self, conn) -> list[str]:
        """The next step, as statements to run on both engines."""
        rng = self.rng
        tables = self._table_names(conn)
        roll = rng.random()
        if not tables or roll < 0.08:
            self.counter += 1
            return [f"CREATE TABLE t{self.counter} (a int, b int)"]
        table = rng.choice(tables)
        if roll < 0.40:
            rows = ", ".join(
                f"({self._value()}, {self._value()})"
                for _ in range(rng.randrange(1, 5)))
            return [f"INSERT INTO {table} VALUES {rows}"]
        if roll < 0.50:
            op = rng.choice(["<", "<=", "=", ">", ">="])
            return [f"DELETE FROM {table} WHERE a {op} "
                    f"{rng.randrange(-5, 6)}"]
        if roll < 0.56:
            kind = rng.choice(["hash", "sorted"])
            unique = "UNIQUE " if rng.random() < 0.25 else ""
            column = rng.choice(["a", "b"])
            name = f"ix_{table}_{column}_{self.counter}"
            self.counter += 1
            return [f"CREATE {unique}INDEX {name} ON {table} "
                    f"({column}) USING {kind}"]
        if roll < 0.60:
            indexes = conn.catalog.index_names()
            if indexes:
                return [f"DROP INDEX {rng.choice(indexes)}"]
            return ["ANALYZE"]
        if roll < 0.70:
            target = table if rng.random() < 0.5 else None
            return [f"ANALYZE {target}" if target else "ANALYZE"]
        if roll < 0.76 and len(tables) > 1:
            return [f"DROP TABLE {table}"]
        if roll < 0.88:
            # an explicit transaction: a bundle committed or rolled back
            body = [f"INSERT INTO {table} VALUES "
                    f"({self._value()}, {self._value()})",
                    f"DELETE FROM {table} WHERE b = "
                    f"{rng.randrange(-5, 6)}"]
            end = "COMMIT" if rng.random() < 0.7 else "ROLLBACK"
            return ["BEGIN", *body, end]
        other = rng.choice(tables)
        return [f"SELECT PROVENANCE x.a, x.b FROM {table} x "
                f"WHERE x.a = ANY (SELECT y.b FROM {other} y)"]


def run_both(mem, dur, sql: str):
    """Run one statement on both engines; outcomes must agree."""
    results = []
    for conn in (mem, dur):
        try:
            outcome = conn.execute(sql)
            if hasattr(outcome, "rows"):
                outcome = ("rows", sorted(outcome.rows, key=repr))
            else:
                outcome = ("status", outcome)
        except ReproError as exc:
            outcome = ("error", type(exc).__name__)
            if conn.in_transaction:
                conn.rollback()
        results.append(outcome)
    assert results[0] == results[1], f"diverged on {sql!r}: {results}"
    return results[0]


def assert_equal_databases(mem, dur):
    mc, dc = mem.catalog, dur.catalog
    assert mc.names() == dc.names()
    for name in mc.names():
        left, right = mc.get(name), dc.get(name)
        assert [(a.name, a.type) for a in left.schema] == \
            [(a.name, a.type) for a in right.schema]
        assert Counter(left.rows) == Counter(right.rows), \
            f"table {name} diverged"
    assert sorted(mc.index_names()) == sorted(dc.index_names())
    for name in mc.index_names():
        mi, di = mc.get_index(name), dc.get_index(name)
        assert (mi.table, mi.column, mi.kind, mi.unique) == \
            (di.table, di.column, di.kind, di.unique)
        assert len(mi) == len(di)
        rows = dc.get(di.table).rows
        for row in rows:
            key = row[di.position]
            if key is not None:
                assert row in di.lookup(key)
    assert sorted(mc.stats.tables()) == sorted(dc.stats.tables())
    for table in mc.stats.tables():
        assert mc.stats.get(table) == dc.stats.get(table), \
            f"stats for {table} diverged"


def assert_equal_queries(mem, dur):
    """Provenance output and plan-cache behavior must match."""
    for table in mem.catalog.names():
        sql = (f"SELECT PROVENANCE x.a FROM {table} x "
               f"WHERE x.b = ANY (SELECT y.b FROM {table} y)")
        first = run_both(mem, dur, sql)
        hits = (mem.plan_cache.hits, dur.plan_cache.hits)
        second = run_both(mem, dur, sql)          # identical rows again
        assert first == second
        # the repeat must be served from each engine's plan cache
        assert mem.plan_cache.hits > hits[0]
        assert dur.plan_cache.hits > hits[1]


def test_differential_workload(tmp_path):
    rng = random.Random(SEED)
    workload = Workload(rng)
    dbdir = str(tmp_path / "db")
    mem = connect()
    dur = connect(path=dbdir)
    reopens = 0
    try:
        for step in range(STEPS):
            for sql in workload.next_statements(mem):
                run_both(mem, dur, sql)
            if (step + 1) % REOPEN_EVERY == 0:
                if rng.random() < 0.5:
                    dur.execute("CHECKPOINT")     # vary what replay sees
                dur.close()
                dur = connect(path=dbdir)
                reopens += 1
                assert_equal_databases(mem, dur)
                assert_equal_queries(mem, dur)
        assert reopens == STEPS // REOPEN_EVERY
        assert_equal_databases(mem, dur)
        assert_equal_queries(mem, dur)
        # the workload must actually have exercised the interesting ops
        assert mem.catalog.names(), "workload ended with no tables"
    finally:
        mem.close()
        dur.close()
