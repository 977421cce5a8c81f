"""Engine parity and physical-plan behaviour.

The batch engines must produce bag-identical results to the
materializing oracle interpreter (``tests/oracle_engine.py``) on every
query shape — the paper
examples and the strategy-comparison queries included — and its
physical plans must keep the execution decisions the paper's figures
depend on (hash joins for Unn equi-joins, InitPlans for uncorrelated
sublinks, streaming limits).
"""

import os
from collections import Counter

import pytest

from oracle_engine import oracle
from repro import connect
from repro.errors import InterfaceError

# Queries over the Figure 3 relations r(a, b) / s(c, d) covering every
# operator the engines implement; bag-compared (order-insensitive).
PARITY_QUERIES = [
    "SELECT a, b FROM r",
    "SELECT a + b AS t FROM r WHERE a * b > 1",
    "SELECT DISTINCT b FROM r",
    "SELECT a, d FROM r JOIN s ON a = c",
    "SELECT a, d FROM r LEFT JOIN s ON a = c",
    "SELECT a, d FROM r JOIN s ON a = c AND d > 3",
    "SELECT a, c FROM r JOIN s ON a < c",
    "SELECT a, c FROM r LEFT JOIN s ON a < c AND d < 5",
    "SELECT a, c FROM r CROSS JOIN s",
    "SELECT b, count(*) AS n, sum(a) AS s FROM r GROUP BY b",
    "SELECT count(*) AS n, min(a) AS lo, max(a) AS hi FROM r",
    "SELECT count(DISTINCT b) AS n FROM r",
    "SELECT a FROM r UNION SELECT c FROM s",
    "SELECT a FROM r UNION ALL SELECT c FROM s",
    "SELECT a FROM r INTERSECT SELECT c FROM s",
    "SELECT a FROM r INTERSECT ALL SELECT c FROM s",
    "SELECT a FROM r EXCEPT SELECT c FROM s",
    "SELECT a FROM r EXCEPT ALL SELECT c FROM s",
    "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)",
    "SELECT a FROM r WHERE a < ALL (SELECT c FROM s WHERE d > 3)",
    "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c = b)",
    "SELECT a, (SELECT max(c) FROM s) AS m FROM r",
    "SELECT a FROM r WHERE a IN (SELECT c FROM s WHERE d < 5)",
]

#: The paper-example / strategy-comparison provenance queries.
PROVENANCE_QUERIES = [
    ("SELECT PROVENANCE a FROM r WHERE a = ANY "
     "(SELECT c FROM s WHERE d < 5)", strategy)
    for strategy in ("gen", "left", "move", "unn")
] + [
    ("SELECT PROVENANCE a FROM r WHERE a < ALL (SELECT c FROM s)",
     strategy)
    for strategy in ("gen", "left", "move")
] + [
    ("SELECT PROVENANCE a FROM r WHERE EXISTS "
     "(SELECT * FROM s WHERE c = b)", "gen"),
]

#: Ordered queries: results must match row-for-row, not just as bags.
ORDERED_QUERIES = [
    "SELECT a, b FROM r ORDER BY b DESC, a",
    "SELECT a FROM r ORDER BY a LIMIT 2",
    "SELECT a FROM r ORDER BY a DESC LIMIT 1 OFFSET 1",
    # NULL keys (the unmatched LEFT JOIN row): first ascending, last
    # descending
    "SELECT a, d FROM r LEFT JOIN s ON a = c ORDER BY d, a",
    "SELECT a, d FROM r LEFT JOIN s ON a = c ORDER BY d DESC, a DESC",
    # an expression key, and a sort inside a correlated sublink whose
    # key reads the outer row
    "SELECT a, b FROM r ORDER BY a + b DESC, a",
    "SELECT a, (SELECT c FROM s ORDER BY (c - a) * (c - a), c DESC LIMIT 1) "
    "AS nearest FROM r ORDER BY a",
    # sublink sort keys, uncorrelated and correlated
    "SELECT a FROM r ORDER BY (SELECT max(c) FROM s), a",
    "SELECT a FROM r ORDER BY (SELECT min(c) FROM s WHERE c > r.b) DESC, a",
]

#: Ordered queries with ``?`` in a sort key, as ``(sql, params)``.
ORDERED_PARAM_QUERIES = [
    ("SELECT a, b FROM r ORDER BY a * ?, b", (-1,)),
    ("SELECT a, b FROM r ORDER BY ? - a DESC, b DESC", (10,)),
]


def expression_sort_plan(conn):
    """A ``Sort`` whose keys are expressions — a correlated scalar
    sublink (descending, NULL for a = 1) and a ``?`` product.  SQL never
    builds one (ORDER BY expressions become columns of a projection
    below the sort), so the keys of that projection are inlined here."""
    from repro.algebra.operators import Project, Sort, SortKey
    plan = conn.plan(
        "SELECT a, b, (SELECT max(c) FROM s WHERE c <= a AND c > 1) AS m, "
        "b * ? AS p FROM r ORDER BY m DESC, p, a")
    assert isinstance(plan, Sort) and isinstance(plan.input, Project)
    exprs = dict(plan.input.items)
    return Sort(plan.input.input, [
        SortKey(exprs[key.expr.name], key.ascending)
        for key in plan.keys])


def _populate(conn) -> None:
    conn.execute("CREATE TABLE r (a int, b int)")
    conn.execute("INSERT INTO r VALUES (1, 1), (2, 1), (3, 2), (2, 1)")
    conn.execute("CREATE TABLE s (c int, d int)")
    conn.execute("INSERT INTO s VALUES (1, 3), (2, 4), (4, 5), (2, 4)")


@pytest.fixture
def engines():
    """A (fast session, materializing oracle) pair over one catalog.

    The fast engine defaults to ``pipelined``; CI also runs this module
    with ``REPRO_ENGINE=vectorized`` so the whole parity matrix covers
    the columnar engine too.
    """
    fast_engine = os.environ.get("REPRO_ENGINE", "pipelined")
    fast = connect(engine=fast_engine)
    _populate(fast)
    return fast, oracle(fast.catalog)


class TestEngineParity:
    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_bag_parity(self, engines, sql):
        pipelined, materializing = engines
        fast = pipelined.sql(sql)
        slow = materializing.sql(sql)
        assert Counter(fast.rows) == Counter(slow.rows)
        assert fast.schema.names == slow.schema.names

    @pytest.mark.parametrize("sql,strategy", PROVENANCE_QUERIES)
    def test_provenance_bag_parity(self, engines, sql, strategy):
        pipelined, materializing = engines
        fast = pipelined.sql(sql, strategy=strategy)
        slow = materializing.sql(sql, strategy=strategy)
        assert Counter(fast.rows) == Counter(slow.rows)

    @pytest.mark.parametrize("sql", ORDERED_QUERIES)
    def test_ordered_parity(self, engines, sql):
        pipelined, materializing = engines
        assert pipelined.sql(sql).rows == materializing.sql(sql).rows

    @pytest.mark.parametrize("sql,params", ORDERED_PARAM_QUERIES)
    def test_ordered_parity_with_params(self, engines, sql, params):
        pipelined, materializing = engines
        assert pipelined.sql(sql, params=params).rows == \
            materializing.sql(sql, params=params).rows

    @pytest.mark.parametrize("engine", ("pipelined", "vectorized"))
    def test_expression_sort_keys(self, engine):
        from oracle_engine import OracleEngine
        from repro import SessionConfig
        from repro.engine import Executor
        conn = connect()
        _populate(conn)
        plan = expression_sort_plan(conn)
        catalog = conn.catalog
        expected = OracleEngine(catalog).execute(plan, (-1,)).rows
        assert [row[0] for row in expected] == [3, 2, 2, 1]
        executor = Executor(catalog, optimize=False,
                            config=SessionConfig(engine=engine))
        assert executor.execute(plan, (-1,)).rows == expected

    @pytest.mark.parametrize("batch_size", (1, 2, 3, 7, 64))
    def test_parity_across_batch_sizes(self, batch_size):
        small = connect(engine="pipelined", batch_size=batch_size)
        _populate(small)
        reference = oracle(small.catalog)
        for sql in ("SELECT PROVENANCE a FROM r WHERE a = ANY "
                    "(SELECT c FROM s WHERE d < 5)",
                    "SELECT b, count(*) AS n FROM r GROUP BY b",
                    "SELECT a, d FROM r LEFT JOIN s ON a = c"):
            assert Counter(small.sql(sql).rows) == \
                Counter(reference.sql(sql).rows)

    def test_parameters_through_pipeline(self, engines):
        pipelined, materializing = engines
        sql = ("SELECT a FROM r WHERE a = ANY "
               "(SELECT c FROM s WHERE c < ?)")
        fast = pipelined.sql(sql, params=(2,))
        slow = materializing.sql(sql, params=(2,))
        assert Counter(fast.rows) == Counter(slow.rows)


class TestStreamingLimit:
    def test_limit_short_circuits(self):
        """The streaming engine must stop pulling once LIMIT is
        satisfied: rows_produced stays bounded by a few batches, not the
        table size (the regression the materializing executor had)."""
        conn = connect(batch_size=64)
        conn.create_table("big", [("x", "int")])
        conn.insert("big", [(i,) for i in range(5000)])
        relation = conn.sql("SELECT x FROM big LIMIT 5")
        assert len(relation.rows) == 5
        stats = conn.last_stats
        assert stats.rows_produced <= 4 * 64
        # the materializing oracle pays for the whole table
        baseline = oracle(conn.catalog)
        baseline.sql("SELECT x FROM big LIMIT 5")
        assert baseline.last_stats.rows_produced >= 5000

    def test_limit_offset_streams(self):
        conn = connect(batch_size=16)
        conn.create_table("big", [("x", "int")])
        conn.insert("big", [(i,) for i in range(1000)])
        relation = conn.sql("SELECT x FROM big LIMIT 3 OFFSET 40")
        assert relation.rows == [(40,), (41,), (42,)]
        assert conn.last_stats.rows_produced <= 10 * 16

    def test_limit_zero_rows(self):
        conn = connect()
        conn.create_table("t", [("x", "int")])
        conn.insert("t", [(1,), (2,)])
        assert conn.sql("SELECT x FROM t LIMIT 0").rows == []


class TestPhysicalPlans:
    def test_unn_plan_hash_joins(self, engines):
        pipelined, _ = engines
        sql = ("SELECT PROVENANCE a FROM r WHERE a = ANY "
               "(SELECT c FROM s WHERE d < 5)")
        text = pipelined.explain_physical(sql, strategy="unn")
        assert "HashJoin" in text
        assert "NestedLoopJoin" not in text
        pipelined.sql(sql, strategy="unn")
        assert pipelined.last_stats.hash_joins >= 1
        assert pipelined.last_stats.nested_loop_joins == 0

    def test_sublinks_classified_init_vs_sub(self, engines):
        pipelined, _ = engines
        uncorrelated = pipelined.explain_physical(
            "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)")
        assert "InitPlanSublink" in uncorrelated
        correlated = pipelined.explain_physical(
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c = b)")
        assert "SubPlanSublink" in correlated

    def test_limit_lowered_to_streaming(self, engines):
        pipelined, _ = engines
        text = pipelined.explain_physical("SELECT a FROM r LIMIT 1")
        assert "StreamingLimit" in text

    def test_plan_cache_stores_physical_plan(self, engines):
        pipelined, _ = engines
        sql = "SELECT a FROM r WHERE b = 1"
        pipelined.execute(sql)
        key = pipelined._plan_key(sql, None)
        cached = pipelined.plan_cache.peek(key)
        assert cached is not None and cached.physical is not None
        first = cached.physical
        pipelined.execute(sql)
        assert pipelined.plan_cache.peek(key).physical is first

    def test_explain_analyze_annotates_nodes(self, engines):
        pipelined, _ = engines
        text = pipelined.explain_analyze(
            "SELECT a FROM r WHERE a = ANY (SELECT c FROM s) "
            "ORDER BY a LIMIT 2")
        assert "rows=" in text and "time=" in text and "ms" in text
        assert "InitPlanSublink" in text
        assert "Result:" in text

    def test_execution_stats_timings(self, engines):
        pipelined, _ = engines
        pipelined.sql("SELECT a, d FROM r JOIN s ON a = c")
        stats = pipelined.last_stats
        assert stats.batches_produced >= 1
        assert stats.operator_timings  # per-operator wall clock present
        assert any("HashJoin" in name for name in stats.operator_timings)

    def test_uncorrelated_sublink_is_initplan_once(self, engines):
        pipelined, _ = engines
        pipelined.sql("SELECT a FROM r WHERE a = ANY (SELECT c FROM s)")
        stats = pipelined.last_stats
        assert stats.sublink_executions == 1
        assert stats.sublink_cache_hits >= 2


class TestIndexParity:
    """Indexes are a pure access-path change: every query must return
    the same bag with indexes present as without, on both engines."""

    INDEX_DDL = (
        "CREATE INDEX r_a ON r (a)",
        "CREATE INDEX r_b ON r (b) USING sorted",
        "CREATE INDEX s_c ON s (c)",
    )

    @pytest.fixture
    def indexed(self):
        """(indexed+analyzed, plain) connection pair over equal data."""
        plain = connect(use_indexes=False)
        _populate(plain)
        indexed = connect(catalog=plain.catalog)
        for ddl in self.INDEX_DDL:
            indexed.execute(ddl)
        indexed.execute("ANALYZE")
        return indexed, plain

    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_bag_parity_with_indexes(self, indexed, sql):
        with_indexes, without = indexed
        assert Counter(with_indexes.sql(sql).rows) == \
            Counter(without.sql(sql).rows)

    @pytest.mark.parametrize("sql,strategy", PROVENANCE_QUERIES)
    def test_provenance_parity_with_indexes(self, indexed, sql, strategy):
        with_indexes, without = indexed
        assert Counter(with_indexes.sql(sql, strategy=strategy).rows) == \
            Counter(without.sql(sql, strategy=strategy).rows)

    def test_oracle_agrees_with_indexed_pipeline(self, indexed):
        with_indexes, _ = indexed
        materializing = oracle(with_indexes.catalog)
        sql = "SELECT a, d FROM r JOIN s ON a = c WHERE b = 1"
        assert Counter(with_indexes.sql(sql).rows) == \
            Counter(materializing.sql(sql).rows)


class TestAutoStrategyParity:
    """``auto`` (cost-based) must agree with every fixed strategy on the
    paper's nested-subquery examples, whatever it picks."""

    NESTED_QUERIES = [
        # Figure 3 q1: equality ANY
        "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)",
        # Figure 3 q2 shape: inequality ALL
        "SELECT PROVENANCE a FROM r WHERE a < ALL (SELECT c FROM s)",
        # IN (= ANY) with an inner filter
        ("SELECT PROVENANCE a FROM r WHERE a IN "
         "(SELECT c FROM s WHERE d < 5)"),
        # scalar aggregate sublink
        "SELECT PROVENANCE a FROM r WHERE a < (SELECT max(c) FROM s)",
        # uncorrelated EXISTS
        "SELECT PROVENANCE b FROM r WHERE EXISTS (SELECT * FROM s)",
    ]

    @pytest.mark.parametrize("sql", NESTED_QUERIES)
    @pytest.mark.parametrize("strategy", ("gen", "left", "move"))
    def test_auto_matches_fixed_strategy(self, engines, sql, strategy):
        pipelined, _ = engines
        auto = Counter(pipelined.sql(sql, strategy="auto").rows)
        fixed = Counter(pipelined.sql(sql, strategy=strategy).rows)
        assert auto == fixed

    @pytest.mark.parametrize("sql", NESTED_QUERIES)
    def test_auto_parity_across_engines(self, engines, sql):
        pipelined, materializing = engines
        assert Counter(pipelined.sql(sql, strategy="auto").rows) == \
            Counter(materializing.sql(sql, strategy="auto").rows)


class TestConfigKnobs:
    def test_unknown_engine_rejected(self):
        with pytest.raises(InterfaceError):
            connect(engine="quantum")

    def test_batch_size_validated(self):
        with pytest.raises(InterfaceError):
            connect(batch_size=0)

    def test_materializing_engine_left_the_product(self):
        with pytest.raises(InterfaceError):
            connect(engine="materializing")


class TestShellExplain:
    def run(self, shell, line: str) -> str:
        import io
        out = io.StringIO()
        shell.run_line(line, out)
        return out.getvalue()

    def test_explain_analyze_command(self):
        from repro.cli import Shell
        shell = Shell()
        _populate(shell.conn)
        text = self.run(
            shell, "EXPLAIN ANALYZE SELECT a FROM r WHERE b = 1")
        assert "Filter" in text and "rows=" in text and "time=" in text

    def test_explain_command_prints_physical_plan(self):
        from repro.cli import Shell
        shell = Shell()
        _populate(shell.conn)
        text = self.run(shell, "EXPLAIN SELECT a FROM r LIMIT 1")
        assert "StreamingLimit" in text
        assert "rows=" not in text  # not executed
