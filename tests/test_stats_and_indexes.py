"""The statistics/index subsystem and the cost-based planner.

Covers: ``ANALYZE`` collection, ``CREATE INDEX``/``DROP INDEX`` DDL and
maintenance under DML, IndexScan/IndexNestedLoopJoin plan selection (and
the SeqScan fallback without indexes), estimate annotations in
``EXPLAIN``/``EXPLAIN ANALYZE``, cost-based join ordering, and the
cost-based ``auto`` provenance-strategy choice across the paper's
synthetic size grid.
"""

from collections import Counter

import pytest

from oracle_engine import oracle
from repro import connect
from repro.errors import CatalogError
from repro.provenance.rewriter import ProvenanceRewriter
from repro.sql.analyzer import Analyzer
from repro.sql.parser import parse_statement
from repro.synthetic import SyntheticConfig, load_synthetic
from repro.synthetic.queries import q1_sql, q2_sql


def _populate(conn, rows=100):
    conn.execute("CREATE TABLE t (x int, y int)")
    conn.insert("t", [(i, i % 10) for i in range(rows)])


class TestAnalyze:
    def test_analyze_collects_column_stats(self):
        conn = connect()
        conn.execute("CREATE TABLE t (x int, y int)")
        conn.insert("t", [(1, 1), (2, 1), (3, None), (3, 2)])
        conn.execute("ANALYZE t")
        stats = conn.catalog.stats.get("t")
        assert stats.row_count == 4
        x = stats.column("x")
        assert x.n_distinct == 3
        assert (x.min_value, x.max_value) == (1, 3)
        y = stats.column("y")
        assert y.null_frac == pytest.approx(0.25)
        assert y.mcv_complete
        assert y.eq_fraction(1) == pytest.approx(0.5)
        assert y.eq_fraction(7) == 0.0

    def test_analyze_all_tables(self):
        conn = connect()
        conn.execute("CREATE TABLE a (x int)")
        conn.execute("CREATE TABLE b (x int)")
        conn.execute("ANALYZE")
        assert sorted(conn.catalog.stats.tables()) == ["a", "b"]

    def test_analyze_bumps_stats_version_not_ddl_version(self):
        conn = connect()
        conn.execute("CREATE TABLE t (x int)")
        version = conn.catalog.version
        stats_version = conn.catalog.stats_version
        conn.execute("ANALYZE t")
        assert conn.catalog.version == version
        assert conn.catalog.stats_version == stats_version + 1

    def test_dropping_table_discards_stats(self):
        conn = connect()
        _populate(conn)
        conn.execute("ANALYZE t")
        conn.execute("DROP TABLE t")
        assert conn.catalog.stats.get("t") is None


class TestIndexDDL:
    def test_create_and_drop_index(self):
        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")
        index = conn.catalog.get_index("t_x")
        assert index.kind == "hash" and not index.unique
        assert index.lookup(7) == [(7, 7)]
        conn.execute("DROP INDEX t_x")
        with pytest.raises(CatalogError):
            conn.catalog.get_index("t_x")

    def test_sorted_index_via_using(self):
        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x) USING sorted")
        index = conn.catalog.get_index("t_x")
        assert index.kind == "sorted"
        assert index.lookup_range(3, 5) == [(3, 3), (4, 4), (5, 5)]

    def test_unique_index_rejects_duplicates(self):
        conn = connect()
        conn.execute("CREATE TABLE u (x int)")
        conn.execute("INSERT INTO u VALUES (1), (2)")
        conn.execute("CREATE UNIQUE INDEX u_x ON u (x)")
        with pytest.raises(CatalogError):
            conn.execute("INSERT INTO u VALUES (2)")
        # the failed row must not linger in the table
        assert len(conn.catalog.get("u").rows) == 2

    def test_unique_violation_rolls_back_sibling_indexes(self):
        """Regression: with two unique indexes, a violation on the second
        must back the row out of the first — no ghost entries that block
        later legitimate inserts."""
        conn = connect()
        conn.execute("CREATE TABLE u (a int, b int)")
        conn.execute("INSERT INTO u VALUES (1, 1)")
        conn.execute("CREATE UNIQUE INDEX u_a ON u (a)")
        conn.execute("CREATE UNIQUE INDEX u_b ON u (b)")
        with pytest.raises(CatalogError):
            conn.execute("INSERT INTO u VALUES (2, 1)")   # b collides
        conn.execute("INSERT INTO u VALUES (2, 2)")       # must succeed
        assert conn.catalog.get_index("u_a").lookup(2) == [(2, 2)]

    def test_unique_index_on_duplicate_data_rejected(self):
        conn = connect()
        conn.execute("CREATE TABLE u (x int)")
        conn.execute("INSERT INTO u VALUES (1), (1)")
        with pytest.raises(CatalogError):
            conn.execute("CREATE UNIQUE INDEX u_x ON u (x)")

    def test_index_ddl_bumps_catalog_version(self):
        conn = connect()
        _populate(conn)
        version = conn.catalog.version
        conn.execute("CREATE INDEX t_x ON t (x)")
        assert conn.catalog.version == version + 1
        conn.execute("DROP INDEX t_x")
        assert conn.catalog.version == version + 2

    def test_unknown_index_kind_rejected(self):
        conn = connect()
        _populate(conn)
        with pytest.raises(CatalogError):
            conn.execute("CREATE INDEX t_x ON t (x) USING btree")

    def test_duplicate_index_name_rejected(self):
        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")
        with pytest.raises(CatalogError):
            conn.execute("CREATE INDEX t_x ON t (y)")


class TestSoftKeywords:
    """index/unique/using/analyze stay usable as identifiers — schemas
    that predate the DDL additions keep parsing."""

    def test_columns_named_after_soft_keywords(self):
        conn = connect()
        conn.execute("CREATE TABLE t (index int, unique int, using int)")
        conn.execute("INSERT INTO t VALUES (1, 2, 3)")
        assert conn.execute("SELECT index, unique, using FROM t").rows \
            == [(1, 2, 3)]
        assert conn.execute("SELECT t.index FROM t WHERE unique = 2").rows \
            == [(1,)]

    def test_bare_aliases_named_after_soft_keywords(self):
        conn = connect()
        conn.execute("CREATE TABLE t (a int)")
        conn.execute("INSERT INTO t VALUES (3)")
        result = conn.execute("SELECT index.a index FROM t index")
        assert result.schema.names == ("index",)
        assert result.rows == [(3,)]

    def test_table_named_analyze(self):
        conn = connect()
        conn.execute("CREATE TABLE analyze (x int)")
        conn.execute("INSERT INTO analyze VALUES (1)")
        assert conn.execute("SELECT x FROM analyze").rows == [(1,)]
        conn.execute("ANALYZE analyze")
        assert conn.catalog.stats.get("analyze").row_count == 1

    def test_alias_named_unique(self):
        conn = connect()
        conn.execute("CREATE TABLE t (x int)")
        conn.execute("INSERT INTO t VALUES (7)")
        result = conn.execute("SELECT x AS unique FROM t")
        assert result.schema.names == ("unique",)


class TestIndexMaintenance:
    def test_insert_and_delete_maintain_indexes(self):
        # Committed DML swaps in fresh copy-on-write index objects
        # (pinned snapshots keep the old ones), so the maintained index
        # is re-fetched from the catalog after each statement.
        conn = connect()
        _populate(conn, rows=10)
        conn.execute("CREATE INDEX t_x ON t (x)")
        index = conn.catalog.get_index("t_x")
        conn.execute("INSERT INTO t VALUES (100, 0)")
        assert index.lookup(100) == []     # pre-write object: unchanged
        index = conn.catalog.get_index("t_x")
        assert index.lookup(100) == [(100, 0)]
        conn.execute("DELETE FROM t WHERE x = 100")
        index = conn.catalog.get_index("t_x")
        assert index.lookup(100) == []
        conn.execute("DELETE FROM t")
        assert len(conn.catalog.get_index("t_x")) == 0

    def test_direct_mutation_detected_at_scan_time(self):
        """Bulk loaders mutate relations directly; index lookups must
        rebuild rather than return stale rows."""
        conn = connect()
        _populate(conn, rows=10)
        conn.execute("CREATE INDEX t_x ON t (x)")
        conn.catalog.get("t").insert((500, 1))   # bypasses the session
        rows = conn.execute("SELECT y FROM t WHERE x = 500")
        assert rows.rows == [(1,)]

    def test_register_replace_rebuilds_index(self):
        from repro.relation import Relation
        conn = connect()
        _populate(conn, rows=5)
        conn.execute("CREATE INDEX t_x ON t (x)")
        replacement = Relation(conn.catalog.get("t").schema,
                               [(42, 0), (43, 1)])
        conn.catalog.register("t", replacement, replace=True)
        assert conn.catalog.get_index("t_x").lookup(42) == [(42, 0)]

    def test_register_replace_unique_violation_is_atomic(self):
        """If the replacement data violates a unique index, the whole
        registration must fail with the old table and index intact."""
        from repro.relation import Relation

        conn = connect()
        conn.execute("CREATE TABLE t (x int)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        conn.execute("CREATE UNIQUE INDEX t_x ON t (x)")
        bad = Relation(conn.catalog.get("t").schema, [(5,), (5,)])
        with pytest.raises(CatalogError):
            conn.catalog.register("t", bad, replace=True)
        assert conn.catalog.get("t").rows == [(1,), (2,)]
        assert conn.execute("SELECT x FROM t WHERE x = 2").rows == [(2,)]

    def test_null_literal_comparisons_estimate_zero(self):
        conn = connect()
        _populate(conn)
        conn.execute("ANALYZE t")
        for predicate in ("x = NULL", "x <> NULL", "x < NULL"):
            assert conn.estimate_rows(
                f"SELECT x FROM t WHERE {predicate}") == 0.0

    def test_register_replace_with_changed_schema(self):
        """Replacing a table with a narrower/reshaped relation must
        re-resolve index positions (and drop indexes whose column is
        gone) instead of rebuilding against stale offsets."""
        from repro.relation import Relation
        from repro.schema import Attribute, Schema

        conn = connect()
        _populate(conn, rows=5)
        conn.execute("CREATE INDEX t_x ON t (x)")
        conn.execute("CREATE INDEX t_y ON t (y)")
        version = conn.catalog.version
        reshaped = Relation(Schema([Attribute("x")]), [(7,), (8,)])
        conn.catalog.register("t", reshaped, replace=True)
        assert conn.catalog.version > version
        assert conn.catalog.get_index("t_x").lookup(7) == [(7,)]
        with pytest.raises(CatalogError):
            conn.catalog.get_index("t_y")   # its column no longer exists


class TestIndexPlans:
    def test_equality_lookup_plans_index_scan(self):
        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")
        text = conn.explain_physical("SELECT y FROM t WHERE x = 7")
        assert "IndexScan" in text and "SeqScan" not in text

    def test_unindexed_table_still_plans_seqscan(self):
        conn = connect()
        _populate(conn)
        text = conn.explain_physical("SELECT y FROM t WHERE x = 7")
        assert "SeqScan" in text and "IndexScan" not in text

    def test_index_and_seqscan_plans_agree(self):
        """Acceptance: identical rows from the indexed plan and the
        un-indexed plan, on both engines."""
        sql = "SELECT y FROM t WHERE x = 7"
        plain = connect()
        _populate(plain)
        expected = plain.sql(sql).rows
        indexed = connect(catalog=plain.catalog)
        indexed.execute("CREATE INDEX t_x ON t (x)")
        assert indexed.sql(sql).rows == expected
        assert oracle(plain.catalog).sql(sql).rows == expected

    def test_range_scan_uses_sorted_index(self):
        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x) USING sorted")
        text = conn.explain_physical("SELECT y FROM t WHERE x < 5")
        assert "IndexScan" in text
        rows = conn.execute("SELECT x FROM t WHERE x < 5")
        assert sorted(rows.rows) == [(i,) for i in range(5)]

    def test_hash_index_does_not_serve_ranges(self):
        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")   # hash
        text = conn.explain_physical("SELECT y FROM t WHERE x < 5")
        assert "SeqScan" in text and "IndexScan" not in text

    def test_use_indexes_knob_disables_index_plans(self):
        conn = connect(use_indexes=False)
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")
        text = conn.explain_physical("SELECT y FROM t WHERE x = 7")
        assert "SeqScan" in text and "IndexScan" not in text

    def test_use_indexes_toggle_invalidates_cached_plan(self):
        """The knob is part of the plan-cache key: toggling it must not
        serve a plan lowered under the other setting."""
        from repro.engine.physical import IndexScan, SeqScan

        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")
        sql = "SELECT y FROM t WHERE x = 7"
        conn.execute(sql)
        indexed = conn.plan_cache.peek(conn._plan_key(sql, None))
        assert any(isinstance(node, IndexScan)
                   for node in indexed.physical.nodes())
        conn.config.use_indexes = False
        conn.execute(sql)
        plain = conn.plan_cache.peek(conn._plan_key(sql, None))
        assert plain is not indexed
        assert any(isinstance(node, SeqScan)
                   for node in plain.physical.nodes())

    def test_guarded_type_mismatch_not_index_extracted(self):
        """With a guard conjunct present, a type-mismatched equality must
        not be pulled into an eager IndexScan probe — both plans return
        [] because the guard filters every row first."""
        conn = connect()
        conn.execute("CREATE TABLE g (a int, k int)")
        conn.insert("g", [(i, i) for i in range(100)])
        conn.execute("CREATE INDEX g_k ON g (k)")
        conn.execute("ANALYZE g")
        sql = "SELECT a FROM g WHERE a = -1 AND k = 'x'"
        assert conn.execute(sql).rows == []
        plain = connect(use_indexes=False, catalog=conn.catalog)
        assert plain.sql(sql).rows == []

    def test_parameterized_lookup_through_cached_index_plan(self):
        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")
        statement = conn.prepare("SELECT y FROM t WHERE x = ?")
        assert statement.execute((7,)).rows == [(7,)]
        assert statement.execute((8,)).rows == [(8,)]
        assert conn.last_stats.index_scans >= 1

    def test_small_probe_big_build_plans_index_join(self):
        conn = connect()
        conn.execute("CREATE TABLE big (k int, v int)")
        conn.insert("big", [(i, i % 7) for i in range(4000)])
        conn.execute("CREATE TABLE probe (k int)")
        conn.insert("probe", [(i * 100,) for i in range(10)])
        conn.execute("CREATE UNIQUE INDEX big_k ON big (k)")
        conn.execute("ANALYZE")
        sql = "SELECT p.k, b.v FROM probe p JOIN big b ON p.k = b.k"
        assert "IndexNestedLoopJoin" in conn.explain_physical(sql)
        rows = conn.execute(sql)
        assert len(rows.rows) == 10
        assert conn.last_stats.index_nl_joins >= 1
        # the same join without the index hash-joins and agrees
        baseline = connect(use_indexes=False, catalog=conn.catalog)
        assert Counter(baseline.sql(sql).rows) == Counter(rows.rows)
        assert baseline.last_stats.hash_joins >= 1


class TestErrorSemantics:
    def test_conjunct_ordering_preserves_guard_patterns(self):
        """Reordering must never move an error-capable conjunct ahead of
        its guard: ``a <> 0 AND 10/a > 1`` stays division-safe."""
        conn = connect()
        conn.execute("CREATE TABLE t (a int)")
        conn.execute("INSERT INTO t VALUES (0), (1), (2)")
        conn.execute("ANALYZE t")
        rows = conn.execute("SELECT a FROM t WHERE a <> 0 AND 10/a > 1")
        assert sorted(rows.rows) == [(1,), (2,)]

    def test_mixed_type_comparison_stays_behind_guard(self):
        """A comparison whose operand types are not statically known to
        match may raise at runtime, so it must not be reordered ahead of
        the guard that short-circuits it — both engines return []."""
        conn = connect()
        conn.execute("CREATE TABLE t (a int, b text)")
        conn.execute("INSERT INTO t VALUES (5, 'x')")
        conn.execute("ANALYZE t")
        assert conn.execute("SELECT a FROM t WHERE a <> 5 AND b < 10"
                            ).rows == []
        baseline = oracle(conn.catalog)
        assert baseline.sql("SELECT a FROM t WHERE a <> 5 AND b < 10"
                            ).rows == []

    def test_incomparable_join_probe_matches_hash_join(self):
        """A join key incomparable with a sorted index's keys must
        produce the HashJoin's no-match, not a raw TypeError."""
        conn = connect()
        conn.execute("CREATE TABLE big (k int, v int)")
        conn.insert("big", [(i, i) for i in range(3000)])
        conn.execute("CREATE TABLE p (k text)")
        conn.execute("INSERT INTO p VALUES ('x')")
        conn.execute("CREATE INDEX big_k ON big (k) USING sorted")
        conn.execute("ANALYZE")
        sql = "SELECT p.k FROM p JOIN big b ON p.k = b.k"
        assert "IndexNestedLoopJoin" in conn.explain_physical(sql)
        assert conn.execute(sql).rows == []
        baseline = connect(use_indexes=False, catalog=conn.catalog)
        assert baseline.sql(sql).rows == []

    def test_raise_capable_key_expression_not_index_extracted(self):
        """A key like ``k = 1/0`` must stay inside the guarded filter —
        with and without an index the query returns [] (the other
        conjunct filters every row first)."""
        conn = connect()
        conn.execute("CREATE TABLE t (a int, k int)")
        conn.insert("t", [(i, i) for i in range(50)])
        conn.execute("CREATE INDEX t_k ON t (k)")
        conn.execute("ANALYZE t")
        sql = "SELECT k FROM t WHERE a = 9999 AND k = 1/0"
        assert "IndexScan" not in conn.explain_physical(sql)
        assert conn.execute(sql).rows == []

    def test_composite_equi_join_stays_hash_join(self):
        """Multi-key equi-joins keep hash semantics (composite keys of
        mismatched types never match, never raise) — no index join."""
        conn = connect()
        conn.execute("CREATE TABLE big (k int, t text)")
        conn.insert("big", [(i, str(i)) for i in range(400)])
        conn.execute("CREATE TABLE p (k int, n int)")
        conn.execute("INSERT INTO p VALUES (1, 1)")
        conn.execute("CREATE INDEX big_k ON big (k)")
        conn.execute("ANALYZE")
        sql = ("SELECT p.k FROM p JOIN big b "
               "ON p.k = b.k AND p.n = b.t")
        assert "IndexNestedLoopJoin" not in conn.explain_physical(sql)
        assert conn.execute(sql).rows == []

    def test_incomparable_sorted_index_insert_is_catalog_error(self):
        """A type-mismatched key must surface as CatalogError (so the
        session rolls the row back), not a raw TypeError."""
        conn = connect()
        conn.execute("CREATE TABLE t (a int)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        conn.execute("CREATE INDEX t_a ON t (a) USING sorted")
        with pytest.raises(CatalogError):
            conn.insert("t", [("x",)])
        assert len(conn.catalog.get("t").rows) == 2   # rolled back
        assert conn.execute("SELECT a FROM t WHERE a = 2").rows == [(2,)]

    def test_scalar_sublink_stays_behind_its_guard(self):
        """A raise-capable scalar sublink must not be reordered ahead of
        the conjunct that guards it."""
        conn = connect()
        conn.execute("CREATE TABLE r (a int, b int)")
        conn.execute("INSERT INTO r VALUES (0, 10), (5, 20)")
        conn.execute("CREATE TABLE s (k int, x int)")
        conn.execute("INSERT INTO s VALUES (0, 1), (0, 2), (5, 7)")
        conn.execute("ANALYZE")
        rows = conn.execute(
            "SELECT b FROM r WHERE a <> 0 AND 7 = "
            "(SELECT x FROM s WHERE k = a)")
        assert rows.rows == [(20,)]

    def test_incomparable_hash_equality_matches_seqscan_error(self):
        """A hash-index equality probe with a type-mismatched key must
        raise like the scan plan, not silently return no rows."""
        from repro.errors import ExpressionError

        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")
        statement = conn.prepare("SELECT y FROM t WHERE x = ?")
        with pytest.raises(ExpressionError):
            statement.execute(("zzz",))

    def test_bool_probe_of_int_hash_index_matches_seqscan_error(self):
        """hash(True) == hash(1), but SQL says int and bool are
        incomparable — the hash hit must not leak Python equality."""
        from repro.errors import ExpressionError

        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x)")
        with pytest.raises(ExpressionError):
            conn.execute("SELECT y FROM t WHERE x = TRUE")
        plain = connect(use_indexes=False, catalog=conn.catalog)
        with pytest.raises(ExpressionError):
            plain.execute("SELECT y FROM t WHERE x = TRUE")

    def test_incomparable_range_key_matches_seqscan_error(self):
        """The IndexScan plan must raise the same library error as the
        SeqScan plan for an incomparable operand — not a bisect
        TypeError."""
        from repro.errors import ExpressionError

        conn = connect()
        _populate(conn)
        conn.execute("CREATE INDEX t_x ON t (x) USING sorted")
        statement = conn.prepare("SELECT y FROM t WHERE x < ?")
        with pytest.raises(ExpressionError):
            statement.execute(("zzz",))


class TestExplainEstimates:
    def test_explain_shows_estimates(self):
        conn = connect()
        _populate(conn)
        conn.execute("ANALYZE t")
        text = conn.explain_physical("SELECT y FROM t WHERE y = 3")
        assert "estimated" in text and "cost" in text

    def test_explain_analyze_shows_estimated_vs_actual(self):
        conn = connect()
        _populate(conn)
        conn.execute("ANALYZE t")
        text = conn.explain_analyze("SELECT y FROM t WHERE y = 3")
        assert "est 10 rows" in text      # 100 rows, 10 distinct y values
        assert "actual rows=10" in text

    def test_filter_conjuncts_ordered_by_selectivity(self):
        conn = connect()
        conn.execute("CREATE TABLE o (x int, y int)")
        conn.insert("o", [(i, i % 50) for i in range(100)])
        conn.execute("ANALYZE o")
        # equality (sel 1/50) must run before the loose range (sel ~1)
        text = conn.explain_physical("SELECT x FROM o WHERE x > 2 AND y = 5")
        filter_line = next(line for line in text.splitlines()
                           if "Filter" in line)
        assert filter_line.index("y = 5") < filter_line.index("x > 2")

    def test_estimate_rows_api(self):
        conn = connect()
        _populate(conn)
        conn.execute("ANALYZE t")
        assert conn.estimate_rows("SELECT * FROM t") == 100
        estimate = conn.estimate_rows("SELECT * FROM t WHERE y = 3")
        assert estimate == pytest.approx(10.0)


class TestJoinOrdering:
    def test_three_way_join_parity_and_order(self):
        """The greedy pass must keep results identical and start the
        chain from the smallest relation."""
        conn = connect()
        conn.execute("CREATE TABLE fact (a int, b int)")
        conn.insert("fact", [(i % 20, i % 30) for i in range(600)])
        conn.execute("CREATE TABLE dim1 (a int)")
        conn.insert("dim1", [(i,) for i in range(20)])
        conn.execute("CREATE TABLE tiny (b int)")
        conn.insert("tiny", [(0,), (1,)])
        conn.execute("ANALYZE")
        sql = ("SELECT f.a, f.b FROM fact f, dim1 d, tiny t "
               "WHERE f.a = d.a AND f.b = t.b")
        baseline = oracle(conn.catalog)
        assert Counter(conn.sql(sql).rows) == Counter(baseline.sql(sql).rows)
        text = conn.explain_physical(sql)
        scans = [line for line in text.splitlines()
                 if "Scan" in line or "probe" in line]
        assert any("tiny" in line for line in scans)

    def test_reorder_preserves_column_order(self):
        conn = connect()
        conn.execute("CREATE TABLE a (x int)")
        conn.insert("a", [(i,) for i in range(50)])
        conn.execute("CREATE TABLE b (y int)")
        conn.insert("b", [(i,) for i in range(5)])
        conn.execute("CREATE TABLE c (z int)")
        conn.insert("c", [(1,)])
        rows = conn.execute(
            "SELECT x, y, z FROM a, b, c WHERE x = y AND y = z")
        assert rows.schema.names == ("x", "y", "z")
        assert rows.rows == [(1, 1, 1)]


def _auto_decisions(conn, sql):
    statement = parse_statement(sql)
    plan = Analyzer(conn.catalog).analyze(statement)
    rewriter = ProvenanceRewriter(conn.catalog, "auto", conn.config)
    rewriter.rewrite_query(plan)
    return rewriter.planner.decisions


class TestAutoStrategySelection:
    """Acceptance: ``auto`` picks at least two different strategies
    across the fig8/fig9 synthetic size grid."""

    def test_auto_varies_with_size_on_fig8_grid(self):
        picks = {}
        for size in (8, 2000):
            conn = load_synthetic(SyntheticConfig(size, size, seed=0))
            picks[("q1", size)] = _auto_decisions(
                conn, q1_sql(size, size))[0]
            picks[("q2", size)] = _auto_decisions(
                conn, q2_sql(size, size))[0]
        # Unn-eligible q1 hash-joins at every size
        assert picks[("q1", 8)] == picks[("q1", 2000)] == "unn"
        # q2 (inequality ALL): Gen's minimal plan on small inputs, Left's
        # materialized join once the quadratic term dominates
        assert picks[("q2", 8)] == "gen"
        assert picks[("q2", 2000)] == "left"
        assert len(set(picks.values())) >= 2

    def test_auto_results_match_fixed_strategies(self):
        size = 30
        db = load_synthetic(SyntheticConfig(size, size, seed=1))
        for sql in (q1_sql(size, size, seed=1), q2_sql(size, size, seed=1)):
            prov_sql = "SELECT PROVENANCE " + sql[len("SELECT "):]
            auto_rows = Counter(db.sql(prov_sql, strategy="auto").rows)
            gen_rows = Counter(db.sql(prov_sql, strategy="gen").rows)
            assert auto_rows == gen_rows

    def test_correlated_still_goes_to_gen(self):
        conn = connect()
        conn.execute("CREATE TABLE r (a int, b int)")
        conn.insert("r", [(i, i) for i in range(50)])
        conn.execute("CREATE TABLE s (c int, d int)")
        conn.insert("s", [(i, i) for i in range(50)])
        decisions = _auto_decisions(
            conn, "SELECT a FROM r WHERE EXISTS "
                  "(SELECT * FROM s WHERE c = b)")
        assert decisions == ["gen"]
