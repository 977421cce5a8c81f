"""The columnar vectorized engine: parity, fallback and batch plumbing.

``engine="vectorized"`` must be *always correct, never partial*: every
query either runs on whole-column vector kernels or falls back to row
operators node by node, and in both cases the results are bag-identical
to the materializing oracle interpreter.  This module runs the full parity
matrix of ``test_physical_engine`` plus the data shapes that stress the
columnar representation specifically — NULL-heavy columns, mixed
int/float/bool/text columns, NaN, beyond-int64 integers — along with a
hypothesis round-trip for the ColumnBatch <-> rows transposition and
the EXPLAIN surfaces.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracle_engine import oracle
from repro import connect
from repro.engine.columnar import (
    Column, ColumnBatch, clear_cache, column_from_values, table_columns,
)
from repro.errors import ExpressionError

from test_physical_engine import (
    ORDERED_PARAM_QUERIES, ORDERED_QUERIES, PARITY_QUERIES,
    PROVENANCE_QUERIES, _populate,
)


def _pair(**kwargs):
    """A (vectorized session, materializing oracle) pair over one
    catalog."""
    vectorized = connect(engine="vectorized", **kwargs)
    return vectorized, oracle(vectorized.catalog)


@pytest.fixture
def engines():
    vectorized, materializing = _pair()
    _populate(vectorized)
    return vectorized, materializing


def _bags_equal(left, right):
    # repr-keyed bags: robust to NaN (NaN != NaN would break Counter)
    return sorted(map(repr, left)) == sorted(map(repr, right))


class TestVectorizedParity:
    """The full engine parity matrix, vectorized vs materializing."""

    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_bag_parity(self, engines, sql):
        vectorized, materializing = engines
        fast = vectorized.sql(sql)
        slow = materializing.sql(sql)
        assert _bags_equal(fast.rows, slow.rows)
        assert fast.schema.names == slow.schema.names

    @pytest.mark.parametrize("sql,strategy", PROVENANCE_QUERIES)
    def test_provenance_bag_parity(self, engines, sql, strategy):
        vectorized, materializing = engines
        fast = vectorized.sql(sql, strategy=strategy)
        slow = materializing.sql(sql, strategy=strategy)
        assert _bags_equal(fast.rows, slow.rows)

    @pytest.mark.parametrize("strategy", ("gen", "left", "move", "unn"))
    def test_all_strategies(self, engines, strategy):
        vectorized, materializing = engines
        sql = ("SELECT PROVENANCE a, d FROM r, s "
               "WHERE r.a = s.c AND s.d > 3")
        fast = vectorized.sql(sql, strategy=strategy)
        slow = materializing.sql(sql, strategy=strategy)
        assert _bags_equal(fast.rows, slow.rows)

    @pytest.mark.parametrize("sql", ORDERED_QUERIES)
    def test_ordered_parity(self, engines, sql):
        vectorized, materializing = engines
        assert vectorized.sql(sql).rows == materializing.sql(sql).rows

    @pytest.mark.parametrize("sql,params", ORDERED_PARAM_QUERIES)
    def test_ordered_parity_with_params(self, engines, sql, params):
        vectorized, materializing = engines
        assert vectorized.sql(sql, params=params).rows == \
            materializing.sql(sql, params=params).rows

    @pytest.mark.parametrize("batch_size", (1, 2, 3, 7, 64))
    def test_parity_across_batch_sizes(self, batch_size):
        small = connect(engine="vectorized", batch_size=batch_size)
        _populate(small)
        reference = oracle(small.catalog)
        for sql in ("SELECT a, d FROM r JOIN s ON a = c AND d > 3",
                    "SELECT b, count(*) AS n FROM r GROUP BY b",
                    "SELECT DISTINCT b FROM r WHERE a + b > 2",
                    "SELECT a FROM r ORDER BY a LIMIT 2 OFFSET 1"):
            assert _bags_equal(small.sql(sql).rows,
                               reference.sql(sql).rows)

    def test_parameters(self, engines):
        vectorized, materializing = engines
        sql = "SELECT a, b FROM r WHERE a > ? AND b = ?"
        fast = vectorized.sql(sql, params=(1, 1))
        slow = materializing.sql(sql, params=(1, 1))
        assert _bags_equal(fast.rows, slow.rows)
        # NULL parameter: the comparison is unknown for every row
        assert vectorized.sql("SELECT a FROM r WHERE a > ?",
                              params=(None,)).rows == []


class TestHardDataShapes:
    """Column shapes that stress kind inference and the fast paths."""

    def _weird(self):
        vectorized, materializing = _pair()
        vectorized.create_table("t", [("k", "int"), ("v", "float"),
                                      ("s", "text"), ("f", "bool")])
        vectorized.insert("t", [
            (1, 1.5, "ab", True),
            (2, float("nan"), "", False),
            (None, None, None, None),
            (1 << 70, -0.0, "ab", True),          # beyond int64
            (-5, 2.0, "zzz", None),
            (3, float("inf"), "a%b", False),
            (None, 1.5, "AB", True),
        ])
        return vectorized, materializing

    QUERIES = [
        "SELECT k, v FROM t WHERE k > 0",
        "SELECT k FROM t WHERE v > 1.0",
        "SELECT s FROM t WHERE s = 'ab'",
        "SELECT k FROM t WHERE f",
        "SELECT k FROM t WHERE k IS NULL",
        "SELECT k FROM t WHERE v IS NOT NULL AND k IS NOT NULL",
        "SELECT k + v AS x FROM t WHERE k IS NOT NULL",
        "SELECT k, count(*) AS n FROM t GROUP BY k",
        "SELECT f, sum(k) AS s, min(v) AS m, max(s) AS x, avg(v) AS a "
        "FROM t GROUP BY f",
        "SELECT a.k FROM t a, t b WHERE a.k = b.k",
        "SELECT a.k, b.v FROM t a LEFT JOIN t b ON a.k = b.k "
        "AND b.v > 1.0",
        "SELECT DISTINCT s FROM t",
        "SELECT k FROM t WHERE NOT (k < 2)",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_parity(self, sql):
        vectorized, materializing = self._weird()
        assert _bags_equal(vectorized.sql(sql).rows,
                           materializing.sql(sql).rows)

    def test_nan_survives_round_trip(self):
        vectorized, _ = self._weird()
        rows = vectorized.sql("SELECT v FROM t WHERE v > 0 OR v < 1").rows
        assert any(isinstance(v, float) and math.isnan(v)
                   for (v,) in vectorized.sql("SELECT v FROM t "
                                              "WHERE v IS NOT NULL").rows)
        assert rows is not None  # OR forces the row fallback; no crash

    def test_error_parity(self):
        vectorized, materializing = self._weird()
        sql = "SELECT k FROM t WHERE s > 1"
        with pytest.raises(ExpressionError) as fast:
            vectorized.sql(sql)
        with pytest.raises(ExpressionError) as slow:
            materializing.sql(sql)
        assert str(fast.value) == str(slow.value)

    def test_division_error_parity(self):
        vectorized, materializing = self._weird()
        sql = "SELECT 1 / (k - k) AS x FROM t WHERE k IS NOT NULL"
        with pytest.raises(ExpressionError) as fast:
            vectorized.sql(sql)
        with pytest.raises(ExpressionError) as slow:
            materializing.sql(sql)
        assert str(fast.value) == str(slow.value)


class TestRowFallback:
    """Unsupported expressions keep their operator on the row path —
    with identical results."""

    FALLBACK_QUERIES = [
        "SELECT a FROM r WHERE a = 1 OR b = 2",
        "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END AS c FROM r",
        "SELECT abs(a - 2) AS x FROM r",
        "SELECT a FROM r WHERE a IN (SELECT c FROM s)",
        "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c = a)",
        "SELECT a, (SELECT max(d) FROM s) AS m FROM r",
    ]

    @pytest.mark.parametrize("sql", FALLBACK_QUERIES)
    def test_fallback_parity(self, engines, sql):
        vectorized, materializing = engines
        assert _bags_equal(vectorized.sql(sql).rows,
                           materializing.sql(sql).rows)

    def test_fallback_counted(self, engines):
        vectorized, _ = engines
        # vector filter feeding a CASE projection the vector compiler
        # rejects: a mixed plan with a bridge in the middle
        vectorized.sql("SELECT CASE WHEN a > 1 THEN 1 ELSE 0 END AS c "
                       "FROM r WHERE a > 1").rows
        stats = vectorized.last_stats
        assert stats.row_fallback_nodes >= 1     # the CASE projection
        assert stats.vectorized_nodes >= 2       # scan + filter

    def test_unpayoff_subtree_reverts_to_rows(self, engines):
        vectorized, _ = engines
        # an OR filter rejects the whole chain; a bare columnar scan
        # under a row filter would be pure transposition overhead, so
        # the plan reverts to row operators end to end
        vectorized.sql("SELECT a FROM r WHERE a = 1 OR b = 2").rows
        stats = vectorized.last_stats
        assert stats.vectorized_nodes == 0
        assert stats.row_fallback_nodes >= 2

    def test_fully_vectorized_counted(self, engines):
        vectorized, _ = engines
        vectorized.sql("SELECT a + b AS t FROM r WHERE a > 1").rows
        stats = vectorized.last_stats
        assert stats.row_fallback_nodes == 0
        assert stats.vectorized_nodes >= 3       # scan, filter, project


class TestExplainSurfaces:
    def test_explain_physical_tags(self, engines):
        vectorized, _ = engines
        text = vectorized.explain_physical(
            "SELECT a FROM r WHERE a > 1")
        assert "[columnar]" in text
        assert "Filter" in text

    def test_explain_physical_shows_fallback(self, engines):
        vectorized, _ = engines
        text = vectorized.explain_physical(
            "SELECT CASE WHEN a > 1 THEN 1 ELSE 0 END AS c "
            "FROM r WHERE a > 1")
        assert "[rows]" in text                  # the CASE projection
        assert "[columnar]" in text              # scan + filter
        assert "RowsFromColumns" in text         # the bridge between

    def test_pipelined_explain_untagged(self, engines):
        vectorized, _ = engines
        pipelined = connect(engine="pipelined",
                            catalog=vectorized.catalog)
        text = pipelined.explain_physical("SELECT a FROM r WHERE a > 1")
        assert "[columnar]" not in text and "[rows]" not in text

    def test_explain_analyze_counters(self, engines):
        vectorized, _ = engines
        text = vectorized.explain_analyze("SELECT a FROM r WHERE a > 1")
        assert "[columnar]" in text
        assert "Vectorized:" in text
        assert "row-fallback node(s)" in text


class TestBatchPlumbing:
    def test_streaming_result(self):
        vectorized = connect(engine="vectorized", batch_size=2)
        _populate(vectorized)
        result = vectorized.sql("SELECT a, b FROM r WHERE a >= 1")
        assert sorted(result.rows) == [(1, 1), (2, 1), (2, 1), (3, 2)]
        assert list(result) == result.rows

    def test_dml_visible_through_column_cache(self, engines):
        vectorized, materializing = engines
        before = vectorized.sql("SELECT count(*) AS n FROM r").rows
        vectorized.execute("INSERT INTO r VALUES (9, 9)")
        after = vectorized.sql("SELECT count(*) AS n FROM r").rows
        assert after[0][0] == before[0][0] + 1
        assert _bags_equal(vectorized.sql("SELECT a, b FROM r").rows,
                           materializing.sql("SELECT a, b FROM r").rows)

    def test_plan_cache_reexecution(self):
        vectorized = connect(engine="vectorized")
        _populate(vectorized)
        prepared = vectorized.prepare("SELECT a FROM r WHERE a > ?")
        first = sorted(prepared.execute((1,)).rows)
        second = sorted(prepared.execute((2,)).rows)
        assert first == [(2,), (2,), (3,)]
        assert second == [(3,)]


class TestColumnBatchRoundTrip:
    VALUES = st.one_of(
        st.none(), st.booleans(), st.integers(-(1 << 70), 1 << 70),
        st.floats(allow_nan=False), st.text(max_size=5))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, data):
        width = data.draw(st.integers(0, 4))
        rows = data.draw(st.lists(
            st.tuples(*[self.VALUES] * width), max_size=30))
        batch = ColumnBatch.from_rows(rows, width)
        assert len(batch) == len(rows)
        assert batch.to_rows() == rows
        if rows:
            sel = data.draw(st.lists(
                st.integers(0, len(rows) - 1), max_size=30))
            view = ColumnBatch(batch.columns, sel)
            expected = [rows[i] for i in sel]
            assert view.to_rows() == expected
            assert view.dense().to_rows() == expected
        for column in batch.columns:
            present = [v for v in column.values if v is not None]
            if column.kind == "num":
                assert all(isinstance(v, (int, float))
                           and not isinstance(v, bool) for v in present)
            elif column.kind == "text":
                assert all(isinstance(v, str) for v in present)
            elif column.kind == "bool":
                assert all(isinstance(v, bool) for v in present)
            if not column.has_nulls:
                assert None not in column.values

    def test_nan_round_trip(self):
        nan = float("nan")
        batch = ColumnBatch.from_rows([(nan,), (1.0,)], 1)
        assert batch.columns[0].kind == "num"
        out = batch.to_rows()
        assert math.isnan(out[0][0]) and out[1][0] == 1.0

    def test_kind_inference(self):
        assert column_from_values([1, 2.5, None]).kind == "num"
        assert column_from_values([True, False]).kind == "bool"
        assert column_from_values(["a", "b"]).kind == "text"
        mixed = column_from_values([1, "a"])
        assert mixed.kind == "any" and mixed.has_nulls
        empty = column_from_values([])
        assert empty.kind == "any"
        assert column_from_values([None, None]).has_nulls

    def test_range_selection_to_rows(self):
        batch = ColumnBatch(
            [Column([1, 2, 3, 4], "num", False)], range(1, 3))
        assert batch.to_rows() == [(2,), (3,)]

    def test_table_cache_invalidation(self):
        clear_cache()
        rows = [(1,), (2,)]
        first = table_columns(rows, 1)
        assert table_columns(rows, 1) is first      # cache hit
        rows.append((3,))                           # in-place growth
        second = table_columns(rows, 1)
        assert second is not first
        # NULL-free int columns are array('q')-backed; compare values
        assert list(second[0].values) == [1, 2, 3]
