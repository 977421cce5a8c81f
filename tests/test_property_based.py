"""Property-based tests (hypothesis): the paper's key invariants over
randomly generated databases and sublink queries.

1. Result preservation (Theorem 4, first half): the distinct original
   attributes of q+ equal the result of q — for every strategy.
2. Strategy agreement: Gen, Left, Move (and Unn where applicable) produce
   identical provenance bags.
3. Provenance tuples are real: every non-NULL provenance tuple embedded in
   q+'s output occurs in the corresponding base relation.
4. Bag-algebra laws of the substrate (Figure 1 multiplicity identities).
5. Cardinality-estimator sanity: estimates are non-negative, bounded by
   the table's row count for single-table filters, and exact for
   ``col = const`` on a unique indexed column.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import connect, Connection
from repro.relation import Relation


# ---------------------------------------------------------------------------
# Random databases and queries
# ---------------------------------------------------------------------------

small_int = st.integers(min_value=-3, max_value=3)
nullable_int = st.one_of(st.none(), small_int)

rows_r = st.lists(st.tuples(small_int, small_int), min_size=0, max_size=6)
rows_s = st.lists(st.tuples(small_int, small_int), min_size=0, max_size=6)

comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
sublink_shapes = st.sampled_from([
    "a {op} ANY (SELECT c FROM s {where})",
    "a {op} ALL (SELECT c FROM s {where})",
    "EXISTS (SELECT * FROM s {where})",
    "NOT EXISTS (SELECT * FROM s {where})",
    "a {op} (SELECT max(c) FROM s {where})",
    "a IN (SELECT c FROM s {where})",
    "a NOT IN (SELECT c FROM s {where})",
])
sublink_filters = st.sampled_from([
    "", "WHERE c > 0", "WHERE d <= 1", "WHERE c = d",
])


def make_db(r_rows, s_rows) -> Connection:
    db = connect()
    db.execute("CREATE TABLE r (a int, b int)")
    db.insert("r", r_rows)
    db.execute("CREATE TABLE s (c int, d int)")
    db.insert("s", s_rows)
    return db


def build_query(shape: str, op: str, where: str) -> str:
    predicate = shape.format(op=op, where=where)
    return f"SELECT a, b FROM r WHERE b >= 0 AND {predicate}"


@settings(max_examples=60, deadline=None)
@given(rows_r, rows_s, sublink_shapes, comparison_ops, sublink_filters)
def test_result_preservation_all_strategies(r_rows, s_rows, shape, op,
                                            where):
    db = make_db(r_rows, s_rows)
    sql = build_query(shape, op, where)
    plain = set(db.sql(sql).rows)
    for strategy in ("gen", "left", "move", "auto"):
        prov = db.provenance(sql, strategy=strategy)
        originals = {row[:2] for row in prov.rows}
        assert originals == plain, (sql, strategy)


@settings(max_examples=60, deadline=None)
@given(rows_r, rows_s, sublink_shapes, comparison_ops, sublink_filters)
def test_strategy_agreement(r_rows, s_rows, shape, op, where):
    db = make_db(r_rows, s_rows)
    sql = build_query(shape, op, where)
    reference = Counter(db.provenance(sql, strategy="gen").rows)
    for strategy in ("left", "move"):
        other = Counter(db.provenance(sql, strategy=strategy).rows)
        assert other == reference, (sql, strategy)


@settings(max_examples=40, deadline=None)
@given(rows_r, rows_s, sublink_filters)
def test_unn_agreement_on_equality_any(r_rows, s_rows, where):
    db = make_db(r_rows, s_rows)
    sql = build_query("a {op} ANY (SELECT c FROM s {where})", "=", where)
    reference = Counter(db.provenance(sql, strategy="gen").rows)
    unn = Counter(db.provenance(sql, strategy="unn").rows)
    assert unn == reference, sql


@settings(max_examples=40, deadline=None)
@given(rows_r, rows_s, sublink_shapes, comparison_ops)
def test_provenance_tuples_are_real(r_rows, s_rows, shape, op):
    db = make_db(r_rows, s_rows)
    sql = build_query(shape, op, "")
    prov = db.provenance(sql, strategy="gen")
    r_set = set(r_rows)
    s_set = set(s_rows)
    for row in prov.rows:
        r_part, s_part = row[2:4], row[4:6]
        if r_part != (None, None):
            assert tuple(r_part) in r_set
        if s_part != (None, None):
            assert tuple(s_part) in s_set


@settings(max_examples=40, deadline=None)
@given(rows_r, rows_s)
def test_correlated_gen_preserves_results(r_rows, s_rows):
    db = make_db(r_rows, s_rows)
    sql = ("SELECT a, b FROM r WHERE EXISTS "
           "(SELECT * FROM s WHERE c = b)")
    plain = set(db.sql(sql).rows)
    prov = db.provenance(sql, strategy="gen")
    assert {row[:2] for row in prov.rows} == plain


@settings(max_examples=40, deadline=None)
@given(rows_r, rows_s)
def test_aggregation_provenance_covers_group(r_rows, s_rows):
    db = make_db(r_rows, s_rows)
    sql = "SELECT b, count(*) AS n FROM r GROUP BY b"
    prov = db.provenance(sql)
    # every group of size n appears exactly n times in the provenance
    group_sizes = Counter(row[1] for row in r_rows)
    prov_counts = Counter(row[0] for row in prov.rows)
    for key, size in group_sizes.items():
        assert prov_counts[key] == size


# ---------------------------------------------------------------------------
# Bag-algebra laws (Figure 1)
# ---------------------------------------------------------------------------

bags = st.lists(st.tuples(small_int), min_size=0, max_size=8)


def as_rel(rows):
    return Relation.from_columns(["x"], rows)


@settings(max_examples=100, deadline=None)
@given(bags, bags)
def test_bag_union_multiplicity(xs, ys):
    combined = as_rel(xs).bag_union(as_rel(ys)).multiset()
    expected = Counter(xs) + Counter(ys)
    assert combined == expected


@settings(max_examples=100, deadline=None)
@given(bags, bags)
def test_bag_intersect_multiplicity(xs, ys):
    combined = as_rel(xs).bag_intersect(as_rel(ys)).multiset()
    expected = Counter(xs) & Counter(ys)
    assert combined == expected


@settings(max_examples=100, deadline=None)
@given(bags, bags)
def test_bag_difference_multiplicity(xs, ys):
    combined = as_rel(xs).bag_difference(as_rel(ys)).multiset()
    expected = Counter(xs) - Counter(ys)
    assert combined == expected


@settings(max_examples=100, deadline=None)
@given(bags, bags)
def test_union_via_sql_matches_relation_layer(xs, ys):
    db = connect()
    db.execute("CREATE TABLE t1 (x int)")
    db.insert("t1", xs)
    db.execute("CREATE TABLE t2 (x int)")
    db.insert("t2", ys)
    rows = db.sql("SELECT x FROM t1 UNION ALL SELECT x FROM t2").rows
    assert Counter(rows) == Counter(xs) + Counter(ys)


# ---------------------------------------------------------------------------
# Cardinality-estimator sanity
# ---------------------------------------------------------------------------

filter_predicates = st.sampled_from([
    "a = {v}", "a <> {v}", "a < {v}", "a >= {v}", "a IS NULL",
    "a = {v} AND b > {v}", "a = {v} OR b = {v}", "NOT a = {v}",
])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(nullable_int, small_int),
                min_size=0, max_size=12),
       filter_predicates, small_int, st.booleans())
def test_estimates_bounded_for_single_table_filters(rows, predicate,
                                                    value, analyzed):
    conn = connect()
    conn.execute("CREATE TABLE t (a int, b int)")
    conn.insert("t", rows)
    if analyzed:
        conn.execute("ANALYZE t")
    sql = f"SELECT a FROM t WHERE {predicate.format(v=value)}"
    estimate = conn.estimate_rows(sql)
    assert estimate >= 0.0
    assert estimate <= len(rows) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50),
                min_size=1, max_size=20, unique=True),
       st.booleans())
def test_unique_indexed_equality_estimate_is_exact(values, analyzed):
    conn = connect()
    conn.execute("CREATE TABLE u (k int, v int)")
    conn.insert("u", [(value, 0) for value in values])
    conn.execute("CREATE UNIQUE INDEX u_k ON u (k)")
    if analyzed:
        conn.execute("ANALYZE u")
    for value in values:
        estimate = conn.estimate_rows(f"SELECT v FROM u WHERE k = {value}")
        actual = len(conn.sql(f"SELECT v FROM u WHERE k = {value}").rows)
        assert actual == 1
        assert estimate == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(small_int, small_int), min_size=0, max_size=12),
       st.sampled_from(["hash", "sorted"]))
def test_indexed_and_plain_plans_agree(rows, kind):
    """Whatever the planner picks, indexed execution returns the same
    bag as the index-free plan."""
    plain = connect(use_indexes=False)
    plain.execute("CREATE TABLE t (a int, b int)")
    plain.insert("t", rows)
    indexed = connect(catalog=plain.catalog)
    indexed.execute(f"CREATE INDEX t_a ON t (a) USING {kind}")
    indexed.execute("ANALYZE t")
    for sql in ("SELECT b FROM t WHERE a = 1",
                "SELECT b FROM t WHERE a >= 0 AND b < 2"):
        assert Counter(indexed.sql(sql).rows) == \
            Counter(plain.sql(sql).rows)


@settings(max_examples=60, deadline=None)
@given(bags, bags)
def test_intersect_distinct_via_sql(xs, ys):
    db = connect()
    db.execute("CREATE TABLE t1 (x int)")
    db.insert("t1", xs)
    db.execute("CREATE TABLE t2 (x int)")
    db.insert("t2", ys)
    rows = db.sql("SELECT x FROM t1 INTERSECT SELECT x FROM t2").rows
    assert set(rows) == set(xs) & set(ys)
    assert len(rows) == len(set(rows))
