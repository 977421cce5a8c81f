"""Uncorrelated ANY/ALL sublinks answered through hashed InitPlan probes,
checked at the SQL level under both engines.

IN / NOT IN over NULL-bearing tables are checked against stdlib
``sqlite3``; ANY/ALL forms sqlite lacks are checked against their 3VL
meaning directly.
"""

import sqlite3

import pytest

from repro.api import connect
from repro.errors import ExpressionError

ENGINES = ("pipelined", "vectorized")

T_ROWS = [(1, 1.0), (2, 2.5), (3, None), (None, 4.0), (5, 5.0),
          (None, None), (7, -0.0)]
U_ROWS = [(1,), (3,), (None,), (6,), (0,)]

#: Subqueries over u (which holds a NULL) and t, NULL-free, empty and
#: int-vs-float ones among them.
SUBQUERIES = [
    "SELECT b FROM u",
    "SELECT b FROM u WHERE b IS NOT NULL",
    "SELECT b FROM u WHERE b > 100",
    "SELECT b FROM u WHERE b IS NULL",
    "SELECT f FROM t",
    "SELECT f FROM t WHERE f IS NOT NULL",
]


@pytest.fixture(params=ENGINES)
def conn(request):
    conn = connect(engine=request.param)
    conn.execute("CREATE TABLE t (a INTEGER, f FLOAT)")
    conn.execute("CREATE TABLE u (b INTEGER)")
    for a, f in T_ROWS:
        conn.execute("INSERT INTO t VALUES (?, ?)", (a, f))
    for (b,) in U_ROWS:
        conn.execute("INSERT INTO u VALUES (?)", (b,))
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def lite():
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (a INTEGER, f REAL)")
    lite.execute("CREATE TABLE u (b INTEGER)")
    lite.executemany("INSERT INTO t VALUES (?, ?)", T_ROWS)
    lite.executemany("INSERT INTO u VALUES (?)", U_ROWS)
    yield lite
    lite.close()


def normalized(rows):
    """Rows with bools as sqlite's 0/1, sorted NULLs first."""
    fixed = [tuple(int(v) if isinstance(v, bool) else v for v in row)
             for row in rows]
    return sorted(fixed, key=lambda row: [(v is not None, v) for v in row])


@pytest.mark.parametrize("sub", SUBQUERIES)
@pytest.mark.parametrize("test", ["a", "f"])
def test_in_and_not_in_agree_with_sqlite(conn, lite, sub, test):
    for sql in (f"SELECT a, f FROM t WHERE {test} IN ({sub})",
                f"SELECT a, f FROM t WHERE {test} NOT IN ({sub})",
                f"SELECT a, {test} IN ({sub}) FROM t",
                f"SELECT a, {test} NOT IN ({sub}) FROM t"):
        assert normalized(conn.execute(sql).rows) == \
            normalized(lite.execute(sql).fetchall()), sql


def test_not_in_against_a_null_returns_no_rows(conn):
    assert conn.execute(
        "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)").rows == []
    assert conn.last_stats.hashed_sublinks == 1


def test_empty_subquery(conn):
    empty = "(SELECT b FROM u WHERE b > 100)"
    rows = conn.execute(
        f"SELECT a, a = ANY {empty}, a <> ALL {empty}, a < ANY {empty}, "
        f"a >= ALL {empty} FROM t").rows
    assert sorted(rows, key=lambda row: (row[0] is not None, row[0])) == [
        (a, False, True, False, True)
        for a in sorted((a for a, _ in T_ROWS),
                        key=lambda a: (a is not None, a))]


def test_ordering_tests_over_nulls(conn):
    rows = dict(conn.execute(
        "SELECT a, a > ALL (SELECT b FROM u) FROM t "
        "WHERE a IS NOT NULL").rows)
    # u = {1, 3, NULL, 6, 0}: no a beats 6, so every answer is FALSE or
    # (beating all non-NULL values but the NULL) NULL
    assert rows == {1: False, 2: False, 3: False, 5: False, 7: None}
    rows = dict(conn.execute(
        "SELECT a, a < ANY (SELECT b FROM u) FROM t "
        "WHERE a IS NOT NULL").rows)
    assert rows == {1: True, 2: True, 3: True, 5: True, 7: None}


def test_int_float_mixing(conn):
    conn.execute("CREATE TABLE big (i INTEGER, x FLOAT)")
    conn.execute("INSERT INTO big VALUES (?, ?)", (2**53 + 1, 2.0**53))
    conn.execute("INSERT INTO big VALUES (?, ?)", (0, -0.0))
    assert conn.execute(
        "SELECT i FROM big WHERE i IN (SELECT x FROM big)").rows == [(0,)]
    assert conn.execute(
        "SELECT i FROM big WHERE i > ALL (SELECT x FROM big)").rows == \
        [(2**53 + 1,)]
    assert sorted(conn.execute(
        "SELECT a FROM t WHERE a = ANY (SELECT f FROM t)").rows) == \
        [(1,), (5,)]


def test_bool_against_int_raises_as_the_scan_does(conn):
    conn.execute("CREATE TABLE one (n INTEGER)")
    conn.execute("INSERT INTO one VALUES (1)")
    with pytest.raises(ExpressionError) as error:
        conn.execute("SELECT n FROM one WHERE n = ANY (SELECT TRUE)").rows
    assert str(error.value) == "cannot compare int with bool (1 = True)"


def test_hashed_sublinks_counter_and_explain_analyze(conn):
    sql = "SELECT a FROM t WHERE a IN (SELECT b FROM u)"
    conn.execute(sql).rows
    assert conn.last_stats.hashed_sublinks == 1
    assert "hashed" not in conn.explain(sql)
    footer = conn.explain_analyze(sql).splitlines()
    assert [line for line in footer if line.startswith("Result:")][0] \
        .endswith(", 1 hashed sublink(s)")
    # correlated and EXISTS sublinks never go through a probe
    for other in ("SELECT a FROM t WHERE a IN "
                  "(SELECT b FROM u WHERE b = t.a)",
                  "SELECT a FROM t WHERE EXISTS (SELECT b FROM u)"):
        conn.execute(other).rows
        assert conn.last_stats.hashed_sublinks == 0
        assert "hashed" not in conn.explain_analyze(other)
