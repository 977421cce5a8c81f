"""The one-SELECT-path contract: every surface plans with
``Connection._plan`` and executes through ``Connection._execute_plan``
exactly once per statement; the one-shot helpers do so without touching
the plan cache, and nothing leaks a leased physical instance — not even
an execution that raises part-way through."""

from __future__ import annotations

import pytest

from repro import Connection, ExpressionError, connect

SQL = "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)"


@pytest.fixture
def traced():
    """A populated session plus the list of ``CachedPlan`` objects that
    went through its ``_execute_plan``."""
    conn = connect(batch_size=2)
    conn.execute_script("""
        CREATE TABLE r (a int, b int);
        INSERT INTO r VALUES (1, 1), (2, 1), (3, 2), (4, 0), (5, 5);
        CREATE TABLE s (c int, d int);
        INSERT INTO s VALUES (1, 3), (2, 4), (4, 5);
    """)
    executed = []
    inner = conn._execute_plan

    def spy(cached, params, catalog):
        executed.append(cached)
        return inner(cached, params, catalog)

    conn._execute_plan = spy
    return conn, executed


def _via_cursor(conn: Connection):
    cur = conn.cursor()
    cur.execute(SQL)
    return cur.fetchall()


SURFACES = {
    "execute": lambda conn: conn.execute(SQL).rows,
    "cursor": _via_cursor,
    "prepared": lambda conn: conn.prepare(SQL).execute().rows,
    "sql": lambda conn: conn.sql(SQL).rows,
    "provenance": lambda conn: conn.provenance(SQL).rows,
    "script": lambda conn: conn.execute_script(SQL + ";"),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_every_surface_executes_through_execute_plan_once(traced, surface):
    conn, executed = traced
    rows = SURFACES[surface](conn)
    assert len(executed) == 1
    if surface == "provenance":
        assert sorted(row[0] for row in rows) == [1, 2, 4]
    elif surface != "script":
        assert sorted(rows) == [(1,), (2,), (4,)]
    assert executed[0].leased == 0
    assert conn.plan_cache.leased_instances() == 0


@pytest.mark.parametrize("surface", ("sql", "provenance", "script"))
def test_one_shot_surfaces_leave_the_plan_cache_alone(traced, surface):
    conn, executed = traced
    conn.execute(SQL).rows                 # a cached entry to disturb
    before = (conn.plan_cache.hits, conn.plan_cache.misses,
              len(conn.plan_cache))
    SURFACES[surface](conn)
    SURFACES[surface](conn)
    assert (conn.plan_cache.hits, conn.plan_cache.misses,
            len(conn.plan_cache)) == before
    # planned afresh each time: three distinct plans were executed
    assert len({id(cached) for cached in executed}) == 3


def test_failing_sql_releases_its_lease(traced):
    """1/b divides by zero on the fourth row — in the second batch, after
    the first was already produced — so the drain raises mid-stream."""
    conn, executed = traced
    with pytest.raises(ExpressionError):
        conn.sql("SELECT 1 / b AS q FROM r")
    assert len(executed) == 1
    assert executed[0].leased == 0
    assert conn.plan_cache.leased_instances() == 0
    # the session is still healthy
    assert sorted(conn.sql(SQL).rows) == [(1,), (2,), (4,)]
