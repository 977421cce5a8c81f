"""Plan cache behaviour (hits, DDL invalidation, LRU, keying) and the
pluggable strategy registry."""

from __future__ import annotations

import pytest

from repro import Connection, RewriteError, connect
from repro.api.plan_cache import CachedPlan, PlanCache
from repro.provenance import strategies
from repro.provenance.strategies import LeftStrategy


@pytest.fixture
def conn() -> Connection:
    connection = connect()
    cur = connection.cursor()
    cur.execute("CREATE TABLE r (a int, b int)")
    cur.executemany("INSERT INTO r VALUES (?, ?)",
                    [(1, 1), (2, 1), (3, 2)])
    cur.execute("CREATE TABLE s (c int, d int)")
    cur.executemany("INSERT INTO s VALUES (?, ?)",
                    [(1, 3), (2, 4), (4, 5)])
    return connection


PROV_SQL = ("SELECT PROVENANCE * FROM r WHERE a = ANY "
            "(SELECT c FROM s WHERE c < ?)")


class TestPlanCacheHits:
    def test_prepared_reexecution_hits_cache(self, conn):
        ps = conn.prepare(PROV_SQL)
        ps.execute((10,))
        hits = conn.last_stats.plan_cache_hits
        ps.execute((10,))
        assert conn.last_stats.plan_cache_hits == hits + 1
        # no new planning happened
        assert conn.last_stats.plan_cache_misses == \
            conn.plan_cache.misses

    def test_cursor_shares_cache_with_prepared(self, conn):
        ps = conn.prepare(PROV_SQL)
        ps.execute((10,))
        size = len(conn.plan_cache)
        cur = conn.cursor()
        cur.execute(PROV_SQL, (10,))
        assert len(conn.plan_cache) == size  # same entry reused
        assert conn.last_stats.plan_cache_hits >= 2

    def test_two_cursors_share_one_plan(self, conn):
        a, b = conn.cursor(), conn.cursor()
        a.execute("SELECT a FROM r WHERE a = ?", (1,))
        misses = conn.plan_cache.misses
        b.execute("SELECT a FROM r WHERE a = ?", (2,))
        assert conn.plan_cache.misses == misses
        assert b.fetchall() == [(2,)]

    def test_cached_plan_results_match_uncached(self, conn):
        ps = conn.prepare(PROV_SQL)
        cached = sorted(ps.execute((10,)).rows)
        cached_again = sorted(ps.execute((10,)).rows)
        uncached = sorted(conn.sql(PROV_SQL.replace("?", "10")).rows)
        assert cached == cached_again == uncached


class TestInvalidation:
    def test_ddl_bumps_catalog_version(self, conn):
        version = conn.catalog.version
        conn.execute("CREATE TABLE t (x int)")
        assert conn.catalog.version == version + 1
        conn.execute("DROP TABLE t")
        assert conn.catalog.version == version + 2
        conn.create_view("v", "SELECT a FROM r")
        assert conn.catalog.version == version + 3
        conn.execute("DROP VIEW v")
        assert conn.catalog.version == version + 4

    def test_dml_does_not_bump_version(self, conn):
        version = conn.catalog.version
        conn.execute("INSERT INTO r VALUES (9, 9)")
        conn.execute("DELETE FROM r WHERE a = 9")
        assert conn.catalog.version == version

    def test_create_table_invalidates_cached_plan(self, conn):
        ps = conn.prepare(PROV_SQL)
        ps.execute((10,))
        misses = conn.plan_cache.misses
        conn.execute("CREATE TABLE unrelated (x int)")
        ps.execute((10,))   # version changed -> key miss -> replanned
        assert conn.plan_cache.misses > misses

    def test_analyze_invalidates_cached_plan(self, conn):
        """Regression: the key must fold in the statistics generation —
        a plan costed before ANALYZE may no longer be the plan the cost
        model would pick, so it must never be served afterwards."""
        sql = "SELECT a FROM r WHERE a = 1"
        conn.execute(sql)
        stale_key = conn._plan_key(sql, None)
        cached = conn.plan_cache.peek(stale_key)
        assert cached is not None
        misses = conn.plan_cache.misses
        conn.execute("ANALYZE r")
        conn.execute(sql)
        assert conn.plan_cache.misses > misses          # replanned
        fresh = conn.plan_cache.peek(conn._plan_key(sql, None))
        assert fresh is not None and fresh is not cached

    def test_create_index_invalidates_cached_plan(self, conn):
        """Regression: after CREATE INDEX the same SQL must re-lower —
        and actually switch from the stale SeqScan plan to an IndexScan."""
        from repro.engine.physical import IndexScan, SeqScan

        sql = "SELECT b FROM r WHERE a = 2"
        conn.execute(sql)
        stale = conn.plan_cache.peek(conn._plan_key(sql, None))
        assert any(isinstance(node, SeqScan)
                   for node in stale.physical.nodes())
        conn.execute("CREATE INDEX r_a ON r (a)")
        assert conn.plan_cache.peek(conn._plan_key(sql, None)) is None
        assert conn.execute(sql).rows == [(1,)]
        fresh = conn.plan_cache.peek(conn._plan_key(sql, None))
        assert any(isinstance(node, IndexScan)
                   for node in fresh.physical.nodes())

    def test_drop_index_invalidates_cached_plan(self, conn):
        from repro.engine.physical import IndexScan

        conn.execute("CREATE INDEX r_a ON r (a)")
        sql = "SELECT b FROM r WHERE a = 2"
        conn.execute(sql)
        cached = conn.plan_cache.peek(conn._plan_key(sql, None))
        assert any(isinstance(node, IndexScan)
                   for node in cached.physical.nodes())
        conn.execute("DROP INDEX r_a")
        assert conn.plan_cache.peek(conn._plan_key(sql, None)) is None
        assert conn.execute(sql).rows == [(1,)]   # replanned, no index

    def test_view_redefinition_changes_results(self, conn):
        conn.create_view("v", "SELECT a FROM r WHERE a >= 2")
        cur = conn.cursor()
        cur.execute("SELECT a FROM v ORDER BY a")
        assert cur.fetchall() == [(2,), (3,)]
        conn.execute("DROP VIEW v")
        conn.create_view("v", "SELECT a FROM r WHERE a = 1")
        cur.execute("SELECT a FROM v ORDER BY a")
        assert cur.fetchall() == [(1,)]


class TestKeyingAndLRU:
    def test_strategy_override_is_part_of_the_key(self, conn):
        sql = "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)"
        conn.prepare(sql, strategy="gen").execute()
        conn.prepare(sql, strategy="unn").execute()
        assert len(conn.plan_cache) == 2

    def test_default_strategy_is_part_of_the_key(self, conn):
        ps = conn.prepare(
            "SELECT PROVENANCE * FROM r WHERE a = ANY (SELECT c FROM s)")
        ps.execute()
        misses = conn.plan_cache.misses
        conn.config.default_strategy = "gen"
        ps.execute()   # same text, different effective strategy
        assert conn.plan_cache.misses > misses

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        plans = {
            name: CachedPlan(plan=None, param_count=0, strategy=None)
            for name in "abc"}
        cache.store("a", plans["a"])
        cache.store("b", plans["b"])
        assert cache.lookup("a") is plans["a"]   # refresh a
        cache.store("c", plans["c"])             # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("a") is plans["a"]
        assert cache.lookup("c") is plans["c"]

    def test_zero_capacity_disables_caching(self):
        connection = connect(plan_cache_size=0)
        cur = connection.cursor()
        cur.execute("CREATE TABLE t (x int)")
        cur.execute("INSERT INTO t VALUES (1)")
        cur.execute("SELECT x FROM t")
        cur.execute("SELECT x FROM t")
        assert len(connection.plan_cache) == 0
        assert connection.plan_cache.hits == 0

    def test_stats_shape(self, conn):
        stats = conn.plan_cache.stats()
        assert set(stats) == {"hits", "misses", "size", "capacity"}

    def test_ddl_and_dml_do_not_inflate_miss_counter(self):
        connection = connect()
        cur = connection.cursor()
        cur.execute("CREATE TABLE t (x int)")
        cur.executemany("INSERT INTO t VALUES (?)", [(1,), (2,), (3,)])
        assert connection.plan_cache.misses == 0
        cur.execute("SELECT x FROM t")      # first SELECT: exactly 1 miss
        assert connection.plan_cache.misses == 1
        assert connection.plan_cache.hits == 0
        cur.execute("SELECT x FROM t")
        assert connection.plan_cache.misses == 1
        assert connection.plan_cache.hits == 1

    def test_peek_does_not_count(self, conn):
        conn.prepare("SELECT a FROM r").execute()
        hits, misses = conn.plan_cache.hits, conn.plan_cache.misses
        assert conn.plan_cache.peek(("nope",)) is None
        assert (conn.plan_cache.hits, conn.plan_cache.misses) == \
            (hits, misses)


class TestPhysicalLeasing:
    def test_failed_lowering_returns_the_lease(self):
        """Regression: ``acquire_physical`` counted the lease before
        calling ``lower()``; when lowering raised, ``leased`` stayed at 1
        forever and ``leased_instances()`` reported a phantom leak."""
        plan = CachedPlan(plan=None, param_count=0, strategy=None)
        # (an empty pool)
        cache = PlanCache()
        cache.store("k", plan)

        def boom():
            raise RuntimeError("lowering failed")

        with pytest.raises(RuntimeError, match="lowering failed"):
            plan.acquire_physical(boom)
        assert plan.leased == 0
        assert cache.leased_instances() == 0
        # the entry is still usable once lowering works again
        instance = plan.acquire_physical(lambda: "physical")
        assert (plan.leased, cache.leased_instances()) == (1, 1)
        plan.release_physical(instance)
        assert cache.leased_instances() == 0


class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert set(strategies.available()) >= {"gen", "left", "move", "unn"}
        assert strategies.strategy_names()[0] == "auto"

    def test_resolve_unknown_raises(self):
        with pytest.raises(RewriteError, match="unknown strategy"):
            strategies.resolve("turbo")

    def test_duplicate_registration_raises(self):
        with pytest.raises(RewriteError, match="already registered"):
            strategies.register("left", LeftStrategy())

    def test_auto_is_reserved(self):
        with pytest.raises(RewriteError, match="automatic mode"):
            strategies.register("auto", LeftStrategy())

    def test_unregister_unknown_raises(self):
        with pytest.raises(RewriteError, match="not registered"):
            strategies.unregister("turbo")

    def test_custom_strategy_pluggable_everywhere(self, conn):
        class EchoLeft(LeftStrategy):
            name = "echoleft"

        strategies.register("echoleft", EchoLeft())
        try:
            sql = "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)"
            via_left = sorted(conn.provenance(sql, strategy="left").rows)
            # programmatic API
            assert sorted(
                conn.provenance(sql, strategy="echoleft").rows) == via_left
            # SELECT PROVENANCE (name) syntax
            assert sorted(conn.sql(
                "SELECT PROVENANCE (echoleft) * FROM r "
                "WHERE a = ANY (SELECT c FROM s)").rows) == via_left
            # session default strategy
            session = connect(default_strategy="echoleft",
                              catalog=conn.catalog)
            assert sorted(session.sql(
                "SELECT PROVENANCE * FROM r "
                "WHERE a = ANY (SELECT c FROM s)").rows) == via_left
        finally:
            strategies.unregister("echoleft")

    def test_replace_registration(self):
        original = strategies.resolve("left")
        replacement = LeftStrategy()
        strategies.register("left", replacement, replace=True)
        try:
            assert strategies.resolve("left") is replacement
        finally:
            strategies.register("left", original, replace=True)

    def test_unknown_strategy_in_sql_raises(self, conn):
        with pytest.raises(RewriteError, match="unknown strategy"):
            conn.sql("SELECT PROVENANCE (turbo) a FROM r")


def tracked_objects(root: object) -> int:
    """gc-tracked objects a cached plan keeps alive: everything
    reachable from *root* except the catalog and what belongs to the
    program rather than to the plan (classes, modules, code, enum
    members, a function's globals)."""
    import enum
    import gc
    import types
    from repro.catalog import Catalog
    shared = (type, types.ModuleType, types.CodeType, enum.Enum,
              types.BuiltinFunctionType, Catalog)
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        count += gc.is_tracked(obj)
        if isinstance(obj, types.FunctionType):
            referents = [obj.__closure__, obj.__defaults__,
                         obj.__kwdefaults__]
        else:
            referents = gc.get_referents(obj)
        for referent in referents:
            if referent is not None and id(referent) not in seen \
                    and not isinstance(referent, shared):
                seen.add(id(referent))
                stack.append(referent)
    return count


class TestRetainedSize:
    #: counted by :func:`tracked_objects` on the commit before plan
    #: trees started sharing (PR 15), same statements, same data
    PARENT = {2: 1791, 11: 2461, 16: 1231, 17: 1999, 20: 2293, 22: 3389}

    def test_cached_plan_is_half_the_objects_it_was(self):
        """What the collector re-walks on every full collection is the
        plans the cache holds, so a cached plan's gc-tracked objects are
        a budget: at most half of what the same plan held before schemas
        became two tuples, projections shared their columns and compiled
        expressions stopped closing over cells.  The six statements are
        the ``adhoc_plan`` benchmark's templates at its seed 1, executed
        once (compiled expressions included), counted after a
        collection has untracked what it can.  The issue that set this
        budget counted some 230 shared objects more per plan (2 027 /
        2 696 / 1 463 / 2 234 / 2 529 / 3 621); the ratio is the same."""
        import gc
        from repro.tpch import load_tpch, query_sql
        conn = load_tpch(scale=0.00005, seed=1)
        conn.execute("ANALYZE")
        counts = {}
        for query in self.PARENT:
            sql = "SELECT PROVENANCE" + \
                query_sql(query, seed=100003)[len("SELECT"):]
            conn.execute(sql).rows
            cached = conn.plan_cache.peek(conn._plan_key(sql, None))
            gc.collect()
            counts[query] = tracked_objects(cached)
        assert conn.plan_cache.stats()["size"] >= len(self.PARENT)
        over = {query: (count, self.PARENT[query] // 2)
                for query, count in counts.items()
                if count > self.PARENT[query] // 2}
        assert not over, over
