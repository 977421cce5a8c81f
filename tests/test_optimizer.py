"""Logical optimizer: pushdown correctness and plan-shape checks."""

import gc

import pytest

from repro.catalog import Catalog
from repro.engine import Executor
from repro.engine.optimizer import optimize, scope_column_names
from repro.expressions.ast import (
    Col, Comparison, Const, Sublink, SublinkKind, TRUE, and_all,
)
from repro.algebra.operators import (
    BaseRelation, Join, JoinKind, Project, Select,
)
from repro.algebra.trees import iter_operators
from repro.schema import Schema


@pytest.fixture
def db(figure3_db):
    return figure3_db


def equivalent(db, sql):
    """Optimized and unoptimized executions must agree (as bags)."""
    plan = db.plan(sql)
    fast = Executor(db.catalog, optimize=True).execute(plan)
    slow = Executor(db.catalog, optimize=False).execute(plan)
    assert fast.bag_equal(slow), sql
    return fast


class TestEquivalence:
    """The optimizer must never change results."""

    @pytest.mark.parametrize("sql", [
        "SELECT a, c FROM r, s WHERE a = c",
        "SELECT a, c FROM r, s WHERE a = c AND b > 1 AND d < 5",
        "SELECT a FROM r, s WHERE a < c",
        "SELECT a, d FROM r LEFT JOIN s ON a = c WHERE b = 1",
        "SELECT a FROM r WHERE a = ANY (SELECT c FROM s WHERE d > 3)",
        "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c = b)",
        "SELECT b, count(*) AS n FROM r, s WHERE a = c GROUP BY b",
        "SELECT x.a FROM r x, r y WHERE x.a = y.a AND y.b = 1",
    ])
    def test_same_results(self, db, sql):
        equivalent(db, sql)

    def test_provenance_plans_equivalent(self, db):
        for strategy in ("gen", "left", "move", "unn"):
            plan = db.plan(
                "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)",
                strategy=strategy)
            fast = Executor(db.catalog, optimize=True).execute(plan)
            slow = Executor(db.catalog, optimize=False).execute(plan)
            assert fast.bag_equal(slow), strategy


class TestPlanShapes:
    def test_equality_becomes_join_condition(self, db):
        plan = optimize(db.plan("SELECT a, c FROM r, s WHERE a = c"))
        joins = [op for op in iter_operators(plan)
                 if isinstance(op, Join) and op.condition != TRUE]
        assert joins, "equality conjunct should move into the join"

    def test_single_side_predicate_pushed_below_join(self, db):
        plan = optimize(
            db.plan("SELECT a, c FROM r, s WHERE a = c AND b = 1"))
        join = next(op for op in iter_operators(plan)
                    if isinstance(op, Join))
        # the b = 1 filter must now be on the r side, below the join
        left_side = list(iter_operators(join.left))
        assert any(isinstance(op, Select) for op in left_side)

    def test_left_join_right_side_not_filtered_early(self, db):
        # filtering s before the outer join would change null-padding
        sql = ("SELECT a, d FROM r LEFT JOIN s ON a = c "
               "WHERE d IS NULL")
        rows = equivalent(db, sql).rows
        assert (3, None) in rows

    def test_pushdown_through_rename_projection(self):
        scan_op = BaseRelation("t", "t", Schema.of("a", "b"))
        renamed = Project(scan_op, [("x", Col("a")), ("y", Col("b"))])
        plan = Select(renamed, Comparison("=", Col("x"), Const(1)))
        optimized = optimize(plan)
        assert isinstance(optimized, Project)
        inner = optimized.input
        assert isinstance(inner, Select)
        assert inner.condition == Comparison("=", Col("a"), Const(1))

    def test_select_chains_flattened(self):
        scan_op = BaseRelation("t", "t", Schema.of("a", "b"))
        plan = Select(Select(scan_op, Comparison("=", Col("a"), Const(1))),
                      Comparison("=", Col("b"), Const(2)))
        optimized = optimize(plan)
        selects = [op for op in iter_operators(optimized)
                   if isinstance(op, Select)]
        assert len(selects) == 1
        assert len(and_all([selects[0].condition]).items) == 2


class TestScopeColumnNames:
    def test_plain_columns(self):
        expr = and_all([Comparison("=", Col("a"), Col("b"))])
        assert scope_column_names(expr) == {"a", "b"}

    def test_outer_levels_ignored(self):
        expr = Comparison("=", Col("a"), Col("x", level=1))
        assert scope_column_names(expr) == {"a"}

    def test_correlated_refs_inside_sublinks_counted(self):
        inner = Select(BaseRelation("u", "u", Schema.of("c")),
                       Comparison("=", Col("c"), Col("b", level=1)))
        expr = Sublink(SublinkKind.EXISTS, inner)
        assert scope_column_names(expr) == {"b"}

    def test_sublink_internal_refs_not_counted(self):
        inner = Select(BaseRelation("u", "u", Schema.of("c")),
                       Comparison("=", Col("c"), Const(1)))
        expr = Sublink(SublinkKind.EXISTS, inner)
        assert scope_column_names(expr) == set()


class TestNoCyclicGarbage:
    def test_planning_and_execution_leave_nothing_for_the_collector(self):
        """Regression: ``_flatten_chain`` recursed through a local
        function that referred to itself, a reference cycle per call that
        pinned joins, projections and schemas until a collection ran.
        Everything a statement allocates must die by reference count."""
        from repro.errors import RewriteError
        from repro.synthetic import (
            SyntheticConfig, load_synthetic, q1_sql, q2_sql,
        )
        from repro.tpch import (
            PAPER_SUBLINK_QUERIES, install_views, load_tpch, query_sql,
            query_strategies,
        )
        tpch = load_tpch(scale=0.00005, seed=7)
        install_views(tpch)
        synth = load_synthetic(SyntheticConfig(50, 50, seed=3))
        cases = [(tpch, query_sql(query, seed=1), strategy)
                 for query in PAPER_SUBLINK_QUERIES
                 for strategy in ("auto", *query_strategies(query))]
        cases += [(synth, make(50, 50, seed=5), strategy)
                  for make in (q1_sql, q2_sql)
                  for strategy in ("gen", "left", "move", "unn")]
        gc.collect()
        gc.disable()
        try:
            for conn, sql, strategy in cases:
                try:
                    conn.provenance(sql, strategy)
                except RewriteError:
                    pass        # Unn does not apply to q2
            assert gc.collect() == 0
        finally:
            gc.enable()
