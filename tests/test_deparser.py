"""Deparser: algebra -> SQL text, round-tripped through the parser where
the dialect allows (uncorrelated plans)."""

import pytest

from repro.sql.deparser import deparse, deparse_expr
from repro.sql.parser import parse_statement
from repro.expressions.ast import (
    Case, Col, Comparison, Const, NullSafeEq, Not,
)


@pytest.fixture
def db(figure3_db):
    return figure3_db


def roundtrip(db, sql):
    """Deparse the plan of *sql* and re-execute the emitted SQL."""
    plan = db.plan(sql)
    original = db.sql(sql)
    emitted = deparse(plan)
    replayed = db.sql(emitted)
    assert original.bag_equal(replayed), emitted
    return emitted


class TestExpressionDeparsing:
    def test_literals(self):
        assert deparse_expr(Const(None)) == "NULL"
        assert deparse_expr(Const("o'k")) == "'o''k'"

    def test_comparison(self):
        text = deparse_expr(Comparison("<=", Col("a"), Const(3)))
        assert text == "(a <= 3)"

    def test_null_safe_eq_expands(self):
        text = deparse_expr(NullSafeEq(Col("a"), Col("b")))
        assert "IS NULL" in text and "=" in text

    def test_case(self):
        expr = Case(((Comparison("=", Col("a"), Const(1)), Const("x")),),
                    Const("y"))
        text = deparse_expr(expr)
        assert text.startswith("CASE WHEN") and text.endswith("END")

    def test_not(self):
        assert deparse_expr(Not(Const(True))) == "(NOT TRUE)"

    def test_quoting_of_dotted_names(self):
        assert deparse_expr(Col("r.a")) == '"r.a"'


class TestPlanRoundtrips:
    @pytest.mark.parametrize("sql", [
        "SELECT a, b FROM r",
        "SELECT a + b AS s FROM r WHERE a >= 2",
        "SELECT DISTINCT b FROM r",
        "SELECT a, c FROM r, s WHERE a = c",
        "SELECT a, d FROM r LEFT JOIN s ON a = c",
        "SELECT b, count(*) AS n FROM r GROUP BY b",
        "SELECT b, sum(a) AS s FROM r GROUP BY b HAVING sum(a) > 2",
        "SELECT a FROM r UNION ALL SELECT c FROM s",
        "SELECT a FROM r INTERSECT SELECT c FROM s",
        "SELECT a FROM r ORDER BY a DESC LIMIT 2",
        "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)",
        "SELECT a FROM r WHERE NOT EXISTS (SELECT c FROM s WHERE c > 9)",
    ])
    def test_roundtrip(self, db, sql):
        roundtrip(db, sql)

    def test_rewritten_plan_roundtrips(self, db):
        """The paper's point: q+ is plain SQL — emit and re-run it."""
        sql = "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)"
        plan = db.plan(sql, strategy="unn")
        emitted = deparse(plan)
        replayed = db.sql(emitted)
        direct = db.provenance(sql, strategy="unn")
        assert direct.bag_equal(replayed)

    def test_left_strategy_plan_roundtrips(self, db):
        sql = "SELECT a FROM r WHERE a < ALL (SELECT c FROM s WHERE c > 2)"
        plan = db.plan(sql, strategy="left")
        emitted = deparse(plan)
        replayed = db.sql(emitted)
        direct = db.provenance(sql, strategy="left")
        assert direct.bag_equal(replayed)

    def test_emitted_text_parses(self, db):
        emitted = deparse(db.plan("SELECT a FROM r WHERE a = 1"))
        parse_statement(emitted)
