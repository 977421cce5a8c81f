"""Plan stability: planner refactors must reproduce every plan byte for
byte, and passes must hand back their argument when no rule applies.

``tests/golden/plans.json`` holds, per case, the ``explain_physical``
text (estimates included) and the logical plan's column names.  It was
generated on the commit *before* the identity-preserving-passes change;
regenerate (only when a plan change is intended) with::

    PYTHONPATH=src python tests/test_plan_stability.py
"""

import json
from pathlib import Path

import pytest

from repro.algebra.operators import BaseRelation, Join, Project, Select
from repro.engine.cost import CardinalityEstimator
from repro.engine.optimizer import _reorder_joins, optimize
from repro.errors import RewriteError
from repro.expressions.ast import Col, Comparison, Const
from repro.schema import Schema
from repro.synthetic import SyntheticConfig, load_synthetic, q1_sql, q2_sql
from repro.tpch import install_views, load_tpch, query_sql, query_strategies

GOLDEN = Path(__file__).parent / "golden" / "plans.json"

TPCH_QUERIES = (2, 4, 11, 15, 16, 17, 20, 22)
TPCH_SEED = 1
SYNTH_STRATEGIES = ("gen", "left", "move", "unn")
SYNTH_SIZE = 200


def _databases():
    tpch = load_tpch(scale=0.0002, seed=7)
    install_views(tpch)
    tpch.execute("ANALYZE")
    synth = load_synthetic(SyntheticConfig(SYNTH_SIZE, SYNTH_SIZE, seed=3))
    analyzed = load_synthetic(SyntheticConfig(SYNTH_SIZE, SYNTH_SIZE, seed=3))
    analyzed.execute("ANALYZE")
    return tpch, synth, analyzed


def _cases():
    """``(key, connection, sql, strategy)`` for every candidate case;
    strategies that do not apply to a query are dropped by
    :func:`collect`."""
    tpch, synth, analyzed = _databases()
    for query in TPCH_QUERIES:
        sql = query_sql(query, seed=TPCH_SEED)
        for strategy in ("auto", *query_strategies(query), "unn"):
            yield f"tpch/q{query}/{strategy}", tpch, sql, strategy
    for label, conn in (("synth", synth), ("synth_analyzed", analyzed)):
        for name, make in (("q1", q1_sql), ("q2", q2_sql)):
            sql = make(SYNTH_SIZE, SYNTH_SIZE, seed=5)
            for strategy in SYNTH_STRATEGIES:
                yield f"{label}/{name}/{strategy}", conn, sql, strategy


def collect() -> dict[str, dict]:
    entries = {}
    for key, conn, sql, strategy in _cases():
        try:
            names = conn.plan(sql, strategy).schema.names
        except RewriteError:
            continue    # the forced strategy does not apply
        entries[key] = {
            "names": list(names),
            "physical": conn.explain_physical(sql, strategy),
        }
    return entries


@pytest.fixture(scope="module")
def current():
    return collect()


def test_same_cases(current):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(current) == sorted(golden)


def test_every_plan_reproduces(current):
    golden = json.loads(GOLDEN.read_text())
    changed = [key for key in golden if current.get(key) != golden[key]]
    assert not changed, changed


class TestPassesPreserveIdentity:
    def scan(self, alias):
        return BaseRelation("r", alias, Schema.of(f"{alias}.a", f"{alias}.b"))

    def test_optimize_returns_argument_when_no_rule_applies(self,
                                                            figure3_db):
        # a join whose condition is already folded, under a projection and
        # an unpushable (constant) selection
        join = Join(self.scan("x"), self.scan("y"),
                    Comparison("=", Col("x.a"), Col("y.a")))
        plan = Project(Select(join, Comparison("=", Const(1), Const(1))),
                       [("a", Col("x.a"))])
        assert optimize(plan) is plan
        assert optimize(plan, figure3_db.catalog) is plan

    def test_reorder_joins_returns_argument(self, figure3_db):
        join = Join(self.scan("x"), self.scan("y"),
                    Comparison("=", Col("x.a"), Col("y.a")))
        plan = Project(join, [("a", Col("x.a"))])
        estimator = CardinalityEstimator(figure3_db.catalog)
        assert _reorder_joins(plan, estimator) is plan

    def test_optimize_is_idempotent_by_identity(self, figure3_db):
        for sql in ("SELECT a, c FROM r, s WHERE a = c AND b > 1",
                    "SELECT PROVENANCE a FROM r WHERE a = ANY "
                    "(SELECT c FROM s WHERE d > 3)"):
            once = optimize(figure3_db.plan(sql), figure3_db.catalog)
            assert optimize(once, figure3_db.catalog) is once


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
