"""Hashed InitPlan probes answer ANY/ALL tests exactly as the 3VL scan.

Every ``(ANY|ALL) x (= <> < <= > >=)`` pair runs through the evaluator's
sublink path over an :class:`InitPlanRows` result and is checked against
the scan spelled out here as ``tv_any`` / ``tv_all`` over ``compare``:
the same 3VL value, or the same exception type.  The value pools put
NULL, NaN, infinities, -0.0, integers beyond float precision, bools next
to 0/1 and strings side by side, and the columns include empty and
all-NULL ones.

``REPRO_LONG_PROPERTY=1`` raises every pair to 20 000 examples.
"""

import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import compare, tv_all, tv_any
from repro.engine.stats import ExecutionStats
from repro.errors import ExpressionError
from repro.expressions.ast import Sublink, SublinkKind
from repro.expressions.evaluator import EvalContext, _eval_sublink
from repro.expressions.probe import SCAN, InitPlanRows

EXAMPLES = 20_000 if os.environ.get("REPRO_LONG_PROPERTY") == "1" else 100

OPS = ("=", "<>", "<", "<=", ">", ">=")
KINDS = (SublinkKind.ANY, SublinkKind.ALL)

NUMBERS = [0, 1, -1, 2, 0.0, -0.0, 1.0, 1.5, -2.5, math.inf, -math.inf,
           math.nan, 2**53, 2**53 + 1, float(2**53), 2**63, float(2**63)]
BOOLS = [True, False]
STRINGS = ["", "a", "b", "ab", "B"]
POOL = [None] + NUMBERS + BOOLS + STRINGS


def _column(pool):
    return st.lists(st.sampled_from([None] + pool), max_size=6)


#: Mostly one-class columns (the probe's domain), some mixed ones (where
#: it must hand back to the scan), empty and all-NULL ones included.
COLUMNS = st.one_of(_column(NUMBERS), _column(BOOLS), _column(STRINGS),
                    _column(POOL), st.lists(st.none(), max_size=3))
VALUES = st.sampled_from(POOL)


class Runner:
    """A subquery runner returning a fixed InitPlan result."""

    def __init__(self, rows):
        self.rows = rows

    def run_subquery(self, query, frames):
        return self.rows


def outcome(run):
    """``("ok", value)`` or ``("error", exception type)``."""
    try:
        return ("ok", run())
    except Exception as exc:        # parity covers the type too
        return ("error", type(exc))


def scan(kind, op, value, column):
    fold = tv_any if kind is SublinkKind.ANY else tv_all
    return fold(compare(op, value, found) for found in column)


def probed(kind, op, value, column):
    rows = InitPlanRows([(found,) for found in column], ExecutionStats())
    node = Sublink(kind, query=None, op=op)
    context = EvalContext((), Runner(rows))
    return _eval_sublink(node, context, lambda row, ctx: value)


def comparable_class(value):
    if isinstance(value, bool):
        return bool
    if isinstance(value, (int, float)):
        return float
    return type(value)


def probe_applies(value, column):
    """The probe must answer itself (not defer to the scan) when the
    column's non-NULL values share one class without NaN and the test
    value is NULL or of that class and not NaN."""
    present = [found for found in column if found is not None]
    classes = {comparable_class(found) for found in present}
    if len(classes) > 1 or any(found != found for found in present):
        return False
    return value is None or not classes or (
        comparable_class(value) in classes and value == value)


def same(left, right):
    """Equal outcomes; NaN never reaches an answer, so ``==`` is exact
    up to bool-vs-int, which must match too."""
    return left == right and type(left[1]) is type(right[1])


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("op", OPS)
@settings(max_examples=EXAMPLES, deadline=None)
@given(value=VALUES, column=COLUMNS)
def test_probe_matches_scan(kind, op, value, column):
    expected = outcome(lambda: scan(kind, op, value, column))
    actual = outcome(lambda: probed(kind, op, value, column))
    assert same(actual, expected), (kind, op, value, column)
    rows = InitPlanRows([(found,) for found in column], ExecutionStats())
    answered = rows.probe(kind is SublinkKind.ALL, op)(value) is not SCAN
    assert answered == probe_applies(value, column), (value, column)


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("op", OPS)
def test_probe_edge_cases(kind, op):
    """Fixed cases every pair must get right, whatever the draws."""
    for value, column in [
            (1, []), (None, []), (None, [1]), (1, [None]), (1, [None, 1]),
            (3, [None, 1]), (-0.0, [0]), (2**53 + 1, [float(2**53)]),
            (2**63, [float(2**63), None]), (math.inf, [1, -math.inf]),
            ("a", ["b", None, "a"]), (True, [False, None]),
            (1, [True]), (True, [1]), (1, [None, math.nan]),
            (math.nan, [1, 2]), ("a", [1]), (1, [1, "a"])]:
        expected = outcome(lambda: scan(kind, op, value, column))
        actual = outcome(lambda: probed(kind, op, value, column))
        assert same(actual, expected), (kind, op, value, column)


def test_bool_against_int_still_raises():
    for kind in KINDS:
        with pytest.raises(ExpressionError, match="cannot compare"):
            probed(kind, "=", 1, [True])


def test_missed_equality_over_null_is_null():
    assert probed(SublinkKind.ANY, "=", 3, [1, None]) is None
    assert probed(SublinkKind.ALL, "<>", 3, [1, None]) is None
    assert probed(SublinkKind.ANY, "=", 3, [1, 2]) is False
    assert probed(SublinkKind.ALL, "<>", 3, [1, 2]) is True


def test_summary_counted_once_per_result():
    stats = ExecutionStats()
    rows = InitPlanRows([(1,), (2,)], stats)
    for op in OPS:
        rows.probe(False, op)(1)
        rows.probe(True, op)(1)
    assert stats.hashed_sublinks == 1
    mixed = InitPlanRows([(1,), ("a",)], stats)
    assert mixed.probe(False, "=")(1) is SCAN
    assert stats.hashed_sublinks == 1
