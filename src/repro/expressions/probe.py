"""Hashed InitPlan probes: constant-time answers to uncorrelated ANY/ALL
sublink tests.

An uncorrelated sublink runs once per statement (an InitPlan) and the
engine caches its rows; without a probe, every ``x op ANY/ALL (...)``
test folds :func:`~repro.datatypes.compare` over the whole cached result
in three-valued logic.  The engine caches InitPlan results as
:class:`InitPlanRows` instead, which summarizes the first column once and
answers each later test from the summary with exactly the scan's value —
PostgreSQL's "hashed SubPlan":

* ``= ANY`` / ``<> ALL`` look the test value up in a set of the column's
  values; ``<> ANY`` / ``= ALL`` use the same set;
* ``<``, ``<=`` under ANY compare the test value with the column's max,
  ``>``, ``>=`` with its min; ALL is answered as NOT ANY of the negated
  operator (De Morgan in 3VL, exact because no NaN takes part);
* a hit answers TRUE under ANY (FALSE under ALL); a miss answers NULL
  when the column holds a NULL, else FALSE (TRUE under ALL);
* a NULL test value answers NULL over a non-empty result and FALSE (TRUE
  under ALL) over an empty one; a column of NULLs only answers NULL for
  every test value.

A probe returns :data:`SCAN` — "run the scan" — whenever the summary
could disagree with the scan: the column's non-NULL values are not all of
one comparable class (int/float, bool, str), the column holds a NaN, or
the test value is of another class or is NaN.  The scan then runs, so
results and ``ExpressionError``\\ s (``1 = ANY (SELECT TRUE)``) stay the
scan's own.
"""

from __future__ import annotations

from typing import Any, Callable

from ..datatypes import NEGATED_COMPARISON

#: A probe's answer meaning "not answerable here: run the 3VL scan".
SCAN = object()

Probe = Callable[[Any], Any]

#: The classes :func:`~repro.datatypes.compare` accepts against each
#: other: ints and floats mix, bools and strings only with themselves.
_CLASS: dict[type, type] = {int: float, float: float, bool: bool, str: str}


def _decline(value: Any) -> Any:
    return SCAN


def _hit_test(op: str, values: list) -> Probe | None:
    """``x -> any(x op v for v in values)`` for a non-empty, NaN-free
    *values* of one class and *x* of that class; None for an unknown
    operator (the scan raises for it)."""
    if op == "=":
        return set(values).__contains__
    if op == "<>":
        distinct = set(values)
        if len(distinct) > 1:       # at most one member equals x
            return lambda x: True
        return lambda x: x not in distinct
    if op in ("<", "<="):
        top = max(values)
        return (lambda x: x < top) if op == "<" else (lambda x: x <= top)
    if op in (">", ">="):
        low = min(values)
        return (lambda x: x > low) if op == ">" else (lambda x: x >= low)
    return None


class InitPlanRows(list):
    """A cached InitPlan result (a list of row tuples) that builds one
    probe per ``(ANY|ALL, operator)`` on first use.

    *stats* is the executing engine's ``ExecutionStats``: its
    ``hashed_sublinks`` counts each result whose column summary was built.
    """

    __slots__ = ("_stats", "_probes", "_column")

    def __init__(self, rows: list[tuple], stats: Any) -> None:
        super().__init__(rows)
        self._stats = stats
        self._probes: dict[tuple[bool, str], Probe] = {}
        self._column: tuple | None = None

    def probe(self, is_all: bool, op: str) -> Probe:
        """The probe answering ``x op ALL`` (*is_all*) or ``x op ANY``
        over this result's first column."""
        key = (is_all, op)
        probe = self._probes.get(key)
        if probe is None:
            probe = self._probes[key] = self._build(is_all, op)
        return probe

    def _summary(self) -> tuple | None:
        """``(class, non-NULL values, has NULL)`` of the first column,
        or None when no probe can match the scan over it."""
        if self._column is None:
            values = [row[0] for row in self]
            present = [value for value in values if value is not None]
            classes = {_CLASS.get(kind) for kind in map(type, present)}
            if len(classes) > 1 or None in classes or (
                    float in classes
                    and any(value != value for value in present)):
                self._column = ()
            else:
                self._column = (classes.pop() if classes else None,
                                present, len(present) < len(values))
                self._stats.hashed_sublinks += 1
        return self._column or None

    def _build(self, is_all: bool, op: str) -> Probe:
        summary = self._summary()
        if summary is None:
            return _decline
        kind, present, has_null = summary
        if is_all:
            op = NEGATED_COMPARISON.get(op, op)
        on_hit = not is_all
        on_miss = None if has_null else is_all
        if kind is None:            # no non-NULL value: every test is NULL
            return lambda value: on_miss
        hit = _hit_test(op, present)
        if hit is None:
            return _decline

        def probe(value: Any) -> Any:
            if value is None:
                return None         # the result is non-empty here
            if _CLASS.get(type(value)) is not kind or value != value:
                return SCAN
            return on_hit if hit(value) else on_miss
        return probe
