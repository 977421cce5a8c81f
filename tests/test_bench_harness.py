"""Benchmark harness: timing, timeouts, figure drivers (tiny instances)."""

import time

import pytest

from repro.bench.figures import (
    FigureRow, _run_synthetic, format_table, run_fig6,
)
from repro.bench.harness import (
    BenchResult, run_with_timeout, time_plain_query,
    time_provenance_query,
)
from repro.relation import Relation
from repro.schema import Schema


class _FakeRelation:
    rows = [1, 2, 3]


class TestTimeout:
    def test_completes_within_budget(self):
        result = run_with_timeout(lambda: _FakeRelation(), timeout_s=5.0)
        assert not result.timed_out
        assert result.rows == 3
        assert result.seconds is not None and result.seconds < 1

    def test_no_budget(self):
        result = run_with_timeout(lambda: _FakeRelation(), timeout_s=None)
        assert not result.timed_out

    def test_times_out(self):
        def slow():
            deadline = time.time() + 10
            while time.time() < deadline:
                sum(range(1000))
            return _FakeRelation()

        result = run_with_timeout(slow, timeout_s=0.2)
        assert result.timed_out
        assert result.label == "timeout"

    def test_alarm_restored_after_timeout(self):
        import signal
        run_with_timeout(lambda: _FakeRelation(), timeout_s=1.0)
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0


class TestQueryTimers:
    def test_time_plain_and_provenance(self, figure3_db):
        sql = "SELECT a FROM r WHERE a = ANY (SELECT c FROM s)"
        plain = time_plain_query(figure3_db, sql, timeout_s=10)
        prov = time_provenance_query(figure3_db, sql, "left", timeout_s=10)
        assert plain.rows == 2
        assert prov.rows == 2


class TestEngineGrid:
    def test_cell_times_the_two_product_engines(self, figure3_db):
        from repro.bench.engines import (
            EngineBenchResult, _time_cell, format_engine_bench,
        )
        from repro.engine import ENGINES
        assert ENGINES == ("pipelined", "vectorized")
        sql = ("SELECT PROVENANCE a FROM r WHERE a = ANY "
               "(SELECT c FROM s)")
        cell = _time_cell(figure3_db.catalog, sql, "left", 1,
                          "figX", "q1", "tiny")
        assert set(cell.seconds) == set(ENGINES)
        assert cell.rows == 2
        result = EngineBenchResult(repeats=1, cells=[cell])
        report = result.to_dict()
        assert report["engines"] == list(ENGINES)
        assert report["parity"] == "bit-identical"
        header = format_engine_bench(result).splitlines()[0]
        assert "pipe ms" in header and "vec ms" in header
        assert "mat ms" not in header


class TestFigureDrivers:
    def test_synthetic_driver_rows(self):
        rows = _run_synthetic(
            "figX", [(20, 20)], instances=1, timeout_s=20, seed=0,
            verbose=False)
        strategies = {(row.case, row.strategy) for row in rows}
        assert ("q1", "unn") in strategies
        assert ("q2", "gen") in strategies
        assert all(not row.result.timed_out for row in rows)

    def test_fig6_driver_tiny(self):
        rows = run_fig6(
            scales={"tiny": 0.00004}, queries=(16,), instances=1,
            timeout_s=30, seed=0)
        assert {row.strategy for row in rows} == {"gen", "left", "move"}

    def test_format_table(self):
        rows = [FigureRow("figX", "q1", "n=10", "gen",
                          BenchResult(0.5, 10))]
        text = format_table(rows)
        assert "figure" in text and "0.500s" in text and "gen" in text

    def test_format_table_timeout_row(self):
        rows = [FigureRow("figX", "q1", "n=10", "gen",
                          BenchResult(None, None, timed_out=True))]
        assert "timeout" in format_table(rows)
