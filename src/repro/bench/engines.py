"""Engine comparison benchmark (``python -m repro.bench --engine``).

One grid, two engines.  Every cell is a provenance query — the
fig8/fig9 synthetic workloads (q1 equality-ANY and q2 inequality-ALL
across their rewrite strategies) plus the uncorrelated TPC-H sublink
templates (Q11/Q15/Q16 under Left and Move) — prepared once per engine
and re-executed through the plan cache, so each cell isolates
*execution*: the same physical plan shape pulled in row batches
(pipelined) or run over column vectors (vectorized).

Every cell also cross-checks that the two engines return identical
rows in identical order, so a bench run doubles as a coarse parity
sweep, and records the vectorized plan's columnar/row-fallback node
counts so regressions to the slow path show up in the committed JSON
(``BENCH_engine.json``).

The Gen strategy keeps correlated sublinks, which execute per-row and
cannot vectorize; it is measured only at the smallest synthetic size
(where it demonstrates fallback correctness, not throughput) and
skipped for TPC-H, where it is orders of magnitude slower than the
rewriting strategies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..api import connect
from ..engine import ENGINES
from ..synthetic import SyntheticConfig, load_synthetic, q1_sql, q2_sql
from ..tpch import install_views, load_tpch, query_sql

#: fig8 shape: |R1| fixed, the sublink relation |R2| varies.
FIG8_INPUT_SIZE = 500
FIG8_SUBLINK_SIZES = (100, 500, 1000)
#: fig9 shape: both relations grow together.
FIG9_SIZES = (100, 500, 1000)
#: Gen keeps the correlated sublink (per-row nested execution, O(n^2));
#: it is only measured up to this size.
GEN_MAX_SIZE = 100

#: The paper's purely uncorrelated templates (fig6), under the two
#: rewriting strategies that plan to joins + aggregates.
TPCH_QUERIES = (11, 15, 16)
TPCH_STRATEGIES = ("left", "move")
TPCH_SCALE = 0.00015   # the rescaled "10MB" point of FIG6_SCALES


@dataclass
class EngineCell:
    """One (workload, strategy) point measured on both engines."""

    workload: str            # "fig8", "fig9" or "tpch"
    case: str                # "q1", "q2" or "Q11"
    size: str                # e.g. "|R1|=500,|R2|=1000"
    strategy: str
    rows: int
    seconds: dict[str, float]     # engine -> per-call seconds
    vectorized_nodes: int         # columnar nodes in the vectorized plan
    row_fallback_nodes: int       # row-format nodes kept by the fallback

    @property
    def vectorized_speedup(self) -> float:
        """Vectorized vs pipelined on this cell."""
        if self.seconds["vectorized"] == 0:
            return float("inf")
        return self.seconds["pipelined"] / self.seconds["vectorized"]

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "case": self.case,
            "size": self.size,
            "strategy": self.strategy,
            "rows": self.rows,
            "seconds": dict(self.seconds),
            "vectorized_nodes": self.vectorized_nodes,
            "row_fallback_nodes": self.row_fallback_nodes,
            "vectorized_speedup": self.vectorized_speedup,
        }


@dataclass
class EngineBenchResult:
    """The full engine-comparison grid."""

    repeats: int
    cells: list[EngineCell]

    @property
    def vectorized_speedup(self) -> float:
        """Geometric-mean vectorized-vs-pipelined speedup over the grid."""
        ratios = [cell.vectorized_speedup for cell in self.cells
                  if cell.seconds["vectorized"] > 0]
        if not ratios:
            return float("nan")
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def to_dict(self) -> dict:
        return {
            "repeats": self.repeats,
            "engines": list(ENGINES),
            "parity": "bit-identical",   # _time_cell raises otherwise
            "vectorized_speedup": self.vectorized_speedup,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _provenance_sql(sql: str) -> str:
    if not sql.upper().startswith("SELECT "):
        raise ValueError(f"not a SELECT: {sql[:40]!r}")
    return "SELECT PROVENANCE " + sql[len("SELECT "):]


def _time_cell(catalog, sql: str, strategy: str, repeats: int,
               workload: str, case: str, size: str) -> EngineCell:
    """Measure one query on both engines over a shared catalog."""
    timings: dict[str, float] = {}
    results: dict[str, list] = {}
    vectorized_nodes = row_fallback_nodes = 0
    for engine in ENGINES:
        conn = connect(engine=engine, catalog=catalog)
        statement = conn.prepare(sql, strategy=strategy)
        relation = statement.execute(())   # warm: plan cached, cache hot
        results[engine] = relation.rows
        best = float("inf")
        for _ in range(3):                 # best-of-3 rounds
            start = time.perf_counter()
            for _ in range(repeats):
                statement.execute(()).rows   # drain the streaming result
            best = min(best, time.perf_counter() - start)
        timings[engine] = best / repeats
        if engine == "vectorized":
            vectorized_nodes = conn.last_stats.vectorized_nodes
            row_fallback_nodes = conn.last_stats.row_fallback_nodes
        conn.close()
    if results["vectorized"] != results["pipelined"]:
        raise AssertionError(
            f"engines disagree on {workload}/{case}/{size}/{strategy}")
    return EngineCell(workload, case, size, strategy,
                      len(results["vectorized"]), timings,
                      vectorized_nodes, row_fallback_nodes)


def _synthetic_cells(workload: str, cases: list[tuple[int, int]],
                     repeats: int, seed: int,
                     verbose: bool) -> list[EngineCell]:
    cells: list[EngineCell] = []
    for input_size, sublink_size in cases:
        db = load_synthetic(SyntheticConfig(input_size, sublink_size,
                                            seed=seed))
        for case, sql_fn, strategies in (
                ("q1", q1_sql, ("gen", "left", "move", "unn")),
                ("q2", q2_sql, ("gen", "left", "move"))):
            sql = _provenance_sql(
                sql_fn(input_size, sublink_size, seed=seed))
            size = f"|R1|={input_size},|R2|={sublink_size}"
            for strategy in strategies:
                if strategy == "gen" \
                        and max(input_size, sublink_size) > GEN_MAX_SIZE:
                    continue   # correlated per-row execution, O(n^2)
                cell = _time_cell(db.catalog, sql, strategy, repeats,
                                  workload, case, size)
                cells.append(cell)
                if verbose:
                    print("  " + _format_cell(cell), flush=True)
    return cells


def _tpch_cells(repeats: int, seed: int,
                verbose: bool) -> list[EngineCell]:
    db = load_tpch(scale=TPCH_SCALE, seed=seed)
    install_views(db)
    cells: list[EngineCell] = []
    for query in TPCH_QUERIES:
        sql = _provenance_sql(query_sql(query, seed=seed))
        for strategy in TPCH_STRATEGIES:
            cell = _time_cell(db.catalog, sql, strategy, repeats,
                              "tpch", f"Q{query}", f"sf={TPCH_SCALE}")
            cells.append(cell)
            if verbose:
                print("  " + _format_cell(cell), flush=True)
    return cells


def run_engine_bench(repeats: int = 3, seed: int = 0,
                     verbose: bool = False) -> EngineBenchResult:
    """Run the full grid; see the module docstring."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    cells = _synthetic_cells(
        "fig8", [(FIG8_INPUT_SIZE, n) for n in FIG8_SUBLINK_SIZES],
        repeats, seed, verbose)
    cells += _synthetic_cells(
        "fig9", [(n, n) for n in FIG9_SIZES], repeats, seed, verbose)
    cells += _tpch_cells(repeats, seed, verbose)
    return EngineBenchResult(repeats=repeats, cells=cells)


def _format_cell(cell: EngineCell) -> str:
    per = {engine: f"{cell.seconds[engine] * 1000:9.3f}"
           for engine in ENGINES}
    return (f"{cell.workload:5s} {cell.case:4s} {cell.size:22s} "
            f"{cell.strategy:5s} "
            f"{per['pipelined']} {per['vectorized']} "
            f"{cell.vectorized_speedup:6.1f}x "
            f"[{cell.vectorized_nodes}c/{cell.row_fallback_nodes}r]")


def format_engine_bench(result: EngineBenchResult) -> str:
    lines = [
        "workload case size                   strat "
        "  pipe ms    vec ms  vec/pipe [plan]",
    ]
    lines += [_format_cell(cell) for cell in result.cells]
    lines += [
        f"geomean vectorized vs pipelined      "
        f"{result.vectorized_speedup:6.2f}x",
    ]
    return "\n".join(lines)
