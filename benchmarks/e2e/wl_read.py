"""The three read workloads: ``synth_sublink``, ``tpch_sublink`` and
``adhoc_plan``.

All three are single-session closed loops over durable engines opened
with stock defaults.  An op is one round of the workload's statement
script; :class:`ReadWorkload` runs a round either through the session
API (untraced) or staged call by call the way
``Connection._get_plan`` / ``_execute_plan`` do it, one span per layer.

Inputs come from ``--seed`` through the library's own generators, as
part of the timed set-up.  The cost of a sublink query swings by orders
of magnitude with how many rows its predicates happen to select, so a
set-up draws candidate data and query parameters in a fixed order from
the seed and keeps the candidate whose exact row counts are the ones the
class was sized for: the same seed always gives the same inputs, and
every seed gives inputs of the same weight.
"""

from __future__ import annotations

import functools
import random
import re
import sqlite3
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.algebra.trees import iter_operators
from repro.api import Connection, Engine, PreparedStatement, connect
from repro.engine import Executor
from repro.engine.lowering import lower_plan
from repro.engine.optimizer import optimize
from repro.provenance import ProvenanceRewriter
from repro.provenance.strategies import AUTO
from repro.sql import Analyzer, parse_statement
from repro.synthetic import q1_sql, q2_sql, synthetic_rows
from repro.tpch import (
    TPCH_SCHEMAS, TPCHGenerator, install_views, query_sql,
)

from harness import (
    Tracer, Window, WorkDir, bag_digest, median, now, row_crc, user_bytes,
)

Rows = list[tuple]

#: Operator classes folded into the ``engine.op_self_ms.*`` buckets
#: (after stripping the vectorized engine's leading ``V``).
OP_BUCKETS = {
    "SeqScan": "scan", "IndexScan": "scan", "ValuesScan": "scan",
    "PartitionScan": "scan", "Filter": "filter", "Project": "project",
    "HashJoin": "hash_join", "NestedLoopJoin": "nl_join",
    "IndexNestedLoopJoin": "nl_join", "HashAggregate": "aggregate",
    "SortNode": "sort", "Sort": "sort",
}
BUCKET_NAMES = ("scan", "filter", "project", "hash_join", "nl_join",
                "aggregate", "sort", "other")

PLAN_LAYERS = ("sql.parse", "sql.analyze", "provenance.rewrite",
               "engine.optimize", "engine.lower")


def provenance_of(sql: str) -> str:
    """``SELECT ...`` as ``SELECT PROVENANCE ...``."""
    text = sql.strip()
    return "SELECT PROVENANCE" + text[len("SELECT"):]


@dataclass
class Stmt:
    """One statement of a round's script."""

    cls: str
    conn: Connection
    sql: str
    strategy: str | None = None          # override, prepared classes only
    prepared: PreparedStatement | None = None   # None: ad-hoc text
    params: tuple = ()

    def run(self) -> Rows:
        """Through the session API, result consumed in full."""
        if self.prepared is not None:
            return self.prepared.execute(self.params).rows
        return self.conn.execute(self.sql, self.params).rows


@dataclass
class StagedPlan:
    physical: Any
    algebra_nodes: int
    physical_nodes: int
    sublink_nodes: int


def stage_plan(tracer: Tracer, stmt: Stmt, catalog: Any) -> StagedPlan:
    """Plan *stmt* through the public layer calls, in the order and
    with the arguments ``Connection._get_plan`` uses, a span around
    each."""
    config = stmt.conn.config
    with tracer.span("sql.parse"):
        statement = parse_statement(stmt.sql)
    strategy = stmt.strategy if stmt.strategy is not None \
        else statement.provenance
    if strategy == AUTO and config.default_strategy != AUTO:
        strategy = config.default_strategy
    with tracer.span("sql.analyze"):
        plan = Analyzer(catalog).analyze(statement)
    if strategy:
        with tracer.span("provenance.rewrite"):
            plan = ProvenanceRewriter(catalog, strategy, config) \
                .rewrite_query(plan).plan
    algebra_nodes = sum(1 for _ in iter_operators(plan, True))
    with tracer.span("engine.optimize"):
        plan = optimize(plan, catalog)
    with tracer.span("engine.lower"):
        physical = lower_plan(plan, catalog,
                              use_indexes=config.use_indexes)
    return StagedPlan(physical, algebra_nodes,
                      sum(1 for _ in physical.nodes()),
                      len(physical.subplans))


@dataclass
class Checked:
    """Outcome of a checked fixed-count phase."""

    ops: int = 0
    errors: list[str] = field(default_factory=list)
    #: name -> [row count, order-insensitive CRC], summed over the rounds
    digests: dict[str, list[int]] = field(default_factory=dict)


class ReadWorkload:
    """Shared shape of the three read workloads."""

    name = ""
    classes: tuple[str, ...] = ()
    #: rounds of the checked fixed-count phase
    rounds = 20
    #: a server child whose memory counts (``serve_mix``)
    child_pid: int | None = None
    #: WAL bytes a set-up wrote and already checkpointed away
    wal_bytes_extra = 0
    #: every statement text is new, so a plan-cache hit is an error
    cache_must_miss = False

    def __init__(self) -> None:
        self.engines: list[Engine] = []
        self.loaded_bytes = 0           # user bytes loaded in set-up
        self.cache_hit_ratio = 0.0
        self._staged: dict[tuple[int, str], StagedPlan] = {}

    # -- to be provided -------------------------------------------------------

    def setup(self, seed: int, quick: bool, work: WorkDir) -> None:
        """Make the inputs from *seed*, load them, prepare."""
        raise NotImplementedError

    def script(self, op: int) -> list[Stmt]:
        raise NotImplementedError

    def check_once(self, results: dict[str, Rows]) -> list[str]:
        """Checks that need one round's results only (run on round 0)."""
        return []

    # -- shared ---------------------------------------------------------------

    def check_round(self, op: int, results: dict[str, Rows]
                    ) -> list[str]:
        """Checks run on every round of the checked phase."""
        return []

    def open_engine(self, work: WorkDir) -> Engine:
        engine = Engine(path=str(work.fresh(self.name)))
        self.engines.append(engine)
        return engine

    def load(self, conn: Connection, tables: dict[str, Rows],
             schemas: dict[str, Sequence[tuple[str, str]]]) -> None:
        self.loaded_bytes += load_tables(conn, tables, schemas)

    def teardown(self) -> None:
        for engine in self.engines:
            engine.close()
        self.engines = []
        self.loaded_bytes = 0
        self._staged = {}

    def written_bytes(self) -> int:
        """User bytes behind ``disk_bytes_per_user_byte``."""
        return self.loaded_bytes

    def verify_recovered(self, recovered: Sequence[Engine]) -> bool:
        """A recovered copy must hold what the live engine holds."""
        for live, copy in zip(self.engines, recovered):
            for table in live.catalog.names():
                if bag_digest(live.catalog.get(table).rows) != \
                        bag_digest(copy.catalog.get(table).rows):
                    return False
        return True

    def run_round(self, op: int, window: Window | None = None
                  ) -> dict[str, Rows]:
        """One op through the session API, results consumed in full."""
        results: dict[str, Rows] = {}
        started = now()
        for stmt in self.script(op):
            t0 = now()
            rows = stmt.run()
            if window is not None:
                window.add_class(stmt.cls, (now() - t0) * 1e3)
            else:
                results[stmt.cls] = rows
        if window is not None:
            window.op_ms.append((now() - started) * 1e3)
        return results

    def run_window(self, seconds: float, first_op: int) -> Window:
        window = Window()
        hits = self.plan_cache_counts()[0]
        started = now()
        op = first_op
        while now() < started + seconds:
            self.run_round(op, window)
            op += 1
        window.seconds = now() - started
        if self.cache_must_miss:
            # an op served from the plan cache did not do the op's work
            window.failed += self.plan_cache_counts()[0] - hits
        return window

    def run_round_traced(self, op: int, tracer: Tracer
                         ) -> tuple[dict[str, Rows], dict[str, int]]:
        """The same op staged layer by layer; also returns the round's
        node counts."""
        results: dict[str, Rows] = {}
        counts = {"algebra": 0, "physical": 0, "sublink": 0}
        tracer.op = op
        with tracer.span("round"):
            for stmt in self.script(op):
                with tracer.span("stmt." + stmt.cls):
                    catalog = stmt.conn.engine.snapshot()
                    if stmt.prepared is not None:
                        # planned once, as prepare() does
                        staged = self._staged[id(stmt.conn), stmt.sql]
                    else:
                        staged = stage_plan(tracer, stmt, catalog)
                    with tracer.span("engine.execute"):
                        executor = Executor(catalog, optimize=False,
                                            config=stmt.conn.config)
                        rows = executor.execute_physical(
                            staged.physical, stmt.params).rows
                results[stmt.cls] = rows
                counts["algebra"] += staged.algebra_nodes
                counts["physical"] += staged.physical_nodes
                counts["sublink"] += staged.sublink_nodes
        return results, counts

    def warm_up(self) -> None:
        for op in range(-3, 0):     # ops of their own: nothing the
            self.run_round(op)      # checked phase runs is cached yet

    def checked_phase(self) -> Checked:
        """The fixed-count phase: every result verified, exact counts."""
        checked = Checked()
        hits = lookups = 0
        for op in range(self.rounds):
            before = self.plan_cache_counts()
            results = self.run_round(op)
            checked.ops += 1
            after = self.plan_cache_counts()
            hits += after[0] - before[0]
            lookups += after[1] - before[1]
            for key, rows in results.items():
                count, crc = bag_digest(rows)
                entry = checked.digests.setdefault(
                    key.split("#")[0], [0, 0])
                entry[0] += count
                entry[1] = (entry[1] + crc) & 0xFFFFFFFF
            if op == 0:
                checked.errors += self.check_once(results)
            checked.errors += self.check_round(op, results)
        self.cache_hit_ratio = hits / max(1, lookups)
        if self.cache_must_miss and hits:
            checked.errors.append(
                f"{self.name}: {hits} of {lookups} statements came from "
                f"the plan cache; every text was meant to be new")
        return checked

    def traced_phase(self, tracer: Tracer) -> dict[str, float]:
        """The traced run: every op once through the session API and
        once staged layer by layer, turn and turn about so that both see
        the same heap and the same host."""
        first = self.rounds
        ops = range(first, first + self.rounds)
        for stmt in self.script(first):
            if stmt.prepared is not None:
                key = (id(stmt.conn), stmt.sql)
                if key not in self._staged:
                    self._staged[key] = stage_plan(
                        Tracer(), stmt, stmt.conn.engine.snapshot())
        api_ms, counts, stats = [], [], []
        for op in ops:
            results, stat, ms = self.api_round(op)
            staged, count = self.run_round_traced(op, tracer)
            api_ms.append(ms)
            stats.append(stat)
            counts.append(count)
            # the staged calls must compute what the session API does:
            # the same bag on the first op, as many rows on the others
            for cls, rows in results.items():
                if len(rows) != len(staged[cls]) or (
                        op == first and
                        bag_digest(rows) != bag_digest(staged[cls])):
                    raise RuntimeError(
                        f"{self.name}/{cls}@{op}: the staged layer calls "
                        f"and the session API disagree")
        untraced = median(api_ms)
        out = {layer + "_ms": tracer.layer_ms(layer, ops)
               for layer in PLAN_LAYERS + ("engine.execute",)}
        out["api.session_overhead_ms"] = untraced - sum(out.values())
        for key in ("algebra", "physical", "sublink"):
            name = ("provenance." if key == "algebra" else "engine.") \
                + key + "_nodes"
            out[name] = median([count[key] for count in counts])
        for bucket in BUCKET_NAMES:
            out["engine.op_self_ms." + bucket] = \
                median([stat["op." + bucket] for stat in stats])
        executions = sum(stat["sublink_executions"] for stat in stats)
        cache_hits = sum(stat["sublink_cache_hits"] for stat in stats)
        out["engine.sublink_executions"] = \
            median([stat["sublink_executions"] for stat in stats])
        out["engine.sublink_cache_hit_ratio"] = \
            cache_hits / max(1.0, cache_hits + executions)
        out["engine.row_fallback_nodes"] = \
            median([stat["row_fallback_nodes"] for stat in stats])
        out["api.plan_cache_hit_ratio"] = self.cache_hit_ratio
        traced_rounds = [(s.end - s.start) * 1e3 for s in tracer.spans
                         if s.name == "round" and s.op in ops]
        out["bench.trace_overhead_ratio"] = \
            median(traced_rounds) / untraced
        return out

    def window_metrics(self, window: Window) -> dict[str, float]:
        """Per-layer numbers that come from the timed window."""
        return {f"class.{cls}.p50_ms": p50
                for cls, p50 in window.class_p50().items()}

    def api_round(self, op: int
                  ) -> tuple[dict[str, Rows], dict[str, float], float]:
        """One untraced op through the session API: its results, what
        ``conn.last_stats`` says about it, and its time."""
        results: dict[str, Rows] = {}
        stats = {f"op.{bucket}": 0.0 for bucket in BUCKET_NAMES}
        stats.update(sublink_executions=0.0, sublink_cache_hits=0.0,
                     row_fallback_nodes=0.0)
        elapsed = 0.0
        for stmt in self.script(op):
            started = now()
            results[stmt.cls] = stmt.run()
            elapsed += now() - started
            last = stmt.conn.last_stats
            stats["sublink_executions"] += last.sublink_executions
            stats["sublink_cache_hits"] += last.sublink_cache_hits
            stats["row_fallback_nodes"] += last.row_fallback_nodes
            for operator, ms in last.operator_timings.items():
                bucket = OP_BUCKETS.get(operator.removeprefix("V"), "other")
                stats["op." + bucket] += ms
        return results, stats, elapsed * 1e3

    def plan_cache_counts(self) -> tuple[int, int]:
        """``(hits, lookups)`` summed over this workload's engines."""
        hits = sum(e.plan_cache.hits for e in self.engines)
        misses = sum(e.plan_cache.misses for e in self.engines)
        return hits, hits + misses


def load_tables(conn: Connection, tables: dict[str, Rows],
                schemas: dict[str, Sequence[tuple[str, str]]]) -> int:
    """Create and fill *tables*; returns the user bytes loaded."""
    loaded = 0
    for table, columns in schemas.items():
        conn.create_table(table, columns)
        conn.insert(table, tables[table])
        loaded += user_bytes(tables[table])
    return loaded


def check_projection(conn: Connection, plain_sql: str, rows: Rows,
                     label: str) -> list[str]:
    """The original columns of a provenance result, as a set, must be
    the plain query's result."""
    plain = conn.execute(plain_sql)
    width = len(plain.schema.names)
    want = {row_crc(row) for row in plain.rows}
    got = {row_crc(row[:width]) for row in rows}
    if want != got:
        return [f"{label}: original columns of the provenance result "
                f"differ from the plain query ({len(got)} vs "
                f"{len(want)} distinct rows)"]
    return []


def check_bag_equal(results: dict[str, Rows], group: Sequence[str],
                    label: str) -> list[str]:
    digests = {cls: bag_digest(results[cls]) for cls in group}
    if len(set(digests.values())) > 1:
        return [f"{label}: strategies disagree: {digests}"]
    return []


# ---------------------------------------------------------------------------
# synth_sublink
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthClass:
    """One class = one (query, strategy) on its own instance.

    ``r1``/``r2`` are the table sizes.  The window is three standard
    deviations of ``r1.b`` wide, which pins ``range`` to the central
    87 % of R1 whatever the query seed.  What a class costs follows the
    rows ``range``/``range2`` select (``n1``/``n2``), the R1 rows that
    qualify (``hits``: Left and Gen re-evaluate the sublink once per
    qualifying row and sublink tuple) and the rows of the provenance
    result (``out``): ``target`` holds the four counts the class was
    sized for."""

    name: str
    query: str
    strategy: str
    r1: int
    r2: int
    target: tuple[int, int, int, int]       # n1, n2, hits, out


def _synth(name: str, r1: int, r2: int, hits: int, out: int) -> SynthClass:
    query, strategy = name.split("_")
    n1 = round(r1 * 0.8664)                     # P(|z| < 1.5) = 0.8664
    n2 = round(r2 * 0.8664) if r1 == r2 else r2
    return SynthClass(name, query, strategy, r1, r2, (n1, n2, hits, out))


SYNTH_FULL = (
    _synth("q1_gen", 22, 22, 2, 2),
    _synth("q1_left", 80, 80, 12, 13),
    _synth("q1_move", 140, 140, 35, 44),
    _synth("q1_unn", 1500, 1500, 1192, 4770),
    _synth("q1_auto", 1600, 1600, 1278, 5416),
    _synth("q2_gen", 230, 6, 28, 168),
    _synth("q2_left", 1200, 6, 149, 894),
    _synth("q2_move", 1600, 6, 198, 1188),
)
SYNTH_QUICK = (
    _synth("q1_gen", 20, 20, 1, 1),
    _synth("q1_left", 30, 30, 2, 2),
    _synth("q1_move", 40, 40, 3, 3),
    _synth("q1_unn", 200, 200, 60, 84),
    _synth("q1_auto", 220, 220, 70, 100),
    _synth("q2_gen", 30, 4, 4, 16),
    _synth("q2_left", 100, 4, 14, 56),
    _synth("q2_move", 120, 4, 17, 68),
)
#: Rows generated per class while looking for its instance: a class of
#: 22-row tables sees 900 candidates, one of 1600-row tables 12 (the
#: counts of a small instance move by far more).  A fixed number of
#: candidates, so that every seed pays the same set-up time.
SYNTH_CANDIDATE_ROWS = 40000

_BETWEEN = re.compile(r"BETWEEN (-?\d+) AND (-?\d+)")


@dataclass
class SynthInstance:
    spec: SynthClass
    rows1: Rows
    rows2: Rows
    sql: str            # the plain query


def _synth_counts(spec: SynthClass, rows1: Rows, rows2: Rows,
                  sql: str) -> tuple[int, int, int, int]:
    """``(n1, n2, hits, out)`` of a candidate, worked out on the rows
    in plain Python."""
    (lo1, hi1), (lo2, hi2) = [
        (int(lo), int(hi)) for lo, hi in _BETWEEN.findall(sql)]
    picked1 = [a for a, b in rows1 if lo1 <= b <= hi1]
    picked2 = [a for a, b in rows2 if lo2 <= b <= hi2]
    if spec.query == "q1":
        matches: dict[int, int] = {}
        for a in picked2:
            matches[a] = matches.get(a, 0) + 1
        hits = sum(1 for a in picked1 if a in matches)
        out = sum(matches.get(a, 0) for a in picked1)
    else:
        floor = min(picked2) if picked2 else None
        hits = sum(1 for a in picked1 if floor is None or a < floor)
        out = hits * max(1, len(picked2))
    return len(picked1), len(picked2), hits, out


def draw_synth(spec: SynthClass, seed: int,
               candidate_rows: int = SYNTH_CANDIDATE_ROWS) -> SynthInstance:
    """Of a fixed number of draws of data and ranges, in a fixed order
    from *seed*, the one whose selected row counts are nearest to the
    target of *spec* (the first of equals)."""
    query = q1_sql if spec.query == "q1" else q2_sql
    best: tuple[float, SynthInstance] | None = None
    for k in range(max(1, candidate_rows // (spec.r1 + spec.r2))):
        draw = seed * 100003 + k
        rows1 = synthetic_rows(spec.r1, draw)
        rows2 = synthetic_rows(spec.r2, draw + 1)
        sql = query(spec.r1, spec.r2, draw, 300 * spec.r1)
        counts = _synth_counts(spec, rows1, rows2, sql)
        off = max(abs(count - want) / want
                  for count, want in zip(counts, spec.target))
        if best is None or off < best[0]:
            best = (off, SynthInstance(spec, rows1, rows2, sql))
    assert best is not None
    return best[1]


class SynthSublink(ReadWorkload):
    name = "synth_sublink"
    classes = tuple(spec.name for spec in SYNTH_FULL)

    def setup(self, seed: int, quick: bool, work: WorkDir) -> None:
        # the quick profile only has to run, not to weigh the same
        self.instances = [draw_synth(spec, seed, 2000) for spec in
                          SYNTH_QUICK] if quick else \
            [draw_synth(spec, seed) for spec in SYNTH_FULL]
        self._script = []
        columns = [("a", "int"), ("b", "int")]
        for instance in self.instances:
            conn = self.open_engine(work).connect()
            self.load(conn, {"r1": instance.rows1, "r2": instance.rows2},
                      {"r1": columns, "r2": columns})
            conn.execute("ANALYZE")
            spec = instance.spec
            sql = provenance_of(instance.sql)
            self._script.append(Stmt(
                spec.name, conn, sql, spec.strategy,
                conn.prepare(sql, strategy=spec.strategy)))

    def script(self, op: int) -> list[Stmt]:
        return self._script

    def check_once(self, results: dict[str, Rows]) -> list[str]:
        errors = []
        by_name = {stmt.cls: stmt for stmt in self._script}
        for instance in self.instances:
            spec = instance.spec
            if not results[spec.name]:
                errors.append(f"{spec.name}: the class returns no rows")
            errors += _check_sqlite(instance, results[spec.name])
            if spec.strategy != "gen":
                continue
            # the Gen instance is the smallest of its query: run every
            # other strategy of the query on it and compare the bags
            conn = by_name[spec.name].conn
            others = ("left", "move", "unn", "auto") \
                if spec.query == "q1" else ("left", "move")
            bags = {spec.name: results[spec.name]}
            for strategy in others:
                bags[strategy] = conn.prepare(
                    provenance_of(instance.sql),
                    strategy=strategy).execute().rows
            errors += check_bag_equal(bags, list(bags), spec.query)
        return errors


def _check_sqlite(instance: SynthInstance, rows: Rows) -> list[str]:
    """The original columns of the result against stdlib sqlite3 running
    the hand-rewritten plain query on the same rows."""
    (lo1, hi1), (lo2, hi2) = _BETWEEN.findall(instance.sql)
    if instance.spec.query == "q1":
        nested = (f"a IN (SELECT a FROM r2 WHERE b BETWEEN {lo2} "
                  f"AND {hi2})")
    else:
        nested = (f"NOT EXISTS (SELECT 1 FROM r2 WHERE b BETWEEN {lo2} "
                  f"AND {hi2} AND r1.a >= r2.a)")
    db = sqlite3.connect(":memory:")
    try:
        for table, data in (("r1", instance.rows1),
                            ("r2", instance.rows2)):
            db.execute(f"CREATE TABLE {table} (a INTEGER, b INTEGER)")
            db.executemany(f"INSERT INTO {table} VALUES (?, ?)", data)
        want = set(db.execute(
            f"SELECT a, b FROM r1 WHERE b BETWEEN {lo1} AND {hi1} "
            f"AND {nested}").fetchall())
    finally:
        db.close()
    got = {row[:2] for row in rows}
    if want != got:
        return [f"{instance.spec.name}: result differs from sqlite3 "
                f"({len(got)} vs {len(want)} distinct rows)"]
    return []


# ---------------------------------------------------------------------------
# TPC-H data shared by tpch_sublink and adhoc_plan
# ---------------------------------------------------------------------------

def tpch_tables(scale: float, seed: int) -> dict[str, Rows]:
    """One generated instance, as rows per table (generation order is
    the generator's own: one rng feeds all tables)."""
    generator = TPCHGenerator(scale, seed)
    tables: dict[str, Rows] = {}
    for table, method in (("region", "regions"), ("nation", "nations"),
                          ("supplier", "suppliers"), ("part", "parts"),
                          ("partsupp", "partsupps"),
                          ("customer", "customers")):
        tables[table] = list(getattr(generator, method)())
    tables["orders"], tables["lineitem"] = \
        generator.orders_and_lineitems()
    assert set(tables) == set(TPCH_SCHEMAS)
    return tables


# ---------------------------------------------------------------------------
# tpch_sublink
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TpchClass:
    name: str
    query: int
    strategy: str


TPCH_CLASSES = (
    TpchClass("q11_left", 11, "left"), TpchClass("q11_move", 11, "move"),
    TpchClass("q15_left", 15, "left"), TpchClass("q15_move", 15, "move"),
    TpchClass("q16_left", 16, "left"), TpchClass("q16_move", 16, "move"),
    TpchClass("q17_gen", 17, "gen"), TpchClass("q4_gen", 4, "gen"),
)
GEN_QUERIES = (17, 4)

#: Scales of the two instances and, per template, the band its weight
#: must fall in: provenance rows for Q11/Q15/Q16 on the main instance,
#: sublink executions of the Gen plan for Q17/Q4 on the small one.  Gen
#: crosses every outer row with the sublink's base relation and runs
#: the sublink per combination: about two executions per line item and
#: outer row, each a scan of the line items.  So only a few dozen line
#: items (``gen_items``, which the generator varies from draw to draw)
#: keep a non-empty Gen result inside the round; see the README.
TPCH_FULL = {"scale": 0.0003, "gen_scale": 0.00001, "gen_items": (56, 61),
             11: (5900, 6400), 15: (1300, 1500), 16: (20, 64),
             17: (100, 145), 4: (100, 125)}
TPCH_QUICK = {"scale": 0.0001, "gen_scale": 0.00001, "gen_items": (1, 99),
              11: (1, 9000), 15: (20, 2000), 16: (2, 200),
              17: (1, 400), 4: (1, 400)}
#: Parameter sets tried per template on one draw of the data.
TPCH_CANDIDATES = 40


@dataclass
class TpchInputs:
    tables: dict[str, Rows]         # the main instance
    gen_tables: dict[str, Rows]     # the small one of the Gen classes
    view_seed: int
    sql: dict[int, str]             # template -> plain query text


def _loaded(tables: dict[str, Rows]) -> Connection:
    conn = connect()
    load_tables(conn, tables, TPCH_SCHEMAS)
    conn.execute("ANALYZE")
    return conn


def _weigh(conn: Connection, sql: str, strategy: str) -> tuple[int, int]:
    """``(provenance rows, sublink executions)`` of one execution."""
    rows = conn.prepare(provenance_of(sql), strategy=strategy) \
        .execute().rows
    return len(rows), conn.last_stats.sublink_executions


@functools.lru_cache(maxsize=None)
def seeded_sql(query: int, seed: int) -> str:
    """``query_sql``, remembered: a search over several draws of the
    data walks the same parameter sets again."""
    return query_sql(query, seed=seed)


def _mentions(sql: str, words: Iterable[Sequence[str]]) -> bool:
    """Whether *sql* holds every quoted word of one of the groups."""
    return any(all(f"'{word}'" in sql for word in group)
               for group in words)


def pick_main(tables: dict[str, Rows], bands: dict, seed: int
              ) -> tuple[int, dict[int, str]] | None:
    """The first Q15 view and Q11/Q16 parameters, in seed order, whose
    provenance results fall in *bands*; ``None`` if these data have
    none."""
    # Q11 is empty unless its nation has a supplier (3 suppliers, 25
    # nations), and four times the size with two: only the texts that
    # name a nation with one supplier are worth running
    nation = {row[0]: row[1] for row in tables["nation"]}
    seats = [nation[row[3]] for row in tables["supplier"]]
    homes = {(name,) for name in seats if seats.count(name) == 1}
    texts = {query: [seeded_sql(query, seed * 1009 + k)
                     for k in range(TPCH_CANDIDATES)] for query in (11, 16)}
    texts[11] = [text for text in texts[11] if _mentions(text, homes)]
    if not texts[11]:
        return None
    sql = {15: query_sql(15)}
    with _loaded(tables) as conn:
        for query, candidates in texts.items():
            for text in candidates:
                if _inside(_weigh(conn, text, "move")[0], bands[query]):
                    sql[query] = text
                    break
            else:
                return None
        for k in range(TPCH_CANDIDATES // 2):
            install_views(conn, random.Random(seed * 1009 + k))
            if _inside(_weigh(conn, sql[15], "move")[0], bands[15]):
                return seed * 1009 + k, sql
            conn.execute("DROP VIEW revenue")
    return None


def pick_gen(tables: dict[str, Rows], bands: dict, seed: int
             ) -> dict[int, str] | None:
    """The first Q17 and Q4 parameters, in seed order, whose Gen plan
    returns rows and runs a number of sublink executions in *bands*."""
    # Q17 is empty unless it names the brand and container (4 parts,
    # 200 combinations) of a part with a line item below a fifth of the
    # part's mean quantity: most draws have none and are not even loaded
    quantities: dict[int, list[float]] = {}
    for row in tables["lineitem"]:
        quantities.setdefault(row[1], []).append(row[4])
    kinds = {(row[3], row[6]) for row in tables["part"]
             if any(5 * quantity < statistics.fmean(quantities[row[0]])
                    for quantity in quantities.get(row[0], ()))}
    if not kinds or not _inside(len(tables["lineitem"]),
                                bands["gen_items"]):
        return None
    sql: dict[int, str] = {}
    with _loaded(tables) as conn:
        for query in GEN_QUERIES:
            for k in range(50 * TPCH_CANDIDATES if query == 17
                           else TPCH_CANDIDATES):
                text = seeded_sql(query, seed * 1009 + k)
                if query == 17:
                    named = {kind for kind in kinds
                             if _mentions(text, [kind])}
                    if not named:
                        continue
                    kinds -= named
                # the plain query tells cheaply whether Gen has anything
                # to return; only then is the Gen plan worth its time
                if all(value is None for row in conn.execute(text).rows
                       for value in row):
                    continue
                rows, executions = _weigh(conn, text, "gen")
                if rows and _inside(executions, bands[query]):
                    sql[query] = text
                    break
            else:
                return None
    return sql


def _inside(value: int, band: tuple[int, int]) -> bool:
    return band[0] <= value <= band[1]


def first_fit(pick: Callable[[dict[str, Rows], dict, int], Any],
              scale: float, bands: dict, seed: int
              ) -> tuple[dict[str, Rows], Any]:
    """The first draw of the data, in seed order, that *pick* accepts."""
    for attempt in range(200):
        tables = tpch_tables(scale, seed * 1009 + attempt)
        picked = pick(tables, bands, seed)
        if picked is not None:
            return tables, picked
    raise RuntimeError(f"no TPC-H draw at scale {scale} fits the bands")


class TpchSublink(ReadWorkload):
    name = "tpch_sublink"
    classes = tuple(spec.name for spec in TPCH_CLASSES)

    def make_inputs(self, seed: int, quick: bool) -> TpchInputs:
        bands = TPCH_QUICK if quick else TPCH_FULL
        tables, (view_seed, sql) = first_fit(
            pick_main, bands["scale"], bands, seed)
        gen_tables, gen_sql = first_fit(
            pick_gen, bands["gen_scale"], bands, seed)
        return TpchInputs(tables, gen_tables, view_seed, {**sql, **gen_sql})

    def setup(self, seed: int, quick: bool, work: WorkDir) -> None:
        inputs = self.inputs = self.make_inputs(seed, quick)
        conn = self.open_engine(work).connect()
        self.load(conn, inputs.tables, TPCH_SCHEMAS)
        install_views(conn, random.Random(inputs.view_seed))
        conn.execute("ANALYZE")
        gen_conn = self.open_engine(work).connect()
        self.load(gen_conn, inputs.gen_tables, TPCH_SCHEMAS)
        gen_conn.execute("ANALYZE")
        self._script = []
        for spec in TPCH_CLASSES:
            sql = provenance_of(inputs.sql[spec.query])
            on = gen_conn if spec.query in GEN_QUERIES else conn
            self._script.append(Stmt(
                spec.name, on, sql, spec.strategy,
                on.prepare(sql, strategy=spec.strategy)))

    def script(self, op: int) -> list[Stmt]:
        return self._script

    def check_once(self, results: dict[str, Rows]) -> list[str]:
        errors = []
        by_name = {stmt.cls: stmt for stmt in self._script}
        for query in (11, 15, 16):
            group = [f"q{query}_left", f"q{query}_move"]
            errors += check_bag_equal(results, group, f"Q{query}")
        gen16 = by_name["q16_move"].conn.prepare(
            provenance_of(self.inputs.sql[16]),
            strategy="gen").execute().rows
        errors += check_bag_equal(
            {"gen": gen16, "move": results["q16_move"]},
            ["gen", "move"], "Q16")
        for spec in TPCH_CLASSES:
            stmt = by_name[spec.name]
            if not results[spec.name]:
                errors.append(f"{spec.name}: the class returns no rows")
            errors += check_projection(
                stmt.conn, self.inputs.sql[spec.query],
                results[spec.name], spec.name)
            if spec.strategy == "gen":
                # the correlated sublink must really run
                stmt.run()
                if not stmt.conn.last_stats.sublink_executions:
                    errors.append(f"{spec.name}: no sublink execution")
        return errors


# ---------------------------------------------------------------------------
# adhoc_plan
# ---------------------------------------------------------------------------

ADHOC_TEMPLATES = (2, 11, 16, 17, 20, 22)
ADHOC_SCALE = 0.00005
#: Parameter sets kept per template; op ``n`` runs set ``n % ADHOC_POOL``
#: of each.
ADHOC_POOL = 8


def bounded(conn: Connection, sql: str) -> bool:
    """Whether the provenance form of plain query *sql* is sure to stay
    small on these data.

    Under the default strategy a correlated template whose outer block
    matches any row is rewritten by Gen, which crosses that row with the
    sublink's whole base relation: measured 0.4 to 10 s per statement
    at this scale, against 4 to 12 ms when the outer block is empty.
    Exact counts of the plain query tell the two apart without running
    the expensive one: it returns nothing (or the NULL aggregate) and
    runs at most the two sublink executions of an uncorrelated pair."""
    rows = conn.execute(sql).rows
    return all(value is None for row in rows for value in row) \
        and conn.last_stats.sublink_executions <= 2


class AdhocPlan(ReadWorkload):
    name = "adhoc_plan"
    classes = tuple(f"q{query}" for query in ADHOC_TEMPLATES)
    cache_must_miss = True

    def setup(self, seed: int, quick: bool, work: WorkDir) -> None:
        self.conn = self.open_engine(work).connect()
        self.load(self.conn, tpch_tables(ADHOC_SCALE, seed), TPCH_SCHEMAS)
        self.conn.execute("ANALYZE")
        self.pool: dict[int, list[str]] = {}
        want = 2 if quick else ADHOC_POOL
        for query in ADHOC_TEMPLATES:
            texts = self.pool[query] = []
            for k in range(100 * want):
                sql = query_sql(query, seed=seed * 100003 + k)
                if sql not in texts and bounded(self.conn, sql):
                    texts.append(sql)
                    if len(texts) == want:
                        break
            else:
                raise RuntimeError(
                    f"only {len(texts)} usable parameter sets for "
                    f"Q{query}")

    def plain(self, query: int, op: int) -> str:
        texts = self.pool[query]
        return texts[op % len(texts)]

    def script(self, op: int) -> list[Stmt]:
        # the op's number rides along as a comment, the way tracing
        # middleware tags statements: no text ever repeats, so the plan
        # cache misses whatever its size
        return [Stmt(f"q{query}", self.conn,
                     f"{provenance_of(self.plain(query, op))}\n-- op {op}")
                for query in ADHOC_TEMPLATES]

    def check_round(self, op: int, results: dict[str, Rows]
                    ) -> list[str]:
        errors = []
        for query in ADHOC_TEMPLATES:
            errors += check_projection(
                self.conn, self.plain(query, op), results[f"q{query}"],
                f"q{query}@{op}")
        return errors
