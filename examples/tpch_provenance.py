"""Provenance for decision-support queries: TPC-H.

Run with::

    python examples/tpch_provenance.py [--scale 0.0002]

Generates a small TPC-H instance, then runs three of the paper's sublink
templates with provenance:

* Q4  (correlated EXISTS)      — Gen strategy,
* Q11 (uncorrelated HAVING)    — Left strategy,
* Q16 (NOT IN)                 — Move strategy,

showing for each how many source tuples each result row traces back to.
"""

import argparse
import time

from repro.tpch import install_views, load_tpch, query_sql


def run(db, number: int, strategy: str) -> None:
    sql = query_sql(number, seed=0)
    print(f"== TPC-H Q{number} (strategy: {strategy}) ==")
    started = time.perf_counter()
    plain = db.sql(sql)
    plain_seconds = time.perf_counter() - started

    started = time.perf_counter()
    prov = db.provenance(sql, strategy=strategy)
    prov_seconds = time.perf_counter() - started

    print(f"  original query : {len(plain.rows):5d} rows "
          f"in {plain_seconds:6.3f}s")
    print(f"  with provenance: {len(prov.rows):5d} rows "
          f"in {prov_seconds:6.3f}s")
    width = len(plain.schema)
    prov_tables = sorted({
        name.split("_")[1] for name in prov.schema.names[width:]})
    print(f"  provenance columns cover: {', '.join(prov_tables)}")
    if prov.rows:
        sample = prov.rows[0]
        print(f"  sample row: {sample[:width]}")
        print(f"   ... traced to {sample[width:]}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.0001)
    args = parser.parse_args()

    print(f"generating TPC-H at scale {args.scale} ...")
    db = load_tpch(scale=args.scale, seed=0)
    install_views(db)
    for table in db.catalog.names():
        print(f"  {table:10s} {len(db.catalog.get(table).rows):7d} rows")
    print()

    run(db, 4, "gen")    # correlated EXISTS: only Gen applies
    run(db, 11, "left")  # uncorrelated: Left
    run(db, 16, "move")  # uncorrelated: Move


if __name__ == "__main__":
    main()
