"""Comparing the rewrite strategies: plans, applicability and cost.

Run with::

    python examples/strategy_comparison.py [--size 500]

Reproduces, in miniature, the story of the paper's Section 4: on the
synthetic q1/q2 workload it times every applicable strategy, prints the
speedup matrix, and explains *why* each strategy lands where it does by
showing operator/row statistics from the executor.
"""

import argparse
import time

from repro import RewriteError
from repro.synthetic import SyntheticConfig, load_synthetic, q1_sql, q2_sql

STRATEGIES = ("gen", "left", "move", "unn")


def measure(db, sql: str, strategy: str):
    started = time.perf_counter()
    try:
        relation = db.provenance(sql, strategy=strategy)
    except RewriteError as exc:
        return None, str(exc).split(";")[0]
    elapsed = time.perf_counter() - started
    stats = db.last_stats
    detail = (f"{len(relation.rows)} prov rows, "
              f"{stats.hash_joins} hash / "
              f"{stats.nested_loop_joins} nested-loop joins, "
              f"{stats.sublink_executions} sublink execs")
    return elapsed, detail


def compare(db, name: str, sql: str) -> None:
    print(f"== {name} ==")
    print(" ", " ".join(sql.split()))
    timings = {}
    for strategy in STRATEGIES:
        elapsed, detail = measure(db, sql, strategy)
        if elapsed is None:
            print(f"  {strategy:5s}  not applicable: {detail}")
            continue
        timings[strategy] = elapsed
        print(f"  {strategy:5s}  {elapsed * 1000:9.2f} ms   ({detail})")
    if "gen" in timings:
        fastest = min(timings, key=timings.get)
        ratio = timings["gen"] / timings[fastest]
        print(f"  -> Gen is {ratio:,.0f}x slower than {fastest} "
              f"(the paper's Figures 7-9 shape)")
    print()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, default=500,
                        help="size of both synthetic relations")
    args = parser.parse_args()

    # provenance() is the uncached one-shot path — every call re-plans,
    # so the timings below include the rewrites we are comparing.
    db = load_synthetic(SyntheticConfig(args.size, args.size, seed=0))
    print(f"synthetic tables r1, r2 with {args.size} rows each\n")

    compare(db, "q1: equality ANY (all four strategies apply)",
            q1_sql(args.size, args.size, seed=0))
    compare(db, "q2: inequality ALL (Unn has no rewrite for this)",
            q2_sql(args.size, args.size, seed=0))

    print("strategy applicability summary:")
    print("  gen   every sublink type, incl. correlated & nested")
    print("  left  uncorrelated sublinks (left outer join on Jsub)")
    print("  move  uncorrelated; sublink values moved into a projection")
    print("  unn   uncorrelated EXISTS / equality-ANY in conjunctions")


if __name__ == "__main__":
    main()
