"""CLI for regenerating the paper's figures.

Examples::

    python -m repro.bench fig7                 # synthetic, vary |R1|
    python -m repro.bench fig6 --timeout 30    # TPC-H ladder
    python -m repro.bench all --instances 1    # everything, quick pass
    python -m repro.bench --smoke              # prepared-plan smoke check
"""

from __future__ import annotations

import argparse
import sys

from .figures import (
    format_table, run_fig6, run_fig7, run_fig8, run_fig9,
)

_RUNNERS = {
    "fig6": lambda args: run_fig6(
        instances=args.instances, timeout_s=args.timeout,
        seed=args.seed, verbose=args.verbose),
    "fig7": lambda args: run_fig7(
        instances=args.instances, timeout_s=args.timeout,
        seed=args.seed, verbose=args.verbose),
    "fig8": lambda args: run_fig8(
        instances=args.instances, timeout_s=args.timeout,
        seed=args.seed, verbose=args.verbose),
    "fig9": lambda args: run_fig9(
        instances=args.instances, timeout_s=args.timeout,
        seed=args.seed, verbose=args.verbose),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's experimental figures.")
    parser.add_argument(
        "figure", nargs="?", choices=[*_RUNNERS, "all"],
        help="which figure to regenerate")
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the smoke micro-benchmarks instead of a figure; exits "
             "non-zero if the cached-plan path is not at least 2x faster "
             "than uncached per-call conn.sql(), if the vectorized "
             "engine is not at least 2x faster than the pipelined one "
             "on the synthetic provenance workload, if the Unn plan "
             "stops hash-joining, if IndexNestedLoopJoin is not at "
             "least 2x faster than NestedLoopJoin on the indexed "
             "point-lookup join workload, if K sessions sharing one "
             "Engine do not deliver at least 2x the aggregate throughput "
             "of K sequential single-connection runs on the read-heavy "
             "mix, if reopening a checkpointed database from its "
             "snapshot is not at least 2x faster than rebuilding it "
             "from CSV + re-ANALYZE, if the parallel scan-aggregate "
             "workload never fans out, or (on hosts with at least 4 "
             "real cores) if 4 exchange workers are not at least 1.5x "
             "faster than the serial plan on it")
    parser.add_argument(
        "--engine", action="store_true",
        help="run the engine-comparison grid: the fig8/fig9 synthetic "
             "provenance workloads plus the uncorrelated TPC-H sublink "
             "templates, each prepared once and re-executed on the "
             "pipelined and vectorized engines; every "
             "cell cross-checks result parity and the committed "
             "BENCH_engine.json is regenerated from --json")
    parser.add_argument(
        "--engine-repeats", type=int, default=3, metavar="N",
        help="repeated executions per cell and engine for --engine "
             "(default 3, best of 3 rounds)")
    parser.add_argument(
        "--parallel", action="store_true",
        help="run the parallel-execution grid: the scan-aggregate "
             "workloads intra-query parallelism targets plus the "
             "fig8/fig9 and TPC-H provenance workloads, each measured "
             "serially and with 2 and 4 exchange workers; every cell "
             "cross-checks bit-identical results against the serial "
             "baseline and the committed BENCH_parallel.json is "
             "regenerated from --json (speedups are only meaningful "
             "on hosts with >= 2 real cores; the host CPU count is "
             "recorded in the JSON)")
    parser.add_argument(
        "--parallel-repeats", type=int, default=3, metavar="N",
        help="repeated executions per cell and worker setting for "
             "--parallel (default 3, best of 3 rounds)")
    parser.add_argument(
        "--mvcc", action="store_true",
        help="run the multi-writer commit grid: 1/2/4 writer threads "
             "doing autocommit INSERTs on a durability=commit engine, "
             "under the retired global commit lock and the per-table "
             "lock manager, over disjoint and contended table layouts; "
             "every cell cross-checks bit-identical tables across the "
             "two locking modes and the committed BENCH_mvcc.json is "
             "regenerated from --json (the >= 2x disjoint-speedup gate "
             "arms only on hosts with >= 4 real cores; the host CPU "
             "count is recorded in the JSON)")
    parser.add_argument(
        "--mvcc-commits", type=int, default=None, metavar="N",
        help="autocommit INSERTs per writer for --mvcc (default 50)")
    parser.add_argument(
        "--serve", action="store_true",
        help="run the network-serving load benchmark: boot the wire "
             "server on an ephemeral port, drive it with --clients "
             "concurrent repro.client connections, and report q/s plus "
             "p50/p99 latency; exits non-zero if served throughput "
             "drops below 0.5x the in-process baseline")
    parser.add_argument(
        "--clients", type=int, default=16, metavar="N",
        help="concurrent client connections for --serve (default 16)")
    parser.add_argument(
        "--duration", type=float, default=2.0, metavar="SECONDS",
        help="measured load window for --serve (default 2.0)")
    parser.add_argument(
        "--repeats", type=int, default=20, metavar="N",
        help="repeated executions for --smoke (default 20)")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="with --smoke, --serve or --mvcc, also write the results "
             "as JSON to PATH (uploaded as a CI artifact)")
    parser.add_argument(
        "--instances", type=int, default=3,
        metavar="N", help="random query instances per point (default 3)")
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-case budget, the paper's 6h cutoff rescaled (default 60)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="print each point as it is measured")
    args = parser.parse_args(argv)

    if args.engine:
        if args.engine_repeats < 1:
            parser.error("--engine-repeats must be >= 1")
        from .engines import format_engine_bench, run_engine_bench
        result = run_engine_bench(repeats=args.engine_repeats,
                                  seed=args.seed, verbose=args.verbose)
        print("== engine comparison ==")
        print(format_engine_bench(result))
        if args.json:
            import json
            with open(args.json, "w") as handle:
                json.dump(result.to_dict(), handle, indent=2)
            print(f"wrote {args.json}")
        if result.vectorized_speedup < 1.0:
            print("FAIL: vectorized engine slower than pipelined on "
                  "the grid geomean")
            return 1
        print("ok: the vectorized engine wins the grid geomean")
        return 0

    if args.parallel:
        if args.parallel_repeats < 1:
            parser.error("--parallel-repeats must be >= 1")
        from .parallel import format_parallel_bench, run_parallel_bench
        result = run_parallel_bench(repeats=args.parallel_repeats,
                                    seed=args.seed, verbose=args.verbose)
        print("== parallel execution ==")
        print(format_parallel_bench(result))
        if args.json:
            import json
            with open(args.json, "w") as handle:
                json.dump(result.to_dict(), handle, indent=2)
            print(f"wrote {args.json}")
        if result.exchanged_cells < 1:
            print("FAIL: no cell fanned out through a Gather")
            return 1
        print("ok: the exchange operators fan out and every parallel "
              "run matched its serial baseline bit for bit")
        return 0

    if args.mvcc:
        if args.mvcc_commits is not None and args.mvcc_commits < 1:
            parser.error("--mvcc-commits must be >= 1")
        from .mvcc import COMMITS_PER_WRITER, format_mvcc, run_mvcc_bench
        result = run_mvcc_bench(
            commits=args.mvcc_commits or COMMITS_PER_WRITER,
            verbose=args.verbose)
        print("== multi-writer commits ==")
        print(format_mvcc(result))
        if args.json:
            import json
            with open(args.json, "w") as handle:
                json.dump(result.to_dict(), handle, indent=2)
            print(f"wrote {args.json}")
        if not result.parity_ok:
            print("FAIL: table contents diverged between global and "
                  "per-table commit locking")
            return 1
        if result.cpus >= 4 and result.disjoint_speedup < 2.0:
            print("FAIL: disjoint multi-writer speedup below the 2x "
                  "floor on a >= 4-core host")
            return 1
        print("ok: per-table commit locking matches the global lock "
              "bit for bit" + (
                  " and clears the 2x disjoint-writer floor"
                  if result.cpus >= 4 else
                  " (single-core host: speedup reported, not gated)"))
        return 0

    if args.serve:
        if args.clients < 1:
            parser.error("--clients must be >= 1")
        if args.duration <= 0:
            parser.error("--duration must be > 0")
        from .serve import format_serve, run_serve_bench
        result = run_serve_bench(clients=args.clients,
                                 duration=args.duration)
        print("== serving load benchmark ==")
        print(format_serve(result))
        if args.json:
            import json
            with open(args.json, "w") as handle:
                json.dump(result.to_dict(), handle, indent=2)
            print(f"wrote {args.json}")
        if result.ratio < 0.5:
            print("FAIL: served throughput below 0.5x of the "
                  "in-process baseline")
            return 1
        print("ok: the network layer keeps at least half of "
              "in-process throughput")
        return 0

    if args.smoke:
        if args.repeats < 1:
            parser.error("--repeats must be >= 1")
        from .smoke import format_smoke, run_smoke
        result = run_smoke(repeats=args.repeats)
        print("== smoke benchmarks ==")
        print(format_smoke(result))
        if args.json:
            import json
            with open(args.json, "w") as handle:
                json.dump(result.to_dict(), handle, indent=2)
            print(f"wrote {args.json}")
        if result.cache_hits < args.repeats:
            print("FAIL: prepared executions missed the plan cache")
            return 1
        if result.speedup < 2.0:
            print("FAIL: cached-plan speedup below the 2x floor")
            return 1
        if result.engine_hash_joins < 1:
            print("FAIL: Unn-strategy equi-join no longer hash-joins")
            return 1
        if result.vectorized_speedup < 2.0:
            print("FAIL: vectorized-engine speedup over pipelined below "
                  "the 2x floor")
            return 1
        if result.index_join_speedup < 2.0:
            print("FAIL: IndexNestedLoopJoin speedup over NestedLoopJoin "
                  "below the 2x floor")
            return 1
        if result.concurrency_speedup < 2.0:
            print("FAIL: shared-Engine concurrent throughput below the "
                  "2x floor over sequential single-connection runs")
            return 1
        if result.reopen_speedup < 2.0:
            print("FAIL: snapshot reopen speedup over CSV rebuild + "
                  "re-ANALYZE below the 2x floor")
            return 1
        if result.parallel_fanouts < 1:
            print("FAIL: the parallel scan-aggregate workload never "
                  "fanned out through a Gather")
            return 1
        if result.parallel_cpus >= 4 and result.parallel_speedup < 1.5:
            print("FAIL: parallel scan-aggregate speedup below the "
                  "1.5x floor on a >= 4-core host")
            return 1
        print("ok: plan cache, the vectorized engine, index "
              "joins, the shared Engine, snapshot reopen and parallel "
              "execution deliver the expected speedups")
        return 0

    if args.figure is None:
        parser.error("a figure (or --smoke) is required")
    figures = list(_RUNNERS) if args.figure == "all" else [args.figure]
    for figure in figures:
        print(f"== {figure} ==", flush=True)
        rows = _RUNNERS[figure](args)
        print(format_table(rows))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
