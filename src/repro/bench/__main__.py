"""CLI for regenerating the paper's figures.

Examples::

    python -m repro.bench fig7                 # synthetic, vary |R1|
    python -m repro.bench fig6 --timeout 30    # TPC-H ladder
    python -m repro.bench all --instances 1    # everything, quick pass
    python -m repro.bench --engine             # pipelined vs vectorized grid
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
        "--json", metavar="PATH", default=None,
        help="with --engine or --parallel, also write the results as "
             "JSON to PATH (uploaded as a CI artifact)")
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

    if args.figure is None:
        parser.error("a figure, --engine or --parallel is required")
    figures = list(_RUNNERS) if args.figure == "all" else [args.figure]
    for figure in figures:
        print(f"== {figure} ==", flush=True)
        rows = _RUNNERS[figure](args)
        print(format_table(rows))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
