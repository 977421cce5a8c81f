"""The repository's one benchmark: five workloads, end-to-end metrics
with regression bounds, per-layer numbers timed from outside.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
        [--trace 0|1] [--quick] [--json OUT] [--trace-out SPANS]

Without ``--workload`` every workload runs, each in a process of its
own.  ``--trace 0`` reports the end-to-end metrics only, ``--trace 1``
the per-layer metrics only, neither flag both.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when any result was wrong.

The names, units, directions and bounds of all metrics live in
``BENCHMARK.json`` at the repository root; ``README.md`` beside this
file says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from harness import (       # noqa: E402 - needs the path set-up above
    REPO_ROOT, FsyncRecorder, Tracer, WorkDir, host_block, median,
    peak_rss_mib, percentile, probe_durability, timed_s,
)

WORKLOADS = ("synth_sublink", "tpch_sublink", "adhoc_plan", "serve_mix",
             "commit_mix")
DEFAULT_SEED = 0
FLUSH_POLICY = 'durability="commit", group_commit_ms=0'


def load_spec() -> dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def make_workload(name: str) -> Any:
    if name == "serve_mix":
        from wl_serve import ServeMix
        return ServeMix()
    if name == "commit_mix":
        from wl_commit import CommitMix
        return CommitMix()
    from wl_read import AdhocPlan, SynthSublink, TpchSublink
    return {"synth_sublink": SynthSublink, "tpch_sublink": TpchSublink,
            "adhoc_plan": AdhocPlan}[name]()


# -- one workload -------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: int | None,
                 quick: bool, trace_out: str | None,
                 update_expected: bool = False) -> dict[str, Any]:
    """Set up, check, measure and tear down one workload."""
    # stock defaults only: no session knob arrives through the environment
    for knob in ("REPRO_PARALLEL", "REPRO_PARALLEL_THRESHOLD"):
        os.environ.pop(knob, None)
    workload = make_workload(name)
    if quick:
        workload.rounds = 3
    want_e2e = trace in (None, 0)
    want_layers = trace in (None, 1)
    recorder = workload.recorder = FsyncRecorder()
    recorder.install()
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    errors: list[str] = []
    with WorkDir() as work:
        try:
            # (1) set-up, inputs from the seed included, several times so
            # that its median is steady
            def set_up() -> None:
                workload.setup(seed, quick, work)
                workload.warm_up()

            setups = [timed_s(set_up)]
            if want_e2e and not quick:
                # at least 3 times, a fast set-up up to 9 times
                while len(setups) < 3 or \
                        (sum(setups) < 2.0 and len(setups) < 9):
                    workload.teardown()
                    setups.append(timed_s(set_up))
            samples["setup_s"] = len(setups)

            # (2) checked fixed-count phase, closed by crash copies, the
            # CHECKPOINT and a clean reopen
            checked = workload.checked_phase()
            errors += checked.errors
            errors += check_expected(name, seed, quick, checked.digests,
                                     update_expected)
            durability = probe_durability(
                recorder, work, workload.engines,
                workload.verify_recovered,
                copies=1 if quick else 7 if want_e2e else 3,
                budget_s=0.0 if quick or not want_e2e else 1.0)
            if not durability.recovered_ok:
                errors.append("crash copy lost acknowledged commits")
            samples["recover_s"] = durability.recover_samples
            written = workload.written_bytes()

            # the traced run comes before the window: its exact counts
            # then do not depend on how many ops the window fits
            if want_layers:
                tracer = Tracer()
                gc.collect()
                values.update(workload.traced_phase(tracer))
                if trace_out:
                    tracer.dump(trace_out)

            # (3) timed window, tracing off; garbage of the earlier
            # phases is collected now so that the window does not pay
            gc.collect()
            # ops [rounds, 2 * rounds) belong to the traced run
            window = workload.run_window(seconds, 2 * workload.rounds)
            ops = len(window.op_ms)
            samples["op_ms"] = ops
            rss = peak_rss_mib(workload.child_pid)

            values.update({
                "setup_s": median(setups),
                "ops_per_s": window.ops_per_s,
                "op_p50_ms": median(window.op_ms),
                "op_p90_ms": percentile(window.op_ms, 0.90),
                "peak_rss_mb": rss,
                "recover_s": durability.recover_s,
                "disk_bytes_per_user_byte":
                    (durability.wal_bytes + workload.wal_bytes_extra
                     + durability.snapshot_bytes) / written,
            })
            if want_layers:
                values.update(workload.window_metrics(window))
                values.update({
                    "storage.checkpoint_ms": durability.checkpoint_ms,
                    "storage.snapshot_bytes": durability.snapshot_bytes,
                    "storage.reopen_clean_ms": durability.reopen_clean_ms,
                    "storage.wal_replay_ms": max(
                        0.0, durability.recover_s * 1e3
                        - durability.reopen_clean_ms),
                })
        finally:
            workload.teardown()
            recorder.uninstall()

    attempted = checked.ops + ops
    failed = min(attempted, len(errors) + window.failed)
    if not durability.recovered_ok:
        failed = attempted      # nothing it acknowledged can be trusted
    return {
        "workload": name, "quick": quick,
        "host": host_block(seed, seconds),
        "flush_policy": FLUSH_POLICY,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": errors[:20],
        "samples": samples,
        "digests": checked.digests,
        "values": values,
        "modes": {"end_to_end": want_e2e, "per_layer": want_layers},
    }


def check_expected(name: str, seed: int, quick: bool,
                   digests: dict[str, list[int]],
                   update: bool = False) -> list[str]:
    """Row count and CRC per class against ``expected.json`` (which
    holds the default seed only); *update* rewrites the entry."""
    if seed != DEFAULT_SEED:
        return []
    profile = "quick" if quick else "full"
    with open(HERE / "expected.json") as fh:
        recorded = json.load(fh)
    if update:
        recorded[profile][name] = digests
        with open(HERE / "expected.json", "w") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    expected = recorded[profile].get(name)
    if expected is None:
        return [f"expected.json has no entry for {name}"]
    return [f"{name}/{cls}: rows/crc {digests.get(cls)} != expected {want}"
            for cls, want in expected.items() if digests.get(cls) != want]


def contract_metrics(spec: dict[str, Any], result: dict[str, Any]
                     ) -> dict[str, dict[str, Any]]:
    """Exactly the metrics ``BENCHMARK.json`` names for the modes that
    ran; a layer the workload does not touch reports 0."""
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        if result["modes"][section]:
            for metric in spec[section]:
                metrics[metric["name"]] = {
                    "value": result["values"].get(metric["name"], 0.0),
                    "unit": metric["unit"]}
    return metrics


def report(result: dict[str, Any], metrics: dict[str, dict[str, Any]]
           ) -> None:
    host = result["host"]
    print(f"== {result['workload']}  seed={host['seed']} "
          f"seconds={host['seconds']} nproc={host['nproc']} "
          f"python={host['python']} commit={host['commit']} "
          f"load={host['loadavg_1m']:.2f}")
    print(f"   flush policy: {result['flush_policy']}; samples "
          f"{result['samples']}")
    for name, metric in metrics.items():
        if name in result["values"]:    # layers it does not touch: 0
            print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    print(f"{'fail_ratio':42s} {result['fail_ratio']:14.4f} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for error in result["errors"]:
        print("WRONG:", error)


# -- all workloads ------------------------------------------------------------

def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a process of its own so that peak memory
    and garbage of one never reach the next."""
    combined: dict[str, Any] = {"workloads": {}}
    metrics: dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        if args.update_expected:
            command.append("--update-expected")
        if args.trace_out:
            command += ["--trace-out", f"{args.trace_out}.{name}"]
        part = f"{args.json}.{name}.part" if args.json else None
        if part:
            command += ["--json", part]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except ValueError:
            last = None
        if part and os.path.exists(part):
            with open(part) as fh:
                combined["workloads"][name] = json.load(fh)
            os.unlink(part)
        if last is None:
            correct = False
            print(f"{name}: exited with code {done.returncode} and no "
                  f"result")
            continue
        correct = correct and done.returncode == 0 and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for metric, value in last["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(combined, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# -- command line -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: "
                             "run_seconds of BENCHMARK.json; 1 with "
                             "--quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and few rounds, for the test")
    parser.add_argument("--update-expected", action="store_true",
                        help="record this run's row counts and CRCs in "
                             "expected.json (default seed only)")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--trace-out", metavar="SPANS")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401 - the program under test must be there
    except ImportError:
        print("src/repro is missing: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          args.trace, args.quick, args.trace_out,
                          args.update_expected)
    metrics = contract_metrics(spec, result)
    report(result, metrics)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
