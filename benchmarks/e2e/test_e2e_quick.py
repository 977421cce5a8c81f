"""Tier-1 smoke test of the end-to-end benchmark: the ``--quick`` profile
runs every workload once and must emit every metric ``BENCHMARK.json``
names, exactly once and with its unit, with every checker passing.
No timing is asserted."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_quick_profile_emits_every_metric_once(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds",
         "0.5", "--json", str(out)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    last = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] >= 1

    wanted = {m["name"]: m["unit"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    assert len(wanted) == len(spec["end_to_end"]) + len(spec["per_layer"])
    assert all(NAME.match(name) for name in wanted)
    workloads = [w["name"] for w in spec["workloads"]]
    results = json.loads(out.read_text())["workloads"]
    assert sorted(results) == sorted(workloads)
    for workload in workloads:
        emitted = {key.split(".", 1)[1]: value["unit"]
                   for key, value in last["metrics"].items()
                   if key.split(".", 1)[0] == workload}
        assert emitted == wanted, workload
        result = results[workload]
        assert result["errors"] == [] and result["fail_ratio"] == 0
        # the table on standard output prints a measured metric once
        section = done.stdout.split(f"== {workload} ", 1)[1] \
            .split("\n== ", 1)[0]
        printed = [line.split()[0] for line in section.splitlines()[2:]
                   if line.split() and line.split()[0] in wanted]
        assert sorted(printed) == sorted(result["values"]), workload
        for key in ("nproc", "python", "commit", "seed", "seconds",
                    "loadavg_1m"):
            assert key in result["host"]
        assert result["samples"]["op_ms"] >= 1
        for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms",
                     "peak_rss_mb", "recover_s",
                     "disk_bytes_per_user_byte"):
            assert result["values"][name] > 0, (workload, name)
