"""Compare two sets of benchmark runs against the bounds in
``BENCHMARK.json``.

    python benchmarks/e2e/compare.py OLD.json [OLD2.json ...] -- NEW.json ...
    python benchmarks/e2e/compare.py OLD.json NEW.json

Each file is a ``--json`` output of ``run.py`` (all workloads or one).
Several files per side are runs of the same code, ideally one per seed:
the side's value is their median and its spread the distance between
their quartiles.  One row per workload and end-to-end metric, and one
for ``fail_ratio``: both values, the ratio NEW/OLD with its base, and

* ``ok`` — NEW is not worse than OLD by more than the metric's bound;
* ``regressed`` — it is; or NEW lacks a workload or metric OLD has; or
  ``fail_ratio`` went up at all;
* ``unresolved`` — the spread of either side is wider than the bound, so
  the runs cannot tell (needs at least two files on that side).

Exits non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per file."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        results = data["workloads"] if "workloads" in data \
            else {data["workload"]: data}
        for workload, result in results.items():
            measured = dict(result["values"],
                            fail_ratio=result["fail_ratio"])
            for metric, value in measured.items():
                values.setdefault(workload, {}).setdefault(
                    metric, []).append(value)
    return values


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def compare(old: dict[str, Any], new: dict[str, Any],
            spec: dict[str, Any]) -> list[tuple]:
    rows = []
    # fail_ratio is not in BENCHMARK.json (a metric there may never be
    # 0); its rule is "any increase", so its bound is 0 and it has no
    # spread to hide behind
    metrics = spec["end_to_end"] + [
        {"name": "fail_ratio", "unit": "ratio", "better": "lower",
         "bound": 0.0}]
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            before = old.get(workload, {}).get(name)
            after = new.get(workload, {}).get(name)
            if not before:
                continue        # nothing to compare with
            # a failure in any one run counts: fail_ratio takes the worst
            middle = max if name == "fail_ratio" else statistics.median
            base = middle(before)
            if not after:
                # a workload that crashed or a metric that vanished
                rows.append((workload, name, metric["unit"], base,
                             float("nan"), float("nan"), bound, 0.0,
                             "regressed"))
                continue
            value = middle(after)
            ratio = value / base if base \
                else 1.0 if not value else float("inf")
            if name == "fail_ratio":
                worse, wide = value - base, 0.0
            else:
                worse = ratio - 1 if metric["better"] == "lower" \
                    else 1 - ratio
                wide = max(spread(before), spread(after))
            if wide > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append((workload, name, metric["unit"], base, value,
                         ratio, bound, wide, verdict))
    return rows


def main(argv: list[str]) -> int:
    if "--" in argv:
        cut = argv.index("--")
        old_paths, new_paths = argv[:cut], argv[cut + 1:]
    elif len(argv) == 2:
        old_paths, new_paths = argv[:1], argv[1:]
    else:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(load(old_paths), load(new_paths), spec)
    print(f"{'workload':14s} {'metric':26s} {'old':>12s} {'new':>12s} "
          f"{'new/old':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for (workload, name, unit, base, value, ratio, bound, wide,
         verdict) in rows:
        print(f"{workload:14s} {name:26s} {base:12.4f} {value:12.4f} "
              f"{ratio:8.3f} {bound:6.2f} {wide:7.3f}  {verdict} "
              f"[{unit}, ratio to old = {base:.4g}]")
    regressed = [row for row in rows if row[-1] == "regressed"]
    unresolved = [row for row in rows if row[-1] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
